#include "common/spin.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#define BDHTM_HAVE_RDTSC 1
#endif

namespace bdhtm {
namespace {

// TSC cycles per nanosecond, 0 without an invariant TSC (steady_clock
// deadlines then), and the cost of one rdtsc read in cycles: a spin ends
// when a read returns at or past its deadline, so the deadline is set
// one read early. Both are written once, under g_calibrated, before
// g_ready is set.
std::once_flag g_calibrated;
std::atomic<bool> g_ready{false};
double g_cycles_per_ns = 0.0;
std::uint64_t g_read_cycles = 0;

/// The TSC ticks at a constant rate in every P-state (constant_tsc) and
/// in deep C-states (nonstop_tsc), so it measures wall time.
bool invariant_tsc() {
#ifdef BDHTM_HAVE_RDTSC
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    line += ' ';
    return line.find(" constant_tsc ") != std::string::npos &&
           line.find(" nonstop_tsc ") != std::string::npos;
  }
#endif
  return false;
}

void calibrate() {
  if (!invariant_tsc()) return;
#ifdef BDHTM_HAVE_RDTSC
  // Cycles per ns over a 2 ms steady_clock window.
  const std::uint64_t t0 = now_ns();
  const std::uint64_t c0 = __rdtsc();
  std::uint64_t t1 = t0;
  while (t1 - t0 < 2'000'000) t1 = now_ns();
  const std::uint64_t c1 = __rdtsc();
  g_cycles_per_ns = static_cast<double>(c1 - c0) / static_cast<double>(t1 - t0);
  // The cheapest of many back-to-back reads is one read's cost.
  std::uint64_t best = ~std::uint64_t{0};
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = __rdtsc();
    const std::uint64_t b = __rdtsc();
    best = std::min(best, b - a);
  }
  g_read_cycles = best;
#endif
}

}  // namespace

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void spin_calibrate() {
  std::call_once(g_calibrated, [] {
    calibrate();
    g_ready.store(true, std::memory_order_release);
  });
}

void spin_for_ns(std::uint32_t ns) {
  if (ns == 0) return;
  if (!g_ready.load(std::memory_order_acquire)) spin_calibrate();
#ifdef BDHTM_HAVE_RDTSC
  if (g_cycles_per_ns > 0.0) {
    const std::uint64_t start = __rdtsc();
    const auto cycles = static_cast<std::uint64_t>(g_cycles_per_ns * ns);
    const std::uint64_t deadline =
        start + (cycles > g_read_cycles ? cycles - g_read_cycles : 0);
    while (__rdtsc() < deadline) {
    }
    return;
  }
#endif
  const std::uint64_t deadline = now_ns() + ns;
  while (now_ns() < deadline) {
  }
}

void Backoff::pause() {
  if (cur_ >= max_) {
    std::this_thread::yield();
    return;
  }
  spin_for_ns(cur_);
  cur_ *= 2;
}

}  // namespace bdhtm
