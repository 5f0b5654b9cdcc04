// Busy-wait to a wall-clock deadline, used by the NVM latency model
// (DESIGN.md §2). sleep()-based delays are far too coarse for the
// 100 ns–1 µs range of Optane access latencies, so a spin polls the
// invariant TSC (constant_tsc and nonstop_tsc) until its deadline, or
// steady_clock on a host without one. Modeled time is thus wall time: it
// does not stretch on a slow or loaded host, and a preemption inside a
// spin overlaps the modeled time instead of adding to it.
#pragma once

#include <cstdint>

namespace bdhtm {

/// Measure the TSC's cycles per ns against steady_clock and the cost of
/// one TSC read (idempotent and thread-safe; the first call takes ~2 ms).
/// spin_for_ns calibrates on first use.
void spin_calibrate();

/// Busy-wait until `ns` nanoseconds have passed; never returns early by
/// more than the calibration error. 0 is a no-op.
void spin_for_ns(std::uint32_t ns);

/// Monotonic wall-clock in nanoseconds.
std::uint64_t now_ns();

/// Bounded exponential backoff for spin-wait loops (e.g. the epoch
/// advancer waiting out in-flight operations). Starts with a short
/// calibrated spin, doubles up to `max_ns`, then yields the CPU on every
/// pause so a descheduled peer can run — essential on oversubscribed or
/// single-core machines, where raw yield loops burn the peer's timeslice.
class Backoff {
 public:
  explicit Backoff(std::uint32_t min_ns = 128, std::uint32_t max_ns = 32'768)
      : cur_(min_ns), max_(max_ns) {}
  void pause();
  void reset(std::uint32_t min_ns = 128) { cur_ = min_ns; }

 private:
  std::uint32_t cur_;
  std::uint32_t max_;
};

}  // namespace bdhtm
