#include "obs/trace.hpp"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>

#include "common/defs.hpp"
#include "common/env.hpp"
#include "common/spin.hpp"
#include "common/threading.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace bdhtm::obs {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_emitted{0};

std::size_t round_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::size_t& capacity_slot() {
  static std::size_t cap = round_pow2(static_cast<std::size_t>(
      env_int("BDHTM_TRACE_EVENTS", 4096)));
  return cap;
}

// One ring per dense thread id. Single writer (the owning thread);
// readers run only after the writers quiesced (thread join provides the
// happens-before), so the slots themselves are plain memory and only the
// head index is atomic.
struct Ring {
  std::atomic<std::uint64_t> head{0};
  std::size_t cap = 0;                // fixed at first emit
  std::unique_ptr<TraceEvent[]> buf;  // lazily allocated, never freed
};
Padded<Ring> g_rings[kMaxThreads];

void emit(TraceEventType t, std::uint64_t ts_ns, std::uint64_t dur_ns,
          std::uint64_t a, std::uint64_t b, std::uint32_t c = 0) {
  Ring& r = g_rings[thread_id()].value;
  if (r.buf == nullptr) {
    // One-time per-thread allocation, off any loop worth measuring.
    r.cap = capacity_slot();
    r.buf = std::make_unique<TraceEvent[]>(r.cap);
  }
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  r.buf[h & (r.cap - 1)] = TraceEvent{ts_ns, dur_ns, a, b, t, c};
  r.head.store(h + 1, std::memory_order_release);
  g_emitted.fetch_add(1, std::memory_order_relaxed);
}

struct TypeInfo {
  const char* name;
  const char* cat;
  const char* arg_a;
  const char* arg_b;
  bool complete;  // ph "X" (ts+dur) vs instant "i"
  const char* arg_c = "";
};
constexpr TypeInfo kTypes[static_cast<int>(TraceEventType::kNumTypes)] = {
    {"epoch.advance", "epoch", "epoch", "ranges", true, "cause"},
    {"epoch.flush", "epoch", "runs", "lines", true},
    {"flusher.batch", "epoch", "part", "runs", true},
    {"watchdog.trip", "epoch", "deadline_ns", "stall_ns", false},
    {"inline.advance", "epoch", "epoch", "", false},
    {"fault.trip", "nvm", "event_class", "count", false},
    {"crash", "nvm", "", "", false},
    {"recovery.scan", "epoch", "scanned", "quarantined", true},
    {"svc.batch", "svc", "shard", "ops", true},
    {"svc.shed", "svc", "client", "capacity", false},
    {"ipc.session", "ipc", "session", "pid", false},
    {"ipc.reclaim", "ipc", "session", "shed", true},
    {"req.queue", "req", "span", "slot", true},
    {"req.exec", "req", "span", "shard", true},
    {"req.epoch", "req", "span", "epoch", false},
    {"req.ack", "req", "span", "status", false},
    {"req.durable", "req", "span", "release_epoch", true},
};

// fork() safety: the child inherits byte copies of every parent ring
// (and of g_emitted), so a child that later exports would replay the
// parent's events under its own pid — the merged Perfetto trace would
// show each parent event twice. An atfork child handler resets the ring
// heads and the emitted count; the lazily-allocated buffers stay mapped
// (the child is single-threaded at that point, so plain stores are
// fine) and get overwritten on the child's first emits.
void atfork_child_reset() {
  for (int t = 0; t < kMaxThreads; ++t) {
    g_rings[t].value.head.store(0, std::memory_order_relaxed);
  }
  g_emitted.store(0, std::memory_order_relaxed);
}

[[maybe_unused]] const bool g_atfork_registered = [] {
  (void)pthread_atfork(nullptr, nullptr, &atfork_child_reset);
  return true;
}();

}  // namespace

bool tracing_enabled() { return g_enabled.load(std::memory_order_relaxed); }
void set_tracing(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

void set_trace_capacity(std::size_t events) {
  capacity_slot() = round_pow2(events < 2 ? 2 : events);
}
std::size_t trace_capacity() { return capacity_slot(); }

void trace_instant(TraceEventType t, std::uint64_t a, std::uint64_t b) {
  // no-obs-in-tx mirror fires even with tracing off: the checked lane
  // traps the misuse regardless of whether a trace was being collected.
  if (checked::enabled() && detail::in_tx_now()) {
    checked::violation(checked::Rule::kNoObsInTx, "obs::trace_instant");
  }
  if (!tracing_enabled()) return;
  emit(t, now_ns(), 0, a, b);
}

void trace_complete(TraceEventType t, std::uint64_t start_ns, std::uint64_t a,
                    std::uint64_t b, std::uint32_t c) {
  if (checked::enabled() && detail::in_tx_now()) {
    checked::violation(checked::Rule::kNoObsInTx, "obs::trace_complete");
  }
  if (!tracing_enabled()) return;
  const std::uint64_t now = now_ns();
  emit(t, start_ns, now >= start_ns ? now - start_ns : 0, a, b, c);
}

std::uint64_t trace_events_emitted() {
  return g_emitted.load(std::memory_order_relaxed);
}

std::uint64_t trace_events_captured() {
  std::uint64_t n = 0;
  for (int t = 0; t < kMaxThreads; ++t) {
    const Ring& r = g_rings[t].value;
    const std::uint64_t h = r.head.load(std::memory_order_acquire);
    n += r.buf != nullptr ? std::min<std::uint64_t>(h, r.cap) : 0;
  }
  return n;
}

void reset_traces() {
  for (int t = 0; t < kMaxThreads; ++t) {
    g_rings[t].value.head.store(0, std::memory_order_relaxed);
  }
  g_emitted.store(0, std::memory_order_relaxed);
}

void for_each_trace_event(void (*fn)(void*, int, const TraceEvent&),
                          void* ctx) {
  for (int t = 0; t < kMaxThreads; ++t) {
    const Ring& r = g_rings[t].value;
    if (r.buf == nullptr) continue;
    const std::uint64_t h = r.head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, r.cap);
    for (std::uint64_t i = h - n; i < h; ++i) {
      fn(ctx, t, r.buf[i & (r.cap - 1)]);
    }
  }
}

std::string chrome_trace_json() {
  JsonWriter w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ns");
  w.key("traceEvents");
  w.begin_array();
  struct Ctx {
    JsonWriter* w;
  } c{&w};
  for_each_trace_event(
      [](void* ctxp, int tid, const TraceEvent& ev) {
        JsonWriter& w = *static_cast<Ctx*>(ctxp)->w;
        const TypeInfo& ti = kTypes[static_cast<int>(ev.type)];
        w.begin_object();
        w.key("name");
        w.value(ti.name);
        w.key("cat");
        w.value(ti.cat);
        w.key("ph");
        w.value(ti.complete ? "X" : "i");
        w.key("ts");
        // Fixed 3 decimals (ns resolution): %.6g would truncate a
        // CLOCK_MONOTONIC-scale ts to 100 us steps, breaking cross-
        // process span alignment against the client-side recorder.
        w.value_fixed(static_cast<double>(ev.ts_ns) / 1e3, 3);
        if (ti.complete) {
          w.key("dur");
          w.value_fixed(static_cast<double>(ev.dur_ns) / 1e3, 3);
        } else {
          w.key("s");
          w.value("t");
        }
        w.key("pid");
        w.value(std::uint64_t{1});
        w.key("tid");
        w.value(static_cast<std::uint64_t>(tid));
        w.key("args");
        w.begin_object();
        if (ti.arg_a[0] != '\0') {
          w.key(ti.arg_a);
          w.value(ev.a);
        }
        if (ti.arg_b[0] != '\0') {
          w.key(ti.arg_b);
          w.value(ev.b);
        }
        if (ti.arg_c[0] != '\0') {
          w.key(ti.arg_c);
          w.value(std::uint64_t{ev.c});
        }
        w.end_object();
        w.end_object();
      },
      &c);
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace bdhtm::obs
