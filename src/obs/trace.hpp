// Observability: per-thread event tracing (DESIGN.md "Observability").
//
// Each registered thread owns a fixed-size ring of trace events
// (overwrite-oldest, single writer, no locks, no allocation after the
// ring's one-time lazy creation). Subsystems emit:
//   - epoch transitions and flush phases  (epoch/epoch_sys.cpp)
//   - flusher-pool batches                (epoch write-back pipeline)
//   - watchdog trips and inline advances  (degraded-mode forensics)
//   - fault-plan trips and crashes        (nvm/device.cpp)
//   - recovery scans                      (EpochSys::recover)
//
// Tracing is off by default: emit is one relaxed atomic load + branch.
// When enabled (bench --trace-out, tests), the rings are exported as
// Chrome trace_event JSON (the "JSON Array Format" both chrome://tracing
// and https://ui.perfetto.dev load directly): complete events carry ts +
// dur, instants mark points. Export reads other threads' rings, so the
// exporter must be quiesced relative to emitters — benches export after
// every worker and advancer joined; the join provides the ordering.
#pragma once

#include <cstdint>
#include <string>

namespace bdhtm::obs {

enum class TraceEventType : std::uint16_t {
  kEpochAdvance = 0,  // complete; a=epoch published, b=ranges flushed,
                      //   c=epoch::AdvanceCause (0 explicit, 1 timer,
                      //   2 demand, 3 watchdog rescue)
  kEpochFlush,        // complete; a=line runs, b=lines written
  kFlusherBatch,      // complete; a=flusher part index, b=runs handled
  kWatchdogTrip,      // instant;  a=deadline_ns, b=ns since last transition
  kInlineAdvance,     // instant;  a=epoch published by the rescuing worker
  kFaultTrip,         // instant;  a=FaultEvent class, b=trigger count
  kCrash,             // instant;  simulate_crash()
  kRecovery,          // complete; a=blocks scanned, b=blocks quarantined
  kSvcBatch,          // complete; a=shard index, b=ops in the batch
  kSvcShed,           // instant;  a=client index, b=queue capacity
  kIpcSession,        // instant;  a=session index, b=client pid
  kIpcReclaim,        // complete; a=session index, b=slots shed
  // ---- Request spans (ISSUE 8): per-request lifecycle stages. Every
  // event carries the request's span id in `a` so a merged client+server
  // Perfetto trace ties one request's stages together end-to-end. The
  // client-side stages (enqueue, futex wake) are emitted by the
  // dependency-free recorder in src/ipc/span.hpp, not through these
  // rings; both sides stamp the same host-wide CLOCK_MONOTONIC.
  kReqQueue,          // complete; a=span id, b=arena slot — client
                      //   submit stamp -> server dequeue (transport +
                      //   doorbell + svc queue wait)
  kReqExec,           // complete; a=span id, b=shard — the batched
                      //   envelope execution the request rode in
                      //   (HTM attempts + fallback, shared per batch)
  kReqEpoch,          // instant;  a=span id, b=complete_epoch stamped
  kReqAck,            // instant;  a=span id, b=svc::Status — the reply
                      //   became visible to the client (buffered ack)
  kReqDurable,        // complete; a=span id, b=release epoch — envelope
                      //   commit -> durable release (epoch wait)
  kEpochDrain,        // complete; a=epoch drained, b=update operations
                      //   the transition waited for (step 2)
  kNumTypes,
};

struct TraceEvent {
  std::uint64_t ts_ns;   // monotonic (common/spin.hpp now_ns clock)
  std::uint64_t dur_ns;  // 0 for instant events
  std::uint64_t a, b;    // per-type args, see TraceEventType
  TraceEventType type;
  std::uint32_t c;       // optional third arg (fits the padding)
};

/// Global switch; relaxed. Enable before the traced workload.
bool tracing_enabled();
void set_tracing(bool on);

/// Ring capacity per thread (power of two, default 4096, overridable via
/// BDHTM_TRACE_EVENTS). Takes effect for rings not yet created; tests
/// call it before emitting anything.
void set_trace_capacity(std::size_t events);
std::size_t trace_capacity();

/// Emit a point event at now.
void trace_instant(TraceEventType t, std::uint64_t a = 0, std::uint64_t b = 0);

/// Emit a spanned event that started at start_ns (caller sampled now_ns()
/// before the work; duration is computed here).
void trace_complete(TraceEventType t, std::uint64_t start_ns,
                    std::uint64_t a = 0, std::uint64_t b = 0,
                    std::uint32_t c = 0);

/// Events emitted since process start / last reset (including ones the
/// rings have since overwritten).
std::uint64_t trace_events_emitted();
/// Events currently retained across all rings.
std::uint64_t trace_events_captured();

/// Drop all retained events and zero the emitted count. Quiesced only.
void reset_traces();

/// Visit every retained event, oldest-first per thread. Quiesced only.
void for_each_trace_event(
    void (*fn)(void* ctx, int tid, const TraceEvent& ev), void* ctx);

/// Serialize the rings as Chrome trace_event JSON (object form with a
/// "traceEvents" array — Perfetto and chrome://tracing both accept it).
std::string chrome_trace_json();

/// chrome_trace_json() to a file; returns false on I/O error.
bool write_chrome_trace(const std::string& path);

}  // namespace bdhtm::obs
