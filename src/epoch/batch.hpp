// Batch-envelope protocol for the service layer (DESIGN.md §10).
//
// The Listing 1 recipe gives every operation its own beginOp/endOp
// registration. A batch executor instead opens ONE envelope and applies
// several structure operations inside it, amortizing the seq_cst
// announce traffic and the per-transaction overhead across the batch.
// A single operation is the one-op case (apply_one below), so each BDL
// structure implements Listing 1 once, in its apply_batch. Two rules
// make batching sound:
//
//   1. Every block an operation stamps inside the envelope carries the
//      ENVELOPE's epoch, so when the envelope closes, endOp() files the
//      accumulated tracking under exactly the epoch the stamps name.
//   2. An operation that observes a newer-epoch block (OldSeeNew) cannot
//      retry under the pinned stale epoch — that livelocks. It also must
//      not abortOp(): earlier operations in the envelope already
//      committed and abortOp() would discard THEIR tracking. Instead the
//      structure throws EnvelopeRestart; the executor closes the
//      envelope with endOp() (correct per rule 1: committed effects are
//      stamped with that epoch), reopens a fresh one, and re-applies
//      only the operations that had not yet committed.
//
// A structure's batch entry point (apply_batch) may apply a prefix
// irrevocably before the restart: the global-lock fallback path executes
// non-transactionally, so operations that finished before the stale one
// cannot be rolled back. EnvelopeRestart::applied reports that prefix;
// re-running it would double-apply (a remove would report "absent" for a
// key it removed). The HTM path always reports 0 — aborts roll back.
// For one op, applied is always 0 and the envelope it closes filed
// nothing, so the restart is Listing 1's abortOp + beginOp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "epoch/epoch_sys.hpp"

namespace bdhtm::epoch {

/// Thrown by a structure running under a caller-owned envelope when an
/// operation hits OldSeeNewException. `applied` = number of LEADING
/// operations of the failed apply_batch call that committed irrevocably
/// (their post-commit epilogue has already run); the executor must not
/// re-submit them.
struct EnvelopeRestart {
  std::size_t applied = 0;
};

/// One operation of a per-shard batch. Filled by the service layer,
/// executed by a structure's apply_batch under the caller's envelope.
struct BatchOp {
  enum class Kind : std::uint8_t { kGet, kPut, kRemove };
  Kind kind = Kind::kGet;
  std::uint64_t key = 0;
  std::uint64_t value = 0;  // put payload
  // Results: get -> ok = found, out_value = value; put -> ok = newly
  // inserted; remove -> ok = this call removed the key.
  bool ok = false;
  std::uint64_t out_value = 0;
};

/// Run `apply(first, count)` under beginOp/endOp envelopes, restarting
/// on EnvelopeRestart with the not-yet-applied suffix until every op is
/// applied. Returns the epoch of the final envelope — every operation of
/// the batch is durable once this epoch is (ops applied in earlier,
/// staler envelopes become durable no later). The caller must not
/// already hold an envelope.
template <typename ApplyFn>
std::uint64_t run_envelope(EpochSys& es, std::size_t n, ApplyFn&& apply) {
  std::size_t done = 0;
  std::uint64_t e = es.beginOp();
  for (;;) {
    try {
      apply(done, n - done);
      break;
    } catch (const EnvelopeRestart& er) {
      done += er.applied;
      // Close over the committed prefix (its stamps name this epoch),
      // then re-register: beginOp returns a fresh, non-stale epoch.
      es.endOp();
      e = es.beginOp();
    }
  }
  es.endOp();
  return e;
}

/// Run one operation as a one-op batch under its own envelope — the
/// single-op insert/remove/find of every BDL structure is this call, so
/// Listing 1 is written once, in the structure's apply_batch.
template <typename Structure>
BatchOp apply_one(EpochSys& es, Structure& s, BatchOp op) {
  run_envelope(es, 1,
               [&](std::size_t, std::size_t) { s.apply_batch(&op, 1); });
  return op;
}

}  // namespace bdhtm::epoch
