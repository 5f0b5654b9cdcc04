// Elided-lock fallback for best-effort HTM (paper §2.2; DESIGN.md §11).
//
// The paper's §2.2 fallback is one global lock per structure: every fast
// path subscribes to the single lock word, so one retry-exhausted
// transaction's fallback aborts ALL concurrent transactions and
// serializes the shard. A FallbackPolicy is the only elided-lock type in
// the tree; it generalizes the protocol to an array of lock words
// ("stripes"):
//
//   - the fast path transactionally subscribes only to the stripes
//     covering its footprint (one bit per stripe in a StripeMask), and
//   - the fallback acquires exactly those stripes, always in ascending
//     stripe-index order (the canonical order; since every holder sorts
//     the same way, no cycle of waiters can form — deadlock freedom by
//     construction, the same argument as the engine's commit-time
//     address-ordered stripe locking).
//
// A policy with a single stripe IS the classic global lock: every
// footprint maps to the one lock word, and its counters match the
// paper's protocol bit for bit. That makes stripes=1 the safe default
// (Spash, HTM-vEB, HTM-MwCAS, examples) and the striped policies a pure
// opt-in (svc::ShardOptions::fallback_stripes). The lock words themselves
// are private to fallback.cpp: callers subscribe, wait, acquire and
// release through footprints only.
//
// Footprint rules are the structure's obligation (see DESIGN.md §11 for
// the per-structure arguments): two operations whose data footprints can
// overlap must have overlapping stripe masks, and structural operations
// that rewrite shared state (e.g. BD-Spash directory splits) take all().
//
// BDHTM_CHECKED builds enforce the protocol obligations at runtime:
//   - acquiring a stripe inside a transaction (rule "irrevocable-in-tx":
//     the acquisition conflicts with every subscribed transaction,
//     including the caller's own);
//   - acquire_stripe(i) while holding any stripe j >= i (out of order),
//     and subscribe() after the transaction already tracked an access
//     (the subscription must cover the footprint BEFORE the footprint is
//     touched, or a fallback holder could slip between access and
//     subscription) — rule "fallback-stripe-order", mirrored statically
//     by txlint.
#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <memory>

#include "common/defs.hpp"
#include "common/threading.hpp"
#include "htm/engine.hpp"

namespace bdhtm::htm {

/// Footprint over a policy's stripes: bit i = stripe i. Policies hold at
/// most 64 stripes so any footprint is one word.
using StripeMask = std::uint64_t;

class FallbackPolicy {
 public:
  static constexpr int kMaxStripes = 64;

  /// `stripes` <= 1 selects the global policy (one lock word — the
  /// classic protocol). Larger values are rounded down to a power of two
  /// and clamped to kMaxStripes so stripe_of_hash is a mask operation.
  explicit FallbackPolicy(int stripes = 1);

  int stripe_count() const { return count_; }
  bool striped() const { return count_ > 1; }

  /// Explicit-abort code raised by subscriptions, split per policy so the
  /// abort taxonomy attributes contention to the policy that caused it.
  std::uint8_t code() const {
    return striped() ? kStripedLockSubscriptionCode : kLockSubscriptionCode;
  }

  /// Every stripe — the footprint of structural operations.
  StripeMask all() const {
    return count_ >= kMaxStripes ? ~StripeMask{0}
                                 : (StripeMask{1} << count_) - 1;
  }

  /// Stripe of a PRE-MIXED hash (callers mix raw keys/addresses with
  /// splitmix64 first; the policy only masks low bits).
  int stripe_of_hash(std::uint64_t h) const {
    return static_cast<int>(h & static_cast<std::uint64_t>(count_ - 1));
  }
  StripeMask mask_of_hash(std::uint64_t h) const {
    return StripeMask{1} << stripe_of_hash(h);
  }

  /// Transactional subscription to every stripe in `mask`; aborts with
  /// code() if any is held. Must be the transaction's FIRST tracked
  /// access (checked rule fallback-stripe-order).
  void subscribe(Txn& tx, StripeMask mask);

  bool any_locked(StripeMask mask) const;

  /// Spin until every stripe in `mask` has been observed free once
  /// (paper Listing 1 line 43, per stripe), or until now_ns() passes
  /// `deadline_ns`. Returns false on timeout — elide()'s total-wait
  /// deadline then takes the fallback instead of spinning behind a
  /// holder the OS may have descheduled.
  bool wait_until_free(StripeMask mask, std::uint64_t deadline_ns) const;

  /// Fallback acquisition of every stripe in `mask` in canonical
  /// ascending order. Counts ONE fallback acquisition
  /// (htm.fallback.total) regardless of |mask|, plus
  /// htm.fallback.stripes_acquired and the htm.fallback.stripe_wait_ns
  /// histogram.
  void acquire(StripeMask mask);
  void release(StripeMask mask);

  /// Single-stripe entry points (acquire()/release() are loops over
  /// these). Checked builds trap acquisition out of canonical order.
  /// acquire_stripe does NOT count a fallback acquisition; callers
  /// composing custom footprints go through acquire().
  void acquire_stripe(int idx);
  void release_stripe(int idx);

  /// Stripes the calling thread currently holds via the fallback path.
  StripeMask held_by_this_thread() const {
    return held_[thread_id()].value;
  }

 private:
  // One elided lock word per stripe, each on its own cache line: the
  // engine's conflict detection is line-granular, so co-located lock
  // words would make subscribing stripe i conflict with acquiring
  // stripe j — false serialization, exactly what striping exists to kill.
  // Accessed only through the engine's stripe-table helpers, so that a
  // fallback acquisition conflicts with subscribed transactions.
  struct alignas(kCacheLineSize) Slot {
    std::uint64_t word = 0;
  };

  int count_;
  std::unique_ptr<Slot[]> slots_;
  // Per-thread held set, for the canonical-order check and for tests;
  // each thread touches only its own padded slot.
  std::unique_ptr<Padded<StripeMask>[]> held_;
};

/// RAII fallback guard over a stripe footprint (Core Guidelines CP.20:
/// never bare acquire()/release()).
class PolicyGuard {
 public:
  PolicyGuard(FallbackPolicy& p, StripeMask mask) : p_(p), mask_(mask) {
    p_.acquire(mask_);
  }
  ~PolicyGuard() { p_.release(mask_); }
  PolicyGuard(const PolicyGuard&) = delete;
  PolicyGuard& operator=(const PolicyGuard&) = delete;

 private:
  FallbackPolicy& p_;
  StripeMask mask_;
};

}  // namespace bdhtm::htm
