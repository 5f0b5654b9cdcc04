#include "htm/fallback.hpp"

#include "common/checked.hpp"
#include "common/spin.hpp"

namespace bdhtm::htm {

namespace {

int clamp_stripes(int stripes) {
  if (stripes <= 1) return 1;
  const int capped = stripes > FallbackPolicy::kMaxStripes
                         ? FallbackPolicy::kMaxStripes
                         : stripes;
  return 1 << (31 - std::countl_zero(static_cast<unsigned>(capped)));
}

bool word_locked(const std::uint64_t& word) { return nontx_load(&word) != 0; }

}  // namespace

FallbackPolicy::FallbackPolicy(int stripes)
    : count_(clamp_stripes(stripes)),
      slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(count_))),
      held_(std::make_unique<Padded<StripeMask>[]>(kMaxThreads)) {}

void FallbackPolicy::subscribe(Txn& tx, StripeMask mask) {
  assert(mask != 0 && (mask & ~all()) == 0);
  if (checked::enabled() && detail::txn_tracked_access_count() != 0) {
    // The subscription must precede every tracked access: an access made
    // before subscribing is not protected against a fallback holder that
    // acquired between the access and the (late) subscription.
    checked::violation(checked::Rule::kFallbackStripeOrder,
                       "htm::FallbackPolicy::subscribe");
  }
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    if (tx.load(&slots_[std::countr_zero(m)].word) != 0) tx.abort(code());
  }
}

bool FallbackPolicy::any_locked(StripeMask mask) const {
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    if (word_locked(slots_[std::countr_zero(m)].word)) return true;
  }
  return false;
}

bool FallbackPolicy::wait_until_free(StripeMask mask,
                                     std::uint64_t deadline_ns) const {
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    // Bounded exponential backoff: a convoy of waiters hammering the lock
    // word only delays the holder, whose stores contend the same line.
    Backoff backoff;
    while (word_locked(slots_[std::countr_zero(m)].word)) {
      if (now_ns() >= deadline_ns) return false;
      backoff.pause();
    }
  }
  return true;
}

void FallbackPolicy::acquire(StripeMask mask) {
  assert(mask != 0 && (mask & ~all()) == 0);
  const std::uint64_t t0 = now_ns();
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    acquire_stripe(std::countr_zero(m));
  }
  note_fallback();
  note_fallback_stripes(std::popcount(mask), now_ns() - t0);
}

void FallbackPolicy::release(StripeMask mask) {
  for (StripeMask m = mask; m != 0; m &= m - 1) {
    release_stripe(std::countr_zero(m));
  }
}

void FallbackPolicy::acquire_stripe(int idx) {
  assert(idx >= 0 && idx < count_);
  StripeMask& held = held_[thread_id()].value;
  if (checked::enabled() && (held >> idx) != 0) {
    // Holding any stripe >= idx while acquiring idx breaks the canonical
    // ascending order — with another thread doing the same in the
    // opposite order, that is the textbook deadlock cycle.
    checked::violation(checked::Rule::kFallbackStripeOrder,
                       "htm::FallbackPolicy::acquire_stripe");
  }
  if (checked::enabled() && in_txn()) {
    // Taking the fallback lock inside a transaction is the classic
    // lock-elision deadlock: the acquisition conflicts with every
    // subscribed transaction — including this one. Transactions
    // subscribe(); only the non-transactional fallback path acquires.
    checked::violation(checked::Rule::kIrrevocableInTx,
                       "htm::FallbackPolicy::acquire");
  }
  // The CAS goes through the stripe table, so it aborts every
  // transaction subscribed to this word.
  std::uint64_t& word = slots_[idx].word;
  const auto addr = reinterpret_cast<std::uintptr_t>(&word);
  while (!detail::nontx_cas_word(addr, 0, 1)) {
    while (__atomic_load_n(&word, __ATOMIC_RELAXED) != 0) {
    }
  }
  held |= StripeMask{1} << idx;
}

void FallbackPolicy::release_stripe(int idx) {
  assert(idx >= 0 && idx < count_);
  detail::nontx_store_word(reinterpret_cast<std::uintptr_t>(&slots_[idx].word),
                           0);
  held_[thread_id()].value &= ~(StripeMask{1} << idx);
}

}  // namespace bdhtm::htm
