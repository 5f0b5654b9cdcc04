#include "sync/mwcas.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "sync/rdcss.hpp"

namespace bdhtm::sync {
namespace {

MwCAS::Descriptor* desc_of(std::uint64_t v) {
  return reinterpret_cast<MwCAS::Descriptor*>(v & ~kDescTag);
}
std::uint64_t tagged(MwCAS::Descriptor* d) {
  return reinterpret_cast<std::uint64_t>(d) | kDescTag;
}

// Per-thread descriptor pools, recycled through EBR. A pool owns the
// descriptors on its free list and frees them when its thread exits.
struct DescPool {
  std::vector<MwCAS::Descriptor*> free_list;
  ~DescPool() {
    for (MwCAS::Descriptor* d : free_list) delete d;
  }
};
thread_local DescPool t_pool;

}  // namespace

EbrDomain& mwcas_ebr() {
  // Never destroyed, so the descriptors its limbo lists still hold at
  // exit stay reachable: a thread's pool frees only its free list.
  static EbrDomain* const domain = new EbrDomain;
  return *domain;
}

MwCAS::Descriptor* MwCAS::acquire_descriptor() {
  if (!t_pool.free_list.empty()) {
    Descriptor* d = t_pool.free_list.back();
    t_pool.free_list.pop_back();
    d->status.store(kUndecided, std::memory_order_relaxed);
    return d;
  }
  return new Descriptor();
}

void MwCAS::retire_descriptor(Descriptor* d) {
  mwcas_ebr().retire(
      d,
      [](void* p, void*) {
        t_pool.free_list.push_back(static_cast<Descriptor*>(p));
      },
      nullptr);
}

void MwCAS::help(Descriptor* d) {
  // Phase 1: conditional installs via RDCSS — a descriptor pointer can
  // only enter a word while the status is still Undecided, which is what
  // makes the decision CAS the unique linearization point even under
  // value recurrence (ABA).
  std::uint64_t status = d->status.load(std::memory_order_acquire);
  if (status == kUndecided) {
    std::uint64_t decided = kSucceeded;
    for (std::uint32_t i = 0; i < d->count && decided == kSucceeded; ++i) {
      Word& w = d->words[i];
      for (;;) {
        RdcssDesc* r = rdcss_acquire();
        r->addr = w.addr;
        r->expected = w.expected;
        r->install_value = tagged(d);
        r->status_addr = &d->status;
        r->status_expected = kUndecided;
        r->status_mask = ~std::uint64_t{0};
        const std::uint64_t old = rdcss(r);
        if (old == w.expected) break;  // installed (or already decided)
        if (old == tagged(d)) break;   // installed by a helper
        if (is_descriptor(old)) {
          help(desc_of(old));  // clear the other operation, retry
          continue;
        }
        decided = kFailed;  // genuine value mismatch
        break;
      }
      if (d->status.load(std::memory_order_acquire) != kUndecided) break;
    }
    std::uint64_t expected = kUndecided;
    d->status.compare_exchange_strong(expected, decided,
                                      std::memory_order_acq_rel);
  }

  // Phase 3: detach the descriptor from every word.
  const std::uint64_t final_status = d->status.load(std::memory_order_acquire);
  assert(final_status != kUndecided);
  for (std::uint32_t i = 0; i < d->count; ++i) {
    Word& w = d->words[i];
    const std::uint64_t out =
        final_status == kSucceeded ? w.desired : w.expected;
    std::uint64_t expected = tagged(d);
    w.addr->compare_exchange_strong(expected, out,
                                    std::memory_order_acq_rel);
  }
}

bool MwCAS::execute(Word* words, int n) {
  assert(n >= 1 && n <= kMwCASMaxWords);
#ifndef NDEBUG
  for (int i = 0; i < n; ++i) {
    assert((words[i].expected & 3) == 0 && (words[i].desired & 3) == 0 &&
           "MwCAS values must keep bits 0-1 clear (descriptor/RDCSS tags)");
  }
#endif
  EbrDomain::Guard guard(mwcas_ebr());
  Descriptor* d = acquire_descriptor();
  d->count = static_cast<std::uint32_t>(n);
  std::copy(words, words + n, d->words);
  std::sort(d->words, d->words + n,
            [](const Word& a, const Word& b) { return a.addr < b.addr; });
  help(d);
  const bool ok = d->status.load(std::memory_order_acquire) == kSucceeded;
  retire_descriptor(d);
  return ok;
}

std::uint64_t MwCAS::read(std::atomic<std::uint64_t>* addr) {
  EbrDomain::Guard guard(mwcas_ebr());
  for (;;) {
    const std::uint64_t v = addr->load(std::memory_order_acquire);
    if (is_rdcss(v)) {
      rdcss_complete(v);
      continue;
    }
    if (!is_descriptor(v)) return v;
    help(desc_of(v));
  }
}

}  // namespace bdhtm::sync
