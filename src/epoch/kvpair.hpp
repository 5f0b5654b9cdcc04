// The NVM-resident key-value block shared by all BDL structures in this
// repository (paper §4: 8-byte keys, 8-byte values; indexes stay in DRAM
// and point at these blocks; recovery scans them to rebuild the index).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "alloc/pallocator.hpp"
#include "epoch/epoch_sys.hpp"
#include "htm/access.hpp"

namespace bdhtm::epoch {

struct KVPair {
  std::uint64_t key;
  std::uint64_t value;
};

/// Allocate and initialize a KVPair in NVM with an invalid epoch (the
/// paper's preallocation rule: the epoch is stamped inside the
/// transaction that links the block, via set_epoch_tx). `bytes` sizes
/// blocks larger than the pair itself (BD-Spash's value blocks).
inline KVPair* make_kv(EpochSys& es, std::uint64_t k, std::uint64_t v,
                       std::size_t bytes = sizeof(KVPair)) {
  auto* kv = static_cast<KVPair*>(es.pNew(bytes));
  kv->key = k;
  kv->value = v;
  es.device().mark_dirty(kv, sizeof(*kv));
  return kv;
}

/// Reset a preallocated block for reuse by a new operation attempt.
inline void reinit_kv(EpochSys& es, KVPair* kv, std::uint64_t k,
                      std::uint64_t v) {
  kv->key = k;
  kv->value = v;
  auto* hdr = alloc::PAllocator::header_of(kv);
  hdr->create_epoch = kInvalidEpoch;
  es.device().mark_dirty(kv, sizeof(*kv));
  es.device().mark_dirty(&hdr->create_epoch, 8);
}

/// Per-thread pool of preallocated KV blocks: Listing 1 lines 9-12 for
/// an operation or a batch of them. take() hands out an invalid-epoch
/// block holding (k, v), reusing one an earlier operation did not link;
/// give_back() takes an unlinked block and applies the paper's §5 rule
/// to it — a block stamped by an operation that did not link it gets its
/// epoch reset to invalid, so no stamped-but-unlinked block outlives the
/// operation. Both run outside transactions.
class KVPool {
 public:
  KVPair* take(EpochSys& es, std::size_t bytes, std::uint64_t k,
               std::uint64_t v) {
    if (free_.empty()) return make_kv(es, k, v, bytes);
    KVPair* kv = free_.back();
    free_.pop_back();
    reinit_kv(es, kv, k, v);
    return kv;
  }

  void give_back(EpochSys& es, KVPair* kv) {
    auto* hdr = alloc::PAllocator::header_of(kv);
    if (hdr->create_epoch != kInvalidEpoch) {
      hdr->create_epoch = kInvalidEpoch;
      es.device().mark_dirty(&hdr->create_epoch, 8);
    }
    free_.push_back(kv);
  }

 private:
  std::vector<KVPair*> free_;
};

}  // namespace bdhtm::epoch
