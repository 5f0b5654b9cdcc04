// The NVM-resident key-value block shared by all BDL structures in this
// repository (paper §4: 8-byte keys, 8-byte values; indexes stay in DRAM
// and point at these blocks; recovery scans them to rebuild the index).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
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
/// paper's preallocation rule: the operation that links the block stamps
/// its epoch just before the linearization point, inside the transaction
/// for the elided structures). `bytes` sizes blocks larger than the pair
/// itself (BD-Spash's value blocks).
inline KVPair* make_kv(EpochSys& es, std::uint64_t k, std::uint64_t v,
                       std::size_t bytes = sizeof(KVPair)) {
  auto* kv = static_cast<KVPair*>(es.pNew(bytes));
  kv->key = k;
  kv->value = v;
  es.device().mark_dirty(kv, sizeof(*kv));
  return kv;
}

/// The create epoch stamped on a block's header, read plainly: for a
/// block the caller reached through a structure it owns, or whose
/// stamp can no longer change while it is reachable.
inline std::uint64_t block_epoch(const KVPair* kv) {
  return alloc::PAllocator::header_of(const_cast<KVPair*>(kv))->create_epoch;
}

/// Listing 1's epoch rule: how the epoch `e` of the block an operation
/// found compares with the operation's own epoch.
enum class EpochOrder : std::uint8_t {
  kOlder,  // older or unstamped: replace the block out of place
  kSame,   // stamped in this epoch: update it in place
  kNewer,  // OldSeeNewException: restart in a fresh epoch
};

inline EpochOrder classify(std::uint64_t e, std::uint64_t op_epoch) {
  if (e != kInvalidEpoch && e > op_epoch) return EpochOrder::kNewer;
  return e == op_epoch ? EpochOrder::kSame : EpochOrder::kOlder;
}

/// Recovery's duplicate rule: two live blocks hold one key, so keep the
/// newer create epoch and pDelete the other. A tie keeps `incumbent`
/// (tied copies hold the same value: DESIGN.md §6, "Unused
/// preallocations"). Returns the block kept.
inline KVPair* keep_newer(EpochSys& es, KVPair* incumbent,
                          KVPair* challenger) {
  if (block_epoch(incumbent) < block_epoch(challenger)) {
    std::swap(incumbent, challenger);
  }
  es.pDelete(challenger);
  return incumbent;
}

/// Per-thread pool of preallocated KV blocks: Listing 1 lines 9-12 for
/// an operation or a batch of them. take() hands out an invalid-epoch
/// block holding (k, v), reusing one an earlier operation did not link;
/// give_back() takes an unlinked block and applies the paper's §5 rule
/// to it — a block stamped by an operation that did not link it gets its
/// epoch reset to invalid, so no stamped-but-unlinked block outlives the
/// operation. Both run outside transactions, give_back inside the
/// operation's envelope.
class KVPool {
 public:
  KVPair* take(EpochSys& es, std::size_t bytes, std::uint64_t k,
               std::uint64_t v) {
    if (free_.empty()) return make_kv(es, k, v, bytes);
    KVPair* kv = free_.back();
    free_.pop_back();
    kv->key = k;  // the block's epoch is already invalid (give_back)
    kv->value = v;
    es.device().mark_dirty(kv, sizeof(*kv));
    return kv;
  }

  void give_back(EpochSys& es, KVPair* kv) {
    if (block_epoch(kv) != kInvalidEpoch) {
      // A line-mate's write-back may have put the stamp on the media, so
      // the reset is tracked in the stamp's own epoch (the envelope's):
      // once that epoch is durable, so is the reset.
      EpochSys::set_epoch_nontx(es.device(), kv, kInvalidEpoch);
      es.pTrack(kv);
    }
    free_.push_back(kv);
  }

 private:
  std::vector<KVPair*> free_;
};

}  // namespace bdhtm::epoch
