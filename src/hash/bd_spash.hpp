// BD-Spash (paper §4.3): Spash back-ported from eADR to plain-ADR
// machines with buffered durability.
//
// The directory, segments and buckets live in DRAM; bucket slots point to
// KVPair blocks in NVM managed by the epoch system. The table keeps only
// its layout (probe, link, unlink, grow by split, and footprint);
// epoch::SlotMap runs the paper's Listing 1 around it (epoch stamp,
// OldSeeNewException, out-of-place replace, post-commit pRetire and
// persist) in apply_batch, and the single-op insert/remove/find are
// one-op batches (epoch::apply_one).
// Puts and gets feed the hotspot detector, which decides the
// persistence route: hot or small-cold blocks are tracked by the epoch
// system for delayed, batched write-back; large cold blocks are
// persisted immediately to optimize cache usage and NVM bandwidth.
// Small cold writes are NOT coalesced into chunks — the epoch system
// already batches them (the paper's two reasons are quoted in
// DESIGN.md).
//
// On an eADR device the epoch system disables its write-back work
// automatically, so the same binary runs on both platforms (§4.3).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "epoch/slot_map.hpp"
#include "hash/hotspot.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"

namespace bdhtm::hash {

class BDSpash {
 public:
  /// Persist routing for committed blocks (§4.3; ablated in
  /// bench/ablation_design_choices):
  ///   kHybrid       - hotspot-driven: large cold blocks persist at once,
  ///                   the rest ride the epoch system (the paper's design);
  ///   kAllTrack     - everything buffered by the epoch system;
  ///   kAllImmediate - everything persisted on the critical path
  ///                   (degenerates toward strict-DL cost).
  enum class PersistRouting { kHybrid, kAllTrack, kAllImmediate };

  /// `value_block_bytes` sizes the NVM blocks (>= sizeof(KVPair)); blocks
  /// of at least one XPLine that the detector classifies cold are
  /// persisted immediately instead of buffered.
  ///
  /// `fallback_stripes` selects the fallback policy (DESIGN.md §11):
  /// 1 = the classic global elided lock; >1 = fine-grained stripes keyed
  /// by the segment-selecting low hash bits, clamped to 2^initial_depth
  /// so two keys in the same segment always share a stripe (the
  /// directory only ever grows past initial_depth, never below it).
  explicit BDSpash(epoch::EpochSys& es, int initial_depth = 4,
                   std::size_t value_block_bytes = sizeof(epoch::KVPair),
                   PersistRouting routing = PersistRouting::kHybrid,
                   int fallback_stripes = 1);
  ~BDSpash();

  bool insert(std::uint64_t key, std::uint64_t value);
  bool remove(std::uint64_t key);
  std::optional<std::uint64_t> find(std::uint64_t key);

  /// Post-crash rebuild into an empty table; returns the number of live
  /// pairs.
  std::size_t recover(int threads = 1);

  /// The one operation path (DESIGN.md §10): apply ops[0..n) in one
  /// elided transaction under the CALLER's epoch envelope. Full buckets
  /// are split internally and the batch retried; OldSeeNew throws
  /// epoch::EnvelopeRestart (see epoch/batch.hpp).
  void apply_batch(epoch::BatchOp* ops, std::size_t n);

  /// Rebuild the table from recovered blocks (epoch::SlotMap::relink):
  /// reset the directory to the depth the block count needs, link the
  /// blocks with plain accesses, split full buckets, and on duplicate keys
  /// keep the newer epoch, in either arrival order. The caller owns the
  /// table outright, as PHTMvEB::relink_recovered describes.
  void relink_recovered(std::span<epoch::LiveBlock> blocks);

  std::uint64_t nvm_bytes() const { return es_.allocator().bytes_in_use(); }
  epoch::EpochSys& epoch_sys() { return es_; }

  /// The structure's fallback policy and the published subscription
  /// footprint of an op on `key` (DESIGN.md §11) — what the fast path
  /// subscribes to and a fallback on that key acquires. Exposed for
  /// tests and for benchmarks that inject fallback hold windows.
  htm::FallbackPolicy& fallback_policy() { return policy_; }
  htm::StripeMask footprint(std::uint64_t key) const;

  static constexpr int kSlotsPerBucket = 16;
  static constexpr int kBucketsPerSegment = 16;
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

 private:
  friend class epoch::SlotMap<BDSpash>;

  struct Bucket {
    std::uint64_t keys[kSlotsPerBucket];
    std::uint64_t kvs[kSlotsPerBucket];  // KVPair* in NVM
  };
  struct Segment {
    std::uint64_t local_depth;
    Bucket buckets[kBucketsPerSegment];
  };

  // The layout hooks of epoch::SlotMap. A put scans its bucket once: the
  // probe finds the key's slot, or else the bucket's first free slot.
  struct Probe {
    std::uint64_t* slot;  // &bucket->kvs[at] when the key is present
    Bucket* bucket;
    int at;  // the key's slot, else the first free one (-1: full)
  };
  template <typename Acc>
  Probe probe(Acc& acc, std::uint64_t key);
  template <typename Acc>
  bool link(Acc& acc, const Probe& p, std::uint64_t key, epoch::KVPair* kv);
  template <typename Acc>
  void unlink(Acc& acc, const Probe& p, std::uint64_t key);
  void grow(std::uint64_t key);
  /// Drop every DRAM segment and retired directory, and start again at
  /// the depth that holds `keys` at half the slots (at least the initial
  /// depth), so a relink does not regrow the directory split by split.
  /// Single-threaded by contract (recovery).
  void clear(std::size_t keys);
  /// Puts and gets feed the hotspot detector.
  void note(const epoch::BatchOp& op);
  void route_persist(epoch::KVPair* blk, std::uint64_t key);

  Segment* make_segment(std::uint64_t depth);
  void init_directory(int depth);
  void split(std::uint64_t key_hash);
  template <typename Acc>
  Bucket& locate(Acc& acc, std::uint64_t h);

  epoch::EpochSys& es_;
  nvm::Device& dev_;
  std::size_t block_bytes_;
  PersistRouting routing_;
  int initial_depth_;
  // Fallback footprint rule: an op on hash h touches only h's segment
  // (plus directory reads), so its mask is mask_of_hash(h); split()
  // rewrites the directory every locate() reads and takes all().
  htm::FallbackPolicy policy_;
  HotspotDetector hotspot_;
  std::uint64_t global_depth_;
  std::unique_ptr<std::uint64_t[]> dir_;
  alignas(8) std::uint64_t dir_ptr_;
  std::unique_ptr<std::uint64_t[]> old_dirs_[48];
  int n_old_dirs_ = 0;
  std::vector<std::unique_ptr<Segment>> segments_;  // DRAM ownership
  std::mutex segments_mu_;
  epoch::SlotMap<BDSpash> map_;
};

}  // namespace bdhtm::hash
