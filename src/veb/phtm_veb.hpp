// PHTM-vEB (paper §4.1): the buffered-durable port of HTM-vEB.
//
// The doubly-logarithmic index lives in DRAM; leaf/min slots hold
// pointers to KVPair blocks in NVM managed by the epoch system. The tree
// keeps only its layout (probe, link, unlink, clear and footprint over
// VebCore); epoch::SlotMap runs Listing 1 around it, in apply_batch, and
// single-op insert/remove/find are one-op batches (epoch::apply_one).
// No persist instruction ever executes inside a transaction. After a
// (simulated) MEMTYPE abort, the ops' keys are walked non-transactionally
// before the retry (the paper's Fig. 2 mitigation).
//
// After a crash, recover() scans the NVM heap (epoch-system §5.2 rules)
// on one or more threads (§5.2's recovery study) and rebuilds the DRAM
// index from the surviving KV blocks on one thread, without transactions.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "epoch/slot_map.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"
#include "veb/veb_core.hpp"

namespace bdhtm::veb {

class PHTMvEB {
 public:
  /// `fallback_stripes` selects the fallback policy (DESIGN.md §11).
  /// vEB operations recurse through shared root/summary state, so the
  /// striped footprint is conservative: stripe 0 covers the shared core
  /// and is part of EVERY op's mask — striping only decouples the
  /// subscription sets, not fallback exclusion. Expect little gain here
  /// (the documented "when striped loses" case); 1 = global, default.
  PHTMvEB(epoch::EpochSys& es, int ubits, int fallback_stripes = 1);

  /// Insert or update; returns true if the key was newly inserted.
  bool insert(std::uint64_t key, std::uint64_t value);
  /// Returns true if the key was present.
  bool remove(std::uint64_t key);
  std::optional<std::uint64_t> find(std::uint64_t key);
  /// Smallest (key, value) strictly greater than `key`.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t key);

  /// Post-crash rebuild: runs the epoch-system recovery scan on
  /// `threads` workers and relinks the live KV blocks into an empty
  /// index (the tree is one owner). Returns the number of live pairs.
  std::size_t recover(int threads = 1);

  /// The one operation path (DESIGN.md §10): apply ops[0..n) under the
  /// CALLER's open epoch envelope, all in one elided transaction — the
  /// per-txn and per-envelope overhead amortizes across the batch.
  /// Throws epoch::EnvelopeRestart when an op observes a newer-epoch
  /// block (see epoch/batch.hpp for the restart contract).
  void apply_batch(epoch::BatchOp* ops, std::size_t n);

  /// Rebuild the index from recovered blocks (epoch::SlotMap::relink):
  /// drop it, link the blocks with plain accesses, and on duplicate keys
  /// keep the newer epoch, in either arrival order. The caller owns the
  /// tree outright: nothing else touches it until the call returns, and
  /// a happens-before edge (recovery's join) orders the call before any
  /// later operation.
  void relink_recovered(std::span<epoch::LiveBlock> blocks);

  int ubits() const { return core_->ubits(); }
  std::uint64_t dram_bytes() const { return core_->dram_bytes(); }
  std::uint64_t nvm_bytes() const { return es_.allocator().bytes_in_use(); }
  epoch::EpochSys& epoch_sys() { return es_; }

  /// The tree's fallback policy and the published subscription footprint
  /// of an op on `key` (DESIGN.md §11): stripe 0 (the shared root /
  /// summary recursion) plus a cluster stripe from the key's top-level
  /// cluster bits. Conservative by design — see the constructor comment.
  /// Exposed for tests and fallback-contention benchmarks.
  htm::FallbackPolicy& fallback_policy() { return policy_; }
  htm::StripeMask footprint(std::uint64_t key) const;

 private:
  friend class epoch::SlotMap<PHTMvEB>;

  // The layout hooks of epoch::SlotMap. A slot is a leaf or min word of
  // VebCore, which has a place for every key of its universe, so link
  // never runs out of room.
  struct Probe {
    std::uint64_t* slot;
  };
  template <typename Acc>
  Probe probe(Acc& acc, std::uint64_t key) {
    return {core_->slot_addr(acc, key)};
  }
  template <typename Acc>
  bool link(Acc& acc, const Probe&, std::uint64_t key, epoch::KVPair* kv) {
    core_->insert_new(acc, key, reinterpret_cast<std::uint64_t>(kv));
    return true;
  }
  template <typename Acc>
  void unlink(Acc& acc, const Probe&, std::uint64_t key) {
    core_->remove_existing(acc, key);
  }
  void grow(std::uint64_t) {}  // never called: link always succeeds
  void clear(std::size_t) {
    core_ = std::make_unique<VebCore>(core_->ubits());
  }

  epoch::EpochSys& es_;
  nvm::Device& dev_;
  std::unique_ptr<VebCore> core_;
  htm::FallbackPolicy policy_;
  epoch::SlotMap<PHTMvEB> map_;
};

}  // namespace bdhtm::veb
