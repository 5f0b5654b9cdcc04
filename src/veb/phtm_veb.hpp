// PHTM-vEB (paper §4.1): the buffered-durable port of HTM-vEB.
//
// The doubly-logarithmic index lives in DRAM; leaf/min slots hold
// pointers to KVPair blocks in NVM managed by the epoch system. Every
// operation follows the Listing 1 strategy, written once in apply_batch;
// single-op insert/remove/find are one-op batches (epoch::apply_one):
//   - the envelope registers with beginOp(); each put takes a block from
//     the thread's preallocation pool outside the transaction;
//   - inside the transaction: stamp the preallocated block with the
//     operation's epoch, then check the target block's epoch —
//       newer epoch  -> abort with OldSeeNewException; the envelope
//                       restarts in a fresh epoch (EnvelopeRestart);
//       older epoch  -> replace the block out-of-place (retire the old);
//       same epoch   -> update the value in place;
//   - after commit: pRetire()/pTrack() the affected blocks, return
//     unused preallocations to the pool, endOp().
// No persist instruction ever executes inside a transaction. After a
// (simulated) MEMTYPE abort, the ops' keys are walked non-transactionally
// before the retry (the paper's Fig. 2 mitigation).
//
// After a crash, recover() scans the NVM heap (epoch-system §5.2 rules)
// on one or more threads (§5.2's recovery study) and rebuilds the DRAM
// index from the surviving KV blocks on one thread, without transactions.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/defs.hpp"
#include "common/threading.hpp"
#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
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

  /// Post-crash rebuild: resets the DRAM index, runs the epoch-system
  /// recovery scan on `threads` workers, and relinks the live KV blocks
  /// (the tree is one owner). Returns the number of live pairs.
  std::size_t recover(int threads = 1);

  /// The one operation path (DESIGN.md §10): apply ops[0..n) under the
  /// CALLER's open epoch envelope, all in one elided transaction — the
  /// per-txn and per-envelope overhead amortizes across the batch.
  /// Throws epoch::EnvelopeRestart when an op observes a newer-epoch
  /// block (see epoch/batch.hpp for the restart contract).
  void apply_batch(epoch::BatchOp* ops, std::size_t n);

  /// Drop the DRAM index (sharded recovery resets every shard, scans the
  /// shared heap once, and hands each shard its blocks via
  /// relink_recovered).
  void reset_index();

  /// Link recovered blocks into the index with plain accesses
  /// (htm::OwnerAccess); on duplicate keys the newer-epoch block wins and
  /// the loser is reclaimed, in either arrival order. The caller owns the
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
  struct OpCtl {
    epoch::KVPair* retire = nullptr;
    epoch::KVPair* persist = nullptr;
    bool used_new = false;
    bool result = false;
    bool stale = false;  // saw a newer-epoch block (OldSeeNewException)
    std::uint64_t out_value = 0;  // get result
  };
  struct ThreadCtx {
    // Batch scratch: preallocation pool plus per-op block/ctl arrays,
    // reused across apply_batch calls (no steady-state allocation).
    epoch::KVPool pool;
    std::vector<epoch::KVPair*> blks;
    std::vector<OpCtl> ctls;
  };

  // Accessor-generic op bodies of apply_batch, run on the transactional
  // and the fallback path. They report OldSeeNew via ctl.stale instead
  // of acc.fail() so apply_batch can attribute the failing op.
  template <typename Acc>
  void insert_in_tx(Acc& acc, std::uint64_t op_epoch, std::uint64_t key,
                    std::uint64_t value, epoch::KVPair* nb, OpCtl& ctl);
  template <typename Acc>
  void remove_in_tx(Acc& acc, std::uint64_t op_epoch, std::uint64_t key,
                    OpCtl& ctl);
  template <typename Acc>
  void get_in_tx(Acc& acc, std::uint64_t key, OpCtl& ctl);
  /// Post-commit epilogue for batch ops [0, m): consume or recycle
  /// preallocations, pRetire/pTrack, publish results; ops [m, n) only
  /// recycle their preallocations (the restart path re-preps them).
  void finish_batch(epoch::BatchOp* ops, std::size_t m, std::size_t n);

  epoch::EpochSys& es_;
  nvm::Device& dev_;
  std::unique_ptr<VebCore> core_;
  htm::FallbackPolicy policy_;
  std::unique_ptr<Padded<ThreadCtx>[]> tctx_;
};

}  // namespace bdhtm::veb
