// Listing 1, written once: the epoch-side half of every BDL structure
// whose DRAM index has slots that point at NVM KVPair blocks (PHTM-vEB,
// BD-Spash). The structure owns only its layout; SlotMap owns the
// persistence protocol around it (Montage's split: the epoch system owns
// persistence, a structure owns its index).
//
//   apply_batch  Each put takes a block from the thread's pool outside
//                the transaction. One elided transaction over the union
//                of the ops' footprints then runs the ops; a put that
//                links its block stamps it with the envelope's epoch just
//                before the linearization point, and an update or remove
//                classifies the epoch of the block it found —
//                  newer -> OldSeeNew: the envelope restarts
//                           (EnvelopeRestart, epoch/batch.hpp);
//                  same  -> update the value in place;
//                  older -> replace the block out of place, retire it.
//                After commit: pRetire and persist what the ops changed,
//                and give unlinked preallocations back to the pool (the
//                §5 rule). No persist instruction runs in a transaction.
//                A full index grows outside the transaction, and the ops
//                not yet applied retry. After a (simulated) MEMTYPE abort
//                the ops' keys are probed non-transactionally before the
//                retry (the paper's Fig. 2 mitigation).
//   relink       Recovery's rebuild: empty the index, then link every
//                live block with plain accesses (the caller owns the
//                structure outright), keep the newer of two copies of a
//                key (keep_newer) and grow when full.
//
// The layout hooks of an Index (SlotMap is its friend, so they may be
// private); Acc is any accessor of htm/access.hpp:
//   Probe probe(Acc&, key)      where key lives. Probe::slot points at the
//                               word holding its KVPair*, or is nullptr
//                               when key is absent; the rest of Probe is
//                               whatever link and unlink need.
//   bool link(Acc&, const Probe&, key, KVPair*)
//                               add an absent key; false when full.
//   void unlink(Acc&, const Probe&, key)      drop a present key.
//   void grow(key)              make room for key; runs outside any
//                               transaction.
//   htm::StripeMask footprint(key) const      an op's stripes (§11).
//   htm::FallbackPolicy& fallback_policy()
//   void clear(std::size_t n)   drop every slot; n keys are about to be
//                               linked (an index may size itself once).
// and two optional ones:
//   void note(const BatchOp&)   sees each op before its batch runs.
//   void route_persist(KVPair*, key)
//                               persists a committed block; the default
//                               is pTrack (buffered until its epoch ends).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "common/defs.hpp"
#include "common/threading.hpp"
#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "htm/access.hpp"
#include "htm/fallback.hpp"
#include "htm/retry.hpp"

namespace bdhtm::epoch {

template <typename Index>
class SlotMap {
 public:
  /// `block_bytes` sizes the block of each put (>= sizeof(KVPair)).
  SlotMap(EpochSys& es, Index& index, std::size_t block_bytes = sizeof(KVPair))
      : es_(es),
        index_(index),
        block_bytes_(block_bytes),
        scratch_(std::make_unique<Padded<Scratch>[]>(kMaxThreads)) {}
  SlotMap(const SlotMap&) = delete;
  SlotMap& operator=(const SlotMap&) = delete;

  /// Apply ops[0..n) in one elided transaction under the CALLER's open
  /// envelope. Throws EnvelopeRestart when an op sees a newer-epoch block.
  void apply_batch(BatchOp* ops, std::size_t n) {
    assert(es_.in_op() && "apply_batch runs under the caller's envelope");
    if (n == 0) return;
    const std::uint64_t op_epoch = es_.current_op_epoch();
    Scratch& sc = scratch_[thread_id()].value;
    sc.ops.assign(n, OpState{});
    htm::StripeMask mask = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if constexpr (requires { index_.note(ops[i]); }) index_.note(ops[i]);
      mask |= index_.footprint(ops[i].key);
      if (ops[i].kind == BatchOp::Kind::kPut) {
        sc.ops[i].fresh =
            sc.pool.take(es_, block_bytes_, ops[i].key, ops[i].value);
      }
    }

    // The prewalk's result is irrelevant: it only touches the keys' paths.
    struct Walk {
      Index* index;
      const BatchOp* ops;
      std::size_t n;
    } walk{&index_, ops, n};
    htm::ElideOptions opts;
    opts.prewalk = [](void* ctx) {
      const auto* w = static_cast<const Walk*>(ctx);
      htm::NontxAccess acc;
      for (std::size_t i = 0; i < w->n; ++i) {
        (void)w->index->probe(acc, w->ops[i].key);
      }
    };
    opts.prewalk_ctx = &walk;

    // The prefix the FALLBACK applied irrevocably. HTM aborts roll the
    // whole batch back, so it moves only under NontxAccess; plain writes
    // to locals survive aborts (DESIGN.md §4), as does full_key.
    std::size_t applied = 0;
    std::uint64_t full_key = 0;
    for (;;) {
      try {
        htm::elide<bool>(
            index_.fallback_policy(), mask,
            [&](auto& acc) -> bool {
              using Acc = std::decay_t<decltype(acc)>;
              for (std::size_t i = applied; i < n; ++i) {
                if (!run_op(acc, op_epoch, ops[i], sc.ops[i])) {
                  full_key = ops[i].key;
                  acc.fail(kIndexFull);
                }
                if constexpr (!Acc::transactional()) applied = i + 1;
              }
              return true;
            },
            opts);
        break;
      } catch (const htm::FallbackRestart& fr) {
        if (fr.code == kIndexFull) {
          index_.grow(full_key);  // then retry the ops not yet applied
          continue;
        }
        assert(fr.code == htm::kOldSeeNewCode);
        finish(ops, applied, n, sc);
        throw EnvelopeRestart{applied};
      }
    }
    finish(ops, n, n, sc);
  }

  /// Rebuild the index from recovered blocks: empty it, then link each
  /// block with plain accesses (htm::OwnerAccess). Of two blocks with one
  /// key the newer epoch wins and the other is pDeleted, in either
  /// arrival order. The caller owns the structure outright, and a
  /// happens-before edge (recovery's join) orders the call before any
  /// later operation.
  void relink(std::span<LiveBlock> blocks) {
    index_.clear(blocks.size());
    htm::OwnerAccess acc;
    for (const LiveBlock& b : blocks) {
      auto* kv = static_cast<KVPair*>(b.payload);
      for (;;) {
        const auto p = index_.probe(acc, kv->key);
        if (p.slot != nullptr) {
          auto* cur = reinterpret_cast<KVPair*>(acc.load(p.slot));
          if (keep_newer(es_, cur, kv) == kv) {
            acc.store(p.slot, reinterpret_cast<std::uint64_t>(kv));
          }
          break;
        }
        if (index_.link(acc, p, kv->key, kv)) break;
        index_.grow(kv->key);
      }
    }
  }

 private:
  // Explicit-abort code of a put that found the index full.
  static constexpr std::uint8_t kIndexFull = 0x62;

  struct OpState {
    KVPair* fresh = nullptr;    // a put's preallocated block
    KVPair* retire = nullptr;   // pRetire after commit
    KVPair* persist = nullptr;  // persist after commit
  };
  struct Scratch {  // per thread, reused by every batch
    KVPool pool;
    std::vector<OpState> ops;
  };

  // One op of the batch, on the transactional or the fallback path; an
  // attempt that aborts is re-run from a clean state. Returns false when
  // a put finds the index full. OldSeeNew fails the access: on the
  // fallback path that unwinds after the ops before this one applied.
  template <typename Acc>
  bool run_op(Acc& acc, std::uint64_t op_epoch, BatchOp& op, OpState& st) {
    nvm::Device& dev = es_.device();
    st.retire = nullptr;
    st.persist = nullptr;
    op.ok = false;
    op.out_value = 0;
    // Stamp right before the linearization point (Listing 1 line 17), and
    // only a block the op links: an in-place update leaves its block
    // unstamped. A fallback link into a full index keeps its stamp, which
    // give_back resets if the retry does not link the block.
    const auto p = index_.probe(acc, op.key);
    if (p.slot == nullptr) {
      if (op.kind != BatchOp::Kind::kPut) return true;
      EpochSys::set_epoch_generic(acc, dev, st.fresh, op_epoch);
      if (!index_.link(acc, p, op.key, st.fresh)) return false;
      st.persist = st.fresh;
      op.ok = true;
      return true;
    }
    auto* cur = reinterpret_cast<KVPair*>(acc.load(p.slot));
    if (op.kind == BatchOp::Kind::kGet) {
      dev.account_read();  // the value fetch touches NVM
      op.out_value = acc.load(&cur->value);
      op.ok = true;
      return true;
    }
    const EpochOrder order = classify(EpochSys::get_epoch_generic(acc, cur),
                                      op_epoch);
    if (order == EpochOrder::kNewer) acc.fail(htm::kOldSeeNewCode);
    if (op.kind == BatchOp::Kind::kRemove) {
      index_.unlink(acc, p, op.key);
      st.retire = cur;
      op.ok = true;
    } else if (order == EpochOrder::kSame) {
      acc.store_nvm(dev, &cur->value, op.value);
      st.persist = cur;
    } else {
      EpochSys::set_epoch_generic(acc, dev, st.fresh, op_epoch);
      acc.store(p.slot, reinterpret_cast<std::uint64_t>(st.fresh));
      st.retire = cur;
      st.persist = st.fresh;
    }
    return true;
  }

  // After the transaction: ops [0, m) committed, so pRetire and persist
  // what they changed. A put's block goes back to the pool unless a
  // committed op linked it; ops [m, n) restart and preallocate again.
  void finish(const BatchOp* ops, std::size_t m, std::size_t n,
              Scratch& sc) {
    for (std::size_t i = 0; i < n; ++i) {
      const OpState& st = sc.ops[i];
      const bool linked = i < m && st.persist == st.fresh;
      if (st.fresh != nullptr && !linked) sc.pool.give_back(es_, st.fresh);
      if (i >= m) continue;
      if (st.retire != nullptr) es_.pRetire(st.retire);
      KVPair* kv = st.persist;
      if (kv == nullptr) continue;
      if constexpr (requires { index_.route_persist(kv, ops[i].key); }) {
        index_.route_persist(kv, ops[i].key);
      } else {
        es_.pTrack(kv);
      }
    }
  }

  EpochSys& es_;
  Index& index_;
  std::size_t block_bytes_;
  std::unique_ptr<Padded<Scratch>[]> scratch_;
};

}  // namespace bdhtm::epoch
