#include "veb/phtm_veb.hpp"

#include <cassert>
#include <type_traits>

#include "common/rng.hpp"
#include "htm/retry.hpp"

namespace bdhtm::veb {

using epoch::KVPair;
using htm::kOldSeeNewCode;

namespace {
std::uint64_t block_epoch(const void* payload) {
  return alloc::PAllocator::header_of(const_cast<void*>(payload))
      ->create_epoch;
}
}  // namespace

PHTMvEB::PHTMvEB(epoch::EpochSys& es, int ubits, int fallback_stripes)
    : es_(es),
      dev_(es.device()),
      core_(std::make_unique<VebCore>(ubits)),
      policy_(fallback_stripes),
      tctx_(std::make_unique<Padded<ThreadCtx>[]>(kMaxThreads)) {}

htm::StripeMask PHTMvEB::footprint(std::uint64_t key) const {
  if (!policy_.striped()) return policy_.all();
  // Stripe 0 is reserved for the shared core (root min/max and the
  // summary recursion every op may touch); the remaining stripes split
  // the top-level clusters, keyed by the high half of the key.
  const int c = policy_.stripe_count();
  const std::uint64_t h = splitmix64(key >> (core_->ubits() / 2));
  return htm::StripeMask{1} |
         (htm::StripeMask{1} << (1 + h % static_cast<std::uint64_t>(c - 1)));
}

void PHTMvEB::prewalk(std::uint64_t key) {
  // Non-transactional warm-up walk after a (simulated) MEMTYPE abort —
  // the paper's Fig. 2 mitigation. The result is irrelevant.
  htm::NontxAccess acc;
  (void)core_->slot_addr(acc, key);
}

template <typename Body, typename Prep>
bool PHTMvEB::mutate(htm::StripeMask mask, std::uint64_t prewalk_key,
                     Body&& body, Prep&& prep) {
  struct PrewalkCtx {
    PHTMvEB* t;
    std::uint64_t key;
  } pw{this, prewalk_key};
  htm::ElideOptions opts;
  opts.prewalk = [](void* c) {
    auto* p = static_cast<PrewalkCtx*>(c);
    p->t->prewalk(p->key);
  };
  opts.prewalk_ctx = &pw;
  for (;;) {  // epoch-registration loop (Listing 1 retry_regist)
    const std::uint64_t op_epoch = es_.beginOp();
    prep(op_epoch);
    OpCtl ctl;
    bool restart_epoch = false;

    try {
      htm::elide<bool>(
          policy_, mask,
          [&](auto& acc) -> bool {
            ctl = OpCtl{};
            body(acc, op_epoch, ctl);
            return true;
          },
          opts);
    } catch (const htm::FallbackRestart& fr) {
      assert(fr.code == kOldSeeNewCode);
      (void)fr;
      restart_epoch = true;  // restart in a fresh epoch
    }

    if (restart_epoch) {
      es_.abortOp();  // discard tracking, leave the stale epoch
      continue;
    }

    // Post-commit epilogue (Listing 1 op_done): persistence and
    // reclamation happen strictly after the transaction.
    auto& tc = tctx_[thread_id()].value;
    if (ctl.used_new) {
      tc.new_blk = nullptr;
    } else if (tc.new_blk != nullptr) {
      // Unused preallocation: reset its epoch stamp to invalid so an
      // idle thread cannot leave a stamped-but-unlinked block behind
      // (paper §5 guideline).
      auto* hdr = alloc::PAllocator::header_of(tc.new_blk);
      hdr->create_epoch = alloc::kInvalidEpoch;
      dev_.mark_dirty(&hdr->create_epoch, 8);
    }
    if (ctl.retire != nullptr) es_.pRetire(ctl.retire);
    if (ctl.persist != nullptr) es_.pTrack(ctl.persist);
    es_.endOp();
    return ctl.result;
  }
}

template <typename Acc>
void PHTMvEB::insert_in_tx(Acc& acc, std::uint64_t op_epoch,
                           std::uint64_t key, std::uint64_t value,
                           KVPair* nb, OpCtl& ctl) {
  // Stamp the preallocation with our epoch before the linearization
  // point (Listing 1 line 17).
  epoch::EpochSys::set_epoch_generic(acc, dev_, nb, op_epoch);

  if (std::uint64_t* sa = core_->slot_addr(acc, key)) {
    auto* cur = reinterpret_cast<KVPair*>(acc.load(sa));
    const std::uint64_t e =
        acc.load(&alloc::PAllocator::header_of(cur)->create_epoch);
    if (e != alloc::kInvalidEpoch && e > op_epoch) {
      ctl.stale = true;  // OldSeeNewException; caller decides how to abort
      return;
    }
    if (e == op_epoch) {
      // Same epoch: in-place update (Listing 1 line 29).
      acc.store_nvm(dev_, &cur->value, value);
      ctl.persist = cur;
    } else {
      // Older epoch: replace out-of-place, retire the old block.
      acc.store(sa, reinterpret_cast<std::uint64_t>(nb));
      ctl.retire = cur;
      ctl.persist = nb;
      ctl.used_new = true;
    }
    ctl.result = false;
  } else {
    core_->insert_new(acc, key, reinterpret_cast<std::uint64_t>(nb));
    ctl.persist = nb;
    ctl.used_new = true;
    ctl.result = true;
  }
}

template <typename Acc>
void PHTMvEB::remove_in_tx(Acc& acc, std::uint64_t op_epoch,
                           std::uint64_t key, OpCtl& ctl) {
  if (std::uint64_t* sa = core_->slot_addr(acc, key)) {
    auto* cur = reinterpret_cast<KVPair*>(acc.load(sa));
    const std::uint64_t e =
        acc.load(&alloc::PAllocator::header_of(cur)->create_epoch);
    if (e != alloc::kInvalidEpoch && e > op_epoch) {
      ctl.stale = true;
      return;
    }
    core_->remove_existing(acc, key);
    ctl.retire = cur;
    ctl.result = true;
  } else {
    ctl.result = false;
  }
}

template <typename Acc>
void PHTMvEB::get_in_tx(Acc& acc, std::uint64_t key, OpCtl& ctl) {
  if (std::uint64_t* sa = core_->slot_addr(acc, key)) {
    auto* kv = reinterpret_cast<KVPair*>(acc.load(sa));
    dev_.account_read();  // value fetch touches NVM
    ctl.out_value = acc.load(&kv->value);
    ctl.result = true;
  } else {
    ctl.result = false;
  }
}

bool PHTMvEB::insert(std::uint64_t key, std::uint64_t value) {
  auto& tc = tctx_[thread_id()].value;
  return mutate(footprint(key), key,
                [&](auto& acc, std::uint64_t op_epoch, OpCtl& ctl) {
    // The preallocated block was prepared outside the transaction (see
    // below: mutate() re-runs this body, and the first statement of each
    // attempt must make the block ready).
    insert_in_tx(acc, op_epoch, key, value, tc.new_blk, ctl);
    if (ctl.stale) acc.fail(kOldSeeNewCode);
  },
  /*prep=*/[&](std::uint64_t) {
    if (tc.new_blk == nullptr) {
      tc.new_blk = epoch::make_kv(es_, key, value);
    } else {
      epoch::reinit_kv(es_, tc.new_blk, key, value);
    }
  });
}

bool PHTMvEB::remove(std::uint64_t key) {
  return mutate(footprint(key), key,
                [&](auto& acc, std::uint64_t op_epoch, OpCtl& ctl) {
    remove_in_tx(acc, op_epoch, key, ctl);
    if (ctl.stale) acc.fail(kOldSeeNewCode);
  });
}

std::optional<std::uint64_t> PHTMvEB::find(std::uint64_t key) {
  es_.beginOp();  // pin the epoch: blocks we read cannot be reclaimed
  OpCtl ctl;
  htm::elide<bool>(policy_, footprint(key), [&](auto& acc) -> bool {
    ctl = OpCtl{};
    get_in_tx(acc, key, ctl);
    return true;
  });
  es_.endOp();
  return ctl.result ? std::optional<std::uint64_t>{ctl.out_value}
                    : std::nullopt;
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> PHTMvEB::successor(
    std::uint64_t key) {
  using Out = std::optional<std::pair<std::uint64_t, std::uint64_t>>;
  es_.beginOp();
  // A successor walk can cross cluster boundaries, so it has no bounded
  // stripe footprint: subscribe to everything.
  auto out = htm::elide<Out>(policy_, policy_.all(), [&](auto& acc) -> Out {
    auto s = core_->successor(acc, key);
    if (!s) return std::nullopt;
    auto* kv = reinterpret_cast<KVPair*>(s->second);
    dev_.account_read();
    return std::pair{s->first, acc.load(&kv->value)};
  });
  es_.endOp();
  return out;
}

void PHTMvEB::apply_batch(epoch::BatchOp* ops, std::size_t n) {
  using Kind = epoch::BatchOp::Kind;
  assert(es_.in_op() && "apply_batch runs under the caller's envelope");
  if (n == 0) return;
  const std::uint64_t op_epoch = es_.current_op_epoch();
  auto& tc = tctx_[thread_id()].value;

  // One preallocated block per put, (re)initialized OUTSIDE the
  // transaction — pNew never runs inside a txn (Listing 1). Blocks a
  // committed op did not consume go back to the per-thread pool.
  tc.blks.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].kind != Kind::kPut) continue;
    if (tc.pool.empty()) {
      tc.blks[i] = epoch::make_kv(es_, ops[i].key, ops[i].value);
    } else {
      tc.blks[i] = tc.pool.back();
      tc.pool.pop_back();
      epoch::reinit_kv(es_, tc.blks[i], ops[i].key, ops[i].value);
    }
  }
  tc.ctls.assign(n, OpCtl{});

  // Prefix the FALLBACK applied irrevocably; HTM aborts roll everything
  // back, so the counter only ever moves under NontxAccess (plain writes
  // to locals survive transactional aborts — see DESIGN.md §4).
  std::size_t fb_applied = 0;
  htm::StripeMask mask = 0;  // union of the per-op footprints
  for (std::size_t i = 0; i < n; ++i) mask |= footprint(ops[i].key);
  try {
    htm::elide<bool>(policy_, mask, [&](auto& acc) -> bool {
      using AccT = std::decay_t<decltype(acc)>;
      for (std::size_t i = fb_applied; i < n; ++i) {
        OpCtl& ctl = tc.ctls[i];
        ctl = OpCtl{};  // re-executed attempts must reset plain state
        epoch::BatchOp& op = ops[i];
        switch (op.kind) {
          case Kind::kPut:
            insert_in_tx(acc, op_epoch, op.key, op.value, tc.blks[i], ctl);
            break;
          case Kind::kRemove:
            remove_in_tx(acc, op_epoch, op.key, ctl);
            break;
          case Kind::kGet:
            get_in_tx(acc, op.key, ctl);
            break;
        }
        if (ctl.stale) {
          // HTM: rolls the whole batch back. Fallback: unwinds with ops
          // [fb_applied, i) already applied — reported via the restart.
          acc.fail(kOldSeeNewCode);
        }
        if constexpr (!AccT::transactional()) fb_applied = i + 1;
      }
      return true;
    });
  } catch (const htm::FallbackRestart& fr) {
    assert(fr.code == kOldSeeNewCode);
    (void)fr;
    finish_batch(ops, fb_applied, n);
    throw epoch::EnvelopeRestart{fb_applied};
  }
  finish_batch(ops, n, n);
}

void PHTMvEB::finish_batch(epoch::BatchOp* ops, std::size_t m,
                           std::size_t n) {
  auto& tc = tctx_[thread_id()].value;
  for (std::size_t i = 0; i < m; ++i) {
    OpCtl& ctl = tc.ctls[i];
    if (KVPair* nb = tc.blks[i]; nb != nullptr && !ctl.used_new) {
      // Unused preallocation: reset its stamp so no stamped-but-unlinked
      // block outlives the batch (paper §5 guideline), then recycle.
      auto* hdr = alloc::PAllocator::header_of(nb);
      hdr->create_epoch = alloc::kInvalidEpoch;
      dev_.mark_dirty(&hdr->create_epoch, 8);
      tc.pool.push_back(nb);
    }
    tc.blks[i] = nullptr;
    if (ctl.retire != nullptr) es_.pRetire(ctl.retire);
    if (ctl.persist != nullptr) es_.pTrack(ctl.persist);
    ops[i].ok = ctl.result;
    ops[i].out_value = ctl.out_value;
  }
  // Restart path: ops [m, n) re-prep on the retry call; recycle their
  // blocks (the failing op may have stamped its block in the fallback —
  // unstamp so the pool holds only invalid-epoch blocks).
  for (std::size_t i = m; i < n; ++i) {
    if (KVPair* nb = tc.blks[i]; nb != nullptr) {
      auto* hdr = alloc::PAllocator::header_of(nb);
      if (hdr->create_epoch != alloc::kInvalidEpoch) {
        hdr->create_epoch = alloc::kInvalidEpoch;
        dev_.mark_dirty(&hdr->create_epoch, 8);
      }
      tc.pool.push_back(nb);
      tc.blks[i] = nullptr;
    }
  }
}

void PHTMvEB::reset_index() {
  core_ = std::make_unique<VebCore>(core_->ubits());
}

void PHTMvEB::relink_recovered(KVPair* kv, std::uint64_t create_epoch) {
  KVPair* loser = htm::elide<KVPair*>(
      policy_, footprint(kv->key), [&](auto& acc) -> KVPair* {
    const std::uint64_t key = kv->key;
    if (std::uint64_t* sa = core_->slot_addr(acc, key)) {
      auto* cur = reinterpret_cast<KVPair*>(acc.load(sa));
      // Duplicate key: keep the newer block (ties are value-identical by
      // construction — see the unused-preallocation discussion in
      // DESIGN.md).
      if (block_epoch(cur) < create_epoch) {
        acc.store(sa, reinterpret_cast<std::uint64_t>(kv));
        return cur;
      }
      return kv;
    }
    core_->insert_new(acc, key, reinterpret_cast<std::uint64_t>(kv));
    return nullptr;
  });
  if (loser != nullptr) es_.pDelete(loser);
}

std::size_t PHTMvEB::recover(int threads) {
  reset_index();
  const auto relink = [this](void* payload, std::uint64_t ce) {
    relink_recovered(static_cast<KVPair*>(payload), ce);
  };
  return es_.recover(relink, threads).blocks_live;
}

}  // namespace bdhtm::veb
