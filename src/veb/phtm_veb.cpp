#include "veb/phtm_veb.hpp"

#include <cassert>
#include <type_traits>

#include "common/rng.hpp"
#include "htm/retry.hpp"

namespace bdhtm::veb {

using epoch::KVPair;
using htm::kOldSeeNewCode;
using Kind = epoch::BatchOp::Kind;

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
  return epoch::apply_one(es_, *this, {Kind::kPut, key, value}).ok;
}

bool PHTMvEB::remove(std::uint64_t key) {
  return epoch::apply_one(es_, *this, {Kind::kRemove, key}).ok;
}

std::optional<std::uint64_t> PHTMvEB::find(std::uint64_t key) {
  const epoch::BatchOp op = epoch::apply_one(es_, *this, {Kind::kGet, key});
  return op.ok ? std::optional<std::uint64_t>{op.out_value} : std::nullopt;
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
    tc.blks[i] = tc.pool.take(es_, sizeof(KVPair), ops[i].key, ops[i].value);
  }
  tc.ctls.assign(n, OpCtl{});

  // The paper's Fig. 2 mitigation: after a (simulated) MEMTYPE abort,
  // walk the batch's keys non-transactionally before the retry. The
  // walk's result is irrelevant.
  struct Prewalk {
    VebCore* core;
    const epoch::BatchOp* ops;
    std::size_t n;
  } pw{core_.get(), ops, n};
  htm::ElideOptions opts;
  opts.prewalk = [](void* c) {
    const auto* p = static_cast<Prewalk*>(c);
    htm::NontxAccess acc;
    for (std::size_t i = 0; i < p->n; ++i) {
      (void)p->core->slot_addr(acc, p->ops[i].key);
    }
  };
  opts.prewalk_ctx = &pw;

  // Prefix the FALLBACK applied irrevocably; HTM aborts roll everything
  // back, so the counter only ever moves under NontxAccess (plain writes
  // to locals survive transactional aborts — see DESIGN.md §4).
  std::size_t fb_applied = 0;
  htm::StripeMask mask = 0;  // union of the per-op footprints
  for (std::size_t i = 0; i < n; ++i) mask |= footprint(ops[i].key);
  try {
    htm::elide<bool>(
        policy_, mask,
        [&](auto& acc) -> bool {
          using AccT = std::decay_t<decltype(acc)>;
          for (std::size_t i = fb_applied; i < n; ++i) {
            OpCtl& ctl = tc.ctls[i];
            ctl = OpCtl{};  // re-executed attempts must reset plain state
            epoch::BatchOp& op = ops[i];
            switch (op.kind) {
              case Kind::kPut:
                insert_in_tx(acc, op_epoch, op.key, op.value, tc.blks[i],
                             ctl);
                break;
              case Kind::kRemove:
                remove_in_tx(acc, op_epoch, op.key, ctl);
                break;
              case Kind::kGet:
                get_in_tx(acc, op.key, ctl);
                break;
            }
            if (ctl.stale) {
              // HTM: rolls the whole batch back. Fallback: unwinds with
              // ops [fb_applied, i) already applied — reported via the
              // restart.
              acc.fail(kOldSeeNewCode);
            }
            if constexpr (!AccT::transactional()) fb_applied = i + 1;
          }
          return true;
        },
        opts);
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
  for (std::size_t i = 0; i < n; ++i) {
    // Ops [m, n) restart: their ctl may hold a rolled-back attempt's
    // state, and the retry call preallocates their blocks again.
    const OpCtl& ctl = tc.ctls[i];
    const bool linked = i < m && ctl.used_new;
    if (tc.blks[i] != nullptr && !linked) tc.pool.give_back(es_, tc.blks[i]);
    if (i >= m) continue;
    if (ctl.retire != nullptr) es_.pRetire(ctl.retire);
    if (ctl.persist != nullptr) es_.pTrack(ctl.persist);
    ops[i].ok = ctl.result;
    ops[i].out_value = ctl.out_value;
  }
}

void PHTMvEB::reset_index() {
  core_ = std::make_unique<VebCore>(core_->ubits());
}

void PHTMvEB::relink_recovered(std::span<epoch::LiveBlock> blocks) {
  htm::OwnerAccess acc;
  for (const epoch::LiveBlock& b : blocks) {
    auto* kv = static_cast<KVPair*>(b.payload);
    if (std::uint64_t* sa = core_->slot_addr(acc, kv->key)) {
      auto* cur = reinterpret_cast<KVPair*>(acc.load(sa));
      // Duplicate key: keep the newer block (ties are value-identical by
      // construction — see the unused-preallocation discussion in
      // DESIGN.md).
      if (block_epoch(cur) < b.create_epoch) {
        acc.store(sa, reinterpret_cast<std::uint64_t>(kv));
        es_.pDelete(cur);
      } else {
        es_.pDelete(kv);
      }
      continue;
    }
    core_->insert_new(acc, kv->key, reinterpret_cast<std::uint64_t>(kv));
  }
}

std::size_t PHTMvEB::recover(int threads) {
  reset_index();
  return epoch::recover_into(es_, *this, threads);
}

}  // namespace bdhtm::veb
