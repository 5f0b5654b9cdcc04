#include "hash/bd_spash.hpp"

#include <cassert>
#include <type_traits>

#include "common/rng.hpp"
#include "htm/retry.hpp"
#include "nvm/roots.hpp"

namespace bdhtm::hash {

using epoch::KVPair;
using htm::kOldSeeNewCode;
using Kind = epoch::BatchOp::Kind;

namespace {
constexpr std::uint8_t kFullBucket = 0x62;

std::uint64_t mix(std::uint64_t key) { return splitmix64(key); }

std::uint64_t block_epoch(const void* payload) {
  return alloc::PAllocator::header_of(const_cast<void*>(payload))
      ->create_epoch;
}
}  // namespace

BDSpash::BDSpash(epoch::EpochSys& es, int initial_depth,
                 std::size_t value_block_bytes, PersistRouting routing,
                 int fallback_stripes)
    : es_(es),
      dev_(es.device()),
      block_bytes_(std::max(value_block_bytes, sizeof(KVPair))),
      routing_(routing),
      initial_depth_(initial_depth),
      // Clamp so stripe bits are a subset of the segment-routing bits:
      // same segment => same stripe, for any future global depth.
      policy_(std::min(fallback_stripes, 1 << initial_depth)),
      global_depth_(initial_depth) {
  init_directory(initial_depth);
  tctx_ = std::make_unique<Padded<ThreadCtx>[]>(kMaxThreads);
}

void BDSpash::init_directory(int depth) {
  const std::size_t n = std::size_t{1} << depth;
  dir_ = std::make_unique<std::uint64_t[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    dir_[i] = reinterpret_cast<std::uint64_t>(make_segment(depth));
  }
  dir_ptr_ = reinterpret_cast<std::uint64_t>(dir_.get());
  global_depth_ = depth;
}

void BDSpash::reset_index() {
  // Single-threaded by contract (recovery): drop every DRAM segment and
  // retired directory, rebuild at the initial depth.
  {
    std::scoped_lock lk(segments_mu_);
    segments_.clear();
  }
  for (int i = 0; i < n_old_dirs_; ++i) old_dirs_[i].reset();
  n_old_dirs_ = 0;
  init_directory(initial_depth_);
}

BDSpash::~BDSpash() = default;

htm::StripeMask BDSpash::footprint(std::uint64_t key) const {
  return policy_.mask_of_hash(mix(key));
}

BDSpash::Segment* BDSpash::make_segment(std::uint64_t depth) {
  auto seg = std::make_unique<Segment>();
  seg->local_depth = depth;
  for (auto& b : seg->buckets) {
    for (auto& k : b.keys) k = kEmptyKey;
  }
  Segment* out = seg.get();
  std::scoped_lock lk(segments_mu_);
  segments_.push_back(std::move(seg));
  return out;
}

template <typename Acc>
BDSpash::Bucket& BDSpash::locate(Acc& acc, std::uint64_t h) {
  auto* dir = reinterpret_cast<std::uint64_t*>(acc.load(&dir_ptr_));
  const std::uint64_t gd = acc.load(&global_depth_);
  auto* seg = reinterpret_cast<Segment*>(
      acc.load(&dir[h & ((std::uint64_t{1} << gd) - 1)]));
  return seg->buckets[(h >> 48) & (kBucketsPerSegment - 1)];
}

void BDSpash::route_persist(KVPair* blk, std::uint64_t h) {
  // The §4.3 routing decision: large cold blocks are written back at
  // once (cache + bandwidth optimization); hot or small blocks ride
  // the epoch system's batched background flush.
  const bool immediate =
      routing_ == PersistRouting::kAllImmediate ||
      (routing_ == PersistRouting::kHybrid && block_bytes_ >= kXPLineSize &&
       !hotspot_.is_hot(h));
  if (immediate) {
    dev_.persist_nontxn(blk, block_bytes_);
  } else {
    es_.pTrack(blk);
  }
}

template <typename Acc>
void BDSpash::insert_in_tx(Acc& acc, std::uint64_t op_epoch,
                           std::uint64_t h, std::uint64_t key,
                           std::uint64_t value, KVPair* nb, OpCtl& ctl) {
  epoch::EpochSys::set_epoch_generic(acc, dev_, nb, op_epoch);
  Bucket& b = locate(acc, h);
  int free_slot = -1;
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    const std::uint64_t k = acc.load(&b.keys[i]);
    if (k == key) {  // found: update (Listing 1 lines 20-32)
      auto* cur = reinterpret_cast<KVPair*>(acc.load(&b.kvs[i]));
      const std::uint64_t e =
          acc.load(&alloc::PAllocator::header_of(cur)->create_epoch);
      if (e != alloc::kInvalidEpoch && e > op_epoch) {
        ctl.stale = true;
        return;
      }
      if (e == op_epoch) {
        acc.store_nvm(dev_, &cur->value, value);
        ctl.persist = cur;
      } else {
        acc.store(&b.kvs[i], reinterpret_cast<std::uint64_t>(nb));
        ctl.retire = cur;
        ctl.persist = nb;
        ctl.used_new = true;
      }
      ctl.result = false;
      return;
    }
    if (k == kEmptyKey && free_slot < 0) free_slot = i;
  }
  if (free_slot < 0) {
    ctl.full = true;
    return;
  }
  acc.store(&b.kvs[free_slot], reinterpret_cast<std::uint64_t>(nb));
  acc.store(&b.keys[free_slot], key);
  ctl.persist = nb;
  ctl.used_new = true;
  ctl.result = true;
}

template <typename Acc>
void BDSpash::remove_in_tx(Acc& acc, std::uint64_t op_epoch,
                           std::uint64_t h, std::uint64_t key, OpCtl& ctl) {
  Bucket& b = locate(acc, h);
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    if (acc.load(&b.keys[i]) == key) {
      auto* cur = reinterpret_cast<KVPair*>(acc.load(&b.kvs[i]));
      const std::uint64_t e =
          acc.load(&alloc::PAllocator::header_of(cur)->create_epoch);
      if (e != alloc::kInvalidEpoch && e > op_epoch) {
        ctl.stale = true;
        return;
      }
      acc.store(&b.keys[i], kEmptyKey);
      ctl.retire = cur;
      ctl.result = true;
      return;
    }
  }
  ctl.result = false;
}

template <typename Acc>
void BDSpash::get_in_tx(Acc& acc, std::uint64_t h, std::uint64_t key,
                        OpCtl& ctl) {
  Bucket& b = locate(acc, h);
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    if (acc.load(&b.keys[i]) == key) {
      auto* kv = reinterpret_cast<KVPair*>(acc.load(&b.kvs[i]));
      dev_.account_read();
      ctl.out_value = acc.load(&kv->value);
      ctl.result = true;
      return;
    }
  }
  ctl.result = false;
}

bool BDSpash::insert(std::uint64_t key, std::uint64_t value) {
  return epoch::apply_one(es_, *this, {Kind::kPut, key, value}).ok;
}

bool BDSpash::remove(std::uint64_t key) {
  return epoch::apply_one(es_, *this, {Kind::kRemove, key}).ok;
}

std::optional<std::uint64_t> BDSpash::find(std::uint64_t key) {
  const epoch::BatchOp op = epoch::apply_one(es_, *this, {Kind::kGet, key});
  return op.ok ? std::optional<std::uint64_t>{op.out_value} : std::nullopt;
}

void BDSpash::split(std::uint64_t h) {
  // Splits rewrite dir_ptr_/global_depth_/directory entries that every
  // locate() reads, so they exclude all fast paths and fallbacks by
  // taking every stripe (ascending order — deadlock-free against
  // concurrent ops and other splits).
  htm::PolicyGuard guard(policy_, policy_.all());
  const std::uint64_t gd = htm::nontx_load(&global_depth_);
  auto* dir = reinterpret_cast<std::uint64_t*>(htm::nontx_load(&dir_ptr_));
  const std::uint64_t idx = h & ((std::uint64_t{1} << gd) - 1);
  auto* seg = reinterpret_cast<Segment*>(htm::nontx_load(&dir[idx]));
  const std::uint64_t ld = htm::nontx_load(&seg->local_depth);

  if (ld == gd) {  // directory doubling
    const std::size_t n = std::size_t{1} << gd;
    auto fresh = std::make_unique<std::uint64_t[]>(2 * n);
    // LSB directory indexing: route bits grow at the top, so the new
    // half of the directory mirrors the old half.
    for (std::size_t i = 0; i < n; ++i) {
      fresh[i] = dir[i];
      fresh[n + i] = dir[i];
    }
    assert(n_old_dirs_ < 48);
    old_dirs_[n_old_dirs_++] = std::move(dir_);
    dir_ = std::move(fresh);
    htm::nontx_store(&dir_ptr_,
                     reinterpret_cast<std::uint64_t>(dir_.get()));
    htm::nontx_store(&global_depth_, gd + 1);
    return;
  }

  Segment* sibling = make_segment(ld + 1);
  htm::nontx_store(&seg->local_depth, ld + 1);
  for (auto& b : seg->buckets) {
    const std::size_t bi = static_cast<std::size_t>(&b - seg->buckets);
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      const std::uint64_t k = htm::nontx_load(&b.keys[i]);
      if (k == kEmptyKey) continue;
      if ((mix(k) >> ld) & 1) {
        Bucket& nb = sibling->buckets[bi];
        for (int j = 0; j < kSlotsPerBucket; ++j) {
          if (nb.keys[j] == kEmptyKey) {
            nb.kvs[j] = htm::nontx_load(&b.kvs[i]);
            nb.keys[j] = k;
            break;
          }
        }
        htm::nontx_store(&b.keys[i], kEmptyKey);
      }
    }
  }
  const std::uint64_t new_gd = htm::nontx_load(&global_depth_);
  auto* cur_dir =
      reinterpret_cast<std::uint64_t*>(htm::nontx_load(&dir_ptr_));
  const std::uint64_t low = idx & ((std::uint64_t{1} << ld) - 1);
  for (std::uint64_t i = low; i < (std::uint64_t{1} << new_gd);
       i += (std::uint64_t{1} << ld)) {
    if ((i >> ld) & 1) {
      htm::nontx_store(&cur_dir[i],
                       reinterpret_cast<std::uint64_t>(sibling));
    }
  }
}

void BDSpash::apply_batch(epoch::BatchOp* ops, std::size_t n) {
  assert(es_.in_op() && "apply_batch runs under the caller's envelope");
  if (n == 0) return;
  const std::uint64_t op_epoch = es_.current_op_epoch();
  auto& tc = tctx_[thread_id()].value;

  // Puts and gets feed the hotspot detector; each put takes its block
  // from the per-thread pool outside the transaction (see PHTMvEB).
  tc.blks.assign(n, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    if (ops[i].kind == Kind::kRemove) continue;
    hotspot_.touch(mix(ops[i].key));
    if (ops[i].kind != Kind::kPut) continue;
    assert(ops[i].key != kEmptyKey);
    tc.blks[i] = tc.pool.take(es_, block_bytes_, ops[i].key, ops[i].value);
  }
  tc.ctls.assign(n, OpCtl{});

  // The batch touches every op's segment, so the footprint is the union
  // of the per-op stripes (splits only change layout within those
  // segments' routing bits, never the masks themselves).
  htm::StripeMask mask = 0;
  for (std::size_t i = 0; i < n; ++i) mask |= policy_.mask_of_hash(mix(ops[i].key));

  std::size_t fb_applied = 0;  // fallback-committed prefix (see PHTMvEB)
  std::uint64_t fail_h = 0;    // plain write before the abort survives it
  for (;;) {
    try {
      htm::elide<bool>(policy_, mask, [&](auto& acc) -> bool {
        using AccT = std::decay_t<decltype(acc)>;
        for (std::size_t i = fb_applied; i < n; ++i) {
          OpCtl& ctl = tc.ctls[i];
          ctl = OpCtl{};
          epoch::BatchOp& op = ops[i];
          const std::uint64_t h = mix(op.key);
          switch (op.kind) {
            case Kind::kPut:
              insert_in_tx(acc, op_epoch, h, op.key, op.value, tc.blks[i],
                           ctl);
              break;
            case Kind::kRemove:
              remove_in_tx(acc, op_epoch, h, op.key, ctl);
              break;
            case Kind::kGet:
              get_in_tx(acc, h, op.key, ctl);
              break;
          }
          if (ctl.stale) acc.fail(kOldSeeNewCode);
          if (ctl.full) {
            fail_h = h;
            acc.fail(kFullBucket);
          }
          if constexpr (!AccT::transactional()) fb_applied = i + 1;
        }
        return true;
      });
      break;
    } catch (const htm::FallbackRestart& fr) {
      if (fr.code == kFullBucket) {
        split(fail_h);  // retry the unapplied suffix against the new layout
        continue;
      }
      assert(fr.code == kOldSeeNewCode);
      finish_batch(ops, fb_applied, n);
      throw epoch::EnvelopeRestart{fb_applied};
    }
  }
  finish_batch(ops, n, n);
}

void BDSpash::finish_batch(epoch::BatchOp* ops, std::size_t m,
                           std::size_t n) {
  auto& tc = tctx_[thread_id()].value;
  for (std::size_t i = 0; i < n; ++i) {  // see PHTMvEB::finish_batch
    const OpCtl& ctl = tc.ctls[i];
    const bool linked = i < m && ctl.used_new;
    if (tc.blks[i] != nullptr && !linked) tc.pool.give_back(es_, tc.blks[i]);
    if (i >= m) continue;
    if (ctl.retire != nullptr) es_.pRetire(ctl.retire);
    if (ctl.persist != nullptr) route_persist(ctl.persist, mix(ops[i].key));
    ops[i].ok = ctl.result;
    ops[i].out_value = ctl.out_value;
  }
}

bool BDSpash::link_one_recovered(KVPair* kv) {
  htm::OwnerAccess acc;
  const std::uint64_t key = kv->key;
  Bucket& b = locate(acc, mix(key));
  int free_slot = -1;
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    const std::uint64_t k = acc.load(&b.keys[i]);
    if (k == key) {
      auto* cur = reinterpret_cast<KVPair*>(acc.load(&b.kvs[i]));
      if (block_epoch(cur) < block_epoch(kv)) {
        acc.store(&b.kvs[i], reinterpret_cast<std::uint64_t>(kv));
        es_.pDelete(cur);
      } else {
        es_.pDelete(kv);
      }
      return true;
    }
    if (k == kEmptyKey && free_slot < 0) free_slot = i;
  }
  if (free_slot < 0) return false;
  acc.store(&b.kvs[free_slot], reinterpret_cast<std::uint64_t>(kv));
  acc.store(&b.keys[free_slot], key);
  return true;
}

void BDSpash::relink_recovered(std::span<epoch::LiveBlock> blocks) {
  for (const epoch::LiveBlock& b : blocks) {
    auto* kv = static_cast<KVPair*>(b.payload);
    while (!link_one_recovered(kv)) split(mix(kv->key));
  }
}

std::size_t BDSpash::recover(int threads) {
  return epoch::recover_into(es_, *this, threads);
}

}  // namespace bdhtm::hash
