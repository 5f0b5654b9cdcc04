#include "hash/bd_spash.hpp"

#include <cassert>

#include "common/rng.hpp"
#include "nvm/roots.hpp"

namespace bdhtm::hash {

using epoch::KVPair;
using Kind = epoch::BatchOp::Kind;

namespace {
std::uint64_t mix(std::uint64_t key) { return splitmix64(key); }
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
      global_depth_(initial_depth),
      map_(es, *this, block_bytes_) {
  init_directory(initial_depth);
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

void BDSpash::clear(std::size_t keys) {
  {
    std::scoped_lock lk(segments_mu_);
    segments_.clear();
  }
  for (int i = 0; i < n_old_dirs_; ++i) old_dirs_[i].reset();
  n_old_dirs_ = 0;
  constexpr std::size_t kHalfSegment = kBucketsPerSegment * kSlotsPerBucket / 2;
  int depth = initial_depth_;
  while (depth < 30 && (kHalfSegment << depth) < keys) ++depth;
  init_directory(depth);
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

template <typename Acc>
BDSpash::Probe BDSpash::probe(Acc& acc, std::uint64_t key) {
  assert(key != kEmptyKey);
  Bucket& b = locate(acc, mix(key));
  int free_slot = -1;
  for (int i = 0; i < kSlotsPerBucket; ++i) {
    const std::uint64_t k = acc.load(&b.keys[i]);
    if (k == key) return {&b.kvs[i], &b, i};
    if (k == kEmptyKey && free_slot < 0) free_slot = i;
  }
  return {nullptr, &b, free_slot};
}

template <typename Acc>
bool BDSpash::link(Acc& acc, const Probe& p, std::uint64_t key, KVPair* kv) {
  if (p.at < 0) return false;
  acc.store(&p.bucket->kvs[p.at], reinterpret_cast<std::uint64_t>(kv));
  acc.store(&p.bucket->keys[p.at], key);
  return true;
}

template <typename Acc>
void BDSpash::unlink(Acc& acc, const Probe& p, std::uint64_t) {
  acc.store(&p.bucket->keys[p.at], kEmptyKey);
}

void BDSpash::grow(std::uint64_t key) { split(mix(key)); }

void BDSpash::note(const epoch::BatchOp& op) {
  if (op.kind != Kind::kRemove) hotspot_.touch(mix(op.key));
}

void BDSpash::route_persist(KVPair* blk, std::uint64_t key) {
  // The §4.3 routing decision: large cold blocks are written back at
  // once (cache + bandwidth optimization); hot or small blocks ride
  // the epoch system's batched background flush.
  const bool immediate =
      routing_ == PersistRouting::kAllImmediate ||
      (routing_ == PersistRouting::kHybrid && block_bytes_ >= kXPLineSize &&
       !hotspot_.is_hot(mix(key)));
  if (immediate) {
    dev_.persist_nontxn(blk, block_bytes_);
  } else {
    es_.pTrack(blk);
  }
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
  map_.apply_batch(ops, n);
}

void BDSpash::relink_recovered(std::span<epoch::LiveBlock> blocks) {
  map_.relink(blocks);
}

std::size_t BDSpash::recover(int threads) {
  return epoch::recover_into(es_, *this, threads);
}

}  // namespace bdhtm::hash
