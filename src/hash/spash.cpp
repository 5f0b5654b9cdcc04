#include "hash/spash.hpp"

#include <cassert>

#include "common/rng.hpp"
#include "htm/retry.hpp"

namespace bdhtm::hash {

namespace {
constexpr std::uint8_t kFullBucket = 0x61;
constexpr int kChunkPairs = 16;  // 256 B / 16 B

std::uint64_t mix(std::uint64_t key) { return splitmix64(key); }
}  // namespace

Spash::Spash(alloc::PAllocator& pa, int initial_depth)
    : pa_(pa), dev_(pa.device()), global_depth_(initial_depth) {
  const std::size_t n = std::size_t{1} << initial_depth;
  dir_ = std::make_unique<std::uint64_t[]>(n);
  for (std::size_t i = 0; i < n; ++i) {
    dir_[i] = reinterpret_cast<std::uint64_t>(make_segment(initial_depth));
  }
  dir_ptr_ = reinterpret_cast<std::uint64_t>(dir_.get());
  chunks_ = std::make_unique<Padded<ThreadChunk>[]>(kMaxThreads);
}

Spash::~Spash() = default;

Spash::Segment* Spash::make_segment(std::uint64_t depth) {
  auto* seg = static_cast<Segment*>(pa_.alloc(sizeof(Segment)));
  seg->local_depth = depth;
  for (auto& b : seg->buckets) {
    for (auto& k : b.keys) k = kEmptyKey;
  }
  dev_.mark_dirty(seg, sizeof(Segment));
  return seg;
}

int Spash::global_depth() const {
  return static_cast<int>(htm::nontx_load(&global_depth_));
}

bool Spash::insert(std::uint64_t key, std::uint64_t value) {
  assert(key != kEmptyKey && (value & kIndirect) == 0);
  const std::uint64_t h = mix(key);
  for (;;) {
    bool is_new = false;
    bool full = false;
    std::uint64_t* hit_val = nullptr;
    try {
      htm::elide<int>(policy_, policy_.all(), [&](auto& acc) {
        is_new = false;
        full = false;
        hit_val = nullptr;
        auto* dir = reinterpret_cast<std::uint64_t*>(acc.load(&dir_ptr_));
        const std::uint64_t gd = acc.load(&global_depth_);
        auto* seg = reinterpret_cast<Segment*>(
            acc.load(&dir[h & ((std::uint64_t{1} << gd) - 1)]));
        Bucket& b = seg->buckets[(h >> 48) & (kBucketsPerSegment - 1)];
        int free_slot = -1;
        for (int i = 0; i < kSlotsPerBucket; ++i) {
          const std::uint64_t k = acc.load(&b.keys[i]);
          if (k == key) {
            acc.store_nvm(dev_, &b.vals[i], value);
            hit_val = &b.vals[i];
            return 0;
          }
          if (k == kEmptyKey && free_slot < 0) free_slot = i;
        }
        if (free_slot < 0) {
          acc.fail(kFullBucket);
        }
        acc.store_nvm(dev_, &b.vals[free_slot], value);
        acc.store_nvm(dev_, &b.keys[free_slot], key);
        hit_val = &b.vals[free_slot];
        is_new = true;
        return 0;
      });
    } catch (const htm::FallbackRestart& fr) {
      assert(fr.code == kFullBucket);
      (void)fr;
      full = true;
    }
    if (full) {
      split(h);
      continue;
    }
    // Post-commit cache management (performance only — the cache is
    // persistent on the eADR machines Spash targets).
    if (!hotspot_.touch(h) && hit_val != nullptr) {
      demote_cold(key, value, h);
    }
    return is_new;
  }
}

void Spash::demote_cold(std::uint64_t key, std::uint64_t value,
                        std::uint64_t h) {
  // Small cold write: append to the thread-local 256 B chunk and leave an
  // indirection pointer in the slot, so the eventual write-back happens
  // at XPLine granularity.
  auto& tc = chunks_[thread_id()].value;
  if (tc.chunk == nullptr || tc.used == kChunkPairs) {
    if (tc.chunk != nullptr) {
      dev_.persist_nontxn(tc.chunk, sizeof(Chunk));  // XPLine write-back
    }
    tc.chunk = static_cast<Chunk*>(pa_.alloc(sizeof(Chunk)));
    tc.used = 0;
  }
  std::uint64_t* entry = &tc.chunk->words[2 * tc.used];
  entry[0] = key;
  entry[1] = value;
  dev_.mark_dirty(entry, 16);
  const std::uint64_t indirect =
      reinterpret_cast<std::uint64_t>(entry) | kIndirect;

  // Swing the slot to the indirection (only if it still holds `value`).
  (void)htm::elide<int>(policy_, policy_.all(), [&](auto& acc) {
    auto* dir = reinterpret_cast<std::uint64_t*>(acc.load(&dir_ptr_));
    const std::uint64_t gd = acc.load(&global_depth_);
    auto* seg = reinterpret_cast<Segment*>(
        acc.load(&dir[h & ((std::uint64_t{1} << gd) - 1)]));
    Bucket& b = seg->buckets[(h >> 48) & (kBucketsPerSegment - 1)];
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      if (acc.load(&b.keys[i]) == key) {
        if (acc.load(&b.vals[i]) == value) {
          acc.store_nvm(dev_, &b.vals[i], indirect);
        }
        break;
      }
    }
    return 0;
  });
  ++tc.used;
}

bool Spash::remove(std::uint64_t key) {
  const std::uint64_t h = mix(key);
  return htm::elide<bool>(policy_, policy_.all(), [&](auto& acc) {
    auto* dir = reinterpret_cast<std::uint64_t*>(acc.load(&dir_ptr_));
    const std::uint64_t gd = acc.load(&global_depth_);
    auto* seg = reinterpret_cast<Segment*>(
        acc.load(&dir[h & ((std::uint64_t{1} << gd) - 1)]));
    Bucket& b = seg->buckets[(h >> 48) & (kBucketsPerSegment - 1)];
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      if (acc.load(&b.keys[i]) == key) {
        acc.store_nvm(dev_, &b.keys[i], kEmptyKey);
        return true;
      }
    }
    return false;
  });
}

std::optional<std::uint64_t> Spash::find(std::uint64_t key) {
  const std::uint64_t h = mix(key);
  hotspot_.touch(h);
  return htm::elide<std::optional<std::uint64_t>>(
      policy_, policy_.all(), [&](auto& acc) -> std::optional<std::uint64_t> {
        auto* dir = reinterpret_cast<std::uint64_t*>(acc.load(&dir_ptr_));
        const std::uint64_t gd = acc.load(&global_depth_);
        auto* seg = reinterpret_cast<Segment*>(
            acc.load(&dir[h & ((std::uint64_t{1} << gd) - 1)]));
        Bucket& b = seg->buckets[(h >> 48) & (kBucketsPerSegment - 1)];
        for (int i = 0; i < kSlotsPerBucket; ++i) {
          if (acc.load(&b.keys[i]) == key) {
            std::uint64_t v = acc.load(&b.vals[i]);
            if (v & kIndirect) {
              auto* entry =
                  reinterpret_cast<std::uint64_t*>(v & ~kIndirect);
              assert(acc.load(&entry[0]) == key);
              v = acc.load(&entry[1]);
            }
            return v;
          }
        }
        return std::nullopt;
      });
}

void Spash::split(std::uint64_t h) {
  htm::PolicyGuard guard(policy_, policy_.all());
  // Re-evaluate under the lock; the bucket may have been split already.
  const std::uint64_t gd = htm::nontx_load(&global_depth_);
  auto* dir = reinterpret_cast<std::uint64_t*>(htm::nontx_load(&dir_ptr_));
  const std::uint64_t idx = h & ((std::uint64_t{1} << gd) - 1);
  auto* seg = reinterpret_cast<Segment*>(htm::nontx_load(&dir[idx]));
  const std::uint64_t ld = htm::nontx_load(&seg->local_depth);

  if (ld == gd) {
    // Directory doubling. The paper migrates segments in the background
    // with worker assist; pointer copying under the brief lock preserves
    // the same observable behaviour at our scales (DESIGN.md).
    const std::size_t n = std::size_t{1} << gd;
    auto fresh = std::make_unique<std::uint64_t[]>(2 * n);
    // LSB directory indexing: route bits grow at the top, so the new
    // half of the directory mirrors the old half.
    for (std::size_t i = 0; i < n; ++i) {
      fresh[i] = dir[i];
      fresh[n + i] = dir[i];
    }
    // Keep the old directory alive for stragglers; publish the new one.
    assert(n_old_dirs_ < 48);
    old_dirs_[n_old_dirs_++] = std::move(dir_);
    dir_ = std::move(fresh);
    htm::nontx_store(&dir_ptr_,
                     reinterpret_cast<std::uint64_t>(dir_.get()));
    htm::nontx_store(&global_depth_, gd + 1);
    return;  // caller retries; the split itself happens on a later pass
  }

  // Segment split: rehash entries on bit `ld` into a sibling.
  Segment* sibling = make_segment(ld + 1);
  htm::nontx_store(&seg->local_depth, ld + 1);
  dev_.mark_dirty(&seg->local_depth, 8);
  for (auto& b : seg->buckets) {
    const std::size_t bi = static_cast<std::size_t>(&b - seg->buckets);
    for (int i = 0; i < kSlotsPerBucket; ++i) {
      const std::uint64_t k = htm::nontx_load(&b.keys[i]);
      if (k == kEmptyKey) continue;
      if ((mix(k) >> ld) & 1) {
        Bucket& nb = sibling->buckets[bi];
        for (int j = 0; j < kSlotsPerBucket; ++j) {
          if (nb.keys[j] == kEmptyKey) {
            nb.vals[j] = htm::nontx_load(&b.vals[i]);
            nb.keys[j] = k;
            dev_.mark_dirty(&nb.vals[j], 8);
            dev_.mark_dirty(&nb.keys[j], 8);
            break;
          }
        }
        htm::nontx_store(&b.keys[i], kEmptyKey);
        dev_.mark_dirty(&b.keys[i], 8);
      }
    }
  }
  // Redirect the directory entries whose bit `ld` is set.
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

}  // namespace bdhtm::hash
