// Spash (Zhang et al. [62]; paper §4.3): a persistent hash table designed
// for eADR machines (persistent CPU caches), synchronized with HTM.
//
// Structure: a directory of segment pointers (extendible hashing);
// segments hold XPLine-multiple arrays of cache-line-multiple buckets.
// Because the cache is persistent, no write-back is needed for
// correctness; clwb is used purely for *performance*: a DRAM hotspot
// detector classifies keys, cold buckets are proactively written back to
// free cache space, and small cold values are coalesced into 256 B
// thread-local chunks (with an indirection pointer in the slot) so the
// media is always written at XPLine granularity.
//
// Every operation runs as one hardware transaction with the usual
// global-lock fallback (a 1-stripe htm::FallbackPolicy); directory
// doubling and segment splits run under a brief global lock (the paper
// performs segment migration in the background with worker assist; the
// simplification is documented in DESIGN.md and does not change the
// throughput shape at our scales).
//
// Values must keep bit 63 clear (indirection flag).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "alloc/pallocator.hpp"
#include "common/threading.hpp"
#include "hash/hotspot.hpp"
#include "htm/fallback.hpp"
#include "nvm/device.hpp"

namespace bdhtm::hash {

class Spash {
 public:
  /// `pa` must sit on an eADR device for the real Spash deployment; the
  /// structure also runs (without crash consistency) on plain ADR, which
  /// is exactly the deficiency BD-Spash fixes.
  explicit Spash(alloc::PAllocator& pa, int initial_depth = 4);
  ~Spash();

  bool insert(std::uint64_t key, std::uint64_t value);
  bool remove(std::uint64_t key);
  std::optional<std::uint64_t> find(std::uint64_t key);

  std::uint64_t nvm_bytes() const { return pa_.bytes_in_use(); }
  int global_depth() const;

  static constexpr int kSlotsPerBucket = 16;   // 256 B bucket = 1 XPLine
  static constexpr int kBucketsPerSegment = 16;
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::uint64_t kIndirect = std::uint64_t{1} << 63;

 private:
  struct Bucket {
    std::uint64_t keys[kSlotsPerBucket];
    std::uint64_t vals[kSlotsPerBucket];
  };
  struct Segment {
    std::uint64_t local_depth;
    Bucket buckets[kBucketsPerSegment];
  };
  struct Chunk {  // 256 B thread-local cold-write coalescing buffer
    std::uint64_t words[32];  // 16 (key,value) pairs
  };
  struct ThreadChunk {
    Chunk* chunk = nullptr;
    int used = 0;
  };

  Segment* make_segment(std::uint64_t depth);
  void split(std::uint64_t key_hash);
  void demote_cold(std::uint64_t key, std::uint64_t value,
                   std::uint64_t key_hash);

  alloc::PAllocator& pa_;
  nvm::Device& dev_;
  htm::FallbackPolicy policy_;  // one stripe: fallback + structural changes
  HotspotDetector hotspot_;
  // Directory in DRAM (rebuilt from segments if ever needed); segment
  // payloads in NVM. Fields accessed transactionally.
  std::uint64_t global_depth_;
  std::unique_ptr<std::uint64_t[]> dir_;  // 2^depth segment pointers
  alignas(8) std::uint64_t dir_ptr_;      // published pointer to dir_
  std::unique_ptr<Padded<ThreadChunk>[]> chunks_;
  std::unique_ptr<std::uint64_t[]> old_dirs_[48];  // retired directories
  int n_old_dirs_ = 0;
};

}  // namespace bdhtm::hash
