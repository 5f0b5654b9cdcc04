// Shard adapters (DESIGN.md §10): one virtual interface over the three
// case-study structures so the KVStore facade, the batching workers and
// sharded recovery are structure-agnostic. All shards of a store share
// the one global EpochSys — sharding splits HTM conflict footprints and
// spreads flusher work, not durability state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "htm/fallback.hpp"

namespace bdhtm::svc {

enum class Backend : std::uint8_t { kVebTree, kSkiplist, kHash };

const char* backend_name(Backend b);

struct ShardOptions {
  int veb_ubits = 20;          // PHTM-vEB universe bits
  int hash_initial_depth = 4;  // BD-Spash directory depth
  /// Per-shard fallback policy (DESIGN.md §11): 1 = the paper's global
  /// elided lock; >1 = fine-grained stripes, rounded to a power of two
  /// and clamped per structure (e.g. BD-Spash caps it at
  /// 2^hash_initial_depth).
  int fallback_stripes = 1;
};

/// One keyspace partition. Single-op entry points run as one-op batches
/// in their own envelope (epoch::apply_one); apply_batch runs under the
/// CALLER's envelope and may throw epoch::EnvelopeRestart (see
/// epoch/batch.hpp).
class ShardIndex {
 public:
  virtual ~ShardIndex() = default;

  virtual bool insert(std::uint64_t key, std::uint64_t value) = 0;
  virtual bool remove(std::uint64_t key) = 0;
  virtual std::optional<std::uint64_t> find(std::uint64_t key) = 0;
  /// Smallest (key, value) strictly greater than `key`; std::nullopt for
  /// unordered backends (ordered() == false) or when none exists.
  virtual std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t key) = 0;
  virtual bool ordered() const = 0;

  virtual void apply_batch(epoch::BatchOp* ops, std::size_t n) = 0;

  /// The backend's fallback policy and the subscription footprint it
  /// publishes for ops on `key` (DESIGN.md §11; for the skiplist the
  /// footprint is representative, not a soundness contract). Used by
  /// tests and by fallback-contention benchmarks to inject hold windows.
  virtual htm::FallbackPolicy& fallback_policy() = 0;
  virtual htm::StripeMask footprint(std::uint64_t key) const = 0;

  // Sharded recovery: the store runs ONE heap scan with a shard as the
  // owner of its keys' blocks, and hands each shard its whole list on
  // one thread (EpochSys::recover); the shard rebuilds from empty.
  virtual void relink_recovered(std::span<epoch::LiveBlock> blocks) = 0;
};

std::unique_ptr<ShardIndex> make_shard(Backend b, epoch::EpochSys& es,
                                       const ShardOptions& opt);

}  // namespace bdhtm::svc
