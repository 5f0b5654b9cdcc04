#include "veb/phtm_veb.hpp"

#include "common/rng.hpp"
#include "htm/retry.hpp"

namespace bdhtm::veb {

using epoch::KVPair;
using Kind = epoch::BatchOp::Kind;

PHTMvEB::PHTMvEB(epoch::EpochSys& es, int ubits, int fallback_stripes)
    : es_(es),
      dev_(es.device()),
      core_(std::make_unique<VebCore>(ubits)),
      policy_(fallback_stripes),
      map_(es, *this) {}

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
  map_.apply_batch(ops, n);
}

void PHTMvEB::relink_recovered(std::span<epoch::LiveBlock> blocks) {
  map_.relink(blocks);
}

std::size_t PHTMvEB::recover(int threads) {
  return epoch::recover_into(es_, *this, threads);
}

}  // namespace bdhtm::veb
