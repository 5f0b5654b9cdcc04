#include "svc/shard.hpp"

#include <utility>

#include "hash/bd_spash.hpp"
#include "skiplist/bdl_skiplist.hpp"
#include "veb/phtm_veb.hpp"

namespace bdhtm::svc {

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kVebTree:
      return "phtm-veb";
    case Backend::kSkiplist:
      return "bdl-skiplist";
    case Backend::kHash:
      return "bd-spash";
  }
  return "?";
}

namespace {

// One adapter for all three structures: each has the same member API,
// and only the ordered ones have successor().
template <typename T>
class Shard final : public ShardIndex {
 public:
  template <typename... Args>
  explicit Shard(Args&&... args) : t_(std::forward<Args>(args)...) {}
  bool insert(std::uint64_t k, std::uint64_t v) override {
    return t_.insert(k, v);
  }
  bool remove(std::uint64_t k) override { return t_.remove(k); }
  std::optional<std::uint64_t> find(std::uint64_t k) override {
    return t_.find(k);
  }
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t k) override {
    if constexpr (kOrdered) {
      return t_.successor(k);
    } else {
      return std::nullopt;
    }
  }
  bool ordered() const override { return kOrdered; }
  void apply_batch(epoch::BatchOp* ops, std::size_t n) override {
    t_.apply_batch(ops, n);
  }
  void relink_recovered(std::span<epoch::LiveBlock> blocks) override {
    t_.relink_recovered(blocks);
  }
  htm::FallbackPolicy& fallback_policy() override {
    return t_.fallback_policy();
  }
  htm::StripeMask footprint(std::uint64_t key) const override {
    return t_.footprint(key);
  }

 private:
  static constexpr bool kOrdered =
      requires(T& t, std::uint64_t k) { t.successor(k); };
  T t_;
};

}  // namespace

std::unique_ptr<ShardIndex> make_shard(Backend b, epoch::EpochSys& es,
                                       const ShardOptions& opt) {
  switch (b) {
    case Backend::kVebTree:
      return std::make_unique<Shard<veb::PHTMvEB>>(es, opt.veb_ubits,
                                                   opt.fallback_stripes);
    case Backend::kSkiplist:
      return std::make_unique<Shard<skiplist::BDLSkiplist>>(
          es, opt.fallback_stripes);
    case Backend::kHash:
      return std::make_unique<Shard<hash::BDSpash>>(
          es, opt.hash_initial_depth, sizeof(epoch::KVPair),
          hash::BDSpash::PersistRouting::kHybrid, opt.fallback_stripes);
  }
  return nullptr;
}

}  // namespace bdhtm::svc
