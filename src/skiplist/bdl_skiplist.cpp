#include "skiplist/bdl_skiplist.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

namespace bdhtm::skiplist {

using epoch::EpochOrder;
using epoch::KVPair;
using Kind = epoch::BatchOp::Kind;

BDLSkiplist::BDLSkiplist(epoch::EpochSys& es, int fallback_stripes)
    : es_(es),
      dev_(es.device()),
      mw_(fallback_stripes),
      base_(std::make_unique<Base>(DramOps{mw_})),
      pools_(std::make_unique<Padded<epoch::KVPool>[]>(kMaxThreads)) {}

BDLSkiplist::~BDLSkiplist() = default;

bool BDLSkiplist::insert_enveloped(std::uint64_t op_epoch, std::uint64_t key,
                                   std::uint64_t value, bool* restart) {
  epoch::KVPool& pool = pools_[thread_id()].value;
  KVPair* nb = pool.take(es_, sizeof(KVPair), key, value);
  // Stamp before the linearization point; the block is still private.
  epoch::EpochSys::set_epoch_nontx(dev_, nb, op_epoch);

  for (;;) {  // same-epoch retry loop
    EbrDomain::Guard g(base_->ebr());
    Node* existing = nullptr;
    if (base_->insert_node(key, reinterpret_cast<std::uint64_t>(nb),
                           &existing)) {
      es_.pTrack(nb);
      return true;
    }

    // Key present: Listing 1 epoch logic on the node's KV block. Reads
    // are validated by pinning the node's link and value words in the
    // HTM-MwCAS, so a block we act on is still the node's live block.
    auto& ops = base_->ops();
    const std::uint64_t w0 = ops.read(&existing->next[0]);
    if (is_marked(w0)) continue;  // being removed: retry (fresh insert)
    const std::uint64_t kvw = ops.read(&existing->value);
    auto* kv = reinterpret_cast<KVPair*>(kvw);
    // The stamp is stable while the block is reachable.
    const EpochOrder order = epoch::classify(epoch::block_epoch(kv), op_epoch);
    if (order == EpochOrder::kNewer) {
      *restart = true;  // OldSeeNewException
      pool.give_back(es_, nb);
      return false;
    }
    if (order == EpochOrder::kSame) {
      // Same epoch: in-place value update (pin link + block identity).
      const std::uint64_t oldv =
          ops.read(reinterpret_cast<DramOps::Word*>(&kv->value));
      CasTriple t[3] = {{&existing->next[0], w0, w0},
                        {&existing->value, kvw, kvw},
                        {&kv->value, oldv, value}};
      if (ops.mcas(t, 3)) {
        dev_.mark_dirty(&kv->value, 8);
        es_.pTrack(kv);
        pool.give_back(es_, nb);
        return false;
      }
    } else {
      // Older epoch: replace out-of-place, retire the old block.
      CasTriple t[2] = {{&existing->next[0], w0, w0},
                        {&existing->value, kvw,
                         reinterpret_cast<std::uint64_t>(nb)}};
      if (ops.mcas(t, 2)) {
        es_.pRetire(kv);
        es_.pTrack(nb);
        return false;
      }
    }
    // mcas contention: retry within the same epoch.
  }
}

bool BDLSkiplist::remove_enveloped(std::uint64_t op_epoch, std::uint64_t key,
                                   bool* restart) {
  EbrDomain::Guard g(base_->ebr());
  auto& ops = base_->ops();
  for (;;) {
    Node* n = base_->find_node(key);
    if (n == nullptr) return false;
    const std::uint64_t w0 = ops.read(&n->next[0]);
    if (is_marked(w0)) return false;  // another remover got it
    const std::uint64_t kvw = ops.read(&n->value);
    auto* kv = reinterpret_cast<KVPair*>(kvw);
    if (epoch::classify(epoch::block_epoch(kv), op_epoch) ==
        EpochOrder::kNewer) {
      *restart = true;
      return false;
    }
    // Logical delete: mark level 0 while pinning the block identity,
    // so the retired block is exactly the removed one. The base
    // primitive also unlinks and retires the DRAM node.
    const CasTriple pin{&n->value, kvw, kvw};
    std::uint64_t slot = 0;
    const auto mr = base_->try_remove_node(n, w0, &pin, 1, &slot);
    if (mr == Base::MarkResult::kMarked) {
      es_.pRetire(kv);
      return true;
    }
    if (mr == Base::MarkResult::kLost) return false;
  }
}

std::optional<std::uint64_t> BDLSkiplist::find_enveloped(std::uint64_t key) {
  EbrDomain::Guard g(base_->ebr());
  if (Node* n = base_->find_node(key)) {
    auto* kv = reinterpret_cast<KVPair*>(base_->read_value(n));
    dev_.account_read();
    return base_->ops().read(reinterpret_cast<DramOps::Word*>(&kv->value));
  }
  return std::nullopt;
}

bool BDLSkiplist::insert(std::uint64_t key, std::uint64_t value) {
  return epoch::apply_one(es_, *this, {Kind::kPut, key, value}).ok;
}

bool BDLSkiplist::remove(std::uint64_t key) {
  return epoch::apply_one(es_, *this, {Kind::kRemove, key}).ok;
}

std::optional<std::uint64_t> BDLSkiplist::find(std::uint64_t key) {
  const epoch::BatchOp op = epoch::apply_one(es_, *this, {Kind::kGet, key});
  return op.ok ? std::optional<std::uint64_t>{op.out_value} : std::nullopt;
}

void BDLSkiplist::apply_batch(epoch::BatchOp* ops, std::size_t n) {
  assert(es_.in_op() && "apply_batch runs under the caller's envelope");
  const std::uint64_t op_epoch = es_.current_op_epoch();
  for (std::size_t i = 0; i < n; ++i) {
    epoch::BatchOp& op = ops[i];
    bool restart = false;
    switch (op.kind) {
      case Kind::kPut:
        op.ok = insert_enveloped(op_epoch, op.key, op.value, &restart);
        break;
      case Kind::kRemove:
        op.ok = remove_enveloped(op_epoch, op.key, &restart);
        break;
      case Kind::kGet: {
        const auto v = find_enveloped(op.key);
        op.ok = v.has_value();
        op.out_value = v.value_or(0);
        break;
      }
    }
    // Ops [0, i) committed with their pTrack/pRetire filed in the open
    // envelope; the executor's endOp/beginOp restart preserves them.
    if (restart) throw epoch::EnvelopeRestart{i};
  }
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> BDLSkiplist::successor(
    std::uint64_t key) {
  // A read envelope: it keeps the pair the walk lands on from being
  // reclaimed (EBR keeps the towers), and no transition waits for it.
  es_.beginOp(epoch::Access::kRead);
  std::optional<std::pair<std::uint64_t, std::uint64_t>> out;
  {
    EbrDomain::Guard g(base_->ebr());
    std::uint64_t k, slot;
    if (base_->successor(key, &k, &slot)) {
      auto* kv = reinterpret_cast<KVPair*>(slot);
      dev_.account_read();
      out = std::pair{k, base_->ops().read(
                             reinterpret_cast<DramOps::Word*>(&kv->value))};
    }
  }
  es_.endOp();
  return out;
}

htm::FallbackPolicy& BDLSkiplist::fallback_policy() {
  return mw_.fallback_policy();
}

htm::StripeMask BDLSkiplist::footprint(std::uint64_t key) const {
  // Representative two-word link update (prev->next + node word); the
  // real per-op footprint hashes tower-word addresses, unknowable before
  // the search. See the header comment.
  const htm::FallbackPolicy& pol = mw_.fallback_policy();
  return pol.mask_of_hash(splitmix64(key)) |
         pol.mask_of_hash(splitmix64(key ^ 0x9e3779b97f4a7c15ULL));
}

void BDLSkiplist::relink_recovered(std::span<epoch::LiveBlock> blocks) {
  base_ = std::make_unique<Base>(DramOps{mw_});  // an empty list
  struct Keyed {
    std::uint64_t key;
    KVPair* kv;
  };
  std::vector<Keyed> sorted;
  sorted.reserve(blocks.size());
  for (const epoch::LiveBlock& b : blocks) {
    auto* kv = static_cast<KVPair*>(b.payload);
    sorted.push_back({kv->key, kv});
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const Keyed& a, const Keyed& b) { return a.key < b.key; });
  Base::Appender app(*base_);
  for (std::size_t i = 0; i < sorted.size();) {
    KVPair* keep = sorted[i].kv;
    std::size_t j = i + 1;
    for (; j < sorted.size() && sorted[j].key == sorted[i].key; ++j) {
      keep = epoch::keep_newer(es_, keep, sorted[j].kv);
    }
    app.append(sorted[i].key, reinterpret_cast<std::uint64_t>(keep));
    i = j;
  }
}

std::size_t BDLSkiplist::recover(int threads) {
  return epoch::recover_into(es_, *this, threads);
}

}  // namespace bdhtm::skiplist
