// Tests for the skiplist family: shared map semantics across all four
// MwCAS regimes (typed test suite), concurrency stress, DL-Skiplist
// strict durability and BDL-Skiplist's relink order. BDL-Skiplist's BDL
// contract is in test_bdl_contract.cpp.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"
#include "epoch/kvpair.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"
#include "skiplist/bdl_skiplist.hpp"
#include "skiplist/skiplists.hpp"

namespace bdhtm {
namespace {

using skiplist::BDLSkiplist;
using skiplist::DLSkiplist;
using skiplist::PSkiplistHTMMwCAS;
using skiplist::PSkiplistNoFlush;
using skiplist::TSkiplist;

nvm::DeviceConfig strict_cfg(std::size_t cap = 64ull << 20) {
  nvm::DeviceConfig cfg;
  cfg.capacity = cap;
  cfg.dirty_survival = 0.0;
  cfg.pending_survival = 0.0;
  return cfg;
}

// ---- Typed suite over all four variants ----

template <typename T>
struct VariantHolder;

template <>
struct VariantHolder<TSkiplist> {
  VariantHolder() : map() {}
  TSkiplist map;
};

template <>
struct VariantHolder<PSkiplistNoFlush> {
  VariantHolder() : dev(strict_cfg()), pa(dev), map(pa) {}
  nvm::Device dev;
  alloc::PAllocator pa;
  PSkiplistNoFlush map;
};

template <>
struct VariantHolder<PSkiplistHTMMwCAS> {
  VariantHolder() : dev(strict_cfg()), pa(dev), map(pa) {}
  nvm::Device dev;
  alloc::PAllocator pa;
  PSkiplistHTMMwCAS map;
};

template <>
struct VariantHolder<DLSkiplist> {
  VariantHolder() : dev(strict_cfg()), pa(dev), map(dev, pa) {}
  nvm::Device dev;
  alloc::PAllocator pa;
  DLSkiplist map;
};

template <typename T>
class SkiplistVariants : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
    holder = std::make_unique<VariantHolder<T>>();
  }
  std::unique_ptr<VariantHolder<T>> holder;
};

using Variants = ::testing::Types<TSkiplist, PSkiplistNoFlush,
                                  PSkiplistHTMMwCAS, DLSkiplist>;
TYPED_TEST_SUITE(SkiplistVariants, Variants);

TYPED_TEST(SkiplistVariants, BasicInsertFindRemove) {
  auto& m = this->holder->map;
  EXPECT_FALSE(m.find(10).has_value());
  EXPECT_TRUE(m.insert(10, 100));
  EXPECT_EQ(m.find(10), 100u);
  EXPECT_FALSE(m.insert(10, 101));  // update
  EXPECT_EQ(m.find(10), 101u);
  EXPECT_TRUE(m.remove(10));
  EXPECT_FALSE(m.remove(10));
  EXPECT_FALSE(m.find(10).has_value());
}

TYPED_TEST(SkiplistVariants, MatchesReferenceMap) {
  auto& m = this->holder->map;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(17);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.next_below(512);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const std::uint64_t v = rng.next_below(1u << 30);
        EXPECT_EQ(m.insert(k, v), ref.insert_or_assign(k, v).second);
        break;
      }
      case 2:
        EXPECT_EQ(m.remove(k), ref.erase(k) > 0);
        break;
      default: {
        auto got = m.find(k);
        auto it = ref.find(k);
        EXPECT_EQ(got.has_value(), it != ref.end()) << k;
        if (got && it != ref.end()) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
}

TYPED_TEST(SkiplistVariants, SuccessorAgreesWithReference) {
  auto& m = this->holder->map;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(23);
  for (int i = 0; i < 600; ++i) {
    const std::uint64_t k = 1 + rng.next_below(4000);
    m.insert(k, k * 3);
    ref[k] = k * 3;
  }
  for (int q = 0; q < 300; ++q) {
    const std::uint64_t k = rng.next_below(4200);
    auto s = m.successor(k);
    auto it = ref.upper_bound(k);
    if (it == ref.end()) {
      EXPECT_FALSE(s.has_value());
    } else {
      ASSERT_TRUE(s.has_value());
      EXPECT_EQ(s->first, it->first);
      EXPECT_EQ(s->second, it->second);
    }
  }
}

TYPED_TEST(SkiplistVariants, ConcurrentInsertDisjoint) {
  auto& m = this->holder->map;
  constexpr int kThreads = 4, kPer = 1500;
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&m, t] {
      for (int i = 0; i < kPer; ++i) {
        m.insert(std::uint64_t(t) * kPer + i, t + 1);
      }
    });
  }
  for (auto& t : ths) t.join();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPer; i += 17) {
      ASSERT_EQ(m.find(std::uint64_t(t) * kPer + i), std::uint64_t(t + 1));
    }
  }
}

TYPED_TEST(SkiplistVariants, ConcurrentMixedHotKeys) {
  auto& m = this->holder->map;
  constexpr int kThreads = 4;
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&m, t] {
      Rng rng(31 + t);
      for (int i = 0; i < 2500; ++i) {
        const std::uint64_t k = rng.next_below(64);  // high contention
        if (rng.next_below(2) == 0) {
          m.insert(k, k + 1);
        } else {
          m.remove(k);
        }
      }
    });
  }
  for (auto& t : ths) t.join();
  // Audit: for every key either absent, or present with the only value
  // ever written for it.
  for (std::uint64_t k = 0; k < 64; ++k) {
    auto v = m.find(k);
    if (v) {
      EXPECT_EQ(*v, k + 1);
    }
  }
}

// ---- DL-Skiplist durability ----

TEST(DLSkiplistTest, CompletedOpsSurviveCrash) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  auto sl = std::make_unique<DLSkiplist>(dev, pa);
  for (std::uint64_t k = 1; k <= 100; ++k) sl->insert(k, k + 5);
  for (std::uint64_t k = 1; k <= 50; ++k) sl->remove(k);
  sl.reset();  // strict DL: no shutdown flush needed beyond op returns

  dev.simulate_crash();
  alloc::PAllocator pa2(dev, alloc::PAllocator::Mode::kAttach);
  DLSkiplist recovered(dev, pa2, DLSkiplist::Mode::kAttach);
  recovered.recover();
  for (std::uint64_t k = 1; k <= 50; ++k) {
    EXPECT_FALSE(recovered.find(k).has_value()) << k;
  }
  for (std::uint64_t k = 51; k <= 100; ++k) {
    EXPECT_EQ(recovered.find(k), k + 5) << k;
  }
  // And it remains usable.
  EXPECT_TRUE(recovered.insert(200, 7));
  EXPECT_EQ(recovered.find(200), 7u);
}

TEST(DLSkiplistTest, UpdatesAreDurableImmediately) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  auto sl = std::make_unique<DLSkiplist>(dev, pa);
  sl->insert(7, 1);
  sl->insert(7, 2);  // update
  sl.reset();
  dev.simulate_crash();
  alloc::PAllocator pa2(dev, alloc::PAllocator::Mode::kAttach);
  DLSkiplist recovered(dev, pa2, DLSkiplist::Mode::kAttach);
  recovered.recover();
  EXPECT_EQ(recovered.find(7), 2u);
}

TEST(DLSkiplistTest, PersistCostOnCriticalPath) {
  // The entire point of Fig. 4/5: every DL op issues multiple fences.
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  DLSkiplist sl(dev, pa);
  const auto before = dev.stats().fences.load();
  sl.insert(1, 1);
  EXPECT_GE(dev.stats().fences.load() - before, 4u);
}

// ---- BDL-Skiplist ----
//
// The BDL contract runs on every backend in test_bdl_contract.cpp; this
// is BDL-Skiplist's relink order.

// Recovery hands an owner all its live blocks in one list, and the two
// copies of a key can arrive in either order: the relink keeps the newer
// block and pDeletes the older one. Even keys list their older copy
// first, odd keys their newer copy first; keys past 2 * kKeys have one
// copy only.
TEST(BDLSkiplistTest, RelinkKeepsNewerDuplicateInEitherOrder) {
  test::World w;
  BDLSkiplist sl(*w.es);
  constexpr std::uint64_t kKeys = 5000;
  auto block = [&](std::uint64_t k, std::uint64_t v, std::uint64_t e) {
    auto* kv = static_cast<epoch::KVPair*>(w.es->pNew(sizeof(epoch::KVPair)));
    kv->key = k;
    kv->value = v;
    epoch::EpochSys::set_epoch_nontx(*w.dev, kv, e);
    return kv;
  };
  constexpr std::uint64_t kOld = epoch::EpochSys::kFirstEpoch;
  std::vector<epoch::LiveBlock> list;
  std::vector<epoch::KVPair*> older, newer;
  auto add = [&](epoch::KVPair* kv) {
    list.push_back({kv, epoch::EpochSys::get_epoch(kv)});
  };
  for (std::uint64_t k = 0; k < 2 * kKeys; ++k) {
    older.push_back(block(k, 1, kOld));
    newer.push_back(block(k, 2, kOld + 1));
    if (k % 2 == 0) {
      add(older.back());
      add(newer.back());
    } else {
      add(newer.back());
      add(older.back());
    }
    add(block(2 * kKeys + k, 3, kOld));
  }
  sl.relink_recovered(list);
  for (std::uint64_t k = 0; k < 2 * kKeys; ++k) {
    ASSERT_EQ(sl.find(k), 2u) << "key " << k;
    ASSERT_EQ(sl.find(2 * kKeys + k), 3u) << "key " << 2 * kKeys + k;
    EXPECT_EQ(alloc::PAllocator::header_of(older[k])->st(),
              alloc::BlockStatus::kFree)
        << "older copy of key " << k << " not reclaimed";
    EXPECT_EQ(alloc::PAllocator::header_of(newer[k])->st(),
              alloc::BlockStatus::kAllocated)
        << "newer copy of key " << k;
  }
}

}  // namespace
}  // namespace bdhtm
