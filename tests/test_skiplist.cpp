// Tests for the skiplist family: shared map semantics across all four
// MwCAS regimes (typed test suite), concurrency stress, DL-Skiplist
// strict durability, BDL-Skiplist buffered durability and recovery.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "epoch/epoch_sys.hpp"
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

struct BdlEnv {
  explicit BdlEnv(bool advancer = false) : dev(strict_cfg()), pa(dev) {
    epoch::EpochSys::Config cfg;
    cfg.start_advancer = advancer;
    cfg.epoch_length_us = 1000;
    es = std::make_unique<epoch::EpochSys>(pa, cfg);
    sl = std::make_unique<BDLSkiplist>(*es);
  }
  std::unique_ptr<BDLSkiplist> crash_and_recover(int threads = 1) {
    es_att.reset();
    sl.reset();
    es.reset();
    dev.simulate_crash();
    pa_att = std::make_unique<alloc::PAllocator>(
        dev, alloc::PAllocator::Mode::kAttach);
    epoch::EpochSys::Config cfg;
    cfg.start_advancer = false;
    cfg.attach = true;
    es_att = std::make_unique<epoch::EpochSys>(*pa_att, cfg);
    auto out = std::make_unique<BDLSkiplist>(*es_att);
    out->recover(threads);
    return out;
  }
  nvm::Device dev;
  alloc::PAllocator pa;
  std::unique_ptr<alloc::PAllocator> pa_att;
  std::unique_ptr<epoch::EpochSys> es, es_att;
  std::unique_ptr<BDLSkiplist> sl;
};

TEST(BDLSkiplistTest, Basics) {
  BdlEnv env;
  EXPECT_TRUE(env.sl->insert(3, 30));
  EXPECT_EQ(env.sl->find(3), 30u);
  EXPECT_FALSE(env.sl->insert(3, 31));
  EXPECT_EQ(env.sl->find(3), 31u);
  EXPECT_TRUE(env.sl->remove(3));
  EXPECT_FALSE(env.sl->find(3).has_value());
}

TEST(BDLSkiplistTest, MatchesReferenceAcrossEpochs) {
  BdlEnv env;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(41);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.next_below(512);
    switch (rng.next_below(3)) {
      case 0: {
        const std::uint64_t v = rng.next();
        EXPECT_EQ(env.sl->insert(k, v), ref.insert_or_assign(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(env.sl->remove(k), ref.erase(k) > 0);
        break;
      default: {
        auto got = env.sl->find(k);
        auto it = ref.find(k);
        EXPECT_EQ(got.has_value(), it != ref.end());
        if (got && it != ref.end()) {
          EXPECT_EQ(*got, it->second);
        }
      }
    }
    if (i % 256 == 255) env.es->advance();
  }
}

TEST(BDLSkiplistTest, NoPersistInstructionsOnCriticalPath) {
  BdlEnv env;
  // Warm up the preallocation so alloc-side superblock persists are done.
  env.sl->insert(999, 1);
  env.sl->remove(999);
  const auto clwbs = env.dev.stats().clwbs.load();
  const auto fences = env.dev.stats().fences.load();
  for (std::uint64_t k = 0; k < 50; ++k) env.sl->insert(k, k);
  // Inserts may allocate fresh superblocks (which persist their header);
  // but per-op persists must not scale with op count the way DL does.
  EXPECT_LE(env.dev.stats().clwbs.load() - clwbs, 8u);
  EXPECT_LE(env.dev.stats().fences.load() - fences, 8u);
}

TEST(BDLSkiplistTest, PersistedStateSurvivesCrash) {
  BdlEnv env;
  for (std::uint64_t k = 0; k < 150; ++k) env.sl->insert(k, k * 7);
  env.es->persist_all();
  auto rec = env.crash_and_recover();
  for (std::uint64_t k = 0; k < 150; ++k) ASSERT_EQ(rec->find(k), k * 7);
}

TEST(BDLSkiplistTest, UnpersistedTailDropped) {
  BdlEnv env;
  for (std::uint64_t k = 0; k < 50; ++k) env.sl->insert(k, k);
  env.es->persist_all();
  for (std::uint64_t k = 50; k < 100; ++k) env.sl->insert(k, k);
  auto rec = env.crash_and_recover();
  for (std::uint64_t k = 0; k < 50; ++k) ASSERT_TRUE(rec->find(k)) << k;
  for (std::uint64_t k = 50; k < 100; ++k) {
    ASSERT_FALSE(rec->find(k).has_value()) << k;
  }
}

TEST(BDLSkiplistTest, RemoveBeforePersistResurrects) {
  BdlEnv env;
  env.sl->insert(11, 110);
  env.es->persist_all();
  env.sl->remove(11);
  auto rec = env.crash_and_recover();
  EXPECT_EQ(rec->find(11), 110u);
}

TEST(BDLSkiplistTest, ConcurrentStressWithAdvancer) {
  BdlEnv env(/*advancer=*/true);
  constexpr int kThreads = 4;
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&env, t] {
      Rng rng(51 + t);
      for (int i = 0; i < 2500; ++i) {
        const std::uint64_t k = rng.next_below(256);
        switch (rng.next_below(3)) {
          case 0:
            env.sl->insert(k, k + 1);
            break;
          case 1:
            env.sl->remove(k);
            break;
          default:
            (void)env.sl->find(k);
        }
      }
    });
  }
  for (auto& t : ths) t.join();
  for (std::uint64_t k = 0; k < 256; ++k) {
    auto v = env.sl->find(k);
    if (v) {
      EXPECT_EQ(*v, k + 1);
    }
  }
}

TEST(BDLSkiplistTest, MultithreadedRecovery) {
  BdlEnv env;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(61);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.next_below(1 << 12);
    const std::uint64_t v = rng.next();
    env.sl->insert(k, v);
    ref[k] = v;
  }
  env.es->persist_all();
  auto rec = env.crash_and_recover(/*threads=*/4);
  for (auto& [k, v] : ref) ASSERT_EQ(rec->find(k), v) << k;
}

// Recovery hands an owner all its live blocks in one list, and the two
// copies of a key can arrive in either order: the relink keeps the newer
// block and pDeletes the older one. Even keys list their older copy
// first, odd keys their newer copy first; keys past 2 * kKeys have one
// copy only.
TEST(BDLSkiplistTest, RelinkKeepsNewerDuplicateInEitherOrder) {
  BdlEnv env;
  constexpr std::uint64_t kKeys = 5000;
  auto block = [&](std::uint64_t k, std::uint64_t v, std::uint64_t e) {
    auto* kv =
        static_cast<epoch::KVPair*>(env.es->pNew(sizeof(epoch::KVPair)));
    kv->key = k;
    kv->value = v;
    epoch::EpochSys::set_epoch_nontx(env.dev, kv, e);
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
  env.sl->relink_recovered(list);
  for (std::uint64_t k = 0; k < 2 * kKeys; ++k) {
    ASSERT_EQ(env.sl->find(k), 2u) << "key " << k;
    ASSERT_EQ(env.sl->find(2 * kKeys + k), 3u) << "key " << 2 * kKeys + k;
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
