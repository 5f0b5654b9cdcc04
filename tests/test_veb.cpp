// Tests for HTM-vEB and PHTM-vEB: map semantics against a reference
// std::map under randomized operation fuzzing (parameterized over seeds
// and universe sizes), successor queries, concurrency stress, fallback
// paths under injected aborts, Listing-1 epoch behaviour, and the BDL
// crash-recovery property.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "epoch/epoch_sys.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"
#include "veb/htm_veb.hpp"
#include "veb/phtm_veb.hpp"

namespace bdhtm {
namespace {

using veb::HTMvEB;
using veb::PHTMvEB;

class VebTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
};

TEST_F(VebTest, InsertFindRemoveBasics) {
  HTMvEB t(16);
  EXPECT_FALSE(t.find(5).has_value());
  EXPECT_TRUE(t.insert(5, 50));
  EXPECT_EQ(t.find(5), 50u);
  EXPECT_FALSE(t.insert(5, 55));  // update
  EXPECT_EQ(t.find(5), 55u);
  EXPECT_TRUE(t.remove(5));
  EXPECT_FALSE(t.remove(5));
  EXPECT_FALSE(t.find(5).has_value());
}

TEST_F(VebTest, BoundaryKeys) {
  HTMvEB t(10);
  const std::uint64_t last = (1u << 10) - 1;
  EXPECT_TRUE(t.insert(0, 1));
  EXPECT_TRUE(t.insert(last, 2));
  EXPECT_EQ(t.find(0), 1u);
  EXPECT_EQ(t.find(last), 2u);
  auto s = t.successor(0);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->first, last);
  EXPECT_EQ(s->second, 2u);
  EXPECT_FALSE(t.successor(last).has_value());
}

TEST_F(VebTest, SuccessorChainsWholeSet) {
  HTMvEB t(12);
  std::set<std::uint64_t> keys;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t k = rng.next_below(1 << 12);
    t.insert(k, k * 2);
    keys.insert(k);
  }
  // Walk via successor; must enumerate the set in order. successor() is
  // strictly-greater, so key 0 (if present) is added explicitly.
  std::vector<std::uint64_t> walked;
  if (t.find(0).has_value()) walked.push_back(0);
  std::uint64_t pos = 0;
  for (;;) {
    auto s = t.successor(pos);
    if (!s) break;
    walked.push_back(s->first);
    EXPECT_EQ(s->second, s->first * 2);
    pos = s->first;
  }
  const std::vector<std::uint64_t> expect(keys.begin(), keys.end());
  EXPECT_EQ(walked, expect);
}

class VebFuzz : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(VebFuzz, MatchesReferenceMap) {
  htm::configure(htm::EngineConfig{});
  const auto [ubits, seed] = GetParam();
  HTMvEB t(ubits);
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(seed);
  const std::uint64_t u = std::uint64_t{1} << ubits;
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t k = rng.next_below(u);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const std::uint64_t v = rng.next();
        EXPECT_EQ(t.insert(k, v), ref.insert_or_assign(k, v).second);
        break;
      }
      case 2:
        EXPECT_EQ(t.remove(k), ref.erase(k) > 0);
        break;
      case 3: {
        auto got = t.find(k);
        auto it = ref.find(k);
        if (it == ref.end()) {
          EXPECT_FALSE(got.has_value());
        } else {
          ASSERT_TRUE(got.has_value());
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
    if (i % 97 == 0) {
      // Periodic successor cross-check.
      const std::uint64_t q = rng.next_below(u);
      auto s = t.successor(q);
      auto it = ref.upper_bound(q);
      if (it == ref.end()) {
        EXPECT_FALSE(s.has_value());
      } else {
        ASSERT_TRUE(s.has_value());
        EXPECT_EQ(s->first, it->first);
        EXPECT_EQ(s->second, it->second);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    UniversesAndSeeds, VebFuzz,
    ::testing::Combine(::testing::Values(6, 7, 10, 16, 20),
                       ::testing::Values(1, 2, 3)));

TEST_F(VebTest, FallbackPathCorrectUnderInjectedAborts) {
  // With a high spurious-abort rate, most operations go through the
  // global-lock fallback; semantics must not change.
  htm::EngineConfig cfg;
  cfg.spurious_abort_prob = 0.9;
  htm::configure(cfg);
  HTMvEB t(12);
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.next_below(1 << 12);
    const std::uint64_t v = rng.next();
    EXPECT_EQ(t.insert(k, v), ref.insert_or_assign(k, v).second);
  }
  for (auto& [k, v] : ref) EXPECT_EQ(t.find(k), v);
  EXPECT_GT(htm::collect_stats().fallback_acquisitions, 0u);
}

TEST_F(VebTest, ConcurrentDisjointRanges) {
  // Threads own disjoint key ranges; afterwards every inserted key must
  // be present with its value: concurrent transactions must not lose
  // updates in shared upper-level nodes.
  HTMvEB t(16);
  constexpr int kThreads = 4, kPerThread = 4000;
  std::vector<std::thread> ths;
  for (int th = 0; th < kThreads; ++th) {
    ths.emplace_back([&t, th] {
      const std::uint64_t base = std::uint64_t(th) << 12;
      for (int i = 0; i < kPerThread; ++i) {
        t.insert(base + i, base + i + 1);
      }
    });
  }
  for (auto& th : ths) th.join();
  for (int th = 0; th < kThreads; ++th) {
    const std::uint64_t base = std::uint64_t(th) << 12;
    for (int i = 0; i < kPerThread; i += 37) {
      ASSERT_EQ(t.find(base + i), base + i + 1);
    }
  }
}

TEST_F(VebTest, ConcurrentMixedSameRangeKeepsSetConsistent) {
  // Threads insert/remove in a small shared range; at the end, walking
  // successors must agree with find() for every key (no structural rot).
  HTMvEB t(10);
  constexpr int kThreads = 4;
  std::vector<std::thread> ths;
  for (int th = 0; th < kThreads; ++th) {
    ths.emplace_back([&t, th] {
      Rng rng(100 + th);
      for (int i = 0; i < 5000; ++i) {
        const std::uint64_t k = rng.next_below(256);
        if (rng.next_below(2) == 0) {
          t.insert(k, k + 7);
        } else {
          t.remove(k);
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  std::set<std::uint64_t> via_succ;
  if (t.find(0).has_value()) via_succ.insert(0);
  std::uint64_t pos = 0;
  for (;;) {
    auto s = t.successor(pos);
    if (!s) break;
    EXPECT_EQ(s->second, s->first + 7);
    via_succ.insert(s->first);
    pos = s->first;
  }
  for (std::uint64_t k = 0; k < 256; ++k) {
    EXPECT_EQ(via_succ.count(k) == 1, t.find(k).has_value()) << k;
  }
}

TEST_F(VebTest, DramBytesGrowWithContent) {
  HTMvEB t(20);
  const auto before = t.dram_bytes();
  for (int i = 0; i < 1000; ++i) t.insert(i * 997 % (1 << 20), 1);
  EXPECT_GT(t.dram_bytes(), before);
}

// ---- PHTM-vEB ----

struct PVebEnv {
  explicit PVebEnv(int ubits, bool advancer = false,
                   std::size_t cap = 64ull << 20) {
    nvm::DeviceConfig dcfg;
    dcfg.capacity = cap;
    dcfg.dirty_survival = 0.0;
    dcfg.pending_survival = 0.0;
    dev = std::make_unique<nvm::Device>(dcfg);
    pa = std::make_unique<alloc::PAllocator>(*dev);
    epoch::EpochSys::Config cfg;
    cfg.start_advancer = advancer;
    cfg.epoch_length_us = 1000;
    es = std::make_unique<epoch::EpochSys>(*pa, cfg);
    tree = std::make_unique<PHTMvEB>(*es, ubits);
  }
  /// Crash and reattach: returns the recovered tree.
  std::unique_ptr<PHTMvEB> crash_and_recover(int ubits, int threads = 1) {
    es.reset();  // stop advancer before crashing
    dev->simulate_crash();
    pa = std::make_unique<alloc::PAllocator>(*dev,
                                             alloc::PAllocator::Mode::kAttach);
    epoch::EpochSys::Config cfg;
    cfg.start_advancer = false;
    cfg.attach = true;
    es = std::make_unique<epoch::EpochSys>(*pa, cfg);
    auto t = std::make_unique<PHTMvEB>(*es, ubits);
    t->recover(threads);
    return t;
  }
  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
  std::unique_ptr<PHTMvEB> tree;
};

TEST_F(VebTest, PersistentBasics) {
  PVebEnv env(12);
  EXPECT_TRUE(env.tree->insert(7, 70));
  EXPECT_EQ(env.tree->find(7), 70u);
  EXPECT_FALSE(env.tree->insert(7, 71));
  EXPECT_EQ(env.tree->find(7), 71u);
  EXPECT_TRUE(env.tree->remove(7));
  EXPECT_FALSE(env.tree->find(7).has_value());
}

TEST_F(VebTest, PersistentMatchesReference) {
  PVebEnv env(12);
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    const std::uint64_t k = rng.next_below(1 << 12);
    switch (rng.next_below(3)) {
      case 0: {
        const std::uint64_t v = rng.next();
        EXPECT_EQ(env.tree->insert(k, v), ref.insert_or_assign(k, v).second);
        break;
      }
      case 1:
        EXPECT_EQ(env.tree->remove(k), ref.erase(k) > 0);
        break;
      case 2: {
        auto got = env.tree->find(k);
        auto it = ref.find(k);
        EXPECT_EQ(got.has_value(), it != ref.end());
        if (got && it != ref.end()) {
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
    if (i % 512 == 0) env.es->advance();  // cross epoch boundaries
  }
}

TEST_F(VebTest, PersistedDataSurvivesCrash) {
  PVebEnv env(12);
  for (std::uint64_t k = 0; k < 200; ++k) env.tree->insert(k, k + 1000);
  env.es->persist_all();
  auto t2 = env.crash_and_recover(12);
  for (std::uint64_t k = 0; k < 200; ++k) {
    ASSERT_EQ(t2->find(k), k + 1000) << k;
  }
  EXPECT_FALSE(t2->find(200).has_value());
}

TEST_F(VebTest, UnpersistedTailIsDroppedConsistently) {
  PVebEnv env(12);
  // Epoch e: first 100 keys; persist; epoch e': next 100 keys; crash.
  for (std::uint64_t k = 0; k < 100; ++k) env.tree->insert(k, k);
  env.es->persist_all();
  for (std::uint64_t k = 100; k < 200; ++k) env.tree->insert(k, k);
  auto t2 = env.crash_and_recover(12);
  for (std::uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(t2->find(k)) << k;
  for (std::uint64_t k = 100; k < 200; ++k) {
    ASSERT_FALSE(t2->find(k).has_value()) << k;
  }
}

TEST_F(VebTest, RemoveBeforePersistResurrects) {
  // BDL §5.2 rule 2: a remove whose epoch never persisted un-happens.
  PVebEnv env(12);
  env.tree->insert(42, 4242);
  env.es->persist_all();
  env.tree->remove(42);
  auto t2 = env.crash_and_recover(12);
  EXPECT_EQ(t2->find(42), 4242u);
}

TEST_F(VebTest, PersistedRemoveStaysRemoved) {
  PVebEnv env(12);
  env.tree->insert(42, 4242);
  env.es->persist_all();
  env.tree->remove(42);
  env.es->persist_all();
  auto t2 = env.crash_and_recover(12);
  EXPECT_FALSE(t2->find(42).has_value());
}

TEST_F(VebTest, UpdateInNewEpochRecoversOldValueIfNotPersisted) {
  PVebEnv env(12);
  env.tree->insert(9, 900);
  env.es->persist_all();
  env.tree->insert(9, 901);  // out-of-place replace in a newer epoch
  auto t2 = env.crash_and_recover(12);
  EXPECT_EQ(t2->find(9), 900u);  // recovers the frontier-consistent value
}

TEST_F(VebTest, MultiThreadedRecoveryMatchesSingleThreaded) {
  PVebEnv env(14);
  Rng rng(8);
  std::map<std::uint64_t, std::uint64_t> ref;
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.next_below(1 << 14);
    const std::uint64_t v = rng.next();
    env.tree->insert(k, v);
    ref[k] = v;
  }
  env.es->persist_all();
  auto t2 = env.crash_and_recover(14, /*threads=*/4);
  for (auto& [k, v] : ref) ASSERT_EQ(t2->find(k), v) << k;
}

TEST_F(VebTest, OldSeeNewRestartsAndCompletes) {
  // Two updates to the same key in different epochs: the second must
  // replace out-of-place and both must be visible in order.
  PVebEnv env(12);
  env.tree->insert(3, 30);
  env.es->advance();
  env.tree->insert(3, 31);  // older-epoch block: out-of-place replace
  EXPECT_EQ(env.tree->find(3), 31u);
  env.es->advance();
  env.es->advance();
  env.es->advance();
  // Old block must eventually be reclaimed.
  EXPECT_GT(env.es->stats().blocks_reclaimed.load(), 0u);
}

TEST_F(VebTest, PersistentConcurrentStressWithAdvancer) {
  PVebEnv env(14, /*advancer=*/true, /*cap=*/256ull << 20);
  constexpr int kThreads = 4, kOps = 3000;
  std::vector<std::thread> ths;
  for (int th = 0; th < kThreads; ++th) {
    ths.emplace_back([&env, th] {
      Rng rng(th + 21);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t k = rng.next_below(1 << 14);
        switch (rng.next_below(3)) {
          case 0:
            env.tree->insert(k, (std::uint64_t(th) << 32) | i);
            break;
          case 1:
            env.tree->remove(k);
            break;
          default:
            (void)env.tree->find(k);
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  // Consistency audit: successor walk agrees with find().
  std::set<std::uint64_t> keys;
  if (env.tree->find(0).has_value()) keys.insert(0);
  std::uint64_t pos = 0;
  for (;;) {
    auto s = env.tree->successor(pos);
    if (!s) break;
    keys.insert(s->first);
    pos = s->first;
  }
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.next_below(1 << 14);
    EXPECT_EQ(keys.count(k) == 1, env.tree->find(k).has_value()) << k;
  }
}

TEST_F(VebTest, CrashMidstreamRecoversConsistentPrefixProperty) {
  // Randomized crash-point property: recovered content must be exactly
  // the inserts whose epoch persisted (epochs advanced manually so the
  // frontier is deterministic).
  for (const int crash_after : {10, 35, 77, 160}) {
    PVebEnv env(14);
    std::vector<std::uint64_t> epoch_of;
    for (int i = 0; i < crash_after; ++i) {
      env.tree->insert(static_cast<std::uint64_t>(i), i);
      epoch_of.push_back(env.es->current_epoch());
      if (i % 13 == 12) env.es->advance();
    }
    const std::uint64_t frontier =
        epoch::EpochSys::recovery_frontier(env.es->persisted_epoch());
    auto t2 = env.crash_and_recover(14);
    for (int i = 0; i < crash_after; ++i) {
      const bool expect_live = epoch_of[i] <= frontier;
      EXPECT_EQ(t2->find(i).has_value(), expect_live)
          << "crash_after=" << crash_after << " op " << i;
    }
  }
}

TEST_F(VebTest, NvmBytesAccountRetiredCopies) {
  PVebEnv env(12);
  env.tree->insert(1, 10);
  env.es->persist_all();
  const auto base = env.tree->nvm_bytes();
  env.tree->insert(1, 11);  // out-of-place: old + new coexist
  EXPECT_GT(env.tree->nvm_bytes(), base);
  env.es->persist_all();  // old copy reclaimed
  EXPECT_LE(env.tree->nvm_bytes(), base + 64);
}

}  // namespace
}  // namespace bdhtm
