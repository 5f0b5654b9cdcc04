// Tests for HTM-vEB and PHTM-vEB's layout: map semantics against a
// reference std::map under randomized operation fuzzing (parameterized
// over seeds and universe sizes), successor chains, concurrency stress,
// fallback paths under injected aborts and DRAM accounting. PHTM-vEB's
// BDL contract is in test_bdl_contract.cpp.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"
#include "htm/engine.hpp"
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
//
// The BDL contract (crash recovery, epochs, reclamation) runs on every
// backend in test_bdl_contract.cpp; this is PHTM-vEB's layout.

TEST_F(VebTest, PersistentSuccessorWalkAgreesWithFind) {
  // Concurrent inserts and removes over 2^14 keys with the advancer on;
  // afterwards the successor chains hold exactly the keys find() sees.
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 1000;
  test::World w(test::strict_device(), ecfg);
  PHTMvEB tree(*w.es, 14);
  constexpr int kThreads = 4, kOps = 3000;
  std::vector<std::thread> ths;
  for (int th = 0; th < kThreads; ++th) {
    ths.emplace_back([&tree, th] {
      Rng rng(th + 21);
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t k = rng.next_below(1 << 14);
        switch (rng.next_below(3)) {
          case 0:
            tree.insert(k, (std::uint64_t(th) << 32) | i);
            break;
          case 1:
            tree.remove(k);
            break;
          default:
            (void)tree.find(k);
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  std::set<std::uint64_t> keys;
  if (tree.find(0).has_value()) keys.insert(0);
  std::uint64_t pos = 0;
  for (;;) {
    auto s = tree.successor(pos);
    if (!s) break;
    keys.insert(s->first);
    pos = s->first;
  }
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.next_below(1 << 14);
    EXPECT_EQ(keys.count(k) == 1, tree.find(k).has_value()) << k;
  }
}

}  // namespace
}  // namespace bdhtm
