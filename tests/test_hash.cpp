// Tests for the hash-table family (Fig. 6): Spash, BD-Spash, CCEH and
// Plush — shared map semantics, splits/doubling/level-overflow paths,
// concurrency, hot/cold routing, and the durability level each table
// promises (strict DL for CCEH/Plush, eADR-dependent for Spash). BD-Spash's
// BDL contract is in test_bdl_contract.cpp.
#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"
#include "hash/bd_spash.hpp"
#include "hash/cceh.hpp"
#include "hash/plush.hpp"
#include "hash/spash.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"

namespace bdhtm {
namespace {

using hash::BDSpash;
using hash::CCEH;
using hash::Plush;
using hash::Spash;

nvm::DeviceConfig strict_cfg(std::size_t cap = 128ull << 20,
                             bool eadr = false) {
  nvm::DeviceConfig cfg;
  cfg.capacity = cap;
  cfg.eadr = eadr;
  cfg.dirty_survival = 0.0;
  cfg.pending_survival = 0.0;
  return cfg;
}

// ---- Generic semantics checker ----

template <typename Map>
void check_reference_semantics(Map& m, int ops, std::uint64_t key_space,
                               std::uint64_t seed) {
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t k = rng.next_below(key_space);
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        const std::uint64_t v = rng.next_below(std::uint64_t{1} << 40);
        ASSERT_EQ(m.insert(k, v), ref.insert_or_assign(k, v).second)
            << "op " << i << " key " << k;
        break;
      }
      case 2:
        ASSERT_EQ(m.remove(k), ref.erase(k) > 0) << "op " << i;
        break;
      default: {
        auto got = m.find(k);
        auto it = ref.find(k);
        ASSERT_EQ(got.has_value(), it != ref.end()) << "op " << i;
        if (got && it != ref.end()) {
          ASSERT_EQ(*got, it->second);
        }
      }
    }
  }
}

template <typename Map>
void check_concurrent_disjoint(Map& m, int threads, int per_thread) {
  std::vector<std::thread> ths;
  for (int t = 0; t < threads; ++t) {
    ths.emplace_back([&m, t, per_thread] {
      for (int i = 0; i < per_thread; ++i) {
        m.insert(std::uint64_t(t) * per_thread + i, t + 1);
      }
    });
  }
  for (auto& t : ths) t.join();
  for (int t = 0; t < threads; ++t) {
    for (int i = 0; i < per_thread; i += 13) {
      ASSERT_EQ(m.find(std::uint64_t(t) * per_thread + i),
                std::uint64_t(t + 1));
    }
  }
}

// ---- Spash ----

class SpashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
};

TEST_F(SpashTest, ReferenceSemantics) {
  nvm::Device dev(strict_cfg(128ull << 20, /*eadr=*/true));
  alloc::PAllocator pa(dev);
  Spash m(pa);
  check_reference_semantics(m, 6000, 4096, 71);
}

TEST_F(SpashTest, GrowsThroughSplitsAndDoubling) {
  nvm::Device dev(strict_cfg(128ull << 20, true));
  alloc::PAllocator pa(dev);
  Spash m(pa, /*initial_depth=*/2);
  const int d0 = m.global_depth();
  for (std::uint64_t k = 0; k < 20000; ++k) m.insert(k, k);
  EXPECT_GT(m.global_depth(), d0);
  for (std::uint64_t k = 0; k < 20000; k += 7) ASSERT_EQ(m.find(k), k);
}

TEST_F(SpashTest, ConcurrentInserts) {
  nvm::Device dev(strict_cfg(128ull << 20, true));
  alloc::PAllocator pa(dev);
  Spash m(pa);
  check_concurrent_disjoint(m, 4, 4000);
}

TEST_F(SpashTest, ColdKeysTakeIndirectionPath) {
  // With a threshold higher than any access count, everything is cold:
  // inserts demote into coalescing chunks and reads follow indirection.
  nvm::Device dev(strict_cfg(128ull << 20, true));
  alloc::PAllocator pa(dev);
  Spash m(pa);
  for (std::uint64_t k = 0; k < 100; ++k) m.insert(k, k * 3);
  for (std::uint64_t k = 0; k < 100; ++k) ASSERT_EQ(m.find(k), k * 3);
  // Chunks are flushed at XPLine granularity once full.
  EXPECT_GT(dev.stats().clwbs.load(), 0u);
}

TEST_F(SpashTest, EadrCrashKeepsEverything) {
  // On eADR, every committed store is durable: Spash needs no flushes.
  nvm::Device dev(strict_cfg(128ull << 20, true));
  alloc::PAllocator pa(dev);
  Spash m(pa);
  for (std::uint64_t k = 0; k < 500; ++k) m.insert(k, k + 9);
  dev.simulate_crash();
  for (std::uint64_t k = 0; k < 500; ++k) ASSERT_EQ(m.find(k), k + 9);
}

// ---- BD-Spash ----
//
// The BDL contract (crash recovery, epochs, reclamation, no persist on
// the operation path) runs on every backend in test_bdl_contract.cpp;
// these are BD-Spash's layout and persistence routing.

class BDSpashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
};

TEST_F(BDSpashTest, GrowsUnderLoad) {
  test::World w;
  BDSpash m(*w.es);
  for (std::uint64_t k = 0; k < 20000; ++k) m.insert(k, k);
  for (std::uint64_t k = 0; k < 20000; k += 11) ASSERT_EQ(m.find(k), k);
}

TEST_F(BDSpashTest, ConcurrentSplitsWithAdvancer) {
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 1000;
  test::World w(test::strict_device(), ecfg);
  BDSpash m(*w.es);
  check_concurrent_disjoint(m, 4, 3000);
}

TEST_F(BDSpashTest, LargeColdBlocksPersistImmediately) {
  test::World w;
  BDSpash m(*w.es, 4, /*value_block_bytes=*/kXPLineSize);
  const auto before = w.dev->stats().clwbs.load();
  // Hot threshold is 8 touches; single-touch keys stay cold.
  for (std::uint64_t k = 0; k < 64; ++k) m.insert(k, k);
  EXPECT_GT(w.dev->stats().clwbs.load() - before, 64u);
}

TEST_F(BDSpashTest, RunsOnEadrWithoutEpochFlushes) {
  nvm::DeviceConfig dcfg = test::strict_device();
  dcfg.eadr = true;
  test::World w(dcfg);
  auto m = test::make<BDSpash>(*w.es);
  EXPECT_FALSE(w.es->buffering_enabled());
  for (std::uint64_t k = 0; k < 200; ++k) m->insert(k, k + 1);
  w.es->advance();
  w.es->advance();
  EXPECT_EQ(w.dev->stats().media_line_writes.load(), 0u);
  // The persistent cache loses nothing; recovery rebuilds the DRAM index.
  m = test::crash_and_recover(w, std::move(m));
  for (std::uint64_t k = 0; k < 200; ++k) ASSERT_EQ(m->find(k), k + 1) << k;
}

// ---- CCEH ----

TEST(CCEHTest, ReferenceSemantics) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  CCEH m(dev, pa);
  check_reference_semantics(m, 6000, 4096, 91);
}

TEST(CCEHTest, GrowsThroughSplits) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  CCEH m(dev, pa, CCEH::Mode::kFormat, /*initial_depth=*/1);
  for (std::uint64_t k = 0; k < 30000; ++k) m.insert(k, k ^ 0xff);
  for (std::uint64_t k = 0; k < 30000; k += 17) {
    ASSERT_EQ(m.find(k), k ^ 0xff);
  }
}

TEST(CCEHTest, ConcurrentInserts) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  CCEH m(dev, pa);
  check_concurrent_disjoint(m, 4, 4000);
}

TEST(CCEHTest, CompletedOpsSurviveCrash) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  {
    CCEH m(dev, pa);
    for (std::uint64_t k = 0; k < 2000; ++k) m.insert(k, k + 3);
    for (std::uint64_t k = 0; k < 500; ++k) m.remove(k);
  }
  dev.simulate_crash();
  alloc::PAllocator pa2(dev, alloc::PAllocator::Mode::kAttach);
  CCEH rec(dev, pa2, CCEH::Mode::kAttach);
  for (std::uint64_t k = 0; k < 500; ++k) {
    ASSERT_FALSE(rec.find(k).has_value()) << k;
  }
  for (std::uint64_t k = 500; k < 2000; ++k) ASSERT_EQ(rec.find(k), k + 3);
}

TEST(CCEHTest, PersistsPerInsertOnCriticalPath) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  CCEH m(dev, pa);
  const auto before = dev.stats().fences.load();
  m.insert(1, 1);
  EXPECT_GE(dev.stats().fences.load() - before, 2u);
}

// ---- Plush ----

TEST(PlushTest, ReferenceSemantics) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  Plush m(dev, pa);
  check_reference_semantics(m, 5000, 2048, 97);
}

TEST(PlushTest, OverflowCascadesThroughLevels) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  Plush m(dev, pa, Plush::Mode::kFormat, /*root_buckets_log2=*/2,
          /*levels=*/5);
  for (std::uint64_t k = 0; k < 4000; ++k) m.insert(k, k * 2);
  for (std::uint64_t k = 0; k < 4000; k += 5) ASSERT_EQ(m.find(k), k * 2);
}

TEST(PlushTest, ConcurrentInserts) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  Plush m(dev, pa);
  check_concurrent_disjoint(m, 4, 2000);
}

TEST(PlushTest, LogReplayRecoversDramRoot) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  {
    Plush m(dev, pa);
    for (std::uint64_t k = 0; k < 400; ++k) m.insert(k, k + 7);
    for (std::uint64_t k = 0; k < 100; ++k) m.remove(k);
    m.insert(50, 555);  // re-insert after remove
  }
  dev.simulate_crash();  // DRAM level 0 is gone; the WAL survives
  alloc::PAllocator pa2(dev, alloc::PAllocator::Mode::kAttach);
  Plush rec(dev, pa2, Plush::Mode::kAttach);
  rec.recover();
  EXPECT_EQ(rec.find(50), 555u);
  for (std::uint64_t k = 0; k < 50; ++k) {
    ASSERT_FALSE(rec.find(k).has_value()) << k;
  }
  for (std::uint64_t k = 100; k < 400; ++k) ASSERT_EQ(rec.find(k), k + 7);
}

TEST(PlushTest, WalPersistOnEveryWrite) {
  nvm::Device dev(strict_cfg());
  alloc::PAllocator pa(dev);
  Plush m(dev, pa);
  const auto before = dev.stats().fences.load();
  m.insert(1, 1);
  EXPECT_GE(dev.stats().fences.load() - before, 2u);  // entry + head
}

}  // namespace
}  // namespace bdhtm
