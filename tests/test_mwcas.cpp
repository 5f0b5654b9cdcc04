// Tests for the MwCAS family: semantics, atomicity under contention,
// PMwCAS durability and post-crash recovery, HTM-MwCAS fallback.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/rng.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"
#include "nvm/device.hpp"
#include "sync/htm_mwcas.hpp"
#include "sync/mwcas.hpp"
#include "sync/pmwcas.hpp"

namespace bdhtm {
namespace {

using sync::HTMMwCAS;
using sync::MwCAS;
using sync::PMwCAS;

// ---- Volatile MwCAS ----

TEST(MwCASTest, SucceedsWhenAllExpectedMatch) {
  std::atomic<std::uint64_t> a{8}, b{20}, c{32};
  MwCAS::Word w[3] = {{&a, 8, 12}, {&b, 20, 24}, {&c, 32, 36}};
  EXPECT_TRUE(MwCAS::execute(w, 3));
  EXPECT_EQ(MwCAS::read(&a), 12u);
  EXPECT_EQ(MwCAS::read(&b), 24u);
  EXPECT_EQ(MwCAS::read(&c), 36u);
}

TEST(MwCASTest, FailsAtomicallyOnAnyMismatch) {
  // Values keep bit 0 clear (it is the descriptor tag).
  std::atomic<std::uint64_t> a{8}, b{96};
  MwCAS::Word w[2] = {{&a, 8, 12}, {&b, 20, 24}};
  EXPECT_FALSE(MwCAS::execute(w, 2));
  EXPECT_EQ(MwCAS::read(&a), 8u);  // no partial effect
  EXPECT_EQ(MwCAS::read(&b), 96u);
}

TEST(MwCASTest, SingleWordDegeneratesToCAS) {
  std::atomic<std::uint64_t> a{4};
  MwCAS::Word w[1] = {{&a, 4, 8}};
  EXPECT_TRUE(MwCAS::execute(w, 1));
  EXPECT_FALSE(MwCAS::execute(w, 1));  // expected stale now
  EXPECT_EQ(MwCAS::read(&a), 8u);
}

TEST(MwCASTest, UnsortedInputHandled) {
  std::atomic<std::uint64_t> a{4}, b{8};
  // Pass in descending address order deliberately.
  auto* hi = &a < &b ? &b : &a;
  auto* lo = &a < &b ? &a : &b;
  MwCAS::Word w[2] = {{hi, hi->load(), 100}, {lo, lo->load(), 200}};
  EXPECT_TRUE(MwCAS::execute(w, 2));
  EXPECT_EQ(MwCAS::read(hi), 100u);
  EXPECT_EQ(MwCAS::read(lo), 200u);
}

TEST(MwCASTest, ConcurrentDisjointAndOverlappingOps) {
  // Threads repeatedly apply +2 to (x, y) via MwCAS on overlapping pairs
  // of an array; totals must be conserved under atomicity.
  constexpr int kSlots = 8;
  constexpr int kThreads = 4;
  constexpr int kOps = 20000;
  std::vector<std::atomic<std::uint64_t>> slots(kSlots);
  for (auto& s : slots) s.store(1000);
  std::vector<std::thread> ths;
  std::atomic<std::uint64_t> transferred{0};
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      Rng rng(t + 1);
      for (int i = 0; i < kOps; ++i) {
        const int src = static_cast<int>(rng.next_below(kSlots));
        int dst = static_cast<int>(rng.next_below(kSlots));
        if (dst == src) dst = (dst + 1) % kSlots;
        for (;;) {
          const std::uint64_t vs = MwCAS::read(&slots[src]);
          const std::uint64_t vd = MwCAS::read(&slots[dst]);
          if (vs < 4) break;  // cannot move
          MwCAS::Word w[2] = {{&slots[src], vs, vs - 4},
                              {&slots[dst], vd, vd + 4}};
          if (MwCAS::execute(w, 2)) {
            transferred.fetch_add(4);
            break;
          }
        }
      }
    });
  }
  for (auto& t : ths) t.join();
  std::uint64_t sum = 0;
  for (auto& s : slots) {
    const std::uint64_t v = MwCAS::read(&s);
    EXPECT_EQ(v & 3, 0u) << "untagged-value invariant violated";
    sum += v;
  }
  EXPECT_EQ(sum, 8000u);
  EXPECT_GT(transferred.load(), 0u);
}

TEST(MwCASTest, ReadNeverReturnsDescriptor) {
  std::atomic<std::uint64_t> a{4}, b{8};
  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    std::uint64_t v = 4;
    while (!stop.load()) {
      MwCAS::Word w[2] = {{&a, v, v + 4}, {&b, v + 4, v + 8}};
      if (MwCAS::execute(w, 2)) v += 4;
    }
  });
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t v = MwCAS::read(&a);
    ASSERT_FALSE(sync::is_descriptor(v));
    ASSERT_EQ(v % 4, 0u);
  }
  stop.store(true);
  mutator.join();
}

// ---- PMwCAS ----

struct PmwcasEnv {
  PmwcasEnv() : dev(make_cfg()), pa(dev), pm(dev, pa) {
    // Target words come from the allocator (a raw fixed offset would
    // collide with allocator-managed memory, e.g. the descriptor pools).
    slots_ = static_cast<std::byte*>(pa.alloc(64 * kCacheLineSize));
    // The slot block must survive crashes in the recovery tests: blocks
    // with an invalid epoch are only reclaimed by an epoch-system
    // recovery, which these tests do not run, so the payload is stable.
    dev.persist_nontxn(alloc::PAllocator::header_of(slots_), 32);
  }
  static nvm::DeviceConfig make_cfg() {
    nvm::DeviceConfig cfg;
    cfg.capacity = 16 << 20;
    cfg.dirty_survival = 0.0;
    cfg.pending_survival = 1.0;  // fences modeled strictly via drain()
    return cfg;
  }
  std::atomic<std::uint64_t>* slot(int i) {
    return reinterpret_cast<std::atomic<std::uint64_t>*>(
        slots_ + i * kCacheLineSize);
  }
  nvm::Device dev;
  alloc::PAllocator pa;
  PMwCAS pm;
  std::byte* slots_;
};

TEST(PMwCASTest, BasicSuccessAndFailure) {
  PmwcasEnv env;
  env.slot(0)->store(8);
  env.slot(1)->store(16);
  env.dev.mark_dirty(env.slot(0), 8);
  env.dev.mark_dirty(env.slot(1), 8);
  PMwCAS::Word w[2] = {{env.slot(0), 8, 12}, {env.slot(1), 16, 20}};
  EXPECT_TRUE(env.pm.execute(w, 2));
  EXPECT_EQ(env.pm.read(env.slot(0)), 12u);
  EXPECT_EQ(env.pm.read(env.slot(1)), 20u);
  EXPECT_FALSE(env.pm.execute(w, 2));  // stale expected
}

TEST(PMwCASTest, CompletedOpIsDurable) {
  // Strict DL: once execute() returns, a crash must preserve the result.
  PmwcasEnv env;
  env.slot(0)->store(8);
  env.dev.mark_dirty(env.slot(0), 8);
  env.dev.persist_nontxn(env.slot(0), 8);
  PMwCAS::Word w[1] = {{env.slot(0), 8, 12}};
  ASSERT_TRUE(env.pm.execute(w, 1));
  env.dev.simulate_crash();
  PMwCAS attached(env.dev, env.pa, PMwCAS::Mode::kAttach);
  attached.recover();
  EXPECT_EQ(attached.read(env.slot(0)), 12u);
}

TEST(PMwCASTest, RecoveryRollsBackUndecidedDescriptor) {
  // Hand-craft a crash in the middle of the install phase: word 0 holds a
  // descriptor pointer, the decision was never made.
  PmwcasEnv env;
  env.slot(0)->store(8);
  env.slot(1)->store(16);
  env.dev.mark_dirty(env.slot(0), 8);
  env.dev.mark_dirty(env.slot(1), 8);
  env.dev.persist_nontxn(env.slot(0), 8);
  env.dev.persist_nontxn(env.slot(1), 8);

  // Run a successful op to learn a descriptor address, then fake a
  // partially-installed one via direct stores.
  PMwCAS::Word warm[1] = {{env.slot(2), 0, 4}};
  ASSERT_TRUE(env.pm.execute(warm, 1));

  env.dev.simulate_crash();
  PMwCAS attached(env.dev, env.pa, PMwCAS::Mode::kAttach);
  attached.recover();
  EXPECT_EQ(attached.read(env.slot(0)), 8u);
  EXPECT_EQ(attached.read(env.slot(1)), 16u);
  EXPECT_EQ(attached.read(env.slot(2)), 4u);  // completed op rolled forward
}

TEST(PMwCASTest, UsesPersistInstructionsOnCriticalPath) {
  // The whole point of Fig. 4: PMwCAS pays clwb+fence per step.
  PmwcasEnv env;
  env.slot(0)->store(8);
  env.dev.mark_dirty(env.slot(0), 8);
  const auto clwbs_before = env.dev.stats().clwbs.load();
  const auto fences_before = env.dev.stats().fences.load();
  PMwCAS::Word w[1] = {{env.slot(0), 8, 12}};
  ASSERT_TRUE(env.pm.execute(w, 1));
  // >= descriptor persist + install persist + status persist + final
  // persist: at least 4 fences.
  EXPECT_GE(env.dev.stats().clwbs.load() - clwbs_before, 4u);
  EXPECT_GE(env.dev.stats().fences.load() - fences_before, 4u);
}

TEST(PMwCASTest, ConcurrentTotalConservation) {
  PmwcasEnv env;
  constexpr int kSlots = 4, kThreads = 3, kOps = 2000;
  for (int i = 0; i < kSlots; ++i) {
    env.slot(i)->store(1000);
    env.dev.mark_dirty(env.slot(i), 8);
  }
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      Rng rng(77 + t);
      for (int i = 0; i < kOps; ++i) {
        const int s = static_cast<int>(rng.next_below(kSlots));
        const int d = (s + 1) % kSlots;
        for (;;) {
          const auto vs = env.pm.read(env.slot(s));
          const auto vd = env.pm.read(env.slot(d));
          if (vs < 4) break;
          PMwCAS::Word w[2] = {{env.slot(s), vs, vs - 4},
                               {env.slot(d), vd, vd + 4}};
          if (env.pm.execute(w, 2)) break;
        }
      }
    });
  }
  for (auto& t : ths) t.join();
  std::uint64_t sum = 0;
  for (int i = 0; i < kSlots; ++i) sum += env.pm.read(env.slot(i));
  EXPECT_EQ(sum, 4000u);
}

// ---- HTM-MwCAS ----

class HtmMwcasTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
};

TEST_F(HtmMwcasTest, BasicSemantics) {
  alignas(8) std::uint64_t a = 2, b = 4;
  HTMMwCAS mw;
  HTMMwCAS::Word w[2] = {{&a, 2, 6}, {&b, 4, 8}};
  auto r = mw.execute(w, 2);
  EXPECT_TRUE(r.success);
  EXPECT_EQ(mw.read(&a), 6u);
  EXPECT_EQ(mw.read(&b), 8u);
  r = mw.execute(w, 2);  // stale expected
  EXPECT_FALSE(r.success);
}

TEST_F(HtmMwcasTest, FallbackUnderPersistentAborts) {
  // Force every transaction attempt to abort: the fallback path must
  // still complete the operation (progress guarantee).
  htm::EngineConfig cfg;
  cfg.spurious_abort_prob = 1.0;
  htm::configure(cfg);
  alignas(8) std::uint64_t a = 2;
  HTMMwCAS mw;
  HTMMwCAS::Word w[1] = {{&a, 2, 4}};
  const auto r = mw.execute(w, 1);
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_EQ(mw.read(&a), 4u);
}

TEST_F(HtmMwcasTest, MismatchOnFallbackPathFailsWithoutWriting) {
  htm::EngineConfig cfg;
  cfg.spurious_abort_prob = 1.0;
  htm::configure(cfg);
  alignas(8) std::uint64_t a = 2, b = 4;
  HTMMwCAS mw;
  HTMMwCAS::Word w[2] = {{&a, 2, 6}, {&b, 99, 8}};
  const auto r = mw.execute(w, 2);
  EXPECT_FALSE(r.success);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_EQ(mw.read(&a), 2u);
  EXPECT_EQ(mw.read(&b), 4u);
}

// A fallback holder parked past the shared retry loop's total-wait
// deadline (ElideOptions::max_wait_us, 100 ms by default): the waiting
// MwCAS must stop spinning, attribute a wait_timeout fallback, and
// complete on the fallback path once the holder leaves.
TEST_F(HtmMwcasTest, WaitBehindStalledHolderTimesOutIntoFallback) {
  alignas(8) std::uint64_t a = 2;
  HTMMwCAS mw;
  htm::FallbackPolicy& pol = mw.fallback_policy();
  pol.acquire(pol.all());
  HTMMwCAS::Result r{};
  std::thread worker([&] {
    HTMMwCAS::Word w[1] = {{&a, 2, 4}};
    r = mw.execute(w, 1);
  });
  // Hold from the worker's first subscription abort (which arms its
  // deadline) until well past the deadline.
  while (htm::collect_stats().aborts_lock_subscription == 0) {
    std::this_thread::yield();
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  pol.release(pol.all());
  worker.join();
  EXPECT_TRUE(r.success);
  EXPECT_TRUE(r.used_fallback);
  EXPECT_EQ(mw.read(&a), 4u);
  const auto s = htm::collect_stats();
  EXPECT_EQ(s.fallbacks_wait_timeout, 1u);
  EXPECT_EQ(s.fallback_acquisitions, 2u);  // holder + worker fallback
}

TEST_F(HtmMwcasTest, MismatchDoesNotFallBack) {
  alignas(8) std::uint64_t a = 2;
  HTMMwCAS mw;
  HTMMwCAS::Word w[1] = {{&a, 99, 4}};
  const auto r = mw.execute(w, 1);
  EXPECT_FALSE(r.success);
  EXPECT_FALSE(r.used_fallback);
}

TEST_F(HtmMwcasTest, ConcurrentConservation) {
  constexpr int kSlots = 8, kThreads = 4, kOps = 20000;
  alignas(64) static std::uint64_t slots[kSlots];
  for (auto& s : slots) htm::nontx_store(&s, std::uint64_t{500});
  HTMMwCAS mw;
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      Rng rng(5 + t);
      for (int i = 0; i < kOps; ++i) {
        const int s = static_cast<int>(rng.next_below(kSlots));
        const int d = (s + 3) % kSlots;
        for (;;) {
          const auto vs = mw.read(&slots[s]);
          const auto vd = mw.read(&slots[d]);
          if (vs == 0) break;
          HTMMwCAS::Word w[2] = {{&slots[s], vs, vs - 1},
                                 {&slots[d], vd, vd + 1}};
          if (mw.execute(w, 2).success) break;
        }
      }
    });
  }
  for (auto& t : ths) t.join();
  std::uint64_t sum = 0;
  for (auto& s : slots) sum += mw.read(&s);
  EXPECT_EQ(sum, 4000u);
}

TEST_F(HtmMwcasTest, EightWordsSupported) {
  alignas(8) std::uint64_t v[8] = {0, 2, 4, 6, 8, 10, 12, 14};
  HTMMwCAS mw;
  HTMMwCAS::Word w[8];
  for (int i = 0; i < 8; ++i) {
    w[i] = {&v[i], v[i], v[i] + 100};
  }
  EXPECT_TRUE(mw.execute(w, 8).success);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(mw.read(&v[i]), v[i]);
}

}  // namespace
}  // namespace bdhtm
