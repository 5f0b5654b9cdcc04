// FallbackPolicy (DESIGN.md §11): stripe geometry, the global policy as
// the 1-stripe degenerate case and its users' stripe accounting,
// deadlock freedom of canonical-order acquisition under adversarial
// overlapping footprints, global/striped result equivalence against a
// sequential oracle when every op is forced through the fallback, the
// checked-build fallback-stripe-order rule, and crash consistency with a
// crash landing mid-workload on the striped fallback path.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/checked.hpp"
#include "common/rng.hpp"
#include "hash/bd_spash.hpp"
#include "hash/spash.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"
#include "htm/retry.hpp"
#include "nvm/device.hpp"
#include "sync/htm_mwcas.hpp"
#include "veb/htm_veb.hpp"

namespace bdhtm {
namespace {

using htm::FallbackPolicy;
using htm::PolicyGuard;
using htm::StripeMask;

class FallbackPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
};

// ---- Geometry ----

TEST_F(FallbackPolicyTest, StripeCountRoundsDownToPowerOfTwoAndClamps) {
  EXPECT_EQ(FallbackPolicy(0).stripe_count(), 1);
  EXPECT_EQ(FallbackPolicy(1).stripe_count(), 1);
  EXPECT_EQ(FallbackPolicy(2).stripe_count(), 2);
  EXPECT_EQ(FallbackPolicy(7).stripe_count(), 4);
  EXPECT_EQ(FallbackPolicy(64).stripe_count(), 64);
  EXPECT_EQ(FallbackPolicy(1000).stripe_count(), 64);
  EXPECT_FALSE(FallbackPolicy(1).striped());
  EXPECT_TRUE(FallbackPolicy(2).striped());
}

TEST_F(FallbackPolicyTest, GlobalPolicyMapsEveryHashToTheOneStripe) {
  FallbackPolicy pol(1);
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(pol.mask_of_hash(rng.next()), StripeMask{1});
  }
  EXPECT_EQ(pol.all(), StripeMask{1});
}

TEST_F(FallbackPolicyTest, AllCoversExactlyTheStripes) {
  EXPECT_EQ(FallbackPolicy(8).all(), StripeMask{0xff});
  EXPECT_EQ(FallbackPolicy(64).all(), ~StripeMask{0});
}

// ---- Subscription vs fallback holds ----

TEST_F(FallbackPolicyTest, SubscriptionAbortsOnlyOnOverlap) {
  FallbackPolicy pol(8);
  PolicyGuard g(pol, 0b0011);  // hold stripes {0, 1}
  // Disjoint footprint commits; overlapping footprint aborts with the
  // policy's lock-subscription code. Same thread holds and probes — the
  // subscription tests the lock WORD, not ownership.
  const unsigned ok =
      htm::run([&](htm::Txn& tx) { pol.subscribe(tx, 0b1100); });
  EXPECT_EQ(ok, htm::kCommitted);
  const unsigned hit =
      htm::run([&](htm::Txn& tx) { pol.subscribe(tx, 0b0110); });
  ASSERT_NE(hit, htm::kCommitted);
  ASSERT_TRUE(hit & htm::kAbortExplicit);
  EXPECT_TRUE(htm::is_lock_subscription_code(htm::explicit_code(hit)));
  EXPECT_TRUE(pol.any_locked(0b0010));
  EXPECT_FALSE(pol.any_locked(0b0100));
}

TEST_F(FallbackPolicyTest, HeldByThisThreadTracksGuardScope) {
  FallbackPolicy pol(16);
  EXPECT_EQ(pol.held_by_this_thread(), 0u);
  {
    PolicyGuard g(pol, 0b1010);
    EXPECT_EQ(pol.held_by_this_thread(), StripeMask{0b1010});
  }
  EXPECT_EQ(pol.held_by_this_thread(), 0u);
}

// ---- Deadlock freedom ----

// Adversarial overlapping footprints: every thread repeatedly acquires a
// random multi-stripe mask (usually overlapping its peers'). Canonical
// ascending-order acquisition must keep this deadlock free; the test
// simply has to terminate. (A cycle would hang the suite — the ctest
// timeout is the detector.)
TEST_F(FallbackPolicyTest, CanonicalOrderIsDeadlockFreeUnderContention) {
  FallbackPolicy pol(8);
  constexpr int kThreads = 4;
  constexpr int kOps = 5000;
  std::atomic<std::uint64_t> acquired{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kOps; ++i) {
        // 1–4 random stripes out of 8: heavy pairwise overlap.
        StripeMask mask = 0;
        const int n = 1 + static_cast<int>(rng.next_below(4));
        for (int j = 0; j < n; ++j) {
          mask |= StripeMask{1} << rng.next_below(8);
        }
        PolicyGuard g(pol, mask);
        acquired.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& t : ths) t.join();
  EXPECT_EQ(acquired.load(), static_cast<std::uint64_t>(kThreads) * kOps);
  EXPECT_EQ(pol.held_by_this_thread(), 0u);
}

// ---- The 1-stripe users: one elided-lock type ----

// Spash, HTM-vEB and HTM-MwCAS take the paper's global lock as a
// 1-stripe policy. Forced through the fallback, every acquisition must
// take exactly the one stripe: TxStats' global-policy invariant
// fallback_stripes_acquired == fallback_acquisitions.
class GlobalPolicyUsersTest : public FallbackPolicyTest {
 protected:
  void SetUp() override {
    FallbackPolicyTest::SetUp();
    htm::EngineConfig ecfg;
    ecfg.spurious_abort_prob = 1.0;  // every attempt aborts => all fallback
    htm::configure(ecfg);
  }

  static void expect_one_stripe_per_fallback() {
    const auto st = htm::collect_stats();
    ASSERT_GT(st.fallback_acquisitions, 0u) << "fallbacks were not forced";
    EXPECT_EQ(st.fallback_stripes_acquired, st.fallback_acquisitions);
  }
};

TEST_F(GlobalPolicyUsersTest, SpashFallbackTakesTheOneStripe) {
  nvm::DeviceConfig cfg;
  cfg.capacity = 64ull << 20;
  nvm::Device dev(cfg);
  alloc::PAllocator pa(dev);
  hash::Spash m(pa, /*initial_depth=*/2);
  for (std::uint64_t k = 0; k < 600; ++k) ASSERT_TRUE(m.insert(k, k + 1));
  for (std::uint64_t k = 0; k < 600; k += 3) EXPECT_TRUE(m.remove(k));
  for (std::uint64_t k = 1; k < 600; k += 3) EXPECT_EQ(m.find(k), k + 1);
  expect_one_stripe_per_fallback();
}

TEST_F(GlobalPolicyUsersTest, HTMvEBFallbackTakesTheOneStripe) {
  veb::HTMvEB t(10);
  for (std::uint64_t k = 0; k < 200; ++k) ASSERT_TRUE(t.insert(k * 5, k));
  for (std::uint64_t k = 0; k < 200; k += 2) EXPECT_TRUE(t.remove(k * 5));
  EXPECT_EQ(t.find(5), 1u);
  const auto succ = t.successor(0);
  ASSERT_TRUE(succ.has_value());
  EXPECT_EQ(succ->first, 5u);
  expect_one_stripe_per_fallback();
}

TEST_F(GlobalPolicyUsersTest, HTMMwCASFallbackTakesTheOneStripe) {
  sync::HTMMwCAS mw;
  alignas(8) std::uint64_t a = 0, b = 100;
  for (std::uint64_t i = 0; i < 50; ++i) {
    sync::HTMMwCAS::Word w[2] = {{&a, i, i + 1}, {&b, 100 - i, 99 - i}};
    const auto r = mw.execute(w, 2);
    ASSERT_TRUE(r.success);
    EXPECT_TRUE(r.used_fallback);
  }
  EXPECT_EQ(mw.read(&a) + mw.read(&b), 100u);
  expect_one_stripe_per_fallback();
}

// ---- Global == striped result equivalence ----

// Drive the same deterministic op sequence — with every transaction
// forced onto the fallback path via certain spurious aborts — through a
// global-policy and a striped-policy BD-Spash plus a std::map oracle.
// Both structures must agree with the oracle exactly: the policy choice
// changes WHO serializes whom, never the results.
TEST_F(FallbackPolicyTest, GlobalAndStripedAgreeWithOracleUnderFallbacks) {
  htm::EngineConfig ecfg;
  ecfg.spurious_abort_prob = 1.0;  // every attempt aborts => all fallback
  htm::configure(ecfg);

  test::World w_global, w_striped;
  hash::BDSpash m_global(*w_global.es, /*initial_depth=*/4,
                         sizeof(epoch::KVPair),
                         hash::BDSpash::PersistRouting::kHybrid,
                         /*fallback_stripes=*/1);
  hash::BDSpash m_striped(*w_striped.es, /*initial_depth=*/4,
                          sizeof(epoch::KVPair),
                          hash::BDSpash::PersistRouting::kHybrid,
                          /*fallback_stripes=*/16);
  std::map<std::uint64_t, std::uint64_t> oracle;

  Rng rng(42);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.next_below(1 << 10);
    if (rng.next_below(4) == 0) {
      const bool a = m_global.remove(k);
      const bool b = m_striped.remove(k);
      EXPECT_EQ(a, b);
      EXPECT_EQ(a, oracle.erase(k) > 0);
    } else {
      const std::uint64_t v = rng.next_below(1u << 30);
      const bool a = m_global.insert(k, v);
      const bool b = m_striped.insert(k, v);
      EXPECT_EQ(a, b);
      EXPECT_EQ(a, oracle.emplace(k, v).second);
      oracle[k] = v;
    }
  }
  const auto st = htm::collect_stats();
  ASSERT_GT(st.fallback_acquisitions, 0u) << "fallbacks were not forced";
  for (std::uint64_t k = 0; k < (1 << 10); ++k) {
    const auto it = oracle.find(k);
    EXPECT_EQ(m_global.find(k),
              it == oracle.end()
                  ? std::nullopt
                  : std::optional<std::uint64_t>(it->second));
    EXPECT_EQ(m_striped.find(k),
              it == oracle.end()
                  ? std::nullopt
                  : std::optional<std::uint64_t>(it->second));
  }
}

// ---- Checked-build rule: fallback-stripe-order ----

std::atomic<int> g_violations{0};
void count_violation(checked::Rule rule, const char* /*site*/) {
  if (rule == checked::Rule::kFallbackStripeOrder) {
    g_violations.fetch_add(1);
  }
}

TEST_F(FallbackPolicyTest, CheckedTrapsOutOfOrderAcquire) {
  if (!checked::enabled()) GTEST_SKIP() << "requires -DBDHTM_CHECKED=ON";
  FallbackPolicy pol(8);
  checked::ScopedHandler h(&count_violation);
  g_violations.store(0);
  pol.acquire_stripe(3);
  EXPECT_EQ(g_violations.load(), 0);
  pol.acquire_stripe(5);  // ascending: fine
  EXPECT_EQ(g_violations.load(), 0);
  // Deliberate misuse probe: txlint: allow(fallback-stripe-order)
  pol.acquire_stripe(1);  // descending while holding {3,5}: trap
  EXPECT_EQ(g_violations.load(), 1);
  pol.release_stripe(1);
  pol.release_stripe(3);
  pol.release_stripe(5);
}

TEST_F(FallbackPolicyTest, CheckedTrapsSubscribeAfterTrackedAccess) {
  if (!checked::enabled()) GTEST_SKIP() << "requires -DBDHTM_CHECKED=ON";
  FallbackPolicy pol(8);
  checked::ScopedHandler h(&count_violation);
  g_violations.store(0);
  alignas(8) std::uint64_t word = 0;
  const unsigned st = htm::run([&](htm::Txn& tx) {
    (void)tx.load(&word);  // tracked access first...
    // ...then a deliberately late subscription, which must trap:
    // txlint: allow(fallback-stripe-order)
    pol.subscribe(tx, 0b0001);
  });
  EXPECT_EQ(st, htm::kCommitted);  // the handler returns; the tx proceeds
  EXPECT_EQ(g_violations.load(), 1);
}

// ---- Crash consistency across the striped fallback path ----

// All-fallback workload on a striped BD-Spash with lossy eviction, crash,
// recover, verify against the per-epoch oracle — the buffered-durability
// contract must be policy-independent (fallback bodies go through the
// same pTrack/pRetire protocol as transactions).
TEST_F(FallbackPolicyTest, StripedFallbackPathIsCrashConsistent) {
  htm::EngineConfig ecfg;
  ecfg.spurious_abort_prob = 1.0;
  htm::configure(ecfg);

  nvm::DeviceConfig cfg = test::strict_device();
  cfg.dirty_survival = 0.3;
  cfg.pending_survival = 0.7;
  cfg.crash_seed = 0xfa11;
  test::World w(cfg);
  const auto make = [&] {
    return std::make_unique<hash::BDSpash>(
        *w.es, /*initial_depth=*/4, sizeof(epoch::KVPair),
        hash::BDSpash::PersistRouting::kHybrid, /*fallback_stripes=*/16);
  };
  auto m = make();
  const test::Snapshots snaps =
      test::drive_random(*m, *w.es, 1200, 0xbeef, 1 << 10);
  ASSERT_GT(htm::collect_stats().fallback_acquisitions, 0u);
  const std::uint64_t frontier = w.frontier();

  m.reset();
  w.crash_and_attach();
  m = make();
  m->recover();
  test::verify_exact(test::finder(*m), test::snapshot_at(snaps, frontier),
                     1 << 10);
}

// ---- Watchdog × striped fallback interaction ----

// The advancer watchdog (DESIGN.md §10) and the striped fallback
// (DESIGN.md §11) must compose: with the background advancer stalled and
// a fallback holder parked MID-critical-section on its stripes, worker
// threads' watchdog rescues must still drive epoch transitions inline —
// the transition machinery takes no fallback stripes and the holder
// needs no epoch progress, so neither side can wait on the other. A
// contender whose footprint overlaps the parked holder times out its
// bounded wait (wait_timeout attribution, satellite #2) and completes
// through the fallback once the holder leaves. The TSan lane runs this
// file, so the cross-thread interleaving is also raced under the
// sanitizer.
TEST_F(FallbackPolicyTest, WatchdogTripsWhileStripedHolderMidCriticalSection) {
  nvm::DeviceConfig dc;
  dc.capacity = 64ull << 20;
  nvm::Device dev(dc);
  alloc::PAllocator pa(dev);
  epoch::EpochSys::Config cfg;
  cfg.start_advancer = true;
  cfg.epoch_length_us = 1000;
  cfg.watchdog_timeout_us = 3000;
  epoch::EpochSys es(pa, cfg);
  es.stall_advancer_for_testing(true);  // dead/descheduled advancer

  FallbackPolicy pol(8);
  std::atomic<bool> holder_in{false};
  alignas(8) std::uint64_t contended = 0;

  // Holder: a fallback critical section on stripes {0,1} parked for a
  // FIXED duration well past the watchdog deadline. Fixed — not
  // flag-released — because an inline advance of a later epoch can
  // legitimately block behind this op (step (1) of the transition waits
  // for e-1 stragglers); a flag set after the main loop would deadlock
  // the test itself, which is exactly the hang this test exists to rule
  // out of the PRODUCT.
  std::thread holder([&] {
    es.beginOp();
    {
      PolicyGuard g(pol, 0b0011);
      holder_in.store(true, std::memory_order_release);
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    es.endOp();
  });
  while (!holder_in.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Contender: overlapping footprint. Its bounded total-wait deadline
  // expires long before the holder leaves, so it must attribute a
  // wait_timeout fallback and then complete behind the holder.
  std::thread contender([&] {
    es.beginOp();
    htm::ElideOptions opts;
    opts.max_wait_us = 500;
    opts.max_lock_waits = 1 << 20;
    const int r = htm::elide<int>(
        pol, 0b0001,
        [&](auto& acc) {
          acc.store(&contended, std::uint64_t{11});
          return 12;
        },
        opts);
    EXPECT_EQ(r, 12);
    es.endOp();
  });

  // Main thread keeps operating on epoch state; durability must keep
  // progressing inline while the holder is parked on its stripes.
  const auto before = es.persisted_epoch();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (es.stats().inline_advances.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    es.beginOp();
    void* p = es.pNew(16);
    const std::uint64_t v = 1;
    es.pSet(p, &v, sizeof(v));
    epoch::EpochSys::set_epoch_nontx(dev, p, es.current_epoch());
    es.pTrack(p);
    es.endOp();
  }
  holder.join();
  contender.join();

  EXPECT_GT(es.stats().watchdog_trips.load(), 0u) << "stall never detected";
  EXPECT_GT(es.stats().inline_advances.load(), 0u)
      << "no inline transition while the holder was mid-critical-section";
  EXPECT_GT(es.persisted_epoch(), before)
      << "durability made no progress in degraded mode";
  EXPECT_EQ(contended, 11u);
  const auto s = htm::collect_stats();
  EXPECT_GE(s.fallbacks_wait_timeout, 1u);
  EXPECT_EQ(pol.held_by_this_thread(), 0u);
  es.stall_advancer_for_testing(false);
  // EpochSys destructor must still join the parked advancer cleanly.
}

}  // namespace
}  // namespace bdhtm
