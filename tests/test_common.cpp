// Unit tests for common utilities: RNG determinism, Zipfian distribution
// shape, spin calibration, env parsing, thread registration, flusher-pool
// shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "common/defs.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "common/threading.hpp"

namespace bdhtm {
namespace {

TEST(Defs, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(0, 64), 0u);
  EXPECT_EQ(round_up_pow2(1, 64), 64u);
  EXPECT_EQ(round_up_pow2(64, 64), 64u);
  EXPECT_EQ(round_up_pow2(65, 64), 128u);
  EXPECT_EQ(round_up_pow2(255, 256), 256u);
}

TEST(Defs, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(65));
}

TEST(Defs, LineOf) {
  EXPECT_EQ(line_of(0), 0u);
  EXPECT_EQ(line_of(63), 0u);
  EXPECT_EQ(line_of(64), 1u);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r(9);
  double lo = 1.0, hi = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    lo = std::min(lo, d);
    hi = std::max(hi, d);
  }
  EXPECT_LT(lo, 0.05);  // covers the interval
  EXPECT_GT(hi, 0.95);
}

TEST(Rng, SplitmixAvalanche) {
  // Adjacent inputs should map to very different outputs.
  const std::uint64_t a = splitmix64(1), b = splitmix64(2);
  EXPECT_NE(a, b);
  EXPECT_GT(__builtin_popcountll(a ^ b), 10);
}

class ZipfShape : public ::testing::TestWithParam<double> {};

TEST_P(ZipfShape, RankZeroIsHottest) {
  const double theta = GetParam();
  ZipfianGenerator z(1 << 16, theta, 42);
  std::map<std::uint64_t, int> counts;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) counts[z.next()]++;
  // Rank 0 must be the most frequent value.
  int max_count = 0;
  std::uint64_t max_rank = ~0ull;
  for (auto& [rank, c] : counts) {
    if (c > max_count) {
      max_count = c;
      max_rank = rank;
    }
  }
  EXPECT_EQ(max_rank, 0u);
  // And carries a macroscopic share of the mass for high skew.
  if (theta >= 0.99) {
    EXPECT_GT(counts[0], kDraws / 50);
  }
}

TEST_P(ZipfShape, AllDrawsInRange) {
  const double theta = GetParam();
  ZipfianGenerator z(1000, theta, 7);
  for (int i = 0; i < 100000; ++i) ASSERT_LT(z.next(), 1000u);
}

TEST_P(ZipfShape, MonotoneRankFrequency) {
  const double theta = GetParam();
  ZipfianGenerator z(256, theta, 11);
  std::vector<int> counts(256, 0);
  for (int i = 0; i < 400000; ++i) counts[z.next()]++;
  // Aggregate into buckets to smooth noise; bucket mass must decay.
  long b0 = 0, b1 = 0, b2 = 0;
  for (int i = 0; i < 4; ++i) b0 += counts[i];
  for (int i = 4; i < 32; ++i) b1 += counts[i];
  for (int i = 32; i < 256; ++i) b2 += counts[i];
  EXPECT_GT(b0 / 4, b1 / 28);    // head denser than body, per item
  EXPECT_GT(b1 / 28, b2 / 224);  // body denser than tail, per item
}

INSTANTIATE_TEST_SUITE_P(Thetas, ZipfShape, ::testing::Values(0.5, 0.9, 0.99));

TEST(ZipfLargeUniverse, ApproximateZetaStaysInRange) {
  // 2^26 universe exercises the Euler-Maclaurin zeta approximation.
  ZipfianGenerator z(std::uint64_t{1} << 26, 0.99, 3);
  for (int i = 0; i < 50000; ++i) ASSERT_LT(z.next(), std::uint64_t{1} << 26);
}

TEST(Spin, SleepsApproximatelyRightDuration) {
  spin_calibrate();
  // A deadline spin never returns early: no spin may end more than 1%
  // short of its request, on a loaded host too (a preemption only makes
  // a spin late).
  for (const std::uint32_t ns : {500u, 10'000u, 100'000u}) {
    for (int i = 0; i < 100; ++i) {
      const auto t0 = now_ns();
      spin_for_ns(ns);
      const auto elapsed = now_ns() - t0;
      ASSERT_GE(elapsed * 100, std::uint64_t{ns} * 99)
          << "a " << ns << " ns spin returned after " << elapsed << " ns";
    }
  }
}

TEST(Spin, ZeroIsNoop) {
  const auto t0 = now_ns();
  for (int i = 0; i < 1000; ++i) spin_for_ns(0);
  EXPECT_LT(now_ns() - t0, 50'000'000u);
}

TEST(Env, ParsesIntegerOrFallsBack) {
  ::setenv("BDHTM_TEST_INT", "42", 1);
  EXPECT_EQ(env_int("BDHTM_TEST_INT", 7), 42);
  ::setenv("BDHTM_TEST_INT", "nonsense", 1);
  EXPECT_EQ(env_int("BDHTM_TEST_INT", 7), 7);
  ::unsetenv("BDHTM_TEST_INT");
  EXPECT_EQ(env_int("BDHTM_TEST_INT", 7), 7);
}

TEST(Env, ParsesDoubleOrFallsBack) {
  ::setenv("BDHTM_TEST_DBL", "0.25", 1);
  EXPECT_DOUBLE_EQ(env_double("BDHTM_TEST_DBL", 1.0), 0.25);
  ::unsetenv("BDHTM_TEST_DBL");
  EXPECT_DOUBLE_EQ(env_double("BDHTM_TEST_DBL", 1.0), 1.0);
}

TEST(Env, String) {
  ::setenv("BDHTM_TEST_STR", "hello", 1);
  EXPECT_EQ(env_str("BDHTM_TEST_STR", "x"), "hello");
  ::unsetenv("BDHTM_TEST_STR");
  EXPECT_EQ(env_str("BDHTM_TEST_STR", "x"), "x");
}

TEST(Threading, IdsAreDenseAndStable) {
  reset_thread_ids_for_testing();
  const int mine = thread_id();
  EXPECT_EQ(mine, thread_id());  // stable within a thread
  std::vector<int> ids(4, -1);
  std::vector<std::thread> ths;
  for (int i = 0; i < 4; ++i) {
    ths.emplace_back([&ids, i] { ids[i] = thread_id(); });
  }
  for (auto& t : ths) t.join();
  for (int i = 0; i < 4; ++i) {
    EXPECT_GE(ids[i], 0);
    EXPECT_LT(ids[i], 5);
    EXPECT_NE(ids[i], mine);
  }
  EXPECT_EQ(max_thread_id_seen(), 5);
}

// The parts of a run claim indices from a shared cursor. Whichever
// helpers start, every index is handled exactly once by the time run()
// returns, and no helper enters a run after it returned.
TEST(FlusherPool, ClaimedIndicesAreHandledExactlyOnce) {
  FlusherPool pool(3);
  std::atomic<int> open_run{-1};
  std::atomic<int> late_parts{0};
  for (int r = 0; r < 4000; ++r) {
    const int parties = 1 + r % 4;
    const std::size_t n = static_cast<std::size_t>(r % 61);
    std::vector<std::atomic<int>> handled(n);
    std::atomic<std::size_t> next{0};
    open_run.store(r);
    pool.run(parties, [&, r](int) {
      if (open_run.load() != r) late_parts.fetch_add(1);
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        handled[i].fetch_add(1);
      }
    });
    open_run.store(-1);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(handled[i].load(), 1)
          << "run " << r << ", " << parties << " parties, index " << i;
    }
  }
  EXPECT_EQ(late_parts.load(), 0);
}

// Destroying a pool right after building it races each helper's first
// wait: a stop request and wakeup that land between the helper's
// predicate check and its sleep are lost unless the destructor raises
// the stop under the pool mutex, and the destructor then joins a helper
// that never wakes. The pools churn on a side thread while this thread
// watches its progress, so a lost wakeup fails the test within the stall
// bound instead of hanging the suite.
TEST(FlusherPool, DestroyRightAfterConstructionNeverHangs) {
  constexpr int kRounds = 20'000;
  constexpr auto kStall = std::chrono::seconds(5);
  // Shared with the churn thread, which is leaked if it wedges.
  auto rounds = std::make_shared<std::atomic<int>>(0);
  std::thread churn([rounds] {
    for (int i = 0; i < kRounds; ++i) {
      { FlusherPool pool(1); }
      rounds->fetch_add(1, std::memory_order_release);
    }
  });
  int seen = 0;
  auto last_progress = std::chrono::steady_clock::now();
  while (seen < kRounds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int now = rounds->load(std::memory_order_acquire);
    if (now != seen) {
      seen = now;
      last_progress = std::chrono::steady_clock::now();
    } else if (std::chrono::steady_clock::now() - last_progress > kStall) {
      churn.detach();  // wedged in ~FlusherPool; process exit reaps it
      FAIL() << "~FlusherPool hung joining a helper after " << seen
             << " pools";
    }
  }
  churn.join();
}

}  // namespace
}  // namespace bdhtm
