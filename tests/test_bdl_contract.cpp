// The BDL contract (DESIGN.md §5), written once and run on every backend
// of tests/bdl_world.hpp: PHTM-vEB, BD-Spash, BDL-Skiplist and a 2-shard
// KVStore. After a crash, recovery yields the epoch-consistent prefix at
// the frontier — a crash in epoch e recovers to the end of e-1 — on any
// number of recovery workers, and a second recovery changes nothing.
// Between crashes each backend is a linearizable map whose operation
// path executes no persist instruction and retires replaced copies.
//
// ctest runs each backend in a process of its own (one test per
// --gtest_filter=*/<name>.*), so each has its own thread-id budget.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"
#include "common/spin.hpp"
#include "htm/engine.hpp"

namespace bdhtm::test {
namespace {

template <typename B>
class BdlContract : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
};
TYPED_TEST_SUITE(BdlContract, Backends::All, BackendName);

TYPED_TEST(BdlContract, InsertUpdateRemoveFind) {
  World w;
  auto m = make<TypeParam>(*w.es);
  EXPECT_FALSE(m->find(7).has_value());
  EXPECT_TRUE(m->insert(7, 70));
  EXPECT_EQ(m->find(7), 70u);
  EXPECT_FALSE(m->insert(7, 71));  // update
  EXPECT_EQ(m->find(7), 71u);
  EXPECT_TRUE(m->remove(7));
  EXPECT_FALSE(m->remove(7));
  EXPECT_FALSE(m->find(7).has_value());
}

TYPED_TEST(BdlContract, MatchesReferenceAcrossEpochs) {
  World w;
  auto m = make<TypeParam>(*w.es);
  Oracle ref;
  Rng rng(83);
  for (int i = 0; i < 6000; ++i) {
    const std::uint64_t k = rng.next_below(2048);
    switch (rng.next_below(3)) {
      case 0: {
        const std::uint64_t v = rng.next_below(std::uint64_t{1} << 40);
        ASSERT_EQ(m->insert(k, v), ref.insert_or_assign(k, v).second)
            << "op " << i;
        break;
      }
      case 1:
        ASSERT_EQ(m->remove(k), ref.erase(k) > 0) << "op " << i;
        break;
      default: {
        const auto it = ref.find(k);
        ASSERT_EQ(m->find(k), it == ref.end()
                                  ? std::nullopt
                                  : std::optional<std::uint64_t>(it->second))
            << "op " << i;
      }
    }
    if (i % 256 == 255) w.es->advance();
  }
}

TYPED_TEST(BdlContract, PersistedStateSurvivesCrash) {
  World w;
  auto m = make<TypeParam>(*w.es);
  Oracle expect;
  for (std::uint64_t k = 0; k < 300; ++k) {
    m->insert(k, k * 5);
    expect[k] = k * 5;
  }
  w.es->persist_all();
  m = crash_and_recover(w, std::move(m));
  verify_exact(finder(*m), expect, 400);
}

TYPED_TEST(BdlContract, UnpersistedTailDropped) {
  World w;
  auto m = make<TypeParam>(*w.es);
  Oracle expect;
  for (std::uint64_t k = 0; k < 100; ++k) {
    m->insert(k, k);
    expect[k] = k;
  }
  w.es->persist_all();
  for (std::uint64_t k = 100; k < 200; ++k) m->insert(k, k);
  m = crash_and_recover(w, std::move(m));
  verify_exact(finder(*m), expect, 200);
}

// BDL §5.2 rule 2: a remove whose epoch never persisted un-happens.
TYPED_TEST(BdlContract, RemoveBeforePersistResurrects) {
  World w;
  auto m = make<TypeParam>(*w.es);
  m->insert(42, 4242);
  w.es->persist_all();
  EXPECT_TRUE(m->remove(42));
  m = crash_and_recover(w, std::move(m));
  EXPECT_EQ(m->find(42), 4242u);
}

TYPED_TEST(BdlContract, PersistedRemoveStaysRemoved) {
  World w;
  auto m = make<TypeParam>(*w.es);
  m->insert(42, 4242);
  w.es->persist_all();
  EXPECT_TRUE(m->remove(42));
  w.es->persist_all();
  m = crash_and_recover(w, std::move(m));
  EXPECT_FALSE(m->find(42).has_value());
}

TYPED_TEST(BdlContract, UnpersistedUpdateRecoversOldValue) {
  World w;
  auto m = make<TypeParam>(*w.es);
  m->insert(9, 900);
  w.es->persist_all();
  EXPECT_FALSE(m->insert(9, 901));  // out-of-place, in a newer epoch
  m = crash_and_recover(w, std::move(m));
  EXPECT_EQ(m->find(9), 900u);
}

TYPED_TEST(BdlContract, MultithreadedRecovery) {
  constexpr std::uint64_t kKeys = 1 << 13;
  World w;
  auto m = make<TypeParam>(*w.es);
  Oracle ref;
  Rng rng(61);
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t k = rng.next_below(kKeys);
    const std::uint64_t v = rng.next();
    m->insert(k, v);
    ref[k] = v;
  }
  w.es->persist_all();
  m = crash_and_recover(w, std::move(m), /*threads=*/4);
  verify_exact(finder(*m), ref, kKeys);
}

// An update in a newer epoch than the key's block replaces it out of
// place; the old copy is retired and, once its epoch persists and its
// readers drain, reclaimed.
TYPED_TEST(BdlContract, OutOfPlaceReplaceIsReclaimed) {
  World w;
  auto m = make<TypeParam>(*w.es);
  m->insert(3, 30);
  w.es->advance();
  EXPECT_FALSE(m->insert(3, 31));
  EXPECT_EQ(m->find(3), 31u);
  EXPECT_EQ(w.es->stats().blocks_reclaimed.load(), 0u);
  for (int i = 0; i < 3; ++i) w.es->advance();
  EXPECT_GT(w.es->stats().blocks_reclaimed.load(), 0u);
  EXPECT_EQ(m->find(3), 31u);
}

TYPED_TEST(BdlContract, NvmBytesCountRetiredCopies) {
  World w;
  auto m = make<TypeParam>(*w.es);
  m->insert(1, 10);
  w.es->persist_all();
  const std::uint64_t base = w.pa->bytes_in_use();
  m->insert(1, 11);  // out of place: old and new copies coexist
  EXPECT_GT(w.pa->bytes_in_use(), base);
  w.es->persist_all();  // the old copy is reclaimed
  EXPECT_LE(w.pa->bytes_in_use(), base + 64);
}

TYPED_TEST(BdlContract, NoPersistOnOperationPath) {
  World w;
  auto m = make<TypeParam>(*w.es);
  // Warm the allocator: carving a superblock persists its header.
  m->insert(999, 1);
  m->remove(999);
  const auto& st = w.dev->stats();
  const std::uint64_t clwbs = st.clwbs.load();
  const std::uint64_t fences = st.fences.load();
  for (std::uint64_t k = 0; k < 64; ++k) m->insert(k, k);
  // Buffered durability: per-op persists must not scale with the op
  // count the way strict DL's do.
  EXPECT_LE(st.clwbs.load() - clwbs, 8u);
  EXPECT_LE(st.fences.load() - fences, 8u);
}

// Four threads insert, remove and read 256 hot keys while the advancer
// runs. Every value ever written for key k is k + 1. Per key, the
// inserts that report a fresh key and the removes that report a removal
// must alternate in any linearization, so their counts differ by the
// key's final presence. A crash afterwards recovers no torn value.
TYPED_TEST(BdlContract, HotKeyStressWithAdvancer) {
  constexpr int kThreads = 4;
  constexpr std::uint64_t kKeys = 256;
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 1000;
  ecfg.flusher_threads = 2;
  World w(strict_device(), ecfg);
  auto m = make<TypeParam>(*w.es);
  std::vector<std::vector<long>> balance(kThreads,
                                         std::vector<long>(kKeys, 0));
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      Rng rng(51 + t);
      for (int i = 0; i < 2500; ++i) {
        const std::uint64_t k = rng.next_below(kKeys);
        switch (rng.next_below(3)) {
          case 0:
            if (m->insert(k, k + 1)) ++balance[t][k];
            break;
          case 1:
            if (m->remove(k)) --balance[t][k];
            break;
          default:
            if (const auto v = m->find(k)) {
              EXPECT_EQ(*v, k + 1);
            }
        }
      }
    });
  }
  for (auto& th : ths) th.join();
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    long net = 0;
    for (const auto& b : balance) net += b[k];
    const std::optional<std::uint64_t> v = m->find(k);
    EXPECT_EQ(net, v.has_value() ? 1 : 0) << "key " << k;
    if (v) {
      EXPECT_EQ(*v, k + 1) << "key " << k;
    }
  }
  m = crash_and_recover(w, std::move(m), /*threads=*/2);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (const auto v = m->find(k)) {
      EXPECT_EQ(*v, k + 1) << "key " << k;
    }
  }
}

// Crash points between manual advances: the recovered content is
// exactly the inserts whose epoch is at or below the frontier.
TYPED_TEST(BdlContract, CrashMidstreamRecoversPrefix) {
  for (const int crash_after : {10, 35, 77, 160}) {
    World w;
    auto m = make<TypeParam>(*w.es);
    std::vector<std::uint64_t> epoch_of;
    for (int i = 0; i < crash_after; ++i) {
      m->insert(static_cast<std::uint64_t>(i), i + 1);
      epoch_of.push_back(w.es->current_epoch());
      if (i % 13 == 12) w.es->advance();
    }
    const std::uint64_t frontier = w.frontier();
    Oracle expect;
    for (int i = 0; i < crash_after; ++i) {
      if (epoch_of[i] <= frontier) expect[i] = i + 1;
    }
    m = crash_and_recover(w, std::move(m));
    verify_exact(finder(*m), expect, crash_after,
                 "crash_after=" + std::to_string(crash_after));
  }
}

// Every relink rebuilds from an empty index. A second recover() on the
// same object must not find the backend's own blocks in their slots and
// reclaim them as losing duplicates: the live count, the heap's bytes in
// use and every value survive it, and still read right once further
// inserts have allocated from whatever the heap holds free.
TYPED_TEST(BdlContract, RecoverTwiceKeepsEveryBlock) {
  constexpr std::uint64_t kKeys = 300;
  // Enough that new blocks reuse any the second recovery wrongly freed;
  // in this heap 3,000 further inserts reach none of them.
  constexpr std::uint64_t kMore = 11'700;
  World w;
  auto m = make<TypeParam>(*w.es);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(m->insert(k, image_value(k, 0)));
  }
  w.es->persist_all();
  m.reset();
  w.crash_and_attach();
  m = make<TypeParam>(*w.es);
  const std::size_t live = m->recover(1);
  const std::uint64_t bytes = w.pa->bytes_in_use();
  EXPECT_EQ(live, kKeys);
  EXPECT_EQ(m->recover(1), live);
  EXPECT_EQ(w.pa->bytes_in_use(), bytes);
  Oracle expect;
  for (std::uint64_t k = 0; k < kKeys; ++k) expect[k] = image_value(k, 0);
  verify_exact(finder(*m), expect, kKeys, "after the second recovery");
  for (std::uint64_t k = kKeys; k < kKeys + kMore; ++k) {
    ASSERT_TRUE(m->insert(k, image_value(k, 0)));
    expect[k] = image_value(k, 0);
  }
  verify_exact(finder(*m), expect, kKeys + kMore, "after further inserts");
}

// ---- A stale envelope restarts after its applied prefix ----

struct StaleBatchRun {
  std::vector<std::size_t> starts;  // first op of each apply_batch call
  std::vector<epoch::BatchOp> ops;  // with their results
};

// Deterministic OldSeeNew: T1 pins an envelope at epoch e, the epoch
// advances, the main thread overwrites key 5 at e+1, then T1 applies
// `ops`, one of which puts key 5, under its stale envelope. The backend
// must throw EnvelopeRestart and run_envelope must re-apply the ops not
// yet applied under a fresh epoch. Keys 5 and 7 exist beforehand (keys
// 5, 7 and 9 share a store shard); t1's put of key 5 must be the last
// write. The advance runs on a helper thread: it publishes e+1 and then
// waits for T1's envelope, the straggler in e, which closes only when it
// restarts.
template <typename B>
StaleBatchRun run_stale_batch(std::vector<epoch::BatchOp> ops) {
  World w;
  auto m = make<B>(*w.es);
  EXPECT_TRUE(m->insert(5, 50));
  EXPECT_TRUE(m->insert(7, 70));
  const std::uint64_t e0 = w.es->current_epoch();
  std::atomic<int> phase{0};
  StaleBatchRun run;
  std::thread t1([&] {
    epoch::run_envelope(
        *w.es, ops.size(), [&](std::size_t first, std::size_t n) {
          run.starts.push_back(first);
          if (run.starts.size() == 1) {
            // Pinned at the pre-advance epoch; park here while the main
            // thread advances and overwrites key 5 at the newer epoch.
            EXPECT_EQ(w.es->current_op_epoch(), e0);
            phase.store(1, std::memory_order_release);
            while (phase.load(std::memory_order_acquire) != 2) {
              std::this_thread::yield();
            }
          }
          m->apply_batch(ops.data() + first, n);
        });
  });
  while (phase.load(std::memory_order_acquire) != 1) {
    std::this_thread::yield();
  }
  // The transition publishes e0+1 and then drains t1's envelope, so it
  // cannot finish before phase 2; the overwrite stamps e0+1 meanwhile.
  std::thread adv([&] { w.es->advance(); });
  while (w.es->current_epoch() == e0) std::this_thread::yield();
  EXPECT_FALSE(m->insert(5, 51));  // overwrite at the newer epoch
  phase.store(2, std::memory_order_release);
  t1.join();
  adv.join();
  EXPECT_EQ(m->find(5), std::optional<std::uint64_t>{55})
      << "t1's put is the last write";
  run.ops = std::move(ops);
  return run;
}

TYPED_TEST(BdlContract, StaleEnvelopeRestartsAfterAppliedPrefix) {
  using Kind = epoch::BatchOp::Kind;
  // One op: the restart is Listing 1's abortOp + beginOp.
  const StaleBatchRun one = run_stale_batch<TypeParam>({{Kind::kPut, 5, 55}});
  EXPECT_GE(one.starts.size(), 2u)
      << "stale envelope must restart at least once";

  // Four ops, the stale put third. An HTM abort rolls the whole batch
  // back; under forced fallback the first two ops apply irrevocably, and
  // the restart must start after them: a re-run prefix would report the
  // remove as absent and the new key as present.
  const std::vector<epoch::BatchOp> batch = {{Kind::kRemove, 7},
                                             {Kind::kPut, 9, 90},
                                             {Kind::kPut, 5, 55},
                                             {Kind::kGet, 7}};
  const StaleBatchRun on_htm = run_stale_batch<TypeParam>(batch);
  htm::EngineConfig forced;
  forced.spurious_abort_prob = 1.0;  // every transaction falls back
  htm::configure(forced);
  const StaleBatchRun on_fallback = run_stale_batch<TypeParam>(batch);
  htm::configure(htm::EngineConfig{});

  const bool want_ok[] = {true, true, false, false};
  for (const StaleBatchRun* run : {&on_htm, &on_fallback}) {
    ASSERT_EQ(run->ops.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(run->ops[i].ok, want_ok[i]) << "op " << i;
      EXPECT_EQ(run->ops[i].out_value, on_htm.ops[i].out_value)
          << "op " << i;
    }
  }
  EXPECT_EQ(on_fallback.starts, (std::vector<std::size_t>{0, 2}));
}

// ---- Recovery of one crash image with every block kind ----
//
// build_crash_image spans several superblocks; workers claim them in
// whatever order they race to, and the two copies of a duplicated key sit
// in different ones.

template <typename B>
Recovered recover_image(World& w, int threads) {
  auto m = make<B>(*w.es);
  m->recover(threads);
  return {read_image(finder(*m)), w.es->last_recovery()};
}

TYPED_TEST(BdlContract, ParallelRecoveryMatchesSerial) {
  expect_parallel_recovery_matches_serial(recover_image<TypeParam>);
}

TYPED_TEST(BdlContract, RecrashRightAfterRecoveryIsIdempotent) {
  expect_recrash_idempotent(recover_image<TypeParam>);
}

// The relink runs on one thread per owner with plain accesses: a
// multi-superblock image recovers on 4 workers without a single
// transaction attempt.
TYPED_TEST(BdlContract, RecoveryRunsNoTransaction) {
  World w;
  const Oracle expect = build_crash_image(w);
  auto m = make<TypeParam>(*w.es);
  const htm::TxStats before = htm::collect_stats();
  m->recover(4);
  const htm::TxStats after = htm::collect_stats();
  EXPECT_EQ(after.commits, before.commits) << "the relink committed";
  EXPECT_EQ(after.attempts(), before.attempts()) << "the relink aborted";
  EXPECT_EQ(after.fallback_acquisitions, before.fallback_acquisitions);
  EXPECT_TRUE(read_image(finder(*m)) == expect);
}

// ---- Scans beside writers and transitions ----

/// The backends with an ordered walk, successor(), which runs in a read
/// envelope: no transition waits for it, and the pair it lands on stays
/// allocated until it leaves.
template <typename B>
class BdlScan : public BdlContract<B> {};
using OrderedBackends = ::testing::Types<veb::PHTMvEB, skiplist::BDLSkiplist>;
TYPED_TEST_SUITE(BdlScan, OrderedBackends, BackendName);

// Two writers replace and remove keys of their own while four scanners
// walk the map with successor() and the production advancer reclaims the
// copies the writers retire. Every value ever written for key k carries
// k in its high bits, so a walk that read a reclaimed copy after its
// reuse sees a value of another key. The keys of a walk strictly
// increase. Once everyone has stopped and the last epoch is durable, a
// crash recovers the writers' final map, the snapshot at the frontier.
//
// Six threads on fewer cores get preempted, and a scanner preempted
// between finding a pair and reading it is the case the read envelope
// covers. That window is a few instructions wide, so the writers write
// for a fixed 1.5 s: with reclamation blind to readers, 19 of 20 runs of
// the BDL-Skiplist instance failed on a 4-vCPU host, against 6 of 10
// when each writer stopped after 150,000 writes.
TYPED_TEST(BdlScan, ScanBesideWritersAndTransitions) {
  constexpr int kWriters = 2;
  constexpr int kScanners = 4;
  constexpr std::uint64_t kKeys = 256;  // keys 1..kKeys
  const std::uint64_t t_stop = now_ns() + 1'500'000'000;
  const auto value_of = [](std::uint64_t k, std::uint64_t gen) {
    return k << 32 | gen;
  };
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 1000;
  ecfg.flusher_threads = 2;
  World w(strict_device(), ecfg);
  auto m = make<TypeParam>(*w.es);
  std::vector<Oracle> written(kWriters);
  std::atomic<int> writing{kWriters};
  std::atomic<std::uint64_t> walks{0}, bad_values{0}, bad_order{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < kWriters; ++t) {
    ths.emplace_back([&, t] {
      Rng rng(97 + t);
      Oracle& mine = written[t];
      for (std::uint64_t i = 0; now_ns() < t_stop; ++i) {
        const std::uint64_t k =
            1 + t + kWriters * rng.next_below(kKeys / kWriters);
        if (rng.next_below(4) == 0) {
          m->remove(k);
          mine.erase(k);
        } else {
          m->insert(k, value_of(k, i));
          mine[k] = value_of(k, i);
        }
      }
      writing.fetch_sub(1);
    });
  }
  for (int t = 0; t < kScanners; ++t) {
    ths.emplace_back([&] {
      do {
        std::uint64_t cur = 0;
        while (const auto s = m->successor(cur)) {
          if (s->first <= cur) bad_order.fetch_add(1);
          if (s->second >> 32 != s->first) bad_values.fetch_add(1);
          cur = s->first;
        }
        walks.fetch_add(1);
      } while (writing.load() > 0);
    });
  }
  for (auto& th : ths) th.join();
  EXPECT_EQ(bad_values.load(), 0u) << "a walk read a reclaimed pair";
  EXPECT_EQ(bad_order.load(), 0u);
  EXPECT_GE(walks.load(), std::uint64_t{kScanners});
  EXPECT_GT(w.es->stats().blocks_reclaimed.load(), 0u);

  Oracle expect;
  for (const Oracle& mine : written) expect.insert(mine.begin(), mine.end());
  verify_exact(finder(*m), expect, kKeys + 1, "live");
  w.es->persist_all();
  m = crash_and_recover(w, std::move(m), /*threads=*/2);
  verify_exact(finder(*m), expect, kKeys + 1, "recovered");
}

}  // namespace
}  // namespace bdhtm::test
