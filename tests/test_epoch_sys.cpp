// Tests for the epoch system: Table 2 API behaviour, transition rules,
// retire/reclaim lifecycle, §5.2 recovery classification, and the BDL
// crash-consistency property.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/spin.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "htm/fallback.hpp"
#include "htm/retry.hpp"
#include "nvm/device.hpp"

namespace bdhtm {
namespace {

using alloc::BlockHeader;
using alloc::BlockStatus;
using alloc::PAllocator;
using epoch::EpochSys;

struct Env {
  explicit Env(nvm::DeviceConfig dcfg = {}, bool advancer = false,
               int flusher_threads = 0, bool coalesce = true)
      : dev(dcfg), pa(dev) {
    EpochSys::Config cfg;
    cfg.start_advancer = advancer;
    cfg.epoch_length_us = 2000;
    cfg.flusher_threads = flusher_threads;
    cfg.coalesce_flushes = coalesce;
    es = std::make_unique<EpochSys>(pa, cfg);
  }
  nvm::Device dev;
  PAllocator pa;
  std::unique_ptr<EpochSys> es;
};

nvm::DeviceConfig tiny() {
  nvm::DeviceConfig cfg;
  cfg.capacity = 16 << 20;
  cfg.dirty_survival = 0.0;
  cfg.pending_survival = 0.0;  // adversarial: nothing unfenced survives
  return cfg;
}

/// A long-lived thread that runs posted jobs one at a time. An operation
/// a job opens stays open until a later job closes it. Tests that need
/// another thread hundreds of times reuse one: thread ids are never
/// recycled.
class Helper {
 public:
  Helper() : th_([this] { loop(); }) {}
  ~Helper() {
    {
      std::lock_guard lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    th_.join();
  }
  Helper(const Helper&) = delete;
  Helper& operator=(const Helper&) = delete;
  /// Runs `job` on the helper thread after the previous job; returns at
  /// once.
  void post(std::function<void()> job) {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !job_; });
    job_ = std::move(job);
    cv_.notify_all();
  }
  /// Waits until the posted job has finished.
  void wait() {
    std::unique_lock lk(mu_);
    cv_.wait(lk, [&] { return !job_; });
  }
  void run(std::function<void()> job) {
    post(std::move(job));
    wait();
  }

 private:
  void loop() {
    std::unique_lock lk(mu_);
    for (;;) {
      cv_.wait(lk, [&] { return job_ || stop_; });
      if (!job_) return;
      lk.unlock();
      job_();
      lk.lock();
      job_ = nullptr;
      cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::function<void()> job_;
  bool stop_ = false;
  std::thread th_;  // last: starts after the rest is built
};

/// Holds the transition that closes the current epoch e between its
/// publish of e+1 and its drain: a straggler operation in e stays open on
/// one helper while another helper runs advance(). Operations the caller
/// begins meanwhile land in e+1; release() ends the straggler and waits
/// for the transition to drain, flush and finish.
class HeldTransition {
 public:
  explicit HeldTransition(EpochSys& es) : es_(es) {
    const std::uint64_t e = es.current_epoch();
    // txlint: allow(unbalanced-epoch-op) -- release() ends the straggler
    straggler().run([&es] { es.beginOp(); });
    advancer().post([&es] { es.advance(); });
    while (es.current_epoch() == e) std::this_thread::yield();
  }
  ~HeldTransition() { release(); }
  HeldTransition(const HeldTransition&) = delete;
  HeldTransition& operator=(const HeldTransition&) = delete;
  void release() {
    if (released_) return;
    released_ = true;
    straggler().run([this] { es_.endOp(); });
    advancer().wait();
  }
  /// Runs `job` on the straggler's thread, inside its operation.
  void in_straggler(std::function<void()> job) {
    straggler().run(std::move(job));
  }

 private:
  static Helper& straggler() {
    static Helper h;
    return h;
  }
  static Helper& advancer() {
    static Helper h;
    return h;
  }
  EpochSys& es_;
  bool released_ = false;
};

TEST(EpochSys, BeginOpReturnsCurrentEpoch) {
  Env env(tiny());
  const auto e = env.es->current_epoch();
  EXPECT_EQ(env.es->beginOp(), e);
  env.es->endOp();
}

TEST(EpochSys, AdvanceIncrementsAndPersistsEpoch) {
  Env env(tiny());
  const auto e = env.es->current_epoch();
  env.es->advance();
  EXPECT_EQ(env.es->current_epoch(), e + 1);
  // The transition that closes e persists e+2: the frontier is e.
  EXPECT_EQ(env.es->persisted_epoch(), e + 2);
  EXPECT_EQ(EpochSys::recovery_frontier(env.es->persisted_epoch()), e);
  // The persisted counter must be durable immediately.
  env.dev.simulate_crash();
  EXPECT_EQ(env.es->persisted_epoch(), e + 2);
}

TEST(EpochSys, TrackedWriteIsDurableAfterOneAdvance) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 0x77;
  env.es->pSet(p, &v, sizeof(v));
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();
  // Written in epoch e: buffered until the transition e -> e+1 flushes it.
  EXPECT_FALSE(env.dev.line_is_durable(p));
  env.es->advance();
  EXPECT_TRUE(env.dev.line_is_durable(p));
}

TEST(EpochSys, AbortOpDiscardsTrackingAndRetires) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 1;
  env.es->pSet(p, &v, sizeof(v));
  env.es->pRetire(p);
  EXPECT_EQ(PAllocator::header_of(p)->st(), BlockStatus::kDeleted);
  env.es->abortOp();
  // Retire undone, nothing buffered for flush.
  EXPECT_EQ(PAllocator::header_of(p)->st(), BlockStatus::kAllocated);
  env.es->advance();
  env.es->advance();
  env.es->advance();
  EXPECT_EQ(env.es->stats().ranges_flushed.load(), 0u);
}

TEST(EpochSys, RetiredBlockReclaimedAfterItsEpochPersists) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();

  env.es->beginOp();
  env.es->pRetire(p);
  env.es->endOp();
  const auto before = env.es->stats().blocks_reclaimed.load();
  env.es->advance();  // retire epoch persisted; reclamation still deferred
  EXPECT_EQ(env.es->stats().blocks_reclaimed.load(), before);
  EXPECT_EQ(PAllocator::header_of(p)->st(), BlockStatus::kDeleted);
  env.es->advance();  // grace period over (readers of the retire epoch
                      // and its successor have drained) -> reclaimed
  EXPECT_EQ(env.es->stats().blocks_reclaimed.load(), before + 1);
  EXPECT_EQ(PAllocator::header_of(p)->st(), BlockStatus::kFree);
}

TEST(EpochSys, AdvanceWaitsForInFlightOps) {
  Env env(tiny());
  const auto e0 = env.es->current_epoch();
  env.es->advance();

  std::atomic<bool> op_started{false}, release_op{false}, advanced{false};
  std::thread worker([&] {
    env.es->beginOp();
    op_started.store(true);
    while (!release_op.load()) std::this_thread::yield();
    env.es->endOp();
  });
  while (!op_started.load()) std::this_thread::yield();
  // Worker announced epoch e0+1: the transition that closes it
  // (e0+1 -> e0+2) drains it, so neither advance below can complete.
  std::thread adv([&] {
    env.es->advance();  // waits for ops in e0+1 (our worker) - blocks
    env.es->advance();
    advanced.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(advanced.load());
  release_op.store(true);
  adv.join();
  worker.join();
  EXPECT_TRUE(advanced.load());
  EXPECT_EQ(env.es->current_epoch(), e0 + 3);
}

TEST(EpochSys, OpsKeepStartingWhileAdvancerWaits) {
  // The transition out of e publishes e+1 first and then waits for the
  // op in e; ops started meanwhile land in e+1 and finish without
  // waiting for it.
  Env env(tiny());
  const auto e = env.es->beginOp();  // op in active epoch e
  std::atomic<bool> advanced{false};
  std::thread adv([&] {
    env.es->advance();
    advanced.store(true);
  });
  while (env.es->current_epoch() == e) std::this_thread::yield();
  std::thread late([&] {
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(env.es->beginOp(), e + 1);
      env.es->endOp();
    }
  });
  late.join();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(advanced.load()) << "the transition must drain the op in e";
  env.es->endOp();  // op of epoch e finishes during e+1: legal (in-flight)
  adv.join();
  EXPECT_TRUE(advanced.load());
  EXPECT_EQ(EpochSys::recovery_frontier(env.es->persisted_epoch()), e);
}

TEST(EpochSys, BlockRetiredInClosingEpochOutlivesItsTransition) {
  // Reader R begins in e+1 while the transition out of e waits for the
  // straggler in e, reads X, and then the straggler retires X. R began
  // before X's retire, so the transition must not reclaim X; only a
  // later transition, which drains R, may.
  Env env(tiny());
  env.es->beginOp();
  void* x = env.es->pNew(16);
  const std::uint64_t v = 0x5eed;
  env.es->pSet(x, &v, sizeof(v));
  EpochSys::set_epoch_nontx(env.dev, x, env.es->current_epoch());
  env.es->pTrack(x);
  env.es->endOp();
  env.es->advance();  // X durable and live
  const auto reclaimed0 = env.es->stats().blocks_reclaimed.load();

  HeldTransition held(*env.es);
  const auto r_epoch = env.es->beginOp();  // R
  EXPECT_EQ(r_epoch, env.es->current_epoch());
  EXPECT_EQ(*static_cast<std::uint64_t*>(x), v);
  held.in_straggler([&] { env.es->pRetire(x); });
  held.release();
  EXPECT_EQ(PAllocator::header_of(x)->st(), BlockStatus::kDeleted)
      << "reclaimed while a reader that found it is running";
  EXPECT_EQ(*static_cast<std::uint64_t*>(x), v);
  EXPECT_EQ(env.es->stats().blocks_reclaimed.load(), reclaimed0);

  // The next transition drains R before it reclaims X.
  std::atomic<bool> advanced{false};
  std::thread adv([&] {
    env.es->advance();
    advanced.store(true);
  });
  while (env.es->current_epoch() == r_epoch) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(advanced.load());
  EXPECT_EQ(PAllocator::header_of(x)->st(), BlockStatus::kDeleted);
  env.es->endOp();
  adv.join();
  EXPECT_EQ(PAllocator::header_of(x)->st(), BlockStatus::kFree);
  EXPECT_EQ(env.es->stats().blocks_reclaimed.load(), reclaimed0 + 1);
}

// ---- Read envelopes ----

TEST(EpochReaders, AdvancePersistsBesideAReaderInTheClosingEpoch) {
  // A read envelope writes nothing, so the transition that closes its
  // epoch does not wait for it: the epoch's writes become durable while
  // the reader is still open.
  Env env(tiny());
  Helper reader;
  const std::uint64_t e = env.es->current_epoch();
  reader.run([&] {
    EXPECT_EQ(env.es->beginOp(epoch::Access::kRead), e);
  });
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 0xfeed;
  env.es->pSet(p, &v, sizeof(v));
  EpochSys::set_epoch_nontx(env.dev, p, e);
  env.es->pTrack(p);
  env.es->endOp();
  std::atomic<bool> advanced{false};
  std::thread adv([&] {
    env.es->advance();
    advanced.store(true);
  });
  const auto limit = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!advanced.load() && std::chrono::steady_clock::now() < limit) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const bool in_time = advanced.load();
  reader.run([&] { env.es->endOp(); });  // frees a transition stuck on it
  adv.join();
  ASSERT_TRUE(in_time) << "advance() waited for a read envelope";
  EXPECT_EQ(EpochSys::recovery_frontier(env.es->persisted_epoch()), e);
  EXPECT_TRUE(env.dev.line_is_durable(p));
}

TEST(EpochReaders, ReaderHoldsBackReclamationUntilItLeaves) {
  // X is retired in epoch r-1 and a reader announces in r: the reader
  // may have found X before its unlink, so no transition frees X while
  // the reader is open. The first transition after it leaves does.
  Env env(tiny());
  Helper reader;
  env.es->beginOp();
  void* x = env.es->pNew(16);
  EpochSys::set_epoch_nontx(env.dev, x, env.es->current_epoch());
  env.es->pTrack(x);
  env.es->endOp();
  env.es->advance();
  env.es->beginOp();
  env.es->pRetire(x);
  env.es->endOp();
  env.es->advance();
  const std::uint64_t r = env.es->current_epoch();
  reader.run([&] {
    EXPECT_EQ(env.es->beginOp(epoch::Access::kRead), r);
  });
  const auto reclaimed0 = env.es->stats().blocks_reclaimed.load();
  for (int i = 0; i < 4; ++i) {
    env.es->advance();
    EXPECT_EQ(PAllocator::header_of(x)->st(), BlockStatus::kDeleted)
        << "reclaimed under an open reader, transition " << i;
  }
  EXPECT_EQ(env.es->stats().blocks_reclaimed.load(), reclaimed0);
  reader.run([&] { env.es->endOp(); });
  env.es->advance();
  EXPECT_EQ(PAllocator::header_of(x)->st(), BlockStatus::kFree);
  EXPECT_EQ(env.es->stats().blocks_reclaimed.load(), reclaimed0 + 1);
}

TEST(EpochReaders, ReaderAfterTheUnlinkHoldsNothingBack) {
  // X is retired in epoch r-2, and a reader announces in r while the
  // transition out of r-1 is held: it began after the unlink, so that
  // transition frees X on the usual schedule beside it.
  Env env(tiny());
  Helper reader;
  env.es->beginOp();
  void* x = env.es->pNew(16);
  EpochSys::set_epoch_nontx(env.dev, x, env.es->current_epoch());
  env.es->pTrack(x);
  env.es->endOp();
  env.es->advance();
  env.es->beginOp();
  env.es->pRetire(x);
  env.es->endOp();
  env.es->advance();
  {
    const std::uint64_t r = env.es->current_epoch() + 1;
    HeldTransition held(*env.es);
    reader.run([&] {
      EXPECT_EQ(env.es->beginOp(epoch::Access::kRead), r);
    });
  }
  EXPECT_EQ(PAllocator::header_of(x)->st(), BlockStatus::kFree);
  reader.run([&] { env.es->endOp(); });
}

TEST(EpochSys, BackgroundAdvancerMakesProgress) {
  Env env(tiny(), /*advancer=*/true);
  const auto e0 = env.es->current_epoch();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_GT(env.es->current_epoch(), e0);
}

// ---- Recovery classification (§5.2) ----

struct RecoveredSet {
  std::map<void*, std::uint64_t> live;  // payload -> create epoch
};

RecoveredSet recover_env(nvm::Device& dev) {
  // Post-crash world: fresh allocator + epoch system attached to the heap.
  static std::unique_ptr<PAllocator> pa;
  static std::unique_ptr<EpochSys> es;
  pa = std::make_unique<PAllocator>(dev, PAllocator::Mode::kAttach);
  EpochSys::Config cfg;
  cfg.start_advancer = false;
  cfg.attach = true;
  es = std::make_unique<EpochSys>(*pa, cfg);
  RecoveredSet out;
  es->recover([&](void* payload, std::uint64_t ce) {
    out.live[payload] = ce;
  });
  return out;
}

TEST(EpochRecovery, OldAllocatedBlockIsLive) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 42;
  env.es->pSet(p, &v, sizeof(v));
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();
  env.es->persist_all();
  env.dev.simulate_crash();
  auto rec = recover_env(env.dev);
  ASSERT_EQ(rec.live.size(), 1u);
  EXPECT_EQ(*static_cast<std::uint64_t*>(rec.live.begin()->first), 42u);
}

TEST(EpochRecovery, InvalidEpochBlockIsReclaimed) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  env.es->pTrack(p);  // tracked but never stamped: preallocation leak
  env.es->endOp();
  env.es->persist_all();
  env.dev.simulate_crash();
  auto rec = recover_env(env.dev);
  EXPECT_TRUE(rec.live.empty());
  EXPECT_EQ(PAllocator::header_of(p)->st(), BlockStatus::kFree);
}

TEST(EpochRecovery, TooRecentBlockIsDiscarded) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();
  // Crash immediately: the block's epoch is the active epoch, which is
  // newer than persisted-2. BDL discards it.
  env.dev.simulate_crash();
  auto rec = recover_env(env.dev);
  EXPECT_TRUE(rec.live.empty());
}

TEST(EpochRecovery, RecentlyDeletedBlockIsResurrected) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 9;
  env.es->pSet(p, &v, sizeof(v));
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();
  env.es->persist_all();  // block durable

  // Retire it in the now-current epoch, then crash before that epoch
  // becomes durable: BDL recovers to a state where the delete never
  // happened (paper §5.2 rule 2).
  env.es->beginOp();
  env.es->pRetire(p);
  env.es->endOp();
  env.dev.simulate_crash();
  auto rec = recover_env(env.dev);
  ASSERT_EQ(rec.live.size(), 1u);
  EXPECT_EQ(*static_cast<std::uint64_t*>(rec.live.begin()->first), 9u);
  EXPECT_EQ(PAllocator::header_of(rec.live.begin()->first)->delete_epoch(),
            alloc::kInvalidEpoch);  // normalized
}

TEST(EpochRecovery, AnciientlyDeletedBlockStaysDead) {
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();
  env.es->persist_all();
  env.es->beginOp();
  env.es->pRetire(p);
  env.es->endOp();
  env.es->persist_all();  // deletion persisted; block already reclaimed
  env.dev.simulate_crash();
  auto rec = recover_env(env.dev);
  EXPECT_TRUE(rec.live.empty());
}

TEST(EpochRecovery, RecoveryIsIdempotentAcrossSecondCrash) {
  // A block discarded at first recovery must not resurrect at a second
  // crash (headers are neutralized durably during recovery).
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();
  env.dev.simulate_crash();  // block too recent -> discarded
  auto rec1 = recover_env(env.dev);
  EXPECT_TRUE(rec1.live.empty());
  env.dev.simulate_crash();  // crash again right away
  auto rec2 = recover_env(env.dev);
  EXPECT_TRUE(rec2.live.empty());
}

// ---- Recovery write-back: the scan persists only what it changes ----

/// Crash image with `live` unchanged live blocks and a fixed set of
/// changed ones: 3 retired past the frontier (resurrected), 2 created
/// past it and 2 never stamped (discarded), 1 corrupted (quarantined).
/// Blocks whose epoch never persisted reach the media by eviction.
void build_writeback_image(Env& env, int live) {
  auto evict = [&](void* p) {
    env.dev.persist_nontxn(PAllocator::header_of(p), kCacheLineSize);
  };
  auto stamped = [&] {
    const auto e = env.es->beginOp();
    void* p = env.es->pNew(16);
    EpochSys::set_epoch_nontx(env.dev, p, e);
    env.es->pTrack(p);
    env.es->endOp();
    return p;
  };
  std::vector<void*> blocks;
  for (int i = 0; i < live + 4; ++i) blocks.push_back(stamped());
  BlockHeader* bad = PAllocator::header_of(blocks[0]);
  bad->meta ^= std::uint64_t{1} << BlockHeader::kDeleteShift;
  env.dev.mark_dirty(bad, sizeof(*bad));
  evict(blocks[0]);
  env.es->persist_all();
  env.es->beginOp();
  for (int i = 1; i <= 3; ++i) {
    env.es->pRetire(blocks[i]);
    evict(blocks[i]);
  }
  env.es->endOp();
  for (int i = 0; i < 2; ++i) {
    evict(stamped());
    evict(env.es->pNew(16));
  }
  env.es.reset();
  env.dev.simulate_crash();
}

TEST(EpochRecovery, WritesBackOnlyChangedHeaders) {
  constexpr std::uint64_t kRootLines = 1;  // the persistent root's lines
  for (const int live : {1000, 18000}) {
    for (const int threads : {1, 4}) {
      Env env(tiny());
      build_writeback_image(env, live);
      PAllocator pa(env.dev, PAllocator::Mode::kAttach);
      EpochSys::Config cfg;
      cfg.start_advancer = false;
      cfg.attach = true;
      EpochSys es(pa, cfg);
      std::atomic<std::uint64_t> handed{0};
      const std::uint64_t clwbs0 = env.dev.stats().clwbs.load();
      const auto rep = es.recover(
          [&](void*, std::uint64_t) { handed.fetch_add(1); }, threads);
      const std::uint64_t clwbs = env.dev.stats().clwbs.load() - clwbs0;
      SCOPED_TRACE(testing::Message()
                   << "live=" << live << " threads=" << threads);
      EXPECT_EQ(handed.load(), rep.blocks_live);
      EXPECT_EQ(rep.blocks_live, static_cast<std::uint64_t>(live) + 3);
      EXPECT_EQ(rep.blocks_resurrected, 3u);
      EXPECT_EQ(rep.blocks_discarded, 4u);
      EXPECT_EQ(rep.checksum_failures, 1u);
      EXPECT_EQ(rep.headers_persisted, 3u + 4u + 1u);
      EXPECT_EQ(clwbs, rep.headers_persisted + kRootLines);
    }
  }
}

// ---- The BDL property, end to end ----
//
// A single thread performs a sequence of inserts into a trivial
// "persistent multiset" (one block per element). We crash at a random
// operation index and verify the recovered set is exactly the prefix of
// elements whose epoch persisted — i.e., a consistent recent prefix of
// the history, never a subset with holes.

class BdlPrefixProperty : public ::testing::TestWithParam<int> {};

TEST_P(BdlPrefixProperty, RecoversConsistentPrefix) {
  const int crash_after = GetParam();
  nvm::DeviceConfig dcfg = tiny();
  dcfg.crash_seed = 0x1000 + crash_after;
  Env env(dcfg);

  std::vector<std::uint64_t> inserted_at_epoch;
  for (int i = 0; i < crash_after; ++i) {
    const auto e = env.es->beginOp();
    void* p = env.es->pNew(16);
    const std::uint64_t val = i;
    env.es->pSet(p, &val, sizeof(val));
    EpochSys::set_epoch_nontx(env.dev, p, e);
    env.es->pTrack(p);
    env.es->endOp();
    inserted_at_epoch.push_back(e);
    if (i % 7 == 6) env.es->advance();
  }
  const auto persisted = env.es->persisted_epoch();
  env.dev.simulate_crash();
  auto rec = recover_env(env.dev);

  // Everything from epochs <= persisted-2 must be present; everything
  // newer must be absent. (Values identify operations.)
  std::set<std::uint64_t> values;
  for (auto& [payload, ce] : rec.live) {
    values.insert(*static_cast<std::uint64_t*>(payload));
    EXPECT_LE(ce, EpochSys::recovery_frontier(persisted));
  }
  for (int i = 0; i < crash_after; ++i) {
    const bool should_live =
        inserted_at_epoch[i] <= EpochSys::recovery_frontier(persisted);
    EXPECT_EQ(values.count(i), should_live ? 1u : 0u) << "op " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, BdlPrefixProperty,
                         ::testing::Values(0, 1, 5, 13, 29, 50, 77));

TEST(EpochSysEadr, BufferingDisabledOnPersistentCache) {
  nvm::DeviceConfig dcfg = tiny();
  dcfg.eadr = true;
  Env env(dcfg);
  EXPECT_FALSE(env.es->buffering_enabled());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 3;
  env.es->pSet(p, &v, sizeof(v));
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();
  env.es->advance();
  env.es->advance();
  // No flush work was performed...
  EXPECT_EQ(env.dev.stats().media_line_writes.load(), 0u);
  // ...yet the data survives a crash, because the cache is persistent.
  env.dev.simulate_crash();
  EXPECT_EQ(*static_cast<std::uint64_t*>(p), 3u);
}

TEST(EpochSysEadr, RetireStillDefersReclamation) {
  nvm::DeviceConfig dcfg = tiny();
  dcfg.eadr = true;
  Env env(dcfg);
  env.es->beginOp();
  void* p = env.es->pNew(16);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->endOp();
  env.es->beginOp();
  env.es->pRetire(p);
  env.es->endOp();
  EXPECT_EQ(PAllocator::header_of(p)->st(), BlockStatus::kDeleted);
  env.es->advance();
  env.es->advance();
  env.es->advance();
  EXPECT_EQ(PAllocator::header_of(p)->st(), BlockStatus::kFree);
}

// ---- Write-back pipeline (ISSUE 1): coalescing + flusher pool ----

// Multiple threads buffer overlapping, adjacent, and duplicate ranges in
// one epoch; after the epoch persists and a crash hits, the recovered
// bytes must be identical whether the pipeline coalesced + fanned out or
// flushed naively (single flusher, no coalescing — the seed behaviour).
std::vector<std::vector<std::byte>> run_redundant_crash(int flusher_threads,
                                                        bool coalesce) {
  constexpr int kThreads = 4;
  constexpr int kBlocksPerThread = 8;
  constexpr std::size_t kBlockBytes = 256;  // spans multiple cache lines
  Env env(tiny(), /*advancer=*/false, flusher_threads, coalesce);

  // Deterministic allocation order (main thread) so block addresses and
  // contents match across the two configurations.
  std::vector<void*> blocks(kThreads * kBlocksPerThread);
  env.es->beginOp();
  for (auto& p : blocks) {
    p = env.es->pNew(kBlockBytes);
    EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
    env.es->pTrack(p);
  }
  env.es->endOp();

  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      env.es->beginOp();
      for (int b = 0; b < kBlocksPerThread; ++b) {
        void* p = blocks[t * kBlocksPerThread + b];
        // Duplicate whole-block writes (same lines tracked repeatedly)...
        for (int rep = 0; rep < 4; ++rep) {
          std::vector<std::uint8_t> img(kBlockBytes,
                                        std::uint8_t(0x10 * t + rep));
          env.es->pSet(p, img.data(), img.size());
        }
        // ...adjacent 8-byte strips covering the block back-to-back...
        for (std::size_t off = 0; off + 8 <= kBlockBytes; off += 8) {
          const std::uint64_t v =
              (std::uint64_t(t) << 56) | (std::uint64_t(b) << 48) | off;
          env.es->pSet(p, &v, sizeof(v), off);
        }
        // ...and an overlapping unaligned range straddling a line break.
        const std::uint64_t tail = ~std::uint64_t{0} - t;
        env.es->pSet(p, &tail, sizeof(tail), 60);
      }
      env.es->endOp();
    });
  }
  for (auto& th : ths) th.join();

  env.es->advance();
  env.es->advance();  // writes of the op epoch are now durable
  env.dev.simulate_crash();

  std::vector<std::vector<std::byte>> out;
  out.reserve(blocks.size());
  for (void* p : blocks) {
    auto* bytes = static_cast<std::byte*>(p);
    out.emplace_back(bytes, bytes + kBlockBytes);
  }
  return out;
}

TEST(EpochWriteback, CoalescedParallelFlushMatchesNaive) {
  const auto naive = run_redundant_crash(/*flusher_threads=*/1,
                                         /*coalesce=*/false);
  const auto piped = run_redundant_crash(/*flusher_threads=*/4,
                                         /*coalesce=*/true);
  ASSERT_EQ(naive.size(), piped.size());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i], piped[i]) << "block " << i;
  }
  // Sanity: the last writer of each 8-byte strip actually survived.
  for (std::size_t i = 0; i < piped.size(); ++i) {
    std::uint64_t v;
    std::memcpy(&v, piped[i].data() + 8, sizeof(v));
    EXPECT_EQ(v >> 56, i / 8) << "block " << i;
  }
}

TEST(EpochWriteback, CoalescingDedupesRedundantLines) {
  Env env(tiny(), /*advancer=*/false, /*flusher_threads=*/2,
          /*coalesce=*/true);
  env.es->beginOp();
  void* p = env.es->pNew(64);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  const std::uint64_t v = 7;
  for (int i = 0; i < 10; ++i) env.es->pSet(p, &v, sizeof(v));
  env.es->pTrack(p);
  env.es->endOp();
  env.es->advance();
  env.es->advance();
  EXPECT_GT(env.es->stats().lines_deduped.load(), 0u);
  EXPECT_LT(env.es->stats().lines_flushed.load(),
            env.es->stats().ranges_flushed.load());
  EXPECT_TRUE(env.dev.line_is_durable(p));
}

TEST(EpochWriteback, NoCoalesceSingleFlusherReportsNoDedup) {
  Env env(tiny(), /*advancer=*/false, /*flusher_threads=*/1,
          /*coalesce=*/false);
  env.es->beginOp();
  void* p = env.es->pNew(64);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  const std::uint64_t v = 9;
  for (int i = 0; i < 10; ++i) env.es->pSet(p, &v, sizeof(v));
  env.es->pTrack(p);
  env.es->endOp();
  env.es->advance();
  env.es->advance();
  // Naive mode: every tracked range is flushed individually, nothing is
  // deduplicated, and flushed lines >= ranges (pTrack's header+payload
  // range spans two lines).
  EXPECT_EQ(env.es->stats().lines_deduped.load(), 0u);
  EXPECT_GE(env.es->stats().lines_flushed.load(),
            env.es->stats().ranges_flushed.load());
  EXPECT_TRUE(env.dev.line_is_durable(p));
}

TEST(EpochSys, ConcurrentOpsWithBackgroundAdvancer) {
  nvm::DeviceConfig dcfg = tiny();
  dcfg.capacity = 64 << 20;
  Env env(dcfg, /*advancer=*/true);
  env.es->set_epoch_length_us(500);
  constexpr int kThreads = 4, kOps = 3000;
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      std::vector<void*> mine;
      for (int i = 0; i < kOps; ++i) {
        const auto e = env.es->beginOp();
        void* p = env.es->pNew(16);
        const std::uint64_t val = (std::uint64_t(t) << 32) | i;
        env.es->pSet(p, &val, sizeof(val));
        EpochSys::set_epoch_nontx(env.dev, p, e);
        env.es->pTrack(p);
        mine.push_back(p);
        if (mine.size() > 16) {
          env.es->pRetire(mine.front());
          mine.erase(mine.begin());
        }
        env.es->endOp();
      }
    });
  }
  for (auto& t : ths) t.join();
  env.es->persist_all();
  // No assertion failures / crashes = pass; sanity: epochs advanced (at
  // least persist_all's two transitions).
  EXPECT_GT(env.es->stats().epochs_advanced.load(), 1u);
  EXPECT_GT(env.es->stats().blocks_reclaimed.load(), 0u);
}

// ---- Recovery-frontier saturation ----
//
// recovery_frontier() must saturate below kFirstEpoch instead of
// wrapping: a crash before the first transition ever completed leaves
// persisted == kFirstEpoch, and `persisted - 2` would underflow to ~2^64
// — a frontier that "validates" every uncommitted block.

TEST(EpochFrontier, SaturatesAtFirstEpoch) {
  constexpr auto kFirst = EpochSys::kFirstEpoch;
  // No transition ever persisted: nothing is durable.
  EXPECT_EQ(EpochSys::recovery_frontier(kFirst), kFirst - 1);
  // No transition persists kFirst + 1 (each persists the epoch it
  // closes + 2), but a counter read from the media must not wrap either.
  EXPECT_EQ(EpochSys::recovery_frontier(kFirst + 1), kFirst - 1);
  // From the first transition on (it persists kFirst + 2), the counter
  // names the frontier + 2.
  EXPECT_EQ(EpochSys::recovery_frontier(kFirst + 2), kFirst);
  EXPECT_EQ(EpochSys::recovery_frontier(kFirst + 10), kFirst + 8);
  // Degenerate counters (possible only through corruption) must not
  // wrap either.
  EXPECT_EQ(EpochSys::recovery_frontier(0), kFirst - 1);
  EXPECT_EQ(EpochSys::recovery_frontier(1), kFirst - 1);
}

TEST(EpochFrontier, CrashBeforeFirstTransitionRecoversEmpty) {
  nvm::Device dev(tiny());
  {
    PAllocator pa(dev);
    EpochSys::Config cfg;
    cfg.start_advancer = false;
    EpochSys es(pa, cfg);
    // Write in the very first epoch; crash before any advance.
    es.beginOp();
    void* p = es.pNew(16);
    const std::uint64_t v = 0x99;
    es.pSet(p, &v, sizeof(v));
    EpochSys::set_epoch_nontx(dev, p, es.current_epoch());
    es.pTrack(p);
    es.endOp();
  }
  dev.simulate_crash();
  PAllocator pa(dev, PAllocator::Mode::kAttach);
  EpochSys::Config cfg;
  cfg.start_advancer = false;
  cfg.attach = true;
  EpochSys es(pa, cfg);
  EXPECT_EQ(es.persisted_epoch(), EpochSys::kFirstEpoch);
  int live = 0;
  const auto rep = es.recover([&](void*, std::uint64_t) { ++live; });
  // The frontier saturates to "nothing durable": the epoch-kFirstEpoch
  // block must be discarded, never resurrected by a wrapped frontier.
  EXPECT_EQ(live, 0);
  EXPECT_EQ(rep.blocks_live, 0u);
  EXPECT_EQ(rep.blocks_quarantined, 0u);
}

// ---- Advancer watchdog ----

TEST(EpochWatchdog, StalledAdvancerTripsAndAdvancesInline) {
  nvm::Device dev(tiny());
  PAllocator pa(dev);
  EpochSys::Config cfg;
  cfg.start_advancer = true;
  cfg.epoch_length_us = 1000;
  cfg.watchdog_timeout_us = 3000;
  EpochSys es(pa, cfg);
  es.stall_advancer_for_testing(true);  // models a dead/descheduled advancer
  const auto before = es.persisted_epoch();
  // Keep operating; durability must keep progressing without the
  // advancer, driven inline by this worker after the watchdog trips.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (es.stats().inline_advances.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    es.beginOp();
    void* p = es.pNew(16);
    const std::uint64_t v = 1;
    es.pSet(p, &v, sizeof(v));
    EpochSys::set_epoch_nontx(dev, p, es.current_epoch());
    es.pTrack(p);
    es.endOp();
  }
  EXPECT_GT(es.stats().watchdog_trips.load(), 0u)
      << "stall never detected";
  EXPECT_GT(es.stats().inline_advances.load(), 0u)
      << "no inline transition after the trip";
  EXPECT_GT(es.persisted_epoch(), before)
      << "durability made no progress in degraded mode";
  es.stall_advancer_for_testing(false);
  // Destructor must join the (parked but stop-responsive) advancer.
}

TEST(EpochWatchdog, HealthyAdvancerNeverTrips) {
  nvm::Device dev(tiny());
  PAllocator pa(dev);
  EpochSys::Config cfg;
  cfg.start_advancer = true;
  cfg.epoch_length_us = 500;
  // Generous deadline so CI scheduling hiccups cannot flake this.
  cfg.watchdog_timeout_us = 10'000'000;
  EpochSys es(pa, cfg);
  for (int i = 0; i < 2000; ++i) {
    es.beginOp();
    void* p = es.pNew(16);
    const std::uint64_t v = i;
    es.pSet(p, &v, sizeof(v));
    EpochSys::set_epoch_nontx(dev, p, es.current_epoch());
    es.pTrack(p);
    es.endOp();
  }
  EXPECT_EQ(es.stats().watchdog_trips.load(), 0u);
  EXPECT_EQ(es.stats().inline_advances.load(), 0u);
}

TEST(EpochWatchdog, DisabledWithoutAdvancer) {
  // Manual-advance configurations (all the tests above) must never be
  // treated as stalled, no matter how long they sit between advances.
  nvm::Device dev(tiny());
  PAllocator pa(dev);
  EpochSys::Config cfg;
  cfg.start_advancer = false;
  cfg.watchdog_timeout_us = 1;  // absurdly tight: would trip instantly
  EpochSys es(pa, cfg);
  for (int i = 0; i < 100; ++i) {
    es.beginOp();
    es.endOp();
  }
  EXPECT_EQ(es.stats().watchdog_trips.load(), 0u);
  EXPECT_EQ(es.stats().inline_advances.load(), 0u);
}

// ---- Demand-driven transitions (request_advance) ----

std::uint64_t process_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

EpochSys::Config advancer_cfg(std::uint64_t epoch_length_us) {
  EpochSys::Config cfg;
  cfg.start_advancer = true;
  cfg.epoch_length_us = epoch_length_us;
  return cfg;
}

// Waits up to `limit` for epochs_advanced to exceed `floor`.
bool advanced_past(const EpochSys& es, std::uint64_t floor,
                   std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (es.stats().epochs_advanced.load() <= floor) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

// Polls until the epoch reaches `target`; returns the first time it was
// seen there.
std::uint64_t published_at(const EpochSys& es, std::uint64_t target) {
  while (es.current_epoch() < target) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return now_ns();
}

TEST(EpochClock, TimerCountsFromThePublish) {
  // A straggler holds the timer transition out of e for about half an
  // epoch. The next epoch still ends one epoch length after its own
  // publish, not one epoch length after the slow transition completed.
  nvm::Device dev(tiny());
  PAllocator pa(dev);
  constexpr std::uint64_t kLenNs = 200'000'000;
  EpochSys es(pa, advancer_cfg(kLenNs / 1000));
  std::uint64_t e = es.beginOp();
  while (e != es.current_epoch()) {  // raced a transition: start again
    es.endOp();
    e = es.beginOp();
  }
  const std::uint64_t pub1 = published_at(es, e + 1);
  std::this_thread::sleep_for(std::chrono::nanoseconds(kLenNs / 2));
  es.endOp();
  const std::uint64_t pub2 = published_at(es, e + 2);
  const std::uint64_t gap = pub2 - pub1;
  EXPECT_GE(gap, kLenNs * 9 / 10) << "the timer ended the epoch early";
  EXPECT_LT(gap, kLenNs * 5 / 4)
      << "the epoch after a slow transition ran " << gap / 1000
      << " us, not one epoch length from its publish";
  // The drain the straggler caused shows in the drain histogram.
  EXPECT_GE(es.stats().drain_ns.max(), kLenNs * 2 / 5);
}

TEST(EpochDemand, ConstantRequestsNeverBeatTheGap) {
  // Every transition publishes at least epoch_length / 10 after the
  // previous publish, so any window W holds at most W / gap + 1 of them.
  nvm::Device dev(tiny());
  PAllocator pa(dev);
  constexpr std::uint64_t kEpochUs = 20'000;
  constexpr std::uint64_t kGapNs = kEpochUs * 1000 / 10;
  EpochSys es(pa, advancer_cfg(kEpochUs));
  std::atomic<bool> stop{false};
  std::thread requester([&] {
    // Re-posts within 50 us of each transition start: a request is
    // pending almost all the time, without taking a core from the suite.
    while (!stop.load(std::memory_order_relaxed)) {
      es.request_advance();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  struct Sample {
    std::uint64_t t_before, epochs, t_after;
  };
  std::vector<Sample> samples;
  const std::uint64_t t_end = now_ns() + 300'000'000ULL;
  while (now_ns() < t_end) {
    Sample smp;
    smp.t_before = now_ns();
    smp.epochs = es.current_epoch();
    smp.t_after = now_ns();
    samples.push_back(smp);
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop.store(true);
  requester.join();
  // The publishes counted between samples i and j happened inside
  // [t_before_i, t_after_j].
  for (std::size_t i = 0; i < samples.size(); ++i) {
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      const std::uint64_t window = samples[j].t_after - samples[i].t_before;
      ASSERT_LE(samples[j].epochs - samples[i].epochs, window / kGapNs + 1)
          << "window of " << window << " ns";
    }
  }
  EXPECT_GT(es.stats().demand_advances.load(), 0u);
}

TEST(EpochDemand, NoAdvancerIgnoresRequests) {
  Env env(tiny());  // start_advancer = false: tests drive advance()
  const auto e0 = env.es->current_epoch();
  for (int i = 0; i < 10'000; ++i) env.es->request_advance();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(env.es->current_epoch(), e0);
  EXPECT_EQ(env.es->stats().epochs_advanced.load(), 0u);
  EXPECT_EQ(env.es->stats().demand_advances.load(), 0u);
}

TEST(EpochDemand, StalledAdvancerKeepsRequestPendingWithoutSpinning) {
  // With a 2 s epoch the stall ends before the epoch would; with a 1 ms
  // epoch the open epoch is long overdue for the whole stall.
  for (const std::uint64_t len_us : {2'000'000, 1'000}) {
    SCOPED_TRACE("epoch length " + std::to_string(len_us) + " us");
    nvm::Device dev(tiny());
    PAllocator pa(dev);
    EpochSys es(pa, advancer_cfg(len_us));
    es.stall_advancer_for_testing(true);
    // A transition that was running when the stall began finishes.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t e0 = es.stats().epochs_advanced.load();
    es.request_advance();
    // Neither a pending request nor a passed deadline may wake a stalled
    // advancer in a loop: the process stays (nearly) idle meanwhile.
    const std::uint64_t cpu0 = process_cpu_ns();
    const std::uint64_t wall0 = now_ns();
    for (int i = 0; i < 100; ++i) {
      es.request_advance();
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
    }
    const std::uint64_t cpu = process_cpu_ns() - cpu0;
    const std::uint64_t wall = now_ns() - wall0;
    EXPECT_LT(cpu, wall / 2) << "a stalled advancer is spinning";
    EXPECT_EQ(es.stats().epochs_advanced.load(), e0);
    // Lifting the stall serves the pending request well before a 2 s
    // epoch length runs out; an overdue epoch ends on the timer.
    es.stall_advancer_for_testing(false);
    ASSERT_TRUE(advanced_past(es, e0, std::chrono::milliseconds(1500)));
    if (len_us > 1'000'000) {
      EXPECT_EQ(es.stats().demand_advances.load(), 1u);
    }
  }
}

TEST(EpochDemand, ConcurrentRequestsCoalesce) {
  // TSan target: requesters on several threads race one another and the
  // advancer's wait; all of them ride one transition.
  nvm::Device dev(tiny());
  PAllocator pa(dev);
  EpochSys es(pa, advancer_cfg(2'000'000));
  es.stall_advancer_for_testing(true);
  constexpr int kThreads = 8;
  std::atomic<int> ready{0};
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < 1000; ++i) es.request_advance();
    });
  }
  for (auto& th : ths) th.join();
  const std::uint64_t e0 = es.stats().epochs_advanced.load();
  es.stall_advancer_for_testing(false);
  ASSERT_TRUE(advanced_past(es, e0, std::chrono::milliseconds(1500)));
  // Two gaps (200 ms each): a request left pending after the transition
  // would have started another one by now.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(es.stats().epochs_advanced.load(), e0 + 1);
  EXPECT_EQ(es.stats().demand_advances.load(), 1u);
}

// ---- Line-mates (DESIGN.md §5, "Line-mates") ----
//
// Two 32-byte KV blocks, A and B, share one cache line. The write-back
// pipeline copies a line with memcpy while workers store to it, so the
// flush of A's line can put any mix of B's old and new words on the
// media in the middle of a call on B (a hardware write-back would see a
// prefix of one core's stores). A is tracked in epoch e; B goes through
// one call, in an operation at e+1, that writes a block while T_e (the
// transition that closes e) writes A's line back. T_e runs on a helper
// thread, held between its publish of e+1 and its drain by a straggler
// operation in e. For every old/new mix of the words the call changed,
// the mix reaches the media with A's line, the heap crashes at each
// frontier around e and recovers, and the recovered map must equal the
// snapshot at the frontier, with no quarantine.

using Oracle = std::map<std::uint64_t, std::uint64_t>;
using epoch::KVPair;
constexpr std::uint64_t kKeyA = 1, kValA = 100, kKeyB = 2;

struct LineWorld {
  LineWorld() : env(cfg(), /*advancer=*/false, /*flusher_threads=*/1) {
    a = epoch::make_kv(es(), kKeyA, kValA);  // unstamped until epoch e
    EXPECT_EQ(dev().line_index(PAllocator::header_of(a)),
              dev().line_index(PAllocator::header_of(b())));
  }
  static nvm::DeviceConfig cfg() {
    nvm::DeviceConfig c = tiny();
    c.capacity = 1 << 20;
    return c;
  }
  EpochSys& es() { return *env.es; }
  nvm::Device& dev() { return env.dev; }
  /// The other block of A's line: the next one this thread allocates.
  KVPair* b() const {
    return reinterpret_cast<KVPair*>(
        reinterpret_cast<std::byte*>(a) +
        PAllocator::stride_of_class(PAllocator::class_for(sizeof(KVPair))));
  }

  /// A committed put in the open operation: `kv` holds (key, value), is
  /// stamped with the operation's epoch and tracked.
  void put(KVPair* kv, std::uint64_t key, std::uint64_t value) {
    const std::uint64_t e = es().current_op_epoch();
    kv->key = key;
    kv->value = value;
    dev().mark_dirty(kv, sizeof(*kv));
    EpochSys::set_epoch_nontx(dev(), kv, e);
    es().pTrack(kv);
    log.push_back({e, key, value, false});
  }
  void erase(std::uint64_t key) {
    log.push_back({es().current_op_epoch(), key, 0, true});
  }
  /// B's put at the current epoch, in an operation of its own.
  void put_b(std::uint64_t value) {
    es().beginOp();
    auto* kv = static_cast<KVPair*>(es().pNew(sizeof(KVPair)));
    EXPECT_EQ(kv, b());
    put(kv, kKeyB, value);
    es().endOp();
  }
  /// A's put at epoch e.
  void insert_a() {
    e = es().beginOp();
    put(a, kKeyA, kValA);
    es().endOp();
  }
  /// A's put at epoch e, then T_e held after it publishes e+1, and an
  /// operation at e+1 opened for B's call.
  void insert_a_and_hold() {
    insert_a();
    t_e.emplace(es());
    // txlint: allow(unbalanced-epoch-op) -- B's call and its after() end it
    es().beginOp();
  }
  /// The map as of the end of epoch f.
  Oracle snapshot(std::uint64_t f) const {
    Oracle out;
    for (const Commit& c : log) {
      if (c.epoch > f) continue;
      if (c.erase) {
        out.erase(c.key);
      } else {
        out[c.key] = c.value;
      }
    }
    return out;
  }

  struct Commit {
    std::uint64_t epoch, key, value;
    bool erase;
  };
  Env env;
  KVPair* a = nullptr;
  epoch::KVPool pool;
  std::vector<Commit> log;
  std::uint64_t e = 0;  // A's epoch
  std::optional<HeldTransition> t_e;
};

struct LineMateCall {
  const char* name;
  std::function<void(LineWorld&)> before;  // history up to the call
  std::function<void(LineWorld&)> call;
  std::function<void(LineWorld&)> after;  // the rest of B's operation
  /// The call is T_e's reclamation step, after T_e wrote A's line: the
  /// mix then reaches the media by another write-back of the line.
  bool in_transition = false;
};

/// One in-transaction access to B, as SlotMap's puts make them.
template <typename Body>
void in_txn(Body&& body) {
  htm::FallbackPolicy policy;
  htm::elide<bool>(policy, policy.all(), [&](auto& acc) {
    body(acc);
    return true;
  });
}

std::vector<LineMateCall> line_mate_calls() {
  const auto begin_op = [](LineWorld& w) { w.es().beginOp(); };
  const auto end_op = [](LineWorld& w) { w.es().endOp(); };
  const auto nothing = [](LineWorld&) {};
  const auto hold = [](LineWorld& w) { w.insert_a_and_hold(); };
  // B durable since epoch e-1 and live, then an operation at e+1.
  const auto live_b = [](LineWorld& w) {
    w.put_b(30);
    w.es().advance();
    w.insert_a_and_hold();
  };
  // B put, retired one epoch later; then A's put at e.
  const auto retired_b = [](LineWorld& w) {
    w.put_b(7);
    w.es().advance();
    w.es().beginOp();
    w.es().pRetire(w.b());
    w.erase(kKeyB);
    w.es().endOp();
  };
  std::vector<LineMateCall> calls;
  calls.push_back({"pNew of a block reused after free",
                   [=](LineWorld& w) {
                     retired_b(w);
                     for (int i = 0; i < 2; ++i) w.es().advance();
                     ASSERT_EQ(PAllocator::header_of(w.b())->st(),
                               BlockStatus::kFree);
                     w.insert_a_and_hold();
                   },
                   [](LineWorld& w) {
                     ASSERT_EQ(w.es().pNew(sizeof(KVPair)), w.b());
                   },
                   end_op});
  calls.push_back({"make_kv", hold,
                   [](LineWorld& w) {
                     ASSERT_EQ(epoch::make_kv(w.es(), kKeyB, 8), w.b());
                   },
                   end_op});
  calls.push_back({"KVPool reuse",
                   [=](LineWorld& w) {
                     begin_op(w);
                     KVPair* kv = w.pool.take(w.es(), sizeof(KVPair), 9, 9);
                     ASSERT_EQ(kv, w.b());
                     w.pool.give_back(w.es(), kv);
                     end_op(w);
                     w.insert_a_and_hold();
                   },
                   [](LineWorld& w) {
                     ASSERT_EQ(w.pool.take(w.es(), sizeof(KVPair), kKeyB, 10),
                               w.b());
                   },
                   end_op});
  calls.push_back({"KVPool give_back of a stamped block",
                   [=](LineWorld& w) {
                     w.insert_a_and_hold();
                     ASSERT_EQ(w.pool.take(w.es(), sizeof(KVPair), kKeyB, 11),
                               w.b());
                     EpochSys::set_epoch_nontx(w.dev(), w.b(),
                                               w.es().current_op_epoch());
                   },
                   [](LineWorld& w) { w.pool.give_back(w.es(), w.b()); },
                   end_op});
  calls.push_back({"in-transaction stamp",
                   [=](LineWorld& w) {
                     w.insert_a_and_hold();
                     ASSERT_EQ(epoch::make_kv(w.es(), kKeyB, 12), w.b());
                   },
                   [](LineWorld& w) {
                     in_txn([&](auto& acc) {
                       EpochSys::set_epoch_generic(acc, w.dev(), w.b(),
                                                   w.es().current_op_epoch());
                     });
                   },
                   [](LineWorld& w) {
                     w.es().pTrack(w.b());
                     w.log.push_back(
                         {w.es().current_op_epoch(), kKeyB, 12, false});
                     w.es().endOp();
                   }});
  calls.push_back({"in-place value store",
                   [=](LineWorld& w) {
                     w.insert_a_and_hold();
                     auto* kv = static_cast<KVPair*>(
                         w.es().pNew(sizeof(KVPair)));
                     ASSERT_EQ(kv, w.b());
                     w.put(kv, kKeyB, 13);
                   },
                   [](LineWorld& w) {
                     in_txn([&](auto& acc) {
                       acc.store_nvm(w.dev(), &w.b()->value,
                                     std::uint64_t{14});
                     });
                   },
                   [](LineWorld& w) {
                     w.es().pTrack(w.b());
                     w.log.push_back(
                         {w.es().current_op_epoch(), kKeyB, 14, false});
                     w.es().endOp();
                   }});
  calls.push_back({"pRetire", live_b,
                   [](LineWorld& w) { w.es().pRetire(w.b()); },
                   [](LineWorld& w) {
                     w.erase(kKeyB);
                     w.es().endOp();
                   }});
  calls.push_back({"abortOp",
                   [=](LineWorld& w) {
                     live_b(w);
                     w.es().pRetire(w.b());
                   },
                   [](LineWorld& w) { w.es().abortOp(); }, nothing});
  calls.push_back({"free",
                   [=](LineWorld& w) {
                     retired_b(w);
                     w.es().advance();
                     w.insert_a();  // T_e reclaims B, retired in e-1
                   },
                   [](LineWorld& w) {
                     w.es().advance();
                     ASSERT_EQ(PAllocator::header_of(w.b())->st(),
                               BlockStatus::kFree);
                   },
                   nothing, /*in_transition=*/true});
  return calls;
}

/// B's block: header words 0-1, key, value.
using BlockWords = std::array<std::uint64_t, 4>;
BlockWords words_of(const KVPair* kv) {
  BlockWords w;
  std::memcpy(w.data(), PAllocator::header_of(const_cast<KVPair*>(kv)),
              sizeof(w));
  return w;
}
void set_words(nvm::Device& dev, KVPair* kv, const BlockWords& w) {
  BlockHeader* hdr = PAllocator::header_of(kv);
  std::memcpy(hdr, w.data(), sizeof(w));
  dev.mark_dirty(hdr, sizeof(w));
}

struct LineMateRun {
  int changed = 0;      // words of B the call changed
  std::string problem;  // empty: the recovered map is the snapshot
};

/// Bit i of `mix` picks the new value of the i-th changed word (else the
/// old one); `transitions` counts the transitions before the crash, T_e
/// (the one that flushes A's epoch) first. At 0 the media freezes at T_e's
/// counter write, after its flush: the crash comes before T_e persists.
LineMateRun run_line_mate(const LineMateCall& c, unsigned mix,
                          int transitions) {
  LineMateRun out;
  LineWorld w;
  std::ostringstream why;
  c.before(w);
  const BlockWords old_w = words_of(w.b());
  c.call(w);
  const BlockWords new_w = words_of(w.b());
  BlockWords mixed = new_w;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    if (old_w[i] == new_w[i]) continue;
    if (((mix >> out.changed++) & 1) == 0) mixed[i] = old_w[i];
  }
  // A's line reaches the media with B mid-call: the straggler ends and T_e
  // writes the line, unless the call is T_e's own reclamation (then an
  // eviction writes it).
  set_words(w.dev(), w.b(), mixed);
  if (c.in_transition) {
    w.dev().flush_line_run_to_media(w.dev().line_index(w.a), 1);
  } else {
    if (transitions == 0) {
      const auto ev = nvm::FaultEvent::kCounterWrite;
      w.dev().arm_fault_plan({ev, w.dev().fault_events(ev)});
    }
    w.t_e->release();
    if (transitions == 0 && !w.dev().fault_tripped()) {
      why << " T_e never wrote its counter";
    }
  }
  set_words(w.dev(), w.b(), new_w);
  c.after(w);
  for (int t = c.in_transition ? 0 : 1; t < transitions; ++t) {
    w.es().advance();
  }

  w.env.es.reset();
  w.dev().simulate_crash();
  PAllocator pa(w.dev(), PAllocator::Mode::kAttach);
  EpochSys::Config cfg;
  cfg.start_advancer = false;
  cfg.attach = true;
  cfg.flusher_threads = 1;
  EpochSys es(pa, cfg);
  const std::uint64_t frontier =
      EpochSys::recovery_frontier(es.persisted_epoch());
  const Oracle expect = w.snapshot(frontier);
  Oracle got;
  const epoch::RecoveryReport rep = es.recover([&](void* p, std::uint64_t) {
    const auto* kv = static_cast<const KVPair*>(p);
    if (!got.emplace(kv->key, kv->value).second) {
      why << " duplicate key " << kv->key;
    }
  });
  for (const auto& [k, v] : got) {
    const auto it = expect.find(k);
    if (it == expect.end()) {
      why << " resurrected key " << k;
    } else if (it->second != v) {
      why << " key " << k << " holds " << v << ", not " << it->second;
    }
  }
  for (const auto& [k, v] : expect) {
    if (got.count(k) == 0) why << " lost key " << k;
  }
  if (rep.blocks_quarantined != 0) {
    why << " " << rep.blocks_quarantined << " quarantined";
  }
  if (!why.str().empty()) {
    const auto d = static_cast<std::int64_t>(frontier - w.e);
    why << " (frontier e";
    if (d != 0) why << std::showpos << d << std::noshowpos;
    why << ")";
  }
  out.problem = why.str();
  return out;
}

TEST(LineMates, EveryMixOfEveryCallRecoversTheFrontierSnapshot) {
  for (const LineMateCall& c : line_mate_calls()) {
    const int changed = run_line_mate(c, 0, 0).changed;
    EXPECT_GT(changed, 0) << c.name << " changed no word of B";
    for (unsigned mix = 0; mix < (1u << changed); ++mix) {
      for (int transitions = 0; transitions <= 3; ++transitions) {
        const LineMateRun r = run_line_mate(c, mix, transitions);
        EXPECT_TRUE(r.problem.empty())
            << c.name << ", old/new mix " << mix << " of " << changed
            << " changed words, " << transitions
            << " transitions:" << r.problem;
      }
    }
  }
}

}  // namespace
}  // namespace bdhtm
