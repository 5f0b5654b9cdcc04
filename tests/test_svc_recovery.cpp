// Service-layer crash consistency (DESIGN.md §10 + §5): a KVStore
// driven through batched envelopes, crashed mid-run by a media-freeze
// fault plan, must recover to a BDL-consistent prefix with zero
// quarantines.
//
// The oracle does not rely on replaying an identical event stream (the
// worker thread's allocations need not line up across worlds). Instead
// the armed run itself records, for every acknowledged request, the
// epoch its effects were stamped with (Request::complete_epoch, set by
// the batch executor per envelope segment). After the crash the
// recovered state must equal a sequential replay of exactly the
// requests with complete_epoch <= recovery_frontier(persisted): with
// one client, per-key execution order equals submission order, and
// epochs are monotone along it, so the filter is the paper's consistent
// prefix. Everything past the frontier — including whole batches cut
// mid-epoch — must have rolled back wholesale.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"

namespace bdhtm::test {
namespace {

#if defined(__SANITIZE_THREAD__)
#define BDHTM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BDHTM_TSAN 1
#endif
#endif

using nvm::FaultEvent;
using nvm::FaultPlan;

constexpr std::uint64_t kKeys = 256;  // small universe: full-sweep verify
constexpr int kFlights = 12;
constexpr int kFlightOps = 8;
constexpr std::uint64_t kOpSeed = 0x5ca1ab1e;

// Media-freeze triggers per event class; fractions of the profiled
// total so they trip mid-run without requiring bit-exact replay.
#ifdef BDHTM_TSAN
constexpr int kTriggerFractions[] = {2};
#else
constexpr int kTriggerFractions[] = {4, 2, 1};  // total/4, total/2, 3/4
#endif

svc::KVStoreConfig world_cfg(svc::Backend b, int shards) {
  svc::KVStoreConfig cfg;
  cfg.backend = b;
  cfg.shards = shards;
  cfg.workers = 1;
  cfg.clients = 1;
  cfg.queue_capacity = 64;
  cfg.max_batch = kFlightOps;
  cfg.shard_opt.veb_ubits = 8;
  cfg.shard_opt.hash_initial_depth = 2;
  return cfg;
}

struct LogEntry {
  epoch::BatchOp::Kind kind;
  std::uint64_t key;
  std::uint64_t value;
  std::uint64_t complete_epoch;
};

/// Drive the store through kFlights pipelined flights (mixed put /
/// remove / get), advancing the epoch between flights while the worker
/// is quiescent. Returns the acknowledged-op log in submission order.
std::vector<LogEntry> drive_store(svc::KVStore& store,
                                  epoch::EpochSys& es) {
  std::vector<LogEntry> log;
  Rng rng(kOpSeed);
  std::vector<svc::Request> flight(kFlightOps);
  for (int f = 0; f < kFlights; ++f) {
    for (auto& r : flight) {
      const std::uint64_t k = rng.next_below(kKeys);
      switch (rng.next_below(4)) {
        case 0:
          r = svc::Request::del(k);
          break;
        case 1:
          r = svc::Request::get(k);
          break;
        default:
          r = svc::Request::put(k, 1 + rng.next_below(1u << 30));
          break;
      }
      // Queue cap 64 >> flight 8: submission cannot shed.
      EXPECT_TRUE(store.submit(0, &r));
    }
    for (auto& r : flight) {
      store.wait(&r);
      EXPECT_TRUE(r.status == svc::Status::kOk ||
                  r.status == svc::Status::kNotFound);
      if (r.op.kind != epoch::BatchOp::Kind::kGet) {
        log.push_back({r.op.kind, r.op.key, r.op.value, r.complete_epoch});
      }
    }
    es.advance();
  }
  return log;
}

/// Sequential replay of the acknowledged mutations whose stamp epoch is
/// within the recovery frontier — the BDL-consistent prefix.
Oracle replay_prefix(const std::vector<LogEntry>& log,
                     std::uint64_t frontier) {
  Oracle o;
  for (const auto& e : log) {
    if (e.complete_epoch > frontier) continue;
    if (e.kind == epoch::BatchOp::Kind::kPut) {
      o[e.key] = e.value;
    } else {
      o.erase(e.key);
    }
  }
  return o;
}

/// Reads go through the shards: the recovered store's workers stay
/// unstarted.
auto shard_finder(svc::KVStore& store) {
  return [&store](std::uint64_t k) {
    return store.shard(store.shard_of(k)).find(k);
  };
}

/// Clean profiling run: per-class device event totals for trigger
/// placement (the oracle never depends on these being exact).
void profile_events(svc::Backend b, int shards,
                    std::uint64_t (&totals)[static_cast<int>(
                        FaultEvent::kNumEvents)]) {
  World w(strict_device(), replayable_epochs());
  {
    svc::KVStore store(*w.es, world_cfg(b, shards));
    drive_store(store, *w.es);
    store.close();
  }
  for (int c = 0; c < static_cast<int>(FaultEvent::kNumEvents); ++c) {
    totals[c] = w.dev->fault_events(static_cast<FaultEvent>(c));
  }
}

void crash_recover_check(svc::Backend b, int shards, FaultEvent event,
                         std::uint64_t trigger, int recover_threads) {
  FaultPlan plan;
  plan.event = event;
  plan.trigger_at = trigger;
  World w(strict_device(), replayable_epochs(), &plan);
  std::vector<LogEntry> log;
  {
    svc::KVStore store(*w.es, world_cfg(b, shards));
    log = drive_store(store, *w.es);
    store.close();
  }
  ASSERT_TRUE(w.dev->fault_tripped())
      << "plan (" << static_cast<int>(event) << ", " << trigger
      << ") never tripped";
  w.crash_and_attach();
  const std::uint64_t frontier = w.frontier();

  svc::KVStoreConfig cfg = world_cfg(b, shards);
  cfg.start_workers = false;  // verification goes through the shards
  svc::KVStore store(*w.es, cfg);
  store.recover(recover_threads);

  const auto& rep = w.es->last_recovery();
  EXPECT_EQ(rep.blocks_quarantined, 0u)
      << "clean media-freeze crash must not quarantine blocks";
  EXPECT_EQ(rep.checksum_failures, 0u);
  EXPECT_EQ(rep.epoch_violations, 0u);

  verify_exact(shard_finder(store), replay_prefix(log, frontier), kKeys,
               std::string(svc::backend_name(b)) +
                   " shards=" + std::to_string(shards) +
                   " event=" + std::to_string(static_cast<int>(event)) +
                   " trigger=" + std::to_string(trigger) +
                   " frontier=" + std::to_string(frontier));
}

void enumerate(svc::Backend b, int shards, int recover_threads) {
  std::uint64_t totals[static_cast<int>(FaultEvent::kNumEvents)] = {};
  profile_events(b, shards, totals);
  for (int c = 0; c < static_cast<int>(FaultEvent::kNumEvents); ++c) {
    const auto event = static_cast<FaultEvent>(c);
    ASSERT_GT(totals[c], 0u)
        << "drive generated no events of class " << c;
    for (int frac : kTriggerFractions) {
      // total/4 and total/2 from the start; "1" means 3/4 of the way in.
      const std::uint64_t t = frac == 1 ? totals[c] - totals[c] / 4
                                        : totals[c] / frac;
      crash_recover_check(b, shards, event, t, recover_threads);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(SvcRecovery, HashOneShardAllEventClasses) {
  enumerate(svc::Backend::kHash, 1, /*recover_threads=*/1);
}

TEST(SvcRecovery, HashTwoShardsParallelRelink) {
  enumerate(svc::Backend::kHash, 2, /*recover_threads=*/2);
}

TEST(SvcRecovery, VebTreeMediaFreeze) {
  std::uint64_t totals[static_cast<int>(FaultEvent::kNumEvents)] = {};
  profile_events(svc::Backend::kVebTree, 1, totals);
  const auto ev = FaultEvent::kEviction;
  crash_recover_check(svc::Backend::kVebTree, 1, ev,
                      totals[static_cast<int>(ev)] / 2, 1);
}

TEST(SvcRecovery, SkiplistMediaFreeze) {
  std::uint64_t totals[static_cast<int>(FaultEvent::kNumEvents)] = {};
  profile_events(svc::Backend::kSkiplist, 1, totals);
  const auto ev = FaultEvent::kClwb;
  crash_recover_check(svc::Backend::kSkiplist, 1, ev,
                      totals[static_cast<int>(ev)] / 2, 1);
}

// ---- Recovery of one crash image through ordered shards ----
//
// The BDL contract suite recovers build_crash_image through each structure
// and through a store of BD-Spash shards. Here a 2-shard store of PHTM-vEB
// and one of BDL-Skiplist shards recover it: two relinks run side by side
// and free their losing duplicates.

constexpr svc::Backend kOrderedShards[] = {svc::Backend::kVebTree,
                                           svc::Backend::kSkiplist};

Recovered recover_store_image(svc::Backend b, World& w, int threads) {
  svc::KVStoreConfig cfg = world_cfg(b, 2);
  cfg.start_workers = false;
  cfg.shard_opt.veb_ubits = kVebUbits;
  svc::KVStore store(*w.es, cfg);
  store.recover(threads);
  return {read_image(shard_finder(store)), w.es->last_recovery()};
}

TEST(SvcRecovery, OrderedShardsParallelRecoveryMatchesSerial) {
  for (const svc::Backend b : kOrderedShards) {
    SCOPED_TRACE(svc::backend_name(b));
    expect_parallel_recovery_matches_serial(
        [b](World& w, int threads) {
          return recover_store_image(b, w, threads);
        });
  }
}

TEST(SvcRecovery, OrderedShardsRecrashRightAfterRecoveryIsIdempotent) {
  for (const svc::Backend b : kOrderedShards) {
    SCOPED_TRACE(svc::backend_name(b));
    expect_recrash_idempotent([b](World& w, int threads) {
      return recover_store_image(b, w, threads);
    });
  }
}

// ---- One owner, one thread (DESIGN.md §5, "Recovery scan") ----
//
// Through EpochSys::recover with more owners than workers, every owner
// gets its whole list in one call on one thread, and no thread beyond
// the workers runs a relink. build_crash_image spans several superblocks,
// which workers claim in whatever order they race to. The BDL contract
// suite recovers the same image through every backend.
TEST(SvcRecovery, RelinkRunsOnOneThreadPerOwner) {
  World w;
  const Oracle expect = build_crash_image(w);
  constexpr int kOwners = 7;
  constexpr int kWorkers = 4;
  struct OwnerLog {
    int calls = 0;
    std::thread::id thread;
    std::vector<epoch::KVPair*> blocks;
  };
  std::vector<OwnerLog> logs(kOwners);  // each entry written by its owner
  const auto key_of = [](void* p) {
    return static_cast<epoch::KVPair*>(p)->key;
  };
  const epoch::RecoveryReport rep = w.es->recover(
      kOwners, [&](void* p) { return static_cast<int>(key_of(p) % kOwners); },
      [&](int owner, std::span<epoch::LiveBlock> blocks) {
        OwnerLog& log = logs[static_cast<std::size_t>(owner)];
        ++log.calls;
        log.thread = std::this_thread::get_id();
        for (const epoch::LiveBlock& b : blocks) {
          log.blocks.push_back(static_cast<epoch::KVPair*>(b.payload));
        }
      },
      kWorkers);
  std::set<std::thread::id> threads;
  std::set<std::uint64_t> keys;
  std::uint64_t handed = 0;
  for (int o = 0; o < kOwners; ++o) {
    const OwnerLog& log = logs[static_cast<std::size_t>(o)];
    EXPECT_EQ(log.calls, 1) << "owner " << o;
    threads.insert(log.thread);
    for (epoch::KVPair* kv : log.blocks) {
      EXPECT_EQ(kv->key % kOwners, static_cast<std::uint64_t>(o));
      keys.insert(kv->key);
    }
    handed += log.blocks.size();
  }
  EXPECT_LE(threads.size(), static_cast<std::size_t>(kWorkers));
  EXPECT_EQ(handed, rep.blocks_live);
  EXPECT_EQ(keys.size(), expect.size());
  EXPECT_GT(rep.scan_ns, 0u);
  EXPECT_GT(rep.relink_ns, 0u);
}

}  // namespace
}  // namespace bdhtm::test
