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

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/rng.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "hash/bd_spash.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"
#include "skiplist/bdl_skiplist.hpp"
#include "svc/kvstore.hpp"
#include "veb/phtm_veb.hpp"

namespace bdhtm {
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
using Oracle = std::map<std::uint64_t, std::uint64_t>;

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

struct SvcFaultWorld {
  explicit SvcFaultWorld(const FaultPlan* plan = nullptr) {
    nvm::DeviceConfig dcfg;
    dcfg.capacity = 16ull << 20;
    dcfg.dirty_survival = 0.0;
    dcfg.pending_survival = 0.0;
    dev = std::make_unique<nvm::Device>(dcfg);
    // Arm before any heap activity so trigger counts include formatting.
    if (plan != nullptr) dev->arm_fault_plan(*plan);
    pa = std::make_unique<alloc::PAllocator>(*dev);
    epoch::EpochSys::Config ecfg;
    ecfg.start_advancer = false;
    ecfg.flusher_threads = 1;
    es = std::make_unique<epoch::EpochSys>(*pa, ecfg);
  }

  void crash_and_attach() {
    es.reset();
    dev->simulate_crash();
    pa = std::make_unique<alloc::PAllocator>(*dev,
                                             alloc::PAllocator::Mode::kAttach);
    epoch::EpochSys::Config ecfg;
    ecfg.start_advancer = false;
    ecfg.flusher_threads = 1;
    ecfg.attach = true;
    es = std::make_unique<epoch::EpochSys>(*pa, ecfg);
  }

  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
};

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

void verify_store(svc::KVStore& store, const Oracle& expect,
                  const char* what) {
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    auto got = store.shard(store.shard_of(k)).find(k);
    const auto it = expect.find(k);
    if (it != expect.end()) {
      ASSERT_TRUE(got.has_value()) << what << ": lost key " << k;
      ASSERT_EQ(*got, it->second) << what << ": wrong value for key " << k;
    } else {
      ASSERT_FALSE(got.has_value()) << what << ": phantom key " << k;
    }
  }
}

/// Clean profiling run: per-class device event totals for trigger
/// placement (the oracle never depends on these being exact).
void profile_events(svc::Backend b, int shards,
                    std::uint64_t (&totals)[static_cast<int>(
                        FaultEvent::kNumEvents)]) {
  SvcFaultWorld w;
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
  SvcFaultWorld w(&plan);
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
  const std::uint64_t frontier =
      epoch::EpochSys::recovery_frontier(w.es->persisted_epoch());

  svc::KVStoreConfig cfg = world_cfg(b, shards);
  cfg.start_workers = false;  // verification goes through the shards
  svc::KVStore store(*w.es, cfg);
  store.recover(recover_threads);

  const auto& rep = w.es->last_recovery();
  EXPECT_EQ(rep.blocks_quarantined, 0u)
      << "clean media-freeze crash must not quarantine blocks";
  EXPECT_EQ(rep.checksum_failures, 0u);
  EXPECT_EQ(rep.epoch_violations, 0u);

  char what[96];
  std::snprintf(what, sizeof what,
                "%s shards=%d event=%d trigger=%llu frontier=%llu",
                svc::backend_name(b), shards, static_cast<int>(event),
                static_cast<unsigned long long>(trigger),
                static_cast<unsigned long long>(frontier));
  verify_store(store, replay_prefix(log, frontier), what);
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

// ---- One-pass parallel recovery (DESIGN.md §5, "Recovery scan") ----
//
// One crash image, built through the epoch-system API so that it holds
// every kind of block the scan classifies, recovered through each
// structure's recover() on 1 and on 4 workers. Workers claim superblocks
// in whatever order they race to, so the image spans several of them and
// the two copies of a duplicated key sit in different ones.

constexpr std::uint64_t kImageKeys = 20'000;  // ~2.5 superblocks of 32 B
constexpr std::uint64_t kPastFrontier = 40;   // per discarded kind
constexpr int kImageUbits = 15;               // vEB universe > every key

std::uint64_t image_value(std::uint64_t key, std::uint64_t gen) {
  return (key << 8) | gen;
}

/// Builds the crash image in `w` and crashes it. Live pairs fill several
/// superblocks; every 97th key has a newer duplicate in a later
/// superblock (the older copy is never retired, so both are live); every
/// 89th pair was retired in an epoch past the frontier (resurrected);
/// pairs created past the frontier and unstamped pool blocks are
/// discarded; and one header is corrupted (quarantined). Blocks whose
/// epoch never persisted reach the media by eviction. Returns the map
/// recovery must produce.
Oracle build_crash_image(SvcFaultWorld& w) {
  epoch::EpochSys& es = *w.es;
  nvm::Device& dev = *w.dev;
  auto put = [&](std::uint64_t key, std::uint64_t gen) {
    const std::uint64_t e = es.beginOp();
    epoch::KVPair* kv = epoch::make_kv(es, key, image_value(key, gen));
    epoch::EpochSys::set_epoch_nontx(dev, kv, e);
    es.pTrack(kv);
    es.endOp();
    return kv;
  };
  auto evict = [&](void* payload) {  // header and pair share one line
    dev.persist_nontxn(alloc::PAllocator::header_of(payload), kCacheLineSize);
  };
  Oracle expect;
  std::vector<epoch::KVPair*> blocks;
  for (std::uint64_t k = 0; k < kImageKeys; ++k) {
    blocks.push_back(put(k, 0));
    expect[k] = image_value(k, 0);
  }
  es.advance();  // the duplicates carry a newer epoch
  for (std::uint64_t k = 0; k < kImageKeys; k += 97) {
    put(k, 1);
    expect[k] = image_value(k, 1);
  }
  constexpr std::uint64_t kCorrupt = 50;
  alloc::BlockHeader* bad = alloc::PAllocator::header_of(blocks[kCorrupt]);
  bad->meta ^= std::uint64_t{1} << alloc::BlockHeader::kDeleteShift;
  dev.mark_dirty(bad, sizeof(*bad));
  evict(blocks[kCorrupt]);
  expect.erase(kCorrupt);
  es.persist_all();

  es.beginOp();
  for (std::uint64_t k = 1; k < kImageKeys; k += 89) {
    if (k % 97 == 0 || k == kCorrupt) continue;
    es.pRetire(blocks[k]);
    evict(blocks[k]);
  }
  es.endOp();
  for (std::uint64_t i = 0; i < kPastFrontier; ++i) {
    evict(put(kImageKeys + i, 0));
    evict(es.pNew(sizeof(epoch::KVPair)));
  }
  w.crash_and_attach();
  return expect;
}

enum class Entry {
  kStoreVeb, kStoreHash, kStoreSkiplist, kVeb, kHash, kSkiplist
};
constexpr Entry kEntries[] = {Entry::kStoreVeb, Entry::kStoreHash,
                              Entry::kStoreSkiplist, Entry::kVeb,
                              Entry::kHash, Entry::kSkiplist};
const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kStoreVeb: return "KVStore/phtm-veb";
    case Entry::kStoreHash: return "KVStore/bd-spash";
    case Entry::kStoreSkiplist: return "KVStore/bdl-skiplist";
    case Entry::kVeb: return "PHTMvEB";
    case Entry::kHash: return "BDSpash";
    case Entry::kSkiplist: return "BDLSkiplist";
  }
  return "?";
}

struct Recovered {
  Oracle map;
  epoch::RecoveryReport rep;
};

/// Recover `w`'s crashed heap through `entry`'s recover(threads) and read
/// back every key the image ever wrote.
Recovered recover_through(Entry entry, SvcFaultWorld& w, int threads) {
  Recovered out;
  auto run = [&](auto& structure, auto find) {
    structure.recover(threads);
    out.rep = w.es->last_recovery();
    for (std::uint64_t k = 0; k < kImageKeys + kPastFrontier; ++k) {
      if (const auto v = find(structure, k)) out.map[k] = *v;
    }
  };
  const auto find = [](auto& s, std::uint64_t k) { return s.find(k); };
  const auto store_through = [&](svc::Backend b) {
    svc::KVStoreConfig cfg = world_cfg(b, 2);
    cfg.start_workers = false;
    cfg.shard_opt.veb_ubits = kImageUbits;
    svc::KVStore store(*w.es, cfg);
    run(store, [](svc::KVStore& s, std::uint64_t k) {
      return s.shard(s.shard_of(k)).find(k);
    });
  };
  switch (entry) {
    case Entry::kStoreVeb:
      store_through(svc::Backend::kVebTree);
      break;
    case Entry::kStoreHash:
      store_through(svc::Backend::kHash);
      break;
    case Entry::kStoreSkiplist:
      store_through(svc::Backend::kSkiplist);
      break;
    case Entry::kVeb: {
      veb::PHTMvEB t(*w.es, kImageUbits);
      run(t, find);
      break;
    }
    case Entry::kHash: {
      hash::BDSpash t(*w.es);
      run(t, find);
      break;
    }
    case Entry::kSkiplist: {
      skiplist::BDLSkiplist t(*w.es);
      run(t, find);
      break;
    }
  }
  return out;
}

TEST(SvcRecovery, ParallelScanMatchesSerialThroughEveryEntryPoint) {
  for (const Entry entry : kEntries) {
    Recovered got[2];
    const int threads[2] = {1, 4};
    for (int i = 0; i < 2; ++i) {
      SvcFaultWorld w;
      const Oracle expect = build_crash_image(w);
      got[i] = recover_through(entry, w, threads[i]);
      EXPECT_TRUE(got[i].map == expect)
          << entry_name(entry) << " threads=" << threads[i] << ": "
          << got[i].map.size() << " keys, expected " << expect.size();
    }
    const epoch::RecoveryReport& a = got[0].rep;
    const epoch::RecoveryReport& b = got[1].rep;
    const char* what = entry_name(entry);
    EXPECT_EQ(a.blocks_scanned, b.blocks_scanned) << what;
    EXPECT_EQ(a.blocks_live, b.blocks_live) << what;
    EXPECT_EQ(a.blocks_resurrected, b.blocks_resurrected) << what;
    EXPECT_EQ(a.blocks_discarded, b.blocks_discarded) << what;
    EXPECT_EQ(a.blocks_quarantined, b.blocks_quarantined) << what;
    EXPECT_EQ(a.checksum_failures, b.checksum_failures) << what;
    EXPECT_EQ(a.epoch_violations, b.epoch_violations) << what;
    EXPECT_EQ(a.headers_persisted, b.headers_persisted) << what;
    // The image exercises every classification.
    EXPECT_GT(b.blocks_resurrected, 0u) << what;
    EXPECT_EQ(b.blocks_discarded, 2 * kPastFrontier) << what;
    EXPECT_EQ(b.checksum_failures, 1u) << what;
    EXPECT_EQ(b.headers_persisted,
              b.blocks_resurrected + b.blocks_discarded + 1)
        << what;
  }
}

// A recovery persists everything it changed, on every worker: crashing
// again at once (no operation in between) and recovering on a different
// worker count gives the same map, and the second scan finds nothing to
// resurrect, discard or write back.
TEST(SvcRecovery, RecrashRightAfterRecoveryIsIdempotent) {
  for (const Entry entry : kEntries) {
    SvcFaultWorld w;
    const Oracle expect = build_crash_image(w);
    const Recovered first = recover_through(entry, w, 4);
    w.crash_and_attach();
    const Recovered second = recover_through(entry, w, 1);
    const char* what = entry_name(entry);
    EXPECT_TRUE(first.map == expect) << what;
    EXPECT_TRUE(second.map == first.map)
        << what << ": " << second.map.size() << " keys after the re-crash, "
        << first.map.size() << " before";
    EXPECT_EQ(second.rep.blocks_resurrected, 0u) << what;
    EXPECT_EQ(second.rep.blocks_discarded, 0u) << what;
    EXPECT_EQ(second.rep.headers_persisted, 0u) << what;
    EXPECT_EQ(second.rep.blocks_quarantined, 1u) << what;  // still leaked
    EXPECT_EQ(second.rep.checksum_failures, 0u) << what;
  }
}

// The relink runs without transactions, one thread per owner. Through
// PHTM-vEB on 4 workers the multi-superblock image recovers without a
// single transaction attempt. Through EpochSys::recover with more owners
// than workers, every owner gets its whole list in one call on one
// thread, and no thread beyond the workers runs a relink.
TEST(SvcRecovery, RelinkRunsOnOneThreadPerOwnerWithoutTransactions) {
  {
    SvcFaultWorld w;
    const Oracle expect = build_crash_image(w);
    veb::PHTMvEB t(*w.es, kImageUbits);
    const htm::TxStats before = htm::collect_stats();
    t.recover(4);
    const htm::TxStats after = htm::collect_stats();
    EXPECT_EQ(after.commits, before.commits) << "the relink committed";
    EXPECT_EQ(after.attempts(), before.attempts()) << "the relink aborted";
    EXPECT_EQ(after.fallback_acquisitions, before.fallback_acquisitions);
    Oracle got;
    for (std::uint64_t k = 0; k < kImageKeys + kPastFrontier; ++k) {
      if (const auto v = t.find(k)) got[k] = *v;
    }
    EXPECT_TRUE(got == expect)
        << got.size() << " keys, expected " << expect.size();
  }
  {
    SvcFaultWorld w;
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
        kOwners,
        [&](void* p) { return static_cast<int>(key_of(p) % kOwners); },
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
}

// ---- Recovering twice ----
//
// Every relink rebuilds from an empty index. A second recover() on the
// same object must not find the structure's own blocks in their slots
// and reclaim them as losing duplicates: the live count, the heap's
// bytes in use and every value survive it, and still read right once
// further inserts have allocated from whatever the heap holds free.

constexpr std::uint64_t kTwiceKeys = 300;
// Enough that new blocks reuse any the second recovery wrongly freed; in
// this heap 3,000 further inserts reach none of them.
constexpr std::uint64_t kTwiceMore = 11'700;

template <typename Make, typename Insert, typename Find>
void expect_recover_twice_keeps_everything(const char* what, Make make,
                                           Insert insert, Find find) {
  SCOPED_TRACE(what);
  SvcFaultWorld w;
  {
    auto s = make(*w.es);
    for (std::uint64_t k = 0; k < kTwiceKeys; ++k) {
      ASSERT_TRUE(insert(*s, k, image_value(k, 0)));
    }
  }
  w.es->persist_all();
  w.crash_and_attach();
  auto s = make(*w.es);
  const std::size_t live = s->recover(1);
  const std::uint64_t bytes = w.pa->bytes_in_use();
  EXPECT_EQ(live, kTwiceKeys);
  EXPECT_EQ(s->recover(1), live);
  EXPECT_EQ(w.pa->bytes_in_use(), bytes);
  const auto expect_values = [&](std::uint64_t keys, const char* when) {
    for (std::uint64_t k = 0; k < keys; ++k) {
      const std::optional<std::uint64_t> v = find(*s, k);
      ASSERT_TRUE(v.has_value()) << when << ": key " << k;
      EXPECT_EQ(*v, image_value(k, 0)) << when << ": key " << k;
    }
  };
  expect_values(kTwiceKeys, "after the second recovery");
  for (std::uint64_t k = kTwiceKeys; k < kTwiceKeys + kTwiceMore; ++k) {
    ASSERT_TRUE(insert(*s, k, image_value(k, 0)));
  }
  expect_values(kTwiceKeys + kTwiceMore, "after further inserts");
}

TEST(SvcRecovery, RecoverTwiceKeepsEveryBlock) {
  const auto insert = [](auto& s, std::uint64_t k, std::uint64_t v) {
    return s.insert(k, v);
  };
  const auto find = [](auto& s, std::uint64_t k) { return s.find(k); };
  expect_recover_twice_keeps_everything(
      "PHTMvEB",
      [](epoch::EpochSys& es) {
        return std::make_unique<veb::PHTMvEB>(es, kImageUbits);
      },
      insert, find);
  expect_recover_twice_keeps_everything(
      "BDSpash",
      [](epoch::EpochSys& es) { return std::make_unique<hash::BDSpash>(es); },
      insert, find);
  expect_recover_twice_keeps_everything(
      "BDLSkiplist",
      [](epoch::EpochSys& es) {
        return std::make_unique<skiplist::BDLSkiplist>(es);
      },
      insert, find);
  // A store's shards relink the same way, with no reset pass of the
  // store's own; two BD-Spash shards at depth 2 split under the further
  // inserts.
  expect_recover_twice_keeps_everything(
      "KVStore/bd-spash",
      [](epoch::EpochSys& es) {
        svc::KVStoreConfig cfg = world_cfg(svc::Backend::kHash, 2);
        cfg.start_workers = false;
        return std::make_unique<svc::KVStore>(es, cfg);
      },
      [](svc::KVStore& s, std::uint64_t k, std::uint64_t v) {
        return s.shard(s.shard_of(k)).insert(k, v);
      },
      [](svc::KVStore& s, std::uint64_t k) {
        return s.shard(s.shard_of(k)).find(k);
      });
}

}  // namespace
}  // namespace bdhtm
