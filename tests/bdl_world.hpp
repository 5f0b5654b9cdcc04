// The test world of the BDL suites (DESIGN.md §5, "Crash-consistency
// tests"): one device + allocator + epoch system with crash-and-attach,
// the oracle helpers every crash check compares against, and the one
// list of backends that speak epoch::BatchOp. tests/test_bdl_contract.cpp
// runs the BDL contract over that list; the crash fuzz, the fault-plan
// enumeration and the service suites build their worlds here.
#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/rng.hpp"
#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "hash/bd_spash.hpp"
#include "nvm/device.hpp"
#include "nvm/fault_plan.hpp"
#include "skiplist/bdl_skiplist.hpp"
#include "svc/kvstore.hpp"
#include "veb/phtm_veb.hpp"

namespace bdhtm::test {

/// A device without the crash lottery: a crash keeps exactly what was
/// fenced to the media. simulate_crash copies the whole image, so size
/// it to the test.
inline nvm::DeviceConfig strict_device(std::size_t capacity = 8ull << 20) {
  nvm::DeviceConfig cfg;
  cfg.capacity = capacity;
  cfg.dirty_survival = 0.0;
  cfg.pending_survival = 0.0;
  return cfg;
}

/// Epochs move only when the test calls advance(); each transition's
/// write-back runs on the production flusher pool.
inline epoch::EpochSys::Config manual_epochs() {
  epoch::EpochSys::Config cfg;
  cfg.start_advancer = false;
  return cfg;
}

/// manual_epochs() with the write-back inline on the advancing thread:
/// the device event stream is then a function of the op sequence, so a
/// fault plan's "N-th event" names the same instant in every replay.
inline epoch::EpochSys::Config replayable_epochs() {
  epoch::EpochSys::Config cfg = manual_epochs();
  cfg.flusher_threads = 1;
  return cfg;
}

/// Device, allocator and epoch system. A fault plan, if given, is armed
/// before the allocator formats the heap, so its event counts include
/// formatting.
struct World {
  explicit World(const nvm::DeviceConfig& dcfg = strict_device(),
                 const epoch::EpochSys::Config& cfg = manual_epochs(),
                 const nvm::FaultPlan* plan = nullptr)
      : ecfg(cfg), dev(std::make_unique<nvm::Device>(dcfg)) {
    if (plan != nullptr) dev->arm_fault_plan(*plan);
    pa = std::make_unique<alloc::PAllocator>(*dev);
    es = std::make_unique<epoch::EpochSys>(*pa, ecfg);
  }

  /// Crash, then attach a fresh allocator and epoch system to the image;
  /// the caller recovers through a structure.
  void crash_and_attach() {
    crash();
    attach();
  }
  /// Stop the epoch system and crash the device. Every structure over the
  /// epoch system must be gone by now.
  void crash() {
    es.reset();  // joins the advancer and its flusher pool
    dev->simulate_crash();
  }
  /// Attach to the crashed image, advancer off.
  void attach() {
    pa = std::make_unique<alloc::PAllocator>(*dev,
                                             alloc::PAllocator::Mode::kAttach);
    epoch::EpochSys::Config cfg = ecfg;
    cfg.start_advancer = false;
    cfg.attach = true;
    es = std::make_unique<epoch::EpochSys>(*pa, cfg);
  }

  /// The frontier a crash now would recover to.
  std::uint64_t frontier() const {
    return epoch::EpochSys::recovery_frontier(es->persisted_epoch());
  }

  epoch::EpochSys::Config ecfg;
  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
};

// ---- Oracle ----

using Oracle = std::map<std::uint64_t, std::uint64_t>;
/// The oracle at the end of each epoch, keyed by epoch.
using Snapshots = std::map<std::uint64_t, Oracle>;

/// The state BDL recovery must produce: the snapshot of the last epoch
/// at or below the frontier (empty if none).
inline Oracle snapshot_at(const Snapshots& snaps, std::uint64_t frontier) {
  Oracle out;
  for (const auto& [e, s] : snaps) {
    if (e > frontier) break;
    out = s;
  }
  return out;
}

/// Every key below `keys` that `find` returns, with its value.
template <typename Find>
Oracle read_back(Find&& find, std::uint64_t keys) {
  Oracle out;
  for (std::uint64_t k = 0; k < keys; ++k) {
    if (const std::optional<std::uint64_t> v = find(k)) out[k] = *v;
  }
  return out;
}

/// The exact-match check: every key below `keys` reads as `expect` says.
/// Fails (fatally) at the first lost, wrong or phantom key.
template <typename Find>
void verify_exact(Find&& find, const Oracle& expect, std::uint64_t keys,
                  const std::string& what = "") {
  for (std::uint64_t k = 0; k < keys; ++k) {
    const std::optional<std::uint64_t> got = find(k);
    const auto it = expect.find(k);
    if (it == expect.end()) {
      ASSERT_FALSE(got.has_value()) << what << ": phantom key " << k;
    } else {
      ASSERT_TRUE(got.has_value()) << what << ": lost key " << k;
      ASSERT_EQ(*got, it->second) << what << ": wrong value for key " << k;
    }
  }
}

template <typename Map>
auto finder(Map& m) {
  return [&m](std::uint64_t k) { return m.find(k); };
}

/// `ops` random inserts (two in three) and removes over [0, keys), with
/// an epoch advance after about one op in 16. Returns the oracle at the
/// end of every epoch.
template <typename Map>
Snapshots drive_random(Map& m, epoch::EpochSys& es, int ops,
                       std::uint64_t seed, std::uint64_t keys) {
  Snapshots at_epoch_end;
  Oracle oracle;
  Rng rng(seed);
  for (int i = 0; i < ops; ++i) {
    const std::uint64_t k = rng.next_below(keys);
    if (rng.next_below(3) == 0) {
      m.remove(k);
      oracle.erase(k);
    } else {
      const std::uint64_t v = rng.next_below(std::uint64_t{1} << 40);
      m.insert(k, v);
      oracle[k] = v;
    }
    if (rng.next_below(16) == 0) {
      at_epoch_end[es.current_epoch()] = oracle;
      es.advance();
    }
  }
  at_epoch_end[es.current_epoch()] = oracle;
  return at_epoch_end;
}

// ---- The backends ----

/// The fourth backend: a KVStore with two BD-Spash shards, driven as a
/// client drives it, through the synchronous put/get/remove (submit and
/// wait). Each thread that calls it gets a client queue of its own on
/// first use.
class Store {
 public:
  static constexpr int kClients = 8;

  explicit Store(epoch::EpochSys& es) : store_(es, config()) {}

  bool insert(std::uint64_t key, std::uint64_t value) {
    return answered(store_.put(client(), key, value)).applied;
  }
  bool remove(std::uint64_t key) {
    return answered(store_.remove(client(), key)).applied;
  }
  std::optional<std::uint64_t> find(std::uint64_t key) {
    const svc::Result r = answered(store_.get(client(), key));
    if (!r.applied) return std::nullopt;
    return r.value;
  }
  std::size_t recover(int threads) { return store_.recover(threads); }

  /// One shard's batch, as a worker runs it under its envelope: every op
  /// must route to the shard of the first.
  void apply_batch(epoch::BatchOp* ops, std::size_t n) {
    const int s = store_.shard_of(ops[0].key);
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_EQ(store_.shard_of(ops[i].key), s) << "key " << ops[i].key;
    }
    store_.shard(s).apply_batch(ops, n);
  }

 private:
  static svc::KVStoreConfig config() {
    svc::KVStoreConfig cfg;
    cfg.backend = svc::Backend::kHash;
    cfg.shards = 2;
    cfg.workers = 2;
    cfg.clients = kClients;
    return cfg;
  }

  /// Neither shed nor closed: the store ran the op.
  static svc::Result answered(svc::Result r) {
    EXPECT_TRUE(r.status == svc::Status::kOk ||
                r.status == svc::Status::kNotFound)
        << svc::status_name(r.status);
    return r;
  }

  /// The calling thread's client id, assigned on its first request to
  /// this store (a store serial, not its address, names the binding).
  int client() {
    thread_local std::uint64_t bound = 0;
    thread_local int id = 0;
    if (bound != serial_) {
      bound = serial_;
      id = next_client_.fetch_add(1, std::memory_order_relaxed);
      if (id >= kClients) {
        std::fprintf(stderr, "bdl_world: more than %d threads use a Store\n",
                     kClients);
        std::abort();
      }
    }
    return id;
  }

  inline static std::atomic<std::uint64_t> serials_{0};
  const std::uint64_t serial_ = serials_.fetch_add(1) + 1;
  std::atomic<int> next_client_{0};
  svc::KVStore store_;
};

/// PHTM-vEB's universe: 2^15 keys holds every key a BDL test uses.
inline constexpr int kVebUbits = 15;

/// A fresh (or, after crash_and_attach, not yet recovered) backend over
/// `es`.
template <typename B>
std::unique_ptr<B> make(epoch::EpochSys& es) {
  if constexpr (std::is_same_v<B, veb::PHTMvEB>) {
    return std::make_unique<B>(es, kVebUbits);
  } else {
    return std::make_unique<B>(es);
  }
}

/// Drop `live`, crash `w` and recover a fresh backend on `threads`
/// workers.
template <typename B>
std::unique_ptr<B> crash_and_recover(World& w, std::unique_ptr<B> live,
                                     int threads = 1) {
  live.reset();
  w.crash_and_attach();
  std::unique_ptr<B> out = make<B>(*w.es);
  out->recover(threads);
  return out;
}

/// The one backend list. `Structures` are the paper's three BDL
/// structures; `All` adds the store. Every BDL check runs on `All`; the
/// crash fuzz and the fault-plan enumeration run on `Structures`. A
/// fault plan names "the N-th device event", which the store's worker
/// threads do not replay from world to world, so the store's fault-plan
/// crashes are test_svc_recovery's, judged by its acknowledged log.
template <typename... S>
struct BackendList {
  using Structures = ::testing::Types<S...>;
  using All = ::testing::Types<S..., Store>;
};
using Backends =
    BackendList<veb::PHTMvEB, hash::BDSpash, skiplist::BDLSkiplist>;

/// The typed suites' name generator: `BdlContract/PhtmVeb.<check>`.
/// tests/CMakeLists.txt registers one ctest per name (BDL_BACKENDS).
struct BackendName {
  template <typename B>
  static std::string GetName(int) {
    if constexpr (std::is_same_v<B, veb::PHTMvEB>) {
      return "PhtmVeb";
    } else if constexpr (std::is_same_v<B, hash::BDSpash>) {
      return "BdSpash";
    } else if constexpr (std::is_same_v<B, skiplist::BDLSkiplist>) {
      return "BdlSkiplist";
    } else {
      static_assert(std::is_same_v<B, Store>, "name the new backend");
      return "KvStore";
    }
  }
};

// ---- A crash image with every block kind the recovery scan classifies ----

inline constexpr std::uint64_t kImageKeys = 20'000;  // ~2.5 superblocks
inline constexpr std::uint64_t kPastFrontier = 40;   // per discarded kind

inline std::uint64_t image_value(std::uint64_t key, std::uint64_t gen) {
  return (key << 8) | gen;
}

/// Builds the image in `w` through the epoch-system API and crashes it.
/// Live pairs fill several superblocks; every 97th key has a newer
/// duplicate in a later superblock (the older copy is never retired, so
/// both are live); every 89th pair was retired in an epoch past the
/// frontier (resurrected); pairs created past the frontier and unstamped
/// pool blocks are discarded; and one header is corrupted (quarantined).
/// Blocks whose epoch never persisted reach the media by eviction.
/// Returns the map recovery must produce.
inline Oracle build_crash_image(World& w) {
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
  bad->store_meta(bad->load_meta() ^
                  std::uint64_t{1} << alloc::BlockHeader::kDeleteShift);
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

/// One recovery of the image: the map it reads back and its report.
struct Recovered {
  Oracle map;
  epoch::RecoveryReport rep;
};

/// Every key the image ever wrote, as `find` reads it after recovery.
template <typename Find>
Oracle read_image(Find&& find) {
  return read_back(find, kImageKeys + kPastFrontier);
}

/// The checks below take `recover(World&, int threads) -> Recovered`,
/// which recovers the crashed image in the world through one entry point.
/// On 1 and on 4 workers the image recovers to the same map and the same
/// report, and the report counts every classification the image holds.
template <typename Recover>
void expect_parallel_recovery_matches_serial(Recover&& recover) {
  Recovered got[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    World w;
    const Oracle expect = build_crash_image(w);
    got[i] = recover(w, threads[i]);
    EXPECT_TRUE(got[i].map == expect)
        << "threads=" << threads[i] << ": " << got[i].map.size()
        << " keys, expected " << expect.size();
  }
  const epoch::RecoveryReport& a = got[0].rep;
  const epoch::RecoveryReport& b = got[1].rep;
  EXPECT_EQ(a.blocks_scanned, b.blocks_scanned);
  EXPECT_EQ(a.blocks_live, b.blocks_live);
  EXPECT_EQ(a.blocks_resurrected, b.blocks_resurrected);
  EXPECT_EQ(a.blocks_discarded, b.blocks_discarded);
  EXPECT_EQ(a.blocks_quarantined, b.blocks_quarantined);
  EXPECT_EQ(a.checksum_failures, b.checksum_failures);
  EXPECT_EQ(a.epoch_violations, b.epoch_violations);
  EXPECT_EQ(a.headers_persisted, b.headers_persisted);
  EXPECT_GT(b.blocks_resurrected, 0u);
  EXPECT_EQ(b.blocks_discarded, 2 * kPastFrontier);
  EXPECT_EQ(b.checksum_failures, 1u);
  EXPECT_EQ(b.headers_persisted,
            b.blocks_resurrected + b.blocks_discarded + 1);
}

/// A recovery persists everything it changed, on every worker: crashing
/// again at once (no operation in between) and recovering on a different
/// worker count gives the same map, and the second scan finds nothing to
/// resurrect, discard or write back.
template <typename Recover>
void expect_recrash_idempotent(Recover&& recover) {
  World w;
  const Oracle expect = build_crash_image(w);
  const Recovered first = recover(w, 4);
  w.crash_and_attach();
  const Recovered second = recover(w, 1);
  EXPECT_TRUE(first.map == expect);
  EXPECT_TRUE(second.map == first.map)
      << second.map.size() << " keys after the re-crash, "
      << first.map.size() << " before";
  EXPECT_EQ(second.rep.blocks_resurrected, 0u);
  EXPECT_EQ(second.rep.blocks_discarded, 0u);
  EXPECT_EQ(second.rep.headers_persisted, 0u);
  EXPECT_EQ(second.rep.blocks_quarantined, 1u);  // still leaked
  EXPECT_EQ(second.rep.checksum_failures, 0u);
}

}  // namespace bdhtm::test
