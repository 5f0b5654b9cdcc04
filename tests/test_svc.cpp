// Service-layer unit tests (DESIGN.md §10): KVStore admission control,
// shard routing, batch execution against a sequential oracle, ordered
// scans, release policies, and the shutdown contract — a submitted request always resolves (completed or
// kRejected), it is never lost. The suite runs in the sanitizer lane:
// the submit/shutdown race test is the TSan target the checklist names.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"
#include "svc/queue.hpp"

namespace bdhtm {
namespace {

using test::World;

/// The service tests run the background advancer (default epoch config)
/// unless they drive epochs by hand.
World live_world(std::uint64_t epoch_length_us = 50'000) {
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = epoch_length_us;
  return World(test::strict_device(), ecfg);
}

svc::KVStoreConfig small_cfg(svc::Backend b) {
  svc::KVStoreConfig cfg;
  cfg.backend = b;
  cfg.shards = 1;
  cfg.workers = 1;
  cfg.clients = 1;
  cfg.queue_capacity = 64;
  cfg.max_batch = 8;
  cfg.shard_opt.veb_ubits = 12;
  return cfg;
}

const svc::Backend kAllBackends[] = {
    svc::Backend::kVebTree, svc::Backend::kSkiplist, svc::Backend::kHash};

TEST(Svc, SpscQueueBasics) {
  svc::SpscQueue<int*> q(5);  // rounds up to 8
  EXPECT_EQ(q.capacity(), 8u);
  int vals[8];
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(&vals[i]));
  int extra;
  EXPECT_FALSE(q.try_push(&extra)) << "9th push into capacity-8 ring";
  int* out = nullptr;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(&out));
    EXPECT_EQ(out, &vals[i]) << "FIFO order";
  }
  EXPECT_FALSE(q.try_pop(&out));
  EXPECT_TRUE(q.empty());
}

TEST(Svc, SyncOpsAllBackends) {
  for (svc::Backend b : kAllBackends) {
    World w = live_world();
    svc::KVStore store(*w.es, small_cfg(b));
    EXPECT_EQ(store.get(0, 7).status, svc::Status::kNotFound);
    auto put = store.put(0, 7, 70);
    EXPECT_EQ(put.status, svc::Status::kOk);
    EXPECT_TRUE(put.applied) << "fresh insert";
    auto got = store.get(0, 7);
    EXPECT_EQ(got.status, svc::Status::kOk);
    EXPECT_EQ(got.value, 70u);
    auto upd = store.put(0, 7, 71);
    EXPECT_EQ(upd.status, svc::Status::kOk);
    EXPECT_FALSE(upd.applied) << "update of existing key";
    EXPECT_EQ(store.get(0, 7).value, 71u);
    EXPECT_EQ(store.remove(0, 7).status, svc::Status::kOk);
    EXPECT_EQ(store.remove(0, 7).status, svc::Status::kNotFound);
    store.close();
  }
}

TEST(Svc, EmptyBatchAndIdleClose) {
  World w = live_world();
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  // A zero-op apply_batch under a caller envelope must be a no-op.
  epoch::run_envelope(*w.es, 0, [&](std::size_t, std::size_t n) {
    store.shard(0).apply_batch(nullptr, n);
  });
  store.close();
  EXPECT_EQ(store.completed_total(), 0u);
  EXPECT_EQ(store.rejected_on_close_total(), 0u);
}

TEST(Svc, OneShardSkew) {
  // Every key routed to the same shard: the other shards stay idle and
  // nothing deadlocks or misroutes.
  World w = live_world();
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.shards = 4;
  svc::KVStore store(*w.es, cfg);
  std::vector<std::uint64_t> skewed;
  for (std::uint64_t k = 0; skewed.size() < 64; ++k) {
    if (store.shard_of(k) == 0) skewed.push_back(k);
  }
  for (std::uint64_t k : skewed) {
    EXPECT_EQ(store.put(0, k, k * 3).status, svc::Status::kOk);
  }
  for (std::uint64_t k : skewed) {
    auto r = store.get(0, k);
    EXPECT_EQ(r.status, svc::Status::kOk);
    EXPECT_EQ(r.value, k * 3);
  }
  store.close();
  EXPECT_EQ(store.completed_total(), skewed.size() * 2);
}

TEST(Svc, CrossShardPerKeyOrdering) {
  // One client, pipelined flights spanning all shards: every per-key
  // op sequence must apply in submission order even when the worker
  // splits a flight into per-shard groups.
  World w = live_world();
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.shards = 4;
  cfg.max_batch = 16;
  svc::KVStore store(*w.es, cfg);
  constexpr int kKeys = 32;
  std::map<std::uint64_t, std::optional<std::uint64_t>> oracle;
  Rng rng(0x5eed);
  std::vector<svc::Request> flight(16);
  for (int round = 0; round < 50; ++round) {
    for (auto& r : flight) {
      const std::uint64_t k = rng.next_below(kKeys);
      switch (rng.next_below(3)) {
        case 0:
          r = svc::Request::put(k, round * 1000 + k);
          oracle[k] = round * 1000 + k;
          break;
        case 1:
          r = svc::Request::del(k);
          oracle[k] = std::nullopt;
          break;
        default:
          r = svc::Request::get(k);
          break;
      }
      ASSERT_TRUE(store.submit(0, &r));
    }
    for (auto& r : flight) store.wait(&r);
  }
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    auto r = store.get(0, k);
    const auto it = oracle.find(k);
    const bool expect = it != oracle.end() && it->second.has_value();
    EXPECT_EQ(r.status == svc::Status::kOk, expect) << "key " << k;
    if (expect) {
      EXPECT_EQ(r.value, *it->second) << "key " << k;
    }
  }
  store.close();
}

TEST(Svc, BatchMatchesSequentialOracleAllBackends) {
  // 1 client + 1 worker + 1 shard: execution order equals submission
  // order, so every per-op result (ok flag, read value) must match a
  // std::map replay exactly.
  for (svc::Backend b : kAllBackends) {
    World w = live_world();
    svc::KVStoreConfig cfg = small_cfg(b);
    cfg.max_batch = 8;
    // Tiny directory so batches straddle BD-Spash bucket splits.
    cfg.shard_opt.hash_initial_depth = 1;
    svc::KVStore store(*w.es, cfg);
    std::map<std::uint64_t, std::uint64_t> oracle;
    Rng rng(0xbeef ^ static_cast<std::uint64_t>(b));
    std::vector<svc::Request> flight(8);
    for (int round = 0; round < 150; ++round) {
      struct Expect {
        bool applied;
        std::uint64_t value;
        svc::Status status;
      };
      std::vector<Expect> want;
      for (auto& r : flight) {
        const std::uint64_t k = rng.next_below(512);
        const auto dice = rng.next_below(4);
        if (dice == 0) {
          const auto it = oracle.find(k);
          want.push_back({it != oracle.end(),
                          it != oracle.end() ? it->second : 0,
                          it != oracle.end() ? svc::Status::kOk
                                             : svc::Status::kNotFound});
          r = svc::Request::get(k);
        } else if (dice == 1) {
          const bool removed = oracle.erase(k) != 0;
          want.push_back({removed, 0,
                          removed ? svc::Status::kOk
                                  : svc::Status::kNotFound});
          r = svc::Request::del(k);
        } else {
          const std::uint64_t v = round * 4096 + k;
          const bool fresh = oracle.find(k) == oracle.end();
          oracle[k] = v;
          want.push_back({fresh, 0, svc::Status::kOk});
          r = svc::Request::put(k, v);
        }
        ASSERT_TRUE(store.submit(0, &r));
      }
      for (std::size_t i = 0; i < flight.size(); ++i) {
        store.wait(&flight[i]);
        const auto res = svc::KVStore::result_of(flight[i]);
        ASSERT_EQ(res.status, want[i].status)
            << svc::backend_name(b) << " round " << round << " op " << i;
        ASSERT_EQ(res.applied, want[i].applied)
            << svc::backend_name(b) << " round " << round << " op " << i;
        if (flight[i].op.kind == epoch::BatchOp::Kind::kGet &&
            res.status == svc::Status::kOk) {
          ASSERT_EQ(res.value, want[i].value)
              << svc::backend_name(b) << " round " << round << " op " << i;
        }
      }
    }
    EXPECT_GT(store.batches_total(), 0u);
    store.close();
  }
}

TEST(Svc, ScanMergesAcrossShardsOrderedBackends) {
  for (svc::Backend b : {svc::Backend::kVebTree, svc::Backend::kSkiplist}) {
    World w = live_world();
    svc::KVStoreConfig cfg = small_cfg(b);
    cfg.shards = 2;
    svc::KVStore store(*w.es, cfg);
    for (std::uint64_t k = 0; k <= 100; ++k) {
      ASSERT_EQ(store.put(0, k, k + 1000).status, svc::Status::kOk);
    }
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    ASSERT_EQ(store.scan(10, 20, &out), svc::Status::kOk);
    ASSERT_EQ(out.size(), 20u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i].first, 11 + i) << "strictly-greater, sorted, merged";
      EXPECT_EQ(out[i].second, 11 + i + 1000);
    }
    // Tail clamp: fewer than max_out remain.
    ASSERT_EQ(store.scan(95, 20, &out), svc::Status::kOk);
    ASSERT_EQ(out.size(), 5u);
    store.close();
  }
  World w = live_world();
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  EXPECT_EQ(store.scan(0, 10, &out), svc::Status::kUnsupported);
  store.close();
}

TEST(Svc, ShedOnFullQueue) {
  World w = live_world();
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.queue_capacity = 8;
  cfg.start_workers = false;  // nobody drains: pushes 9+ must shed
  svc::KVStore store(*w.es, cfg);
  std::vector<svc::Request> reqs(12);
  int accepted = 0, shed = 0;
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = svc::Request::put(i, i);
    if (store.submit(0, &reqs[i])) {
      ++accepted;
    } else {
      ++shed;
      EXPECT_EQ(reqs[i].status, svc::Status::kRejected);
      EXPECT_EQ(reqs[i].state.load(), svc::Request::kDone)
          << "shed requests resolve immediately";
    }
  }
  EXPECT_EQ(accepted, 8);
  EXPECT_EQ(shed, 4);
  EXPECT_EQ(store.shed_total(), 4u);
  store.close();
  // The never-lost contract: close() resolves the queued 8 as rejected.
  for (auto& r : reqs) {
    EXPECT_EQ(r.state.load(), svc::Request::kDone);
    EXPECT_EQ(r.status, svc::Status::kRejected);
  }
  EXPECT_EQ(store.rejected_on_close_total(), 8u);
}

TEST(Svc, CloseDrainsQueuedWork) {
  // Requests queued before close() complete normally (drain), and a
  // submit after close() resolves kClosed.
  World w = live_world();
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  std::vector<svc::Request> reqs(32);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = svc::Request::put(i, i * 2);
    ASSERT_TRUE(store.submit(0, &reqs[i]));
  }
  store.close();
  for (auto& r : reqs) {
    EXPECT_EQ(r.state.load(), svc::Request::kDone);
    EXPECT_TRUE(r.status == svc::Status::kOk ||
                r.status == svc::Status::kRejected)
        << "drained or swept, never lost";
  }
  svc::Request late = svc::Request::get(1);
  EXPECT_FALSE(store.submit(0, &late));
  EXPECT_EQ(late.status, svc::Status::kClosed);
}

TEST(Svc, DurableReleaseImpliesPersistence) {
  World w = live_world();
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  svc::KVStore store(*w.es, cfg);
  std::vector<svc::Request> reqs(8);
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = svc::Request::put(i, i + 9);
    ASSERT_TRUE(store.submit(0, &reqs[i]));
  }
  // close() drains: parked durable releases are pushed out by the
  // worker advancing the epoch system (drain-then-advance).
  store.close();
  for (auto& r : reqs) {
    ASSERT_EQ(r.state.load(), svc::Request::kDone);
    ASSERT_EQ(r.status, svc::Status::kOk);
    EXPECT_GT(r.complete_epoch, 0u);
    EXPECT_GE(w.es->persisted_epoch(), r.complete_epoch + 2)
        << "kDurable acknowledgement implies durability";
  }
}

TEST(Svc, DurableAckNeedsOneTransition) {
  // A kDurable put parked by the worker resolves at the first transition
  // after its batch: the one that closes its epoch persists
  // complete_epoch + 2. No advancer runs, so nothing else moves it.
  // Epochs advanced by hand, each flushed inline.
  World w(test::strict_device(), test::replayable_epochs());
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  svc::KVStore store(*w.es, cfg);
  svc::Request r = svc::Request::put(7, 70);
  ASSERT_TRUE(store.submit(0, &r));
  // The batch counter moves after the envelope closes, so the transition
  // below closes the put's epoch.
  while (store.batches_total() == 0) std::this_thread::yield();
  EXPECT_NE(r.state.load(), svc::Request::kDone) << "released before durable";
  w.es->advance();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (r.state.load() != svc::Request::kDone &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(r.state.load(), svc::Request::kDone)
      << "still parked after one transition";
  EXPECT_EQ(r.status, svc::Status::kOk);
  EXPECT_EQ(w.es->stats().epochs_advanced.load(), 1u);
  EXPECT_GE(w.es->persisted_epoch(), r.complete_epoch + 2)
      << "kDurable acknowledgement implies durability";
  store.close();
}

TEST(Svc, DurableAckEndsEpochEarly) {
  // Group commit: a parked kDurable release asks the advancer for the
  // next transition, so the ack needs one transition, a tenth of the 1 s
  // epoch after the previous one, instead of up to a full epoch.
  World w = live_world(/*epoch_length_us=*/1'000'000);
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.release = svc::ReleasePolicy::kDurable;
  svc::KVStore store(*w.es, cfg);
  obs::Counter& demand =
      obs::Registry::global().counter("epoch.demand_advances");
  const std::uint64_t demand0 = demand.total();
  svc::Request r = svc::Request::put(7, 70);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(store.submit(0, &r));
  store.wait(&r);
  const auto took = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(r.status, svc::Status::kOk);
  EXPECT_LT(took, std::chrono::milliseconds(600));
  EXPECT_GE(w.es->persisted_epoch(), r.complete_epoch + 2)
      << "kDurable acknowledgement implies durability";
  EXPECT_GE(w.es->stats().demand_advances.load(), 1u);
  if (!obs::kNoop) {
    EXPECT_GT(demand.total(), demand0);  // the registry mirror
  }
}

TEST(Svc, BufferedStoreRequestsNoTransition) {
  World w = live_world(/*epoch_length_us=*/1'000'000);
  svc::KVStore store(*w.es, small_cfg(svc::Backend::kHash));
  const std::uint64_t e0 = w.es->stats().epochs_advanced.load();
  const auto t_end =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  std::uint64_t k = 0;
  while (std::chrono::steady_clock::now() < t_end) {
    ASSERT_EQ(store.put(0, k % 512, k).status, svc::Status::kOk);
    ++k;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Only the 1 s timer may move the epoch: at most once in 300 ms.
  EXPECT_LE(w.es->stats().epochs_advanced.load() - e0, 1u);
  EXPECT_EQ(w.es->stats().demand_advances.load(), 0u);
}

TEST(Svc, SubmitShutdownRace) {
  // TSan target: clients hammer submit while the main thread closes the
  // store. Every request that submit() accepted must resolve; requests
  // racing past close() resolve kClosed or kRejected. Nothing is lost,
  // nothing crashes, no data race.
  World w = live_world();
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.clients = 4;
  cfg.workers = 2;
  cfg.shards = 2;
  cfg.queue_capacity = 16;
  svc::KVStore store(*w.es, cfg);
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x9999 + c);
      std::vector<svc::Request> reqs(256);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (auto& r : reqs) {
        const std::uint64_t k = rng.next_below(1024);
        r = rng.next_below(2) == 0 ? svc::Request::put(k, k)
                                   : svc::Request::get(k);
        store.submit(c, &r);
      }
      for (auto& r : reqs) {
        store.wait(&r);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  go.store(true, std::memory_order_release);
  store.close();  // races with the submissions above, by design
  for (auto& t : clients) t.join();
  EXPECT_EQ(resolved.load(), 4u * 256u) << "every request resolved";
}

TEST(Svc, CloseIsIdempotentAndConcurrent) {
  // Regression for the ipc server's shutdown path, where several session
  // threads and the owner can reach KVStore::close() concurrently: every
  // close() call — first, racing, or repeated — must return only after
  // the drain completed (workers joined, queues swept), and the store
  // must be deterministically kClosed afterwards. The old close() joined
  // workers unguarded, so a second caller double-joined or returned
  // while the first was still draining.
  World w = live_world();
  svc::KVStoreConfig cfg = small_cfg(svc::Backend::kHash);
  cfg.clients = 4;
  cfg.workers = 2;
  cfg.shards = 2;
  cfg.queue_capacity = 16;
  svc::KVStore store(*w.es, cfg);
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> resolved{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xc105e + c);
      std::vector<svc::Request> reqs(128);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (auto& r : reqs) {
        const std::uint64_t k = rng.next_below(512);
        r = svc::Request::put(k, k + 1);
        store.submit(c, &r);
      }
      for (auto& r : reqs) {
        store.wait(&r);
        resolved.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> closers;
  for (int i = 0; i < 3; ++i) {
    closers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      store.close();
      // Post-condition of ANY close() returning: admission is closed
      // AND the sweep already ran, so a late submit resolves kClosed
      // synchronously. This is what the second/third closer used to
      // break by returning before the first finished draining.
      svc::Request late = svc::Request::get(1);
      EXPECT_FALSE(store.submit(0, &late));
      EXPECT_EQ(late.status, svc::Status::kClosed);
    });
  }
  go.store(true, std::memory_order_release);
  for (auto& t : closers) t.join();
  for (auto& t : clients) t.join();
  EXPECT_EQ(resolved.load(), 4u * 128u) << "every request resolved";
  store.close();  // sequential repeat stays a no-op
}

}  // namespace
}  // namespace bdhtm
