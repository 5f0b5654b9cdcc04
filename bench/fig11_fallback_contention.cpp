// Fig. 11 — fallback-policy contention: global vs striped elided-lock
// fallback (DESIGN.md §11) under a Zipfian hot-key write-heavy mix.
//
// The global policy's cost is collateral damage: one thread's fallback
// subscribes-and-aborts EVERY concurrent transaction on the structure,
// hot key or not. The striped policy's fast path subscribes only to the
// stripes covering its footprint and the fallback acquires exactly
// those, so fallbacks on the (many) cold stripes stop aborting each
// other and lock_subscription aborts concentrate where the conflicts
// actually are.
//
// Cells: {bd-spash, phtm-veb, bdl-skiplist} x {global, striped(64)} x
// BDHTM_THREADS, Zipf-0.99 write-heavy over a small (hot) key space,
// submitted as 4-op envelope batches (epoch::run_envelope +
// apply_batch — the service layer's submission path).
//
// Organic fallbacks at simulator scale hold their stripes for tens of
// nanoseconds — far shorter than a scheduler quantum, so on an
// oversubscribed host no concurrent thread is ever RUNNING while a
// window is open and the contention goes unmeasured (wall-clock
// contention needs true parallelism). Instead, one dedicated injector
// thread makes the hold windows explicit and policy-comparable: every
// BDHTM_FIG11_PERIOD_US it acquires the union of kBatch hot keys'
// published subscription footprints (ShardIndex::footprint — exactly
// what a slow batch fallback would hold) through the structure's own
// FallbackPolicy and keeps it held for BDHTM_FIG11_HOLD_US of wall
// time, yielding in chunks so worker threads run and observe the
// window. Workers pay through the real protocol: their transactions
// subscribe, abort with the lock-subscription code, and wait.
//
// On a time-sliced host, end-to-end Mops confounds the policies with
// scheduler artifacts (whichever policy parks threads fastest hands the
// injector its next quantum sooner), so two schedule-robust quantities
// carry the comparison: hold_mops — worker goodput per second of
// window-OPEN time, i.e. throughput while a fallback is actually held —
// and a deterministic single-threaded probe run after the timed window
// (hold a hot footprint, run subscribe-only transactions against other
// hot keys, count subscription aborts; pure footprint geometry, no
// scheduling). Rows per cell: Mops, hold_mops, lock_subscription share
// of aborts, fallbacks per Mop, p50/p99 batch latency. The "hotkey"
// table repeats the max-thread cells as absolute counts plus the probe
// results (CI's jq assert compares the probe rows).
//
// Expected shape: striped cuts the lock_subscription share and count on
// bd-spash and bdl-skiplist (segment- / word-striped footprints) and
// improves hot-key throughput at >= 8 threads; phtm-veb is the honest
// loser — every op's footprint includes the shared stripe 0, so striping
// buys little there (see DESIGN.md §11 "when striped loses").
//
// The final table reruns fig10's open-loop overload cell (admission
// shedding, queue=8) with the service's shards on each policy.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "bench/bench_common.hpp"
#include "common/spin.hpp"
#include "common/threading.hpp"
#include "epoch/epoch_sys.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"
#include "nvm/device.hpp"
#include "svc/kvstore.hpp"
#include "workload/workload.hpp"

using namespace bdhtm;

namespace {

constexpr int kStriped = 64;      // stripes for the striped-policy cells
constexpr int kHashDepth = 6;     // 2^6 segments so BD-Spash allows 64
constexpr std::size_t kBatch = 4; // ops per envelope batch (see below)

std::size_t device_cap(std::uint64_t keys) {
  return std::max<std::size_t>(512ull << 20, keys * 512);
}

// Injected hold windows: duration of each held window and the period
// between window starts. Defaults give a 20% duty cycle — a service
// whose fallbacks are slow (irrevocable bodies doing NVM-latency work)
// but not the common case.
std::uint64_t hold_ns() {
  return static_cast<std::uint64_t>(env_int("BDHTM_FIG11_HOLD_US", 200)) *
         1000;
}
std::uint64_t period_ns() {
  return static_cast<std::uint64_t>(
             env_int("BDHTM_FIG11_PERIOD_US", 1000)) *
         1000;
}

struct World {
  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
};

World make_world(std::uint64_t keys) {
  World w;
  w.dev = std::make_unique<nvm::Device>(bench::nvm_cfg(device_cap(keys)));
  w.pa = std::make_unique<alloc::PAllocator>(*w.dev);
  epoch::EpochSys::Config ecfg;
  // Long epochs: advances stall every envelope for milliseconds while
  // the flusher drains, which is orthogonal noise here — this figure
  // measures fallback-lock contention, so keep the measured window
  // mostly advance-free (fig7/fig8 own the epoch-length trade-off).
  ecfg.epoch_length_us = 250'000;
  w.es = std::make_unique<epoch::EpochSys>(*w.pa, ecfg);
  return w;
}

double q_us(std::vector<std::uint64_t>& ns, double q) {
  if (ns.empty()) return 0;
  const std::size_t i = static_cast<std::size_t>(
      q * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(i),
                   ns.end());
  return static_cast<double>(ns[i]) / 1e3;
}

struct Cell {
  double mops = 0;
  double hold_mops = 0;  // goodput while a fallback window is open
  double p50_us = 0, p99_us = 0;
  double shed_pct = 0;
  std::uint64_t probe_lock_sub = 0;  // deterministic probe (see run_cell)
  std::uint64_t probe_total = 0;
  htm::TxStats stats{};
};

/// One measured cell: a direct (library-level) timed run against one
/// shard, kBatch-op envelope batches per submission, per-batch latency
/// capture and an isolated HTM stats window.
Cell run_cell(svc::Backend b, int stripes, const workload::Config& cfg,
              int ubits) {
  // 24 cells x (workers + injector + epoch flushers) would exhaust the
  // process-lifetime thread-id space; every cell's threads are joined
  // before the next begins, so recycling ids between cells is safe.
  reset_thread_ids_for_testing();
  World w = make_world(cfg.key_space);
  svc::ShardOptions opt;
  opt.veb_ubits = ubits;
  opt.hash_initial_depth = kHashDepth;
  opt.fallback_stripes = stripes;
  auto shard = svc::make_shard(b, *w.es, opt);
  workload::prefill(*shard, cfg);
  htm::reset_stats();  // measure only the timed window

  std::atomic<bool> start{false}, stop{false};
  std::atomic<bool> window_open{false};
  std::atomic<std::uint64_t> open_ns{0};
  std::vector<std::uint64_t> ops_done(cfg.threads, 0);
  std::vector<std::uint64_t> ops_in_hold(cfg.threads, 0);
  std::vector<std::vector<std::uint64_t>> lat(cfg.threads);
  std::vector<std::thread> threads;
  threads.reserve(cfg.threads);
  for (int c = 0; c < cfg.threads; ++c) {
    threads.emplace_back([&, c] {
      workload::KeyGen gen(cfg, splitmix64(cfg.seed + c * 1000003));
      auto& l = lat[c];
      l.reserve(1 << 16);
      while (!start.load(std::memory_order_acquire)) {
      }
      epoch::BatchOp batch[kBatch];
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& op : batch) {
          const std::uint64_t k = gen.next();
          const auto dice = gen.rng().next_below(100);
          if (dice < static_cast<std::uint64_t>(cfg.read_pct)) {
            op = epoch::BatchOp{epoch::BatchOp::Kind::kGet, k, 0};
          } else if (dice < static_cast<std::uint64_t>(cfg.read_pct +
                                                       cfg.insert_pct)) {
            op = epoch::BatchOp{epoch::BatchOp::Kind::kPut, k, k + 1};
          } else {
            op = epoch::BatchOp{epoch::BatchOp::Kind::kRemove, k, 0};
          }
        }
        const std::uint64_t t0 = now_ns();
        epoch::run_envelope(*w.es, kBatch,
                            [&](std::size_t first, std::size_t count) {
                              shard->apply_batch(batch + first, count);
                            });
        l.push_back(now_ns() - t0);
        ops_done[c] += kBatch;
        // Batches finished while a fallback window was open are the
        // goodput striping is supposed to rescue (under the global
        // policy every concurrent transaction aborts and waits instead).
        if (window_open.load(std::memory_order_relaxed)) {
          ops_in_hold[c] += kBatch;
        }
      }
    });
  }
  // Injector: periodic slow-fallback hold windows over hot-key
  // footprints (see the file comment). Yield-chunked so workers run —
  // and observe the held stripes — while the window is open. The open
  // time is measured, not assumed: on an oversubscribed host a window
  // stays open until the scheduler cycles back to the injector, and it
  // stays open LONGER under policies that let peers keep working.
  std::thread injector([&] {
    workload::KeyGen gen(cfg, splitmix64(cfg.seed ^ 0xF16F11ull));
    htm::FallbackPolicy& pol = shard->fallback_policy();
    while (!start.load(std::memory_order_acquire)) {
    }
    std::uint64_t next = now_ns();
    while (!stop.load(std::memory_order_relaxed)) {
      htm::StripeMask mask = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        mask |= shard->footprint(gen.next());
      }
      {
        htm::PolicyGuard g(pol, mask);
        const std::uint64_t t_open = now_ns();
        window_open.store(true, std::memory_order_relaxed);
        const std::uint64_t t_end = t_open + hold_ns();
        while (now_ns() < t_end && !stop.load(std::memory_order_relaxed)) {
          spin_for_ns(2000);
          std::this_thread::yield();
        }
        window_open.store(false, std::memory_order_relaxed);
        open_ns.fetch_add(now_ns() - t_open, std::memory_order_relaxed);
      }
      next += period_ns();
      while (now_ns() < next && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::yield();
      }
    }
  });

  const std::uint64_t t0 = now_ns();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  injector.join();
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;

  Cell cell;
  cell.stats = htm::collect_stats();
  bench::note_htm_stats();
  htm::reset_stats();
  bench::note_epoch_stats(w.es->stats());

  std::vector<std::uint64_t> all;
  std::uint64_t ops = 0, hold_ops = 0;
  for (int c = 0; c < cfg.threads; ++c) {
    ops += ops_done[c];
    hold_ops += ops_in_hold[c];
    all.insert(all.end(), lat[c].begin(), lat[c].end());
  }
  cell.mops = secs > 0 ? static_cast<double>(ops) / secs / 1e6 : 0;
  const double hold_secs =
      static_cast<double>(open_ns.load(std::memory_order_relaxed)) / 1e9;
  cell.hold_mops = hold_secs > 0
                       ? static_cast<double>(hold_ops) / hold_secs / 1e6
                       : 0;
  cell.p50_us = q_us(all, 0.50);
  cell.p99_us = q_us(all, 0.99);

  // Deterministic collateral probe, scheduler-free by construction: hold
  // one hot batch's footprint (as a slow fallback would), then run one
  // subscribe-only transaction per other hot key and count which abort
  // on the subscription. Same thread holds and probes — a policy
  // subscription tests the lock WORD, not ownership — so the counts
  // depend only on footprint geometry, identical on any host. This is
  // the quantity CI asserts on.
  {
    workload::KeyGen gen(cfg, splitmix64(cfg.seed ^ 0x9B0BE5ull));
    htm::FallbackPolicy& pol = shard->fallback_policy();
    constexpr int kWindows = 64, kProbes = 16;
    for (int wdx = 0; wdx < kWindows; ++wdx) {
      htm::StripeMask mask = 0;
      for (std::size_t i = 0; i < kBatch; ++i) {
        mask |= shard->footprint(gen.next());
      }
      htm::PolicyGuard g(pol, mask);
      for (int p = 0; p < kProbes; ++p) {
        const std::uint64_t k = gen.next();
        const htm::StripeMask pm = shard->footprint(k);
        unsigned st;
        do {  // retry injected (spurious/capacity-model) aborts: the
              // subscription outcome is fixed while the window is held
          st = htm::run([&](htm::Txn& tx) { pol.subscribe(tx, pm); });
        } while (st != htm::kCommitted &&
                 (st & htm::kAbortExplicit) == 0);
        cell.probe_total++;
        if (st != htm::kCommitted &&
            htm::is_lock_subscription_code(htm::explicit_code(st))) {
          cell.probe_lock_sub++;
        }
      }
    }
    htm::reset_stats();  // probe aborts are not part of the cell stats
  }
  return cell;
}

/// Fig. 10's open-loop overload cell (admission control under a shallow
/// queue), rerun with the store's shards on the given fallback policy.
Cell run_overload(int stripes, const workload::Config& cfg, int ubits) {
  constexpr int kClients = 8;
  constexpr std::size_t kPool = 64;
  reset_thread_ids_for_testing();  // see run_cell
  World w = make_world(cfg.key_space);
  svc::KVStoreConfig scfg;
  scfg.backend = svc::Backend::kHash;
  scfg.shards = 1;
  scfg.workers = 1;
  scfg.clients = kClients;
  scfg.queue_capacity = 8;  // shallow: back-pressure bites early
  scfg.max_batch = 16;
  scfg.shard_opt.veb_ubits = ubits;
  scfg.shard_opt.fallback_stripes = stripes;
  svc::KVStore store(*w.es, scfg);
  struct StorePrefill {
    svc::KVStore& store;
    bool insert(std::uint64_t k, std::uint64_t v) {
      return store.shard(store.shard_of(k)).insert(k, v);
    }
  } pf{store};
  workload::prefill(pf, cfg);

  std::atomic<bool> start{false}, stop{false};
  std::vector<std::uint64_t> submitted(kClients, 0), shed(kClients, 0),
      served(kClients, 0);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      workload::KeyGen gen(cfg, splitmix64(cfg.seed + c * 7777));
      std::vector<svc::Request> pool(kPool);
      while (!start.load(std::memory_order_acquire)) {
      }
      while (!stop.load(std::memory_order_relaxed)) {
        for (auto& r : pool) {
          if (r.state.load(std::memory_order_acquire) ==
              svc::Request::kQueued) {
            continue;  // still in flight; offer elsewhere
          }
          if (r.state.load(std::memory_order_relaxed) ==
              svc::Request::kDone) {
            if (r.status != svc::Status::kRejected) served[c]++;
          }
          const std::uint64_t k = gen.next();
          const auto dice = gen.rng().next_below(100);
          if (dice < static_cast<std::uint64_t>(cfg.read_pct)) {
            r = svc::Request::get(k);
          } else if (dice < static_cast<std::uint64_t>(cfg.read_pct +
                                                       cfg.insert_pct)) {
            r = svc::Request::put(k, k + 1);
          } else {
            r = svc::Request::del(k);
          }
          submitted[c]++;
          if (!store.submit(c, &r)) shed[c]++;
        }
        std::this_thread::yield();
      }
      for (auto& r : pool) {
        if (r.state.load(std::memory_order_acquire) ==
            svc::Request::kQueued) {
          store.wait(&r);
        }
      }
    });
  }
  const std::uint64_t t0 = now_ns();
  start.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.duration_ms));
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  const double secs = static_cast<double>(now_ns() - t0) / 1e9;
  store.close();
  bench::note_epoch_stats(w.es->stats());

  std::uint64_t sub = 0, rej = 0, ok = 0;
  for (int c = 0; c < kClients; ++c) {
    sub += submitted[c];
    rej += shed[c];
    ok += served[c];
  }
  Cell cell;
  cell.shed_pct = sub > 0 ? 100.0 * static_cast<double>(rej) /
                                static_cast<double>(sub)
                          : 0;
  cell.mops = secs > 0 ? static_cast<double>(ok) / secs / 1e6 : 0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("fig11_fallback_contention", argc, argv);
  bench::set_structure("bd-spash");
  bench::set_structure("phtm-veb");
  bench::set_structure("bdl-skiplist");
  const int ubits = bench::universe_bits(14);  // small => hot
  const std::uint64_t keys = std::uint64_t{1} << ubits;
  const std::vector<int> threads = bench::thread_counts();
  const int max_t = *std::max_element(threads.begin(), threads.end());

  char note[160];
  std::snprintf(note, sizeof note,
                "Zipf 0.99 write-heavy, %llu keys, %zu-op envelope batches; "
                "injected hot-key holds %llu us every %llu us; striped = %d "
                "stripes",
                static_cast<unsigned long long>(keys), kBatch,
                static_cast<unsigned long long>(hold_ns() / 1000),
                static_cast<unsigned long long>(period_ns() / 1000),
                kStriped);
  bench::print_header(
      "Fig. 11: fallback contention — global vs striped elided-lock "
      "fallback policy",
      note);

  const struct {
    svc::Backend b;
    const char* name;
  } backends[] = {
      {svc::Backend::kHash, "bd-spash"},
      {svc::Backend::kVebTree, "phtm-veb"},
      {svc::Backend::kSkiplist, "bdl-skiplist"},
  };
  const struct {
    int stripes;
    const char* name;
  } policies[] = {{1, "global"}, {kStriped, "striped"}};

  for (const auto& [b, name] : backends) {
    for (const auto& [stripes, pname] : policies) {
      char table[96];
      std::snprintf(table, sizeof table, "%s %s", name, pname);
      std::printf("\n%s\n", table);
      std::printf("  %3s %10s %10s %14s %16s %10s %10s\n", "T", "Mops",
                  "holdMops", "lock_sub_pct", "fallbacks/Mop", "p50_us",
                  "p99_us");
      for (int t : threads) {
        const workload::Config cfg =
            workload::Config::write_heavy().with(keys, 0.99, t,
                                                 bench::bench_ms());
        const Cell cell = run_cell(b, stripes, cfg, ubits);
        const htm::TxStats& s = cell.stats;
        const double lock_sub_pct =
            s.total_aborts() > 0
                ? 100.0 * static_cast<double>(s.aborts_lock_subscription) /
                      static_cast<double>(s.total_aborts())
                : 0;
        const double fb_per_mop =
            cell.mops > 0 ? static_cast<double>(s.fallback_acquisitions) /
                                (cell.mops * 1e6) * 1e6
                          : 0;
        bench::record_row(table, "mops", t, cell.mops, "Mops");
        bench::record_row(table, "hold_mops", t, cell.hold_mops, "Mops");
        bench::record_row(table, "lock_sub_share", t, lock_sub_pct, "%");
        bench::record_row(table, "fallbacks_per_mop", t, fb_per_mop, "1/Mop");
        bench::record_row(table, "p50", t, cell.p50_us, "us/batch");
        bench::record_row(table, "p99", t, cell.p99_us, "us/batch");
        std::printf("  %3d %10.3f %10.3f %13.1f%% %16.1f %10.2f %10.2f\n", t,
                    cell.mops, cell.hold_mops, lock_sub_pct, fb_per_mop,
                    cell.p50_us, cell.p99_us);
        std::fflush(stdout);
        if (t == max_t) {
          // Absolute counts at the hottest cell — CI's jq assert
          // compares striped vs global per structure.
          char label[96];
          std::snprintf(label, sizeof label, "%s %s lock_sub", name, pname);
          bench::record_row("hotkey", label, t,
                            static_cast<double>(s.aborts_lock_subscription),
                            "aborts");
          std::snprintf(label, sizeof label, "%s %s fallbacks", name, pname);
          bench::record_row("hotkey", label, t,
                            static_cast<double>(s.fallback_acquisitions),
                            "acq");
          std::snprintf(label, sizeof label, "%s %s stripes_acquired", name,
                        pname);
          bench::record_row("hotkey", label, t,
                            static_cast<double>(s.fallback_stripes_acquired),
                            "stripes");
          // Deterministic probe — the schedule-free CI assert target.
          std::snprintf(label, sizeof label, "%s %s probe_lock_sub", name,
                        pname);
          bench::record_row("hotkey", label, t,
                            static_cast<double>(cell.probe_lock_sub),
                            "aborts");
          std::snprintf(label, sizeof label, "%s %s probe_total", name,
                        pname);
          bench::record_row("hotkey", label, t,
                            static_cast<double>(cell.probe_total), "probes");
          std::printf("      probe: %llu/%llu subscription aborts\n",
                      static_cast<unsigned long long>(cell.probe_lock_sub),
                      static_cast<unsigned long long>(cell.probe_total));
        }
      }
    }
  }

  // Fig. 10 overload-cell rerun: admission shedding under both policies.
  std::printf("\nfig10 overload rerun (bd-spash shards, open loop, "
              "queue=8)\n");
  const workload::Config over_cfg =
      workload::Config::ycsb_a().with(keys, 0.99, 8, bench::bench_ms());
  for (const auto& [stripes, pname] : policies) {
    const Cell over = run_overload(stripes, over_cfg, ubits);
    char label[64];
    std::snprintf(label, sizeof label, "%s shed_rate", pname);
    bench::record_row("fig10 overload rerun", label, 8, over.shed_pct, "%");
    std::snprintf(label, sizeof label, "%s goodput", pname);
    bench::record_row("fig10 overload rerun", label, 8, over.mops, "Mops");
    std::printf("  %-8s shed %5.1f%%  goodput %8.3f Mops/s\n", pname,
                over.shed_pct, over.mops);
  }

  return bench::finish();
}
