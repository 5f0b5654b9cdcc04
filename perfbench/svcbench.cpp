// svcbench: the service benchmark every performance or simplicity change
// is judged by (BENCHMARK.json at the repository root; perfbench/README.md
// explains the workloads and metrics).
//
//   svcbench --workload kv-a|durable-scan --seed N --seconds S
//            --trace 0|1 --run-dir DIR [--skip-persist-all]
//
// One run calibrates the NVM latency model, builds the world (NVM device,
// heap, epoch system, KVStore) repeatedly and keeps the last, warms up,
// measures a window of S seconds with closed-loop clients, and then checks
// the store: close, simulated crash, attach, recover (repeatedly), and
// compare key for key with the pre-crash map. Traced runs of kv-a also
// serve the store through an in-process ShmServer for a short transport
// phase after the window. It prints provenance, a readable report and, as
// its last line, one JSON object: the end-to-end metrics with --trace 0,
// the per-layer metrics with --trace 1. It exits 1 when a correctness
// check failed and 2 on bad usage or a build it refuses to measure.
//
// Layers are measured from outside only: the benchmark times its own
// calls into svc/ipc, and takes deltas of the program's public counters
// (htm::collect_stats, EpochSys::stats, Device::stats, the obs registry)
// between the start and the end of the window. Latency quantiles come
// from the benchmark's own timestamps, never from the registry's
// log-bucketed histograms.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/spin.hpp"
#include "common/threading.hpp"
#include "epoch/epoch_sys.hpp"
#include "gen.hpp"
#include "htm/engine.hpp"
#include "ipc/client.hpp"
#include "ipc/server.hpp"
#include "nvm/device.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "svc/kvstore.hpp"

#ifndef PERFBENCH_BUILD
#define PERFBENCH_BUILD "unknown"
#endif

using namespace bdhtm;
using perfbench::Quantiles;
using perfbench::Reservoir;
using perfbench::Zipf;

namespace {

// ---- Settings shared by every workload ----

constexpr std::uint64_t kEpochUs = 10'000;
/// Set-up and recovery are short, fixed work, and a shared host's speed
/// drifts between seconds. Each is repeated until it has run at least
/// this many times and for at least this long, so its median samples
/// the host over seconds rather than one moment; setup_s and recovery_s
/// are the medians.
constexpr int kMinSetups = 5;
constexpr std::uint64_t kSetupSpanNs = 2'000'000'000;
constexpr int kMinRecoveries = 5;
constexpr std::uint64_t kRecoverySpanNs = 8'000'000'000;
constexpr std::uint64_t kWarmupNs = 1'000'000'000;
/// Traced runs alternate untraced and traced sub-windows of this length,
/// so obs.trace_overhead compares the two under the same conditions.
constexpr std::uint64_t kSubWindowNs = 500'000'000;
/// The window is cut into slices; each slice keeps its own samples.
constexpr std::uint64_t kSliceNs = 1'000'000'000;
constexpr std::size_t kSliceSamples = std::size_t{1} << 15;  // per thread, kind
constexpr std::size_t kSliceDurSamples = std::size_t{1} << 13;
constexpr std::size_t kSpanRing = std::size_t{1} << 13;
constexpr std::size_t kMaxEpochs = std::size_t{1} << 16;
constexpr std::size_t kScanPairs = 16;
constexpr int kMapThreads = 4;
constexpr int kCalibrationTries = 15;

/// Optane-shaped latency model, the costs bench/bench_common.hpp uses.
nvm::DeviceConfig nvm_cfg(std::size_t capacity) {
  nvm::DeviceConfig cfg;
  cfg.capacity = capacity;
  cfg.read_ns = 150;
  cfg.write_ns = 60;
  cfg.flush_ns = 500;
  cfg.fence_ns = 150;
  return cfg;
}

struct Spec {
  const char* name;
  svc::Backend backend;
  svc::ReleasePolicy release;
  int key_bits;
  int get_permille;  // the rest of the writes split evenly put/remove
  int point_clients;
  std::size_t flight;  // requests in flight per point client
  bool ipc_phase;      // traced runs end with a transport phase
  int scan_clients;
  std::size_t queue_capacity;
  std::size_t device_bytes;
  int recovery_threads;  // 0 = nproc
};

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// Devices hold a few times each heap: the simulated crash copies and
// scans the whole image, so spare capacity only adds to recovery_s.
// kv-a recovers on one thread: its ~33K blocks relink in a few ms, so
// more threads only made recovery_s wait for the slowest core of a
// shared 4-vCPU VM (run-to-run spread 20% with 4 threads, 11% with one,
// for 12% more time). durable-scan's ~524K-block vEB relink gains from
// all cores.
const Spec kSpecs[] = {
    {"kv-a", svc::Backend::kHash, svc::ReleasePolicy::kBuffered, 16, 500, 3,
     16, true, 0, 64, std::size_t{16} << 20, 1},
    {"durable-scan", svc::Backend::kVebTree, svc::ReleasePolicy::kDurable, 20,
     500, 2, 256, false, 2, 256, std::size_t{64} << 20, 0},
};

/// The transport phase (run_ipc_phase): one ShmClient with 16 slots and 8
/// requests in flight, YCSB-B (95% get), for 2 s after a 200 ms warm-up.
constexpr std::uint32_t kIpcSlots = 16;
constexpr std::size_t kIpcFlight = 8;
constexpr int kIpcGetPermille = 950;
constexpr std::uint64_t kIpcWarmupNs = 200'000'000;
constexpr std::uint64_t kIpcPhaseNs = 2'000'000'000;

svc::KVStoreConfig store_cfg(const Spec& s) {
  svc::KVStoreConfig c;
  c.backend = s.backend;
  c.shards = 2;
  c.workers = 2;
  c.clients = s.point_clients + (s.ipc_phase ? 1 : 0);  // + the shm session
  c.queue_capacity = s.queue_capacity;
  c.max_batch = 16;
  c.release = s.release;
  c.shard_opt.veb_ubits = s.key_bits;
  return c;
}

struct Args {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  std::uint64_t seconds = 0;
  bool trace = false;
  bool skip_persist_all = false;
  std::string run_dir;
};

// ---- The world under test ----

struct World {
  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
  std::unique_ptr<svc::KVStore> store;
  std::string shm_dir;
  std::unique_ptr<ipc::ShmServer> server;
  std::vector<std::unique_ptr<ipc::ShmClient>> clients;

  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World() {
    clients.clear();
    server.reset();
    store.reset();
    es.reset();
    pa.reset();
    dev.reset();
    if (!shm_dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(shm_dir, ec);
    }
  }
};

/// Device map, heap format, prefill, store start.
std::unique_ptr<World> build_world(const Spec& s) {
  auto w = std::make_unique<World>();
  w->dev = std::make_unique<nvm::Device>(nvm_cfg(s.device_bytes));
  w->pa = std::make_unique<alloc::PAllocator>(*w->dev);
  epoch::EpochSys::Config ec;
  ec.epoch_length_us = kEpochUs;
  w->es = std::make_unique<epoch::EpochSys>(*w->pa, ec);
  w->store = std::make_unique<svc::KVStore>(*w->es, store_cfg(s));

  const std::uint64_t n = std::uint64_t{1} << s.key_bits;
  for (std::uint64_t i = 0; i < n / 2; ++i) {
    const std::uint64_t k = perfbench::prefill_key(i, n);
    w->store->shard(w->store->shard_of(k)).insert(k, perfbench::value_for(k, 0));
  }

  return w;
}

// ---- Per-thread measurement state (allocated before set-up) ----

enum SpanKind : std::uint8_t {
  kSpSvcSubmit,
  kSpSvcWait,
  kSpIpcSubmit,
  kSpIpcWait,
  kSpScan
};
constexpr const char* kSpanNames[] = {"bench.svc.submit", "bench.svc.wait",
                                      "bench.ipc.submit", "bench.ipc.wait",
                                      "bench.svc.scan"};

struct Span {
  std::uint64_t t0 = 0, t1 = 0, req = 0;
  SpanKind kind = kSpSvcSubmit;
};

struct DurSample {
  std::uint64_t t_submit = 0;
  std::uint64_t complete_epoch = 0;
};

struct Timed {
  std::uint64_t ns = 0, n = 0;
  void add(std::uint64_t d) {
    ns += d;
    ++n;
  }
  double mean() const { return n > 0 ? double(ns) / double(n) : 0.0; }
};

/// One slice of the window, for one client thread.
struct Slice {
  explicit Slice(std::uint64_t seed)
      : read(kSliceSamples, seed ^ 1),
        write(kSliceSamples, seed ^ 2),
        scan(kSliceSamples, seed ^ 3),
        dur(kSliceDurSamples, seed ^ 4) {}

  std::uint64_t ops = 0;
  Reservoir<std::uint32_t> read, write, scan;
  Reservoir<DurSample> dur;
};

struct alignas(64) Client {
  Client(std::size_t n_slices, std::uint64_t seed) : spans(kSpanRing) {
    slices.reserve(n_slices);
    for (std::size_t i = 0; i < n_slices; ++i) {
      slices.emplace_back(splitmix64(seed + i));
    }
  }

  std::vector<Slice> slices;
  std::vector<Span> spans;  // overwrite-oldest ring
  std::uint64_t spans_emitted = 0;

  std::uint64_t attempted = 0, failed = 0;  // in the window
  std::uint64_t reads = 0, writes = 0, scans = 0, scan_pairs = 0;
  std::uint64_t ops_traced = 0, ops_plain = 0;
  std::uint64_t noslot = 0;
  std::uint64_t bad = 0;  // online check failures, whole run
  Timed submit, wait, scan;

  void span(SpanKind k, std::uint64_t t0, std::uint64_t t1, std::uint64_t req) {
    spans[spans_emitted++ % spans.size()] = {t0, t1, req, k};
  }
};

/// The measured window and, in traced runs, its traced sub-windows.
struct Clock {
  std::uint64_t t0 = 0, t1 = 0;
  bool traced_run = false;

  bool in_window(std::uint64_t t) const { return t >= t0 && t <= t1; }
  std::size_t slices() const { return (t1 - t0) / kSliceNs; }
  /// Slice of a time inside the window.
  std::size_t slice(std::uint64_t t) const {
    return std::min((t - t0) / kSliceNs, slices() - 1);
  }
  /// Odd sub-windows are traced; tracing stays on after the window.
  bool traced(std::uint64_t t) const {
    return traced_run && t >= t0 &&
           (t > t1 || ((t - t0) / kSubWindowNs) % 2 == 1);
  }
};

std::uint32_t clamp32(std::uint64_t ns) {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX));
}

enum class OpKind : std::uint8_t { kGet, kPut, kRemove };

struct OpGen {
  const Zipf& zipf;
  int get_permille;
  unsigned writer;
  Rng rng;

  OpKind next(std::uint64_t* key, std::uint64_t* value) {
    *key = zipf.key(rng);
    const auto dice = static_cast<int>(rng.next_below(1000));
    if (dice < get_permille) return OpKind::kGet;
    if (dice < get_permille + (1000 - get_permille) / 2) {
      *value = perfbench::value_for(*key, writer);
      return OpKind::kPut;
    }
    return OpKind::kRemove;
  }
};

/// Record one resolved point op. `ok`: the request was served (not shed,
/// closed, timed out or lost).
void note_op(Client& c, const Clock& clk, OpKind kind, std::uint64_t t_sub,
             std::uint64_t t_ack, bool ok, std::uint64_t complete_epoch) {
  if (!clk.in_window(t_ack)) return;
  ++c.attempted;
  if (!ok) {
    ++c.failed;
    return;
  }
  ++(clk.traced(t_ack) ? c.ops_traced : c.ops_plain);
  Slice& sl = c.slices[clk.slice(t_ack)];
  ++sl.ops;
  const std::uint32_t lat = clamp32(t_ack - t_sub);
  if (kind == OpKind::kGet) {
    ++c.reads;
    sl.read.add(lat);
  } else {
    ++c.writes;
    sl.write.add(lat);
    sl.dur.add({t_sub, complete_epoch});
  }
}

// ---- Client loops ----

struct Shared {
  const Spec* spec;
  const Clock* clk;
  const Zipf* zipf;
  unsigned writers;
  std::atomic<bool> stop{false};
};

/// In-process closed loop: `flight` requests outstanding; wait for the
/// oldest, record it, reuse its slot for the next request.
void point_client_svc(World& w, Shared& sh, Client& c, int id,
                      std::uint64_t seed) {
  const Spec& s = *sh.spec;
  const Clock& clk = *sh.clk;
  OpGen gen{*sh.zipf, s.get_permille, static_cast<unsigned>(id + 1), Rng(seed)};
  std::vector<svc::Request> reqs(s.flight);
  std::vector<OpKind> kinds(s.flight);
  std::vector<std::uint64_t> t_sub(s.flight);
  std::uint64_t seq = 0;
  const std::uint64_t id_base = static_cast<std::uint64_t>(id + 1) << 48;
  std::uint64_t last = now_ns();

  auto issue = [&](std::size_t i) {
    std::uint64_t key = 0, value = 0;
    kinds[i] = gen.next(&key, &value);
    switch (kinds[i]) {
      case OpKind::kGet: reqs[i] = svc::Request::get(key); break;
      case OpKind::kPut: reqs[i] = svc::Request::put(key, value); break;
      case OpKind::kRemove: reqs[i] = svc::Request::del(key); break;
    }
    const bool tr = clk.traced(last);
    const std::uint64_t t = now_ns();
    t_sub[i] = t;
    w.store->submit(id, &reqs[i]);
    ++seq;
    if (tr) {
      last = now_ns();
      c.submit.add(last - t);
      c.span(kSpSvcSubmit, t, last, id_base | (seq - 1));
    } else {
      last = t;
    }
  };

  auto finish = [&](std::size_t i, std::uint64_t t_wait) {
    w.store->wait(&reqs[i]);
    const std::uint64_t t_ack = now_ns();
    if (t_wait != 0) {
      c.wait.add(t_ack - t_wait);
      c.span(kSpSvcWait, t_wait, t_ack, id_base | (seq - s.flight));
    }
    last = t_ack;
    const svc::Request& r = reqs[i];
    bool ok = r.status == svc::Status::kOk ||
              (r.status == svc::Status::kNotFound && kinds[i] != OpKind::kPut);
    if (ok && kinds[i] == OpKind::kGet && r.status == svc::Status::kOk &&
        !perfbench::value_ok(r.op.key, r.op.out_value, sh.writers)) {
      ++c.bad;
      ok = false;
    }
    note_op(c, clk, kinds[i], t_sub[i], t_ack, ok, r.complete_epoch);
  };

  for (std::size_t i = 0; i < s.flight; ++i) issue(i);
  for (std::size_t i = 0;; i = (i + 1) % s.flight) {
    finish(i, clk.traced(last) ? now_ns() : 0);
    if (sh.stop.load(std::memory_order_relaxed)) {
      for (std::size_t j = 1; j < s.flight; ++j) {
        finish((i + j) % s.flight, 0);
      }
      return;
    }
    issue(i);
  }
}

/// Same closed loop through this thread's own ShmClient.
void point_client_shm(World& w, Shared& sh, Client& c, int id,
                      std::uint64_t seed) {
  const Spec& s = *sh.spec;
  const Clock& clk = *sh.clk;
  ipc::ShmClient& cli = *w.clients[static_cast<std::size_t>(id)];
  OpGen gen{*sh.zipf, s.get_permille, static_cast<unsigned>(id + 1), Rng(seed)};
  struct Pending {
    int slot = -1;
    OpKind kind = OpKind::kGet;
    std::uint64_t key = 0;
    std::uint64_t t_sub = 0;
  };
  std::vector<Pending> pend(s.flight);
  std::uint64_t last = now_ns();

  auto issue = [&](Pending& p) {
    std::uint64_t value = 0;
    p.kind = gen.next(&p.key, &value);
    const ipc::WireOp op = p.kind == OpKind::kGet   ? ipc::kOpGet
                           : p.kind == OpKind::kPut ? ipc::kOpPut
                                                    : ipc::kOpRemove;
    const bool tr = clk.traced(last);
    const std::uint64_t t = now_ns();
    p.t_sub = t;
    p.slot = cli.submit(op, p.key, value);
    last = t;
    if (tr) {
      last = now_ns();
      c.submit.add(last - t);
      if (p.slot >= 0) c.span(kSpIpcSubmit, t, last, cli.span_of(p.slot));
    }
    if (p.slot < 0) {
      ++c.noslot;
      note_op(c, clk, p.kind, t, last, false, 0);
    }
  };

  // Returns false when the session is unusable (timeout / server gone).
  auto finish = [&](Pending& p, std::uint64_t t_wait) {
    if (p.slot < 0) return true;
    const std::uint64_t span = t_wait != 0 ? cli.span_of(p.slot) : 0;
    ipc::ShmClient::Reply rep;
    const ipc::ShmClient::Err err = cli.wait(p.slot, &rep);
    const std::uint64_t t_ack = now_ns();
    if (t_wait != 0) {
      c.wait.add(t_ack - t_wait);
      c.span(kSpIpcWait, t_wait, t_ack, span);
    }
    last = t_ack;
    p.slot = -1;
    bool ok = err == ipc::ShmClient::Err::kOk &&
              (rep.status == ipc::kStOk ||
               (rep.status == ipc::kStNotFound && p.kind != OpKind::kPut));
    if (ok && p.kind == OpKind::kGet && rep.status == ipc::kStOk &&
        !perfbench::value_ok(p.key, rep.value, sh.writers)) {
      ++c.bad;
      ok = false;
    }
    note_op(c, clk, p.kind, p.t_sub, t_ack, ok, rep.complete_epoch);
    return err == ipc::ShmClient::Err::kOk;
  };

  for (auto& p : pend) issue(p);
  for (std::size_t i = 0;; i = (i + 1) % s.flight) {
    if (!finish(pend[i], clk.traced(last) ? now_ns() : 0)) {
      ++c.bad;  // a wedged or vanished server is a correctness failure
      return;
    }
    if (sh.stop.load(std::memory_order_relaxed)) {
      for (std::size_t j = 1; j < s.flight; ++j) {
        if (!finish(pend[(i + j) % s.flight], 0)) ++c.bad;
      }
      return;
    }
    issue(pend[i]);
  }
}

/// KVStore::scan for kScanPairs pairs from a Zipf start key, closed loop.
void scan_client(World& w, Shared& sh, Client& c, int id, std::uint64_t seed) {
  const Clock& clk = *sh.clk;
  Rng rng(seed);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  out.reserve(kScanPairs);
  std::uint64_t seq = 0;
  const std::uint64_t id_base = static_cast<std::uint64_t>(0x100 + id) << 48;
  while (!sh.stop.load(std::memory_order_relaxed)) {
    const std::uint64_t start = sh.zipf->key(rng);
    const std::uint64_t t = now_ns();
    const svc::Status st = w.store->scan(start, kScanPairs, &out);
    const std::uint64_t t_end = now_ns();
    ++seq;
    bool ok = st == svc::Status::kOk;
    std::uint64_t prev = start;
    for (const auto& [k, v] : out) {
      if (k <= prev || !perfbench::value_ok(k, v, sh.writers)) {
        ++c.bad;
        ok = false;
        break;
      }
      prev = k;
    }
    if (!clk.in_window(t_end)) continue;
    ++c.attempted;
    if (!ok) {
      ++c.failed;
      continue;
    }
    ++c.scans;
    c.scan_pairs += out.size();
    c.scan.add(t_end - t);
    Slice& sl = c.slices[clk.slice(t_end)];
    ++sl.ops;
    sl.scan.add(clamp32(t_end - t));
    const bool tr = clk.traced(t_end);
    ++(tr ? c.ops_traced : c.ops_plain);
    if (tr) c.span(kSpScan, t, t_end, id_base | seq);
  }
}

// ---- Counter snapshots (C-type per-layer metrics) ----

struct HistSum {
  std::uint64_t sum = 0, count = 0;
};

struct Snap {
  std::uint64_t t = 0;
  htm::TxStats htm{};
  std::uint64_t epochs = 0, lines = 0, deduped = 0, trips = 0;
  HistSum advance, flush;
  std::uint64_t loads = 0, stores = 0, clwbs = 0, media_lines = 0;
  obs::Registry::Snapshot reg;

  std::uint64_t counter(std::string_view name) const {
    for (const auto& [n, v] : reg.counters) {
      if (n == name) return v;
    }
    return 0;
  }
  HistSum hist(std::string_view name) const {
    for (const auto& [n, h] : reg.histograms) {
      if (n == name) return {h.sum, h.count};
    }
    return {};
  }
};

Snap take_snap(World& w) {
  Snap s;
  s.t = now_ns();
  s.htm = htm::collect_stats();
  const epoch::EpochStats& es = w.es->stats();
  s.epochs = es.epochs_advanced.load();
  s.lines = es.lines_flushed.load();
  s.deduped = es.lines_deduped.load();
  s.trips = es.watchdog_trips.load();
  s.advance = {es.advance_ns.sum(), es.advance_ns.count()};
  s.flush = {es.flush_ns.sum(), es.flush_ns.count()};
  const nvm::DeviceStats& ds = w.dev->stats();
  s.loads = ds.loads.load();
  s.stores = ds.stores.load();
  s.clwbs = ds.clwbs.load();
  s.media_lines = ds.media_line_writes.load();
  s.reg = obs::Registry::global().snapshot();
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

double hist_mean(const Snap& a, const Snap& b, std::string_view name) {
  const HistSum x = a.hist(name), y = b.hist(name);
  return ratio(double(y.sum - x.sum), double(y.count - x.count));
}

// ---- Transport phase (traced runs) ----

/// Serves the store through an in-process ShmServer and drives one
/// ShmClient closed-loop from one benchmark thread (kIpcSlots slots,
/// kIpcFlight in flight, YCSB-B) for kIpcPhaseNs. The ipc.* per-layer
/// metrics come from this phase and no end-to-end metric does: on a
/// shared 4-vCPU host, a workload whose requests each cross futex
/// wake-ups swung 2-10x in throughput from one run to the next (README).
/// `before`/`after` are counter snapshots around the measured part.
bool run_ipc_phase(World& w, const Spec& s, const Zipf& zipf, Client& c,
                   const std::string& dir, std::uint64_t seed, Snap* before,
                   Snap* after) {
  w.shm_dir = dir;
  std::filesystem::create_directories(dir);
  ipc::ShmServer::Config sc;
  sc.dir = dir;
  sc.max_sessions = 1;
  sc.kv_client_base = s.point_clients;
  w.server = std::make_unique<ipc::ShmServer>(*w.store, sc);
  auto cli = std::make_unique<ipc::ShmClient>();
  ipc::ShmClient::Options o;
  o.slots = kIpcSlots;
  if (cli->connect(dir, o) != ipc::ShmClient::Err::kOk) {
    std::fprintf(stderr, "svcbench: shm client failed to connect\n");
    return false;
  }
  w.clients.push_back(std::move(cli));

  Spec ps = s;
  ps.flight = kIpcFlight;
  ps.get_permille = kIpcGetPermille;
  Clock clk;
  clk.traced_run = true;
  clk.t0 = now_ns() + kIpcWarmupNs;
  clk.t1 = clk.t0 + kIpcPhaseNs;
  Shared sh;
  sh.spec = &ps;
  sh.clk = &clk;
  sh.zipf = &zipf;
  sh.writers = static_cast<unsigned>(s.point_clients);
  std::thread t(point_client_shm, std::ref(w), std::ref(sh), std::ref(c), 0, seed);
  while (now_ns() < clk.t0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  *before = take_snap(w);
  while (now_ns() < clk.t1) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  *after = take_snap(w);
  sh.stop.store(true, std::memory_order_relaxed);
  t.join();
  w.clients.clear();
  return true;
}

// ---- Crash check ----

/// Attach to `w`'s crashed heap and run the sharded recovery.
void attach_and_recover(World& w, const Spec& s, int threads) {
  w.pa = std::make_unique<alloc::PAllocator>(*w.dev,
                                             alloc::PAllocator::Mode::kAttach);
  epoch::EpochSys::Config ec;
  ec.epoch_length_us = kEpochUs;
  ec.attach = true;
  ec.start_advancer = false;  // as bench/sec52_recovery: the scan runs alone
  w.es = std::make_unique<epoch::EpochSys>(*w.pa, ec);
  svc::KVStoreConfig kc = store_cfg(s);
  kc.start_workers = false;
  w.store = std::make_unique<svc::KVStore>(*w.es, kc);
  w.store->recover(threads);
}

/// Read every key of [0, n) through the shards' own lookups.
void read_map(svc::KVStore& st, std::uint64_t n,
              std::vector<std::uint64_t>& out) {
  std::vector<std::thread> ts;
  const std::uint64_t chunk = n / kMapThreads;
  for (int t = 0; t < kMapThreads; ++t) {
    ts.emplace_back([&, t] {
      const std::uint64_t lo = chunk * static_cast<std::uint64_t>(t);
      const std::uint64_t hi = t + 1 == kMapThreads ? n : lo + chunk;
      for (std::uint64_t k = lo; k < hi; ++k) {
        const auto v = st.shard(st.shard_of(k)).find(k);
        out[k] = v ? *v : perfbench::kAbsent;
      }
    });
  }
  for (auto& t : ts) t.join();
}

struct CrashCheck {
  std::uint64_t live = 0, lost = 0, wrong = 0, extra = 0, invalid = 0;
  std::uint64_t quarantined = 0, blocks = 0;
  std::uint64_t mismatches() const {
    return lost + wrong + extra + invalid + quarantined;
  }
};

// ---- Output ----

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void emit_trace(const std::string& path, const std::vector<const Client*>& clients) {
  // The program's rings first, then the benchmark's own spans, spliced
  // into the one traceEvents array (same pid, so Perfetto shows both).
  std::string json = obs::chrome_trace_json();
  const std::size_t close = json.rfind(']');
  if (close == std::string::npos) return;
  const bool empty = json.find('{', json.find('[')) > close;
  obs::JsonWriter w;
  w.begin_array();
  for (std::size_t c = 0; c < clients.size(); ++c) {
    const Client& cl = *clients[c];
    const std::size_t n = std::min<std::uint64_t>(cl.spans_emitted, cl.spans.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Span& sp = cl.spans[(cl.spans_emitted - n + i) % cl.spans.size()];
      w.begin_object();
      w.key("name");
      w.value(kSpanNames[sp.kind]);
      w.key("cat");
      w.value("bench");
      w.key("ph");
      w.value("X");
      w.key("ts");
      w.value_fixed(double(sp.t0) / 1e3, 3);
      w.key("dur");
      w.value_fixed(double(sp.t1 - sp.t0) / 1e3, 3);
      w.key("pid");
      w.value(std::uint64_t{1});
      w.key("tid");
      w.value(std::uint64_t{1000 + c});
      w.key("args");
      w.begin_object();
      w.key("req");
      w.value(sp.req);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  std::string mine = std::move(w).str();
  mine = mine.substr(1, mine.size() - 2);  // strip the array brackets
  if (!mine.empty()) {
    json.insert(close, (empty ? "" : ",") + mine);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("trace: %s\n", path.c_str());
}

/// The model's spin loop (common/spin.cpp), timed here on its own.
__attribute__((noinline)) void loop_spin(std::uint64_t iters) {
  for (std::uint64_t i = 0; i < iters; ++i) asm volatile("" ::: "memory");
}

/// Iterations per ns of the spin loop right now.
double loop_rate(std::uint64_t iters) {
  const std::uint64_t t = now_ns();
  loop_spin(iters);
  return double(iters) / double(std::max<std::uint64_t>(1, now_ns() - t));
}

/// The NVM latency model turns nanoseconds into spin iterations at a
/// rate it measures once per process, in one ~2 ms probe. On a shared
/// 4-vCPU VM the loop's rate moves by up to 2x from one second to the
/// next (other tenants contend for the cores), so a probe taken at a
/// random moment gives each process a random model: accepted
/// calibrations ranged over 1.18-2.35 iterations/ns. What stays put is
/// the loop's peak rate. So this finds the peak (the fastest
/// 100K-iteration spin over 500 ms), waits until the loop runs near it,
/// and lets the model probe right then; main() starts the process over
/// if the model's rate still differs from the peak by more than 5% (a
/// slower moment, or a peak the 500 ms missed). Modeled costs are then
/// as specified on a core running at its peak and, like all other work,
/// stretch when the host is slow.
struct Calibration {
  double peak = 0;   // the loop's peak rate, iterations per ns
  double model = 0;  // the rate the model calibrated to
  double scale() const { return model / peak; }
};

Calibration calibrate_nvm_model() {
  Calibration c;
  const std::uint64_t t0 = now_ns();
  while (now_ns() - t0 < 500'000'000) c.peak = std::max(c.peak, loop_rate(100'000));
  while (now_ns() - t0 < 3'500'000'000 && loop_rate(4'000'000) < 0.95 * c.peak) {
    c.peak = std::max(c.peak, loop_rate(100'000));
  }
  spin_calibrate();
  // The model's rate, timed against the loop just before each model spin:
  // the ratio cancels the host's speed of the moment.
  std::vector<double> r;
  const std::uint64_t t1 = now_ns();
  while (now_ns() - t1 < 100'000'000) {
    const std::uint64_t a0 = now_ns();
    loop_spin(200'000);
    const std::uint64_t a1 = now_ns();
    spin_for_ns(100'000);
    const std::uint64_t a2 = now_ns();
    r.push_back(200'000.0 / double(std::max<std::uint64_t>(1, a1 - a0)) *
                double(a2 - a1) / 1e5);
  }
  c.model = median(r);
  return c;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

int usage(const char* why) {
  std::fprintf(stderr,
               "svcbench: %s\nusage: svcbench --workload kv-a|durable-scan "
               "--seed N --seconds S --trace 0|1 --run-dir DIR "
               "[--skip-persist-all]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Each of these builds is a different program; its numbers must not be
  // compared with the plain build's.
#if defined(BDHTM_CHECKED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr, "svcbench: refusing to measure a checked or "
                       "sanitizer build\n");
  return 2;
#endif
  if constexpr (obs::kNoop) {
    std::fprintf(stderr, "svcbench: refusing to measure a BDHTM_OBS_NOOP build\n");
    return 2;
  }

  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t v = 0;
    if (arg == "--skip-persist-all") {
      a.skip_persist_all = true;
      continue;
    }
    if (val == nullptr) return usage("missing value");
    ++i;
    if (arg == "--workload") {
      for (const Spec& s : kSpecs) {
        if (std::string_view(s.name) == val) a.spec = &s;
      }
      if (a.spec == nullptr) return usage("unknown workload");
    } else if (arg == "--seed" && parse_u64(val, &v)) {
      a.seed = v;
      have_seed = true;
    } else if (arg == "--seconds" && parse_u64(val, &v) && v >= 1 && v <= 60) {
      a.seconds = v;
      have_seconds = true;
    } else if (arg == "--trace" && parse_u64(val, &v) && v <= 1) {
      a.trace = v == 1;
      have_trace = true;
    } else if (arg == "--run-dir") {
      a.run_dir = val;
    } else {
      return usage("bad argument");
    }
  }
  if (a.spec == nullptr || !have_seed || !have_seconds || !have_trace ||
      a.run_dir.empty()) {
    return usage("missing argument");
  }
  const Spec& s = *a.spec;
  const std::uint64_t n = std::uint64_t{1} << s.key_bits;
  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int flushers = std::clamp(nproc, 1, 4);  // EpochSys default (0)
  const int recovery_threads = s.recovery_threads > 0 ? s.recovery_threads : nproc;

  // A badly calibrated model is a different device: start the process
  // over (same arguments) until the model calibrated within 5% of the
  // loop's peak rate.
  const Calibration cal = calibrate_nvm_model();
  const char* tries_env = std::getenv("PERFBENCH_CALIBRATION_TRIES");
  const int tries = tries_env != nullptr ? std::atoi(tries_env) : 0;
  if (std::abs(cal.scale() - 1.0) > 0.05 && tries < kCalibrationTries) {
    const std::string next = std::to_string(tries + 1);
    setenv("PERFBENCH_CALIBRATION_TRIES", next.c_str(), 1);
    execv("/proc/self/exe", argv);
  }
  std::printf("svcbench: workload=%s seed=%llu seconds=%llu trace=%d%s\n", s.name,
              static_cast<unsigned long long>(a.seed),
              static_cast<unsigned long long>(a.seconds), a.trace ? 1 : 0,
              a.skip_persist_all ? " skip_persist_all=1" : "");
  std::printf("provenance: nproc=%d epoch_us=%llu nvm_model=on(read=150ns "
              "write=60ns flush=500ns fence=150ns peak_rate=%.3f/ns scale=%.3f "
              "tries=%d) flushers=default(%d) recovery_threads=%d build=\"%s\"\n",
              nproc, static_cast<unsigned long long>(kEpochUs), cal.peak,
              cal.scale(), tries + 1, flushers, recovery_threads, PERFBENCH_BUILD);
  std::fflush(stdout);

  // Generator and check memory is fixed before set-up, so peak RSS
  // measures the store rather than how many operations completed.
  const Zipf zipf(n, 0.99);
  const int nthreads = s.point_clients + s.scan_clients;
  std::vector<Client> clients;
  clients.reserve(static_cast<std::size_t>(nthreads));
  for (int c = 0; c < nthreads; ++c) {
    clients.emplace_back(a.seconds * 1'000'000'000ULL / kSliceNs,
                         splitmix64(a.seed ^ (0xc11e47ULL * (c + 1))));
  }
  Client ipc_client(kIpcPhaseNs / kSliceNs, splitmix64(a.seed ^ 0x1bc0ULL));
  std::vector<std::uint64_t> seen(kMaxEpochs, 0);  // epoch -> first seen persisted
  std::vector<std::uint64_t> pre_map(n), post_map(n);

  // ---- Set-up, repeated (see kMinSetups); the last world is measured ----
  std::filesystem::create_directories(a.run_dir);
  std::vector<double> setup_s;
  std::unique_ptr<World> w;
  const std::uint64_t setups_t0 = now_ns();
  for (int k = 0; k < kMinSetups || now_ns() - setups_t0 < kSetupSpanNs; ++k) {
    w.reset();
    // The last world's threads are joined; recycle their ids, or the
    // repeated worlds exhaust kMaxThreads.
    reset_thread_ids_for_testing();
    const std::uint64_t t = now_ns();
    w = build_world(s);
    setup_s.push_back(double(now_ns() - t) / 1e9);
  }

  // ---- Measured window ----
  Clock clk;
  clk.traced_run = a.trace;
  clk.t0 = now_ns() + kWarmupNs;
  clk.t1 = clk.t0 + a.seconds * 1'000'000'000ULL;
  Shared sh;
  sh.spec = &s;
  sh.clk = &clk;
  sh.zipf = &zipf;
  sh.writers = static_cast<unsigned>(s.point_clients);
  std::vector<std::thread> threads;
  for (int c = 0; c < nthreads; ++c) {
    const std::uint64_t seed = splitmix64(a.seed * 0x9e37ULL + static_cast<std::uint64_t>(c));
    Client& cl = clients[static_cast<std::size_t>(c)];
    if (c >= s.point_clients) {
      threads.emplace_back(scan_client, std::ref(*w), std::ref(sh), std::ref(cl),
                           c - s.point_clients, seed);
    } else {
      threads.emplace_back(point_client_svc, std::ref(*w), std::ref(sh),
                           std::ref(cl), c, seed);
    }
  }

  // Control loop: the durability observer (first time each persisted
  // epoch is seen), the window's counter snapshots, the traced
  // sub-window switch, and the tail: clients keep running until every
  // write acknowledged in the window is observed durable.
  Snap before, after;
  bool took_before = false, took_after = false, tracing = false;
  std::uint64_t last_p = w->es->persisted_epoch();
  std::uint64_t e_end = 0;
  bool tail_timeout = false;
  for (;;) {
    const std::uint64_t now = now_ns();
    const std::uint64_t p = w->es->persisted_epoch();
    for (; last_p < p; ++last_p) {
      if (last_p + 1 < kMaxEpochs) seen[last_p + 1] = now;
    }
    if (!took_before && now >= clk.t0) {
      before = take_snap(*w);
      took_before = true;
    }
    if (clk.traced(now) != tracing) {
      tracing = !tracing;
      obs::set_tracing(tracing);
    }
    if (!took_after && now >= clk.t1) {
      after = take_snap(*w);
      took_after = true;
      e_end = w->es->current_epoch();
    }
    if (took_after && last_p >= e_end + 2) break;
    if (took_after && now > clk.t1 + 10'000'000'000ULL) {
      tail_timeout = true;
      break;
    }
    // A coarse tick keeps the observer off the clients' cores; it adds
    // at most one tick to each durable_* sample.
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
  sh.stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  Snap ipc_before, ipc_after;
  if (a.trace && s.ipc_phase) {
    obs::set_tracing(true);
    if (!run_ipc_phase(*w, s, zipf, ipc_client,
                       a.run_dir + "/shm-" + std::to_string(getpid()),
                       splitmix64(a.seed ^ 0x1bcULL), &ipc_before, &ipc_after)) {
      return 1;
    }
  }
  obs::set_tracing(false);

  // ---- After the run: space, then the crash check ----
  w->clients.clear();
  if (w->server) w->server->close();
  w->store->close();
  const epoch::EpochStats& est = w->es->stats();
  const std::uint64_t backlog =
      est.blocks_retired.load() - est.blocks_reclaimed.load();
  const std::uint64_t bytes_in_use = w->pa->bytes_in_use();
  // Freeze the epoch clock, so the crash lands where the run stopped:
  // only persist_all() may make the last epochs durable now. (A long
  // epoch also stretches the watchdog deadline, which scales with it.)
  w->es->stall_advancer_for_testing(true);
  w->es->set_epoch_length_us(3'600'000'000ULL);
  read_map(*w->store, n, pre_map);

  CrashCheck cc;
  for (std::uint64_t k = 0; k < n; ++k) {
    if (pre_map[k] == perfbench::kAbsent) continue;
    ++cc.live;
    if (!perfbench::value_ok(k, pre_map[k], sh.writers)) ++cc.invalid;
  }
  const bool buffered = s.release == svc::ReleasePolicy::kBuffered;
  if (buffered && !a.skip_persist_all) w->es->persist_all();
  w->server.reset();
  if (a.trace) {
    w->store.reset();
    w->es.reset();  // every program thread joined: the rings are quiescent
    std::vector<const Client*> traced;
    for (const Client& c : clients) traced.push_back(&c);
    if (s.ipc_phase) traced.push_back(&ipc_client);
    emit_trace(a.run_dir + "/trace-" + s.name + ".json", traced);
  }
  // Peak RSS of set-up and load; the replay image below is the check's.
  const double peak_rss = peak_rss_mib();

  // Round 0 recovers the run's own crash. Later rounds replay the same
  // crash image, written back to the media through the device's own
  // line write-back, so recovery_s is the median of identical
  // recoveries (see kMinRecoveries); the last round's map must match too.
  std::vector<std::byte> image;
  std::vector<double> recovery_s;
  const std::uint64_t recoveries_t0 = now_ns();
  for (int r = 0;; ++r) {
    const bool last_round =
        r + 1 >= kMinRecoveries && now_ns() - recoveries_t0 >= kRecoverySpanNs;
    w->store.reset();
    w->es.reset();
    reset_thread_ids_for_testing();  // as between set-ups
    nvm::Device& dev = *w->dev;
    if (r > 0) {
      std::memcpy(dev.base(), image.data(), image.size());
      dev.flush_line_run_to_media(0, dev.n_lines());
    }
    const std::uint64_t t0 = now_ns();
    dev.simulate_crash();
    const std::uint64_t t1 = now_ns();
    if (r == 0) image.assign(dev.base(), dev.base() + dev.capacity());
    const std::uint64_t t2 = now_ns();
    attach_and_recover(*w, s, recovery_threads);
    recovery_s.push_back(double(t1 - t0 + now_ns() - t2) / 1e9);
    const epoch::RecoveryReport& rep = w->es->last_recovery();
    cc.quarantined += rep.blocks_quarantined + rep.superblocks_quarantined;
    cc.blocks = rep.blocks_scanned;
    if (r != 0 && !last_round) continue;
    read_map(*w->store, n, post_map);
    for (std::uint64_t k = 0; k < n; ++k) {
      if (pre_map[k] == post_map[k]) continue;
      if (post_map[k] == perfbench::kAbsent) {
        ++cc.lost;
      } else if (pre_map[k] == perfbench::kAbsent) {
        ++cc.extra;
      } else {
        ++cc.wrong;
      }
    }
    if (last_round) break;
  }
  w.reset();

  // ---- Aggregate ----
  const double window_s = double(clk.t1 - clk.t0) / 1e9;
  std::uint64_t attempted = 0, failed = 0, bad = 0, reads = 0, writes = 0,
                scans = 0, pairs = 0, ops_traced = 0, ops_plain = 0;
  Timed submit, wait, scan;
  for (const Client& c : clients) {
    attempted += c.attempted;
    failed += c.failed;
    bad += c.bad;
    reads += c.reads;
    writes += c.writes;
    scans += c.scans;
    pairs += c.scan_pairs;
    ops_traced += c.ops_traced;
    ops_plain += c.ops_plain;
    submit.ns += c.submit.ns;
    submit.n += c.submit.n;
    wait.ns += c.wait.ns;
    wait.n += c.wait.n;
    scan.ns += c.scan.ns;
    scan.n += c.scan.n;
  }
  // The transport phase's requests (traced runs) count as attempted too.
  attempted += ipc_client.attempted;
  failed += ipc_client.failed;
  bad += ipc_client.bad;
  // Rates and quantiles per slice, then the median over the slices: the
  // host's speed drifts between seconds, and one slow second should not
  // decide a run. Whole-window values are reported alongside.
  enum { kOps, kR50, kR95, kR98, kR99, kW50, kW95, kW98, kW99, kS50, kS99, kD50, kD95, kD98, kD99, kNumSliceStats };
  std::vector<std::vector<double>> per_slice(kNumSliceStats);
  Quantiles all_read, all_write, all_scan, all_dur;
  std::uint64_t dur_unseen = 0;
  for (std::size_t i = 0; i < clk.slices(); ++i) {
    Quantiles q_read, q_write, q_scan, q_dur;
    double slice_ops = 0;
    auto add = [](Quantiles& q, Quantiles& all, const Reservoir<std::uint32_t>& r) {
      const double wgt = ratio(double(r.seen()), double(r.size()));
      for (std::size_t k = 0; k < r.size(); ++k) {
        q.add(double(r[k]), wgt);
        all.add(double(r[k]), wgt);
      }
    };
    for (const Client& c : clients) {
      const Slice& sl = c.slices[i];
      slice_ops += double(sl.ops);
      add(q_read, all_read, sl.read);
      add(q_write, all_write, sl.write);
      add(q_scan, all_scan, sl.scan);
      const double wgt = ratio(double(sl.dur.seen()), double(sl.dur.size()));
      for (std::size_t k = 0; k < sl.dur.size(); ++k) {
        const DurSample& d = sl.dur[k];
        const std::uint64_t e = d.complete_epoch + 2;
        if (e >= kMaxEpochs || seen[e] == 0 || seen[e] < d.t_submit) {
          ++dur_unseen;
          continue;
        }
        q_dur.add(double(seen[e] - d.t_submit), wgt);
        all_dur.add(double(seen[e] - d.t_submit), wgt);
      }
    }
    per_slice[kOps].push_back(slice_ops / (double(kSliceNs) / 1e9));
    per_slice[kR50].push_back(q_read.at(0.50));
    per_slice[kR99].push_back(q_read.at(0.99));
    per_slice[kW50].push_back(q_write.at(0.50));
    per_slice[kW99].push_back(q_write.at(0.99));
    per_slice[kS50].push_back(q_scan.at(0.50));
    per_slice[kS99].push_back(q_scan.at(0.99));
    per_slice[kD50].push_back(q_dur.at(0.50));
    per_slice[kD95].push_back(q_dur.at(0.95));
    per_slice[kD98].push_back(q_dur.at(0.98));
    per_slice[kD99].push_back(q_dur.at(0.99));
    per_slice[kR95].push_back(q_read.at(0.95));
    per_slice[kR98].push_back(q_read.at(0.98));
    per_slice[kW95].push_back(q_write.at(0.95));
    per_slice[kW98].push_back(q_write.at(0.98));
  }
  auto med = [&](int k) { return median(per_slice[k]); };
  const std::uint64_t ops = reads + writes + scans;
  const std::uint64_t check_failures = bad + cc.mismatches() + dur_unseen +
                                       (tail_timeout ? 1 : 0);
  const bool correct = check_failures == 0;
  attempted += cc.mismatches();
  failed += check_failures;
  const std::uint64_t svc_ops = after.counter("svc.ops") - before.counter("svc.ops");
  const double win_ns = double(after.t - before.t);
  const htm::TxStats& h0 = before.htm;
  const htm::TxStats& h1 = after.htm;
  const double commits = double(h1.commits - h0.commits);
  const double fallbacks = double(h1.fallback_acquisitions - h0.fallback_acquisitions);
  const double aborts = double(h1.total_aborts() - h0.total_aborts());
  auto per_kop = [&](double x) { return ratio(1000.0 * x, double(ops)); };
  const double live = double(cc.live);
  const double traced_ns = double(clk.t1 - clk.t0) / 2;  // odd sub-windows
  const double plain_ns = double(clk.t1 - clk.t0) - traced_ns;

  std::vector<Metric> e2e = {
      {"ops_per_s", med(kOps), "ops/s"},
      {"read_p50_us", med(kR50) / 1e3, "us"},
      {"read_p95_us", med(kR95) / 1e3, "us"},
      {"write_p50_us", med(kW50) / 1e3, "us"},
      {"write_p95_us", med(kW95) / 1e3, "us"},
      {"durable_p50_ms", med(kD50) / 1e6, "ms"},
      {"durable_p99_ms", med(kD99) / 1e6, "ms"},
      {"ok_frac", ratio(double(attempted - failed), double(attempted)), "ratio"},
      {"setup_s", median(setup_s), "s"},
      {"recovery_s", median(recovery_s), "s"},
      {"space_amp", ratio(double(bytes_in_use), live * 16.0), "ratio"},
      {"peak_rss_mb", peak_rss, "MiB"},
  };
  std::vector<Metric> layer = {
      {"ipc.submit_ns", ipc_client.submit.mean(), "ns"},
      {"ipc.wait_ns", ipc_client.wait.mean(), "ns"},
      {"ipc.serve_ns_per_req",
       ratio(double(ipc_after.hist("ipc.serve_ns").sum - ipc_before.hist("ipc.serve_ns").sum),
             double(ipc_after.counter("ipc.responses") -
                    ipc_before.counter("ipc.responses"))),
       "ns"},
      {"ipc.noslot_per_kop",
       ratio(1000.0 * double(ipc_client.noslot), double(ipc_client.attempted)), "1/kop"},
      {"svc.submit_ns", submit.mean(), "ns"},
      {"svc.wait_ns", wait.mean(), "ns"},
      {"svc.queue_ns", hist_mean(before, after, "svc.lat.queue_ns"), "ns"},
      {"svc.exec_ns_per_op",
       ratio(double(after.hist("svc.lat.htm_ns").sum - before.hist("svc.lat.htm_ns").sum),
             double(svc_ops)),
       "ns"},
      {"svc.batch_ops",
       ratio(double(svc_ops),
             double(after.counter("svc.batches") - before.counter("svc.batches"))),
       "ops"},
      {"svc.restarts_per_kop",
       ratio(1000.0 * double(after.counter("svc.envelope_restarts") -
                             before.counter("svc.envelope_restarts")),
             double(svc_ops)),
       "1/kop"},
      {"svc.shed_per_kop",
       ratio(1000.0 * double(after.counter("svc.shed") - before.counter("svc.shed")),
             double(svc_ops)),
       "1/kop"},
      {"svc.scan_ns_per_pair", ratio(double(scan.ns), double(pairs)), "ns"},
      {"svc.scan_p50_us", med(kS50) / 1e3, "us"},
      {"svc.scan_p99_us", med(kS99) / 1e3, "us"},
      {"epoch.advances_per_s", ratio(double(after.epochs - before.epochs), win_ns / 1e9), "1/s"},
      {"epoch.advance_ns",
       ratio(double(after.advance.sum - before.advance.sum),
             double(after.advance.count - before.advance.count)),
       "ns"},
      {"epoch.flush_ns",
       ratio(double(after.flush.sum - before.flush.sum),
             double(after.flush.count - before.flush.count)),
       "ns"},
      {"epoch.flush_busy_frac", ratio(double(after.flush.sum - before.flush.sum), win_ns),
       "ratio"},
      {"epoch.lines_per_write", ratio(double(after.lines - before.lines), double(writes)),
       "lines"},
      {"epoch.dedup_factor",
       ratio(double(after.lines - before.lines + after.deduped - before.deduped),
             double(after.lines - before.lines)),
       "ratio"},
      {"epoch.epoch_wait_ns", hist_mean(before, after, "svc.lat.epoch_wait_ns"), "ns"},
      {"epoch.watchdog_trips", double(after.trips - before.trips), "count"},
      {"epoch.reclaim_backlog", double(backlog), "blocks"},
      {"htm.txns_per_op", ratio(commits + fallbacks, double(ops)), "txns"},
      {"htm.abort_ratio", ratio(aborts, commits + aborts), "ratio"},
      {"htm.fallback_ratio", ratio(fallbacks, commits + fallbacks), "ratio"},
      {"htm.conflict_per_kop", per_kop(double(h1.aborts_conflict - h0.aborts_conflict)),
       "1/kop"},
      {"htm.capacity_per_kop", per_kop(double(h1.aborts_capacity - h0.aborts_capacity)),
       "1/kop"},
      {"htm.lock_sub_per_kop",
       per_kop(double(h1.aborts_lock_subscription - h0.aborts_lock_subscription)), "1/kop"},
      {"htm.old_see_new_per_kop",
       per_kop(double(h1.aborts_old_see_new - h0.aborts_old_see_new)), "1/kop"},
      {"htm.stripe_wait_ns", hist_mean(before, after, "htm.fallback.stripe_wait_ns"), "ns"},
      {"nvm.loads_per_op", ratio(double(after.loads - before.loads), double(ops)), "loads"},
      {"nvm.stores_per_op", ratio(double(after.stores - before.stores), double(ops)),
       "stores"},
      {"nvm.clwbs_per_write", ratio(double(after.clwbs - before.clwbs), double(writes)),
       "clwbs"},
      {"nvm.media_bytes_per_user_byte",
       ratio(64.0 * double(after.media_lines - before.media_lines), 16.0 * double(writes)),
       "ratio"},
      {"alloc.bytes_per_live_key", ratio(double(bytes_in_use), live), "B"},
      {"recovery.ns_per_block", ratio(1e9 * median(recovery_s), double(cc.blocks)), "ns"},
      {"obs.trace_overhead",
       a.trace ? 1.0 - ratio(double(ops_traced) / traced_ns,
                             double(ops_plain) / plain_ns)
               : 0.0,
       "ratio"},
  };

  // ---- Report ----
  std::printf("ops: attempted=%llu failed=%llu reads=%llu writes=%llu scans=%llu "
              "window_s=%.3f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(reads),
              static_cast<unsigned long long>(writes),
              static_cast<unsigned long long>(scans), window_s);
  std::printf("samples: read=%zu write=%zu scan=%zu durable=%zu\n", all_read.count(),
              all_write.count(), all_scan.count(), all_dur.count());
  std::printf("window: ops_per_s=%.6g read_p50_us=%.6g read_p98_us=%.6g "
              "read_p99_us=%.6g read_p999_us=%.6g write_p50_us=%.6g write_p98_us=%.6g "
              "write_p99_us=%.6g write_p999_us=%.6g scan_p50_us=%.6g scan_p99_us=%.6g "
              "durable_p50_ms=%.6g durable_p99_ms=%.6g\n",
              double(ops) / window_s, all_read.at(0.5) / 1e3, all_read.at(0.98) / 1e3,
              all_read.at(0.99) / 1e3, all_read.at(0.999) / 1e3, all_write.at(0.5) / 1e3,
              all_write.at(0.98) / 1e3, all_write.at(0.99) / 1e3, all_write.at(0.999) / 1e3,
              all_scan.at(0.5) / 1e3, all_scan.at(0.99) / 1e3, all_dur.at(0.5) / 1e6,
              all_dur.at(0.99) / 1e6);
  std::printf("slice medians: read_p98_us=%.6g read_p99_us=%.6g write_p98_us=%.6g "
              "write_p99_us=%.6g durable_p95_ms=%.6g durable_p98_ms=%.6g\n",
              med(kR98) / 1e3, med(kR99) / 1e3, med(kW98) / 1e3, med(kW99) / 1e3,
              med(kD95) / 1e6, med(kD98) / 1e6);
  std::printf("slice ops_per_s:");
  for (double x : per_slice[kOps]) std::printf(" %.0f", x);
  std::printf("\n");
  std::printf("setups_s:");
  for (double x : setup_s) std::printf(" %.4f", x);
  std::printf("\nrecoveries_s:");
  for (double x : recovery_s) std::printf(" %.4f", x);
  std::printf("\n");
  std::printf("check: online_bad=%llu live=%llu lost=%llu wrong=%llu extra=%llu "
              "invalid=%llu quarantined=%llu durable_unseen=%llu tail_timeout=%d "
              "persist_all=%s -> %s\n",
              static_cast<unsigned long long>(bad),
              static_cast<unsigned long long>(cc.live),
              static_cast<unsigned long long>(cc.lost),
              static_cast<unsigned long long>(cc.wrong),
              static_cast<unsigned long long>(cc.extra),
              static_cast<unsigned long long>(cc.invalid),
              static_cast<unsigned long long>(cc.quarantined),
              static_cast<unsigned long long>(dur_unseen), tail_timeout ? 1 : 0,
              !buffered ? "not needed (durable acks)"
                        : a.skip_persist_all ? "skipped" : "yes",
              correct ? "ok" : "FAILED");
  std::printf("failed_frac: %.6g\n", ratio(double(failed), double(attempted)));
  for (const Metric& m : e2e) std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  if (a.trace) {
    for (const Metric& m : layer) std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }

  // Hand-formatted: values keep all their digits (%.17g), where the
  // obs JSON writer rounds doubles to six.
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  const std::vector<Metric>& out = a.trace ? layer : e2e;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double v = std::isfinite(out[i].value) ? out[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                out[i].name.c_str(), v, out[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
