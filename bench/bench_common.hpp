// Shared helpers for the per-exhibit benchmark binaries (DESIGN.md §4).
//
// Every bench scales the paper's experiment down to container size by
// default and prints which knobs restore paper scale:
//   BDHTM_BENCH_MS        per-cell measurement time   (default 300)
//   BDHTM_THREADS         comma list of thread counts (default "1,2,4")
//   BDHTM_UNIVERSE_BITS   key-universe log2           (bench-specific)
//   BDHTM_NVM_LATENCY     0 disables the latency model (default on)
//
// The NVM latency model reproduces Optane's cost asymmetries (paper §1:
// reads ~3x DRAM, writes ~10x with a third of the bandwidth; §4.1), so
// who-wins/by-how-much shapes carry over even though the substrate is a
// simulator (EXPERIMENTS.md discusses absolute-number caveats).
// Every driver also feeds the structured exporter (ISSUE 3): call
// bench::init(name, argc, argv) first thing in main, record_row() for
// each printed data point, and `return bench::finish();` last. finish()
// writes BENCH_<name>.json (schema "bdhtm-bench/1": rows + the HTM
// abort-cause taxonomy + epoch latency quantiles + the full metric
// registry) and, when tracing was requested, a Chrome trace_event JSON
// that Perfetto loads directly. Flags/env:
//   --obs-out=PATH    / BDHTM_OBS_OUT    override the JSON path
//   --trace-out=PATH  / BDHTM_TRACE_OUT  enable tracing + set trace path
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.hpp"
#include "epoch/epoch_sys.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bdhtm::bench {

inline std::uint64_t bench_ms() { return env_int("BDHTM_BENCH_MS", 300); }

inline std::vector<int> thread_counts() {
  const std::string s = env_str("BDHTM_THREADS", "1,2,4");
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    out.push_back(std::stoi(s.substr(pos, comma - pos)));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

inline int universe_bits(int fallback) {
  return static_cast<int>(env_int("BDHTM_UNIVERSE_BITS", fallback));
}

/// Optane-shaped latency model (relative costs, not absolute ns).
inline nvm::DeviceConfig nvm_cfg(std::size_t capacity, bool eadr = false) {
  nvm::DeviceConfig cfg;
  cfg.capacity = capacity;
  cfg.eadr = eadr;
  if (env_int("BDHTM_NVM_LATENCY", 1) != 0) {
    cfg.read_ns = 150;   // ~3x a DRAM access
    cfg.write_ns = 60;   // store-side bandwidth pressure
    cfg.flush_ns = 500;  // clwb reaching the media (Optane: ~0.5-1 us)
    cfg.fence_ns = 150;  // drain latency
  }
  return cfg;
}

inline void print_header(const char* title, const char* scale_note) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("%s\n", scale_note);
  std::printf("(env: BDHTM_BENCH_MS, BDHTM_THREADS, BDHTM_UNIVERSE_BITS, "
              "BDHTM_NVM_LATENCY)\n");
  std::printf("================================================================\n");
}

inline void print_row_header(const char* label,
                             const std::vector<int>& threads) {
  std::printf("%-22s", label);
  for (int t : threads) std::printf("  T=%-8d", t);
  std::printf("\n");
}

// ---- Epoch write-back pipeline stats (ISSUE 1) ----
//
// Figure drivers build one EpochSys per cell; each calls
// note_epoch_stats() before the cell tears down and
// print_epoch_stats_summary() at the end of main, so every BENCH_*.json
// capture carries the dedup factor, flushed volume, and transition
// latency of the write-back pipeline alongside the throughput table.

struct EpochStatsAgg {
  std::uint64_t epochs = 0;
  std::uint64_t ranges = 0;
  std::uint64_t bytes = 0;
  std::uint64_t lines = 0;
  std::uint64_t deduped = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t flush_ns = 0;
  std::uint64_t advance_ns = 0;
  std::uint64_t watchdog_trips = 0;
  std::uint64_t inline_advances = 0;
  // Merged latency distributions across every cell's EpochSys (the
  // exporter reports p50/p95/p99 from these, not just the means above).
  obs::HistogramSnapshot advance_hist{};
  obs::HistogramSnapshot drain_hist{};
  obs::HistogramSnapshot flush_hist{};
};

inline EpochStatsAgg& epoch_stats_agg() {
  static EpochStatsAgg agg;
  return agg;
}

inline void note_epoch_stats(const epoch::EpochStats& s) {
  auto& a = epoch_stats_agg();
  a.epochs += s.epochs_advanced.load(std::memory_order_relaxed);
  a.ranges += s.ranges_flushed.load(std::memory_order_relaxed);
  a.bytes += s.bytes_flushed.load(std::memory_order_relaxed);
  a.lines += s.lines_flushed.load(std::memory_order_relaxed);
  a.deduped += s.lines_deduped.load(std::memory_order_relaxed);
  a.drain_ns += s.drain_ns.sum();
  a.flush_ns += s.flush_ns_total();
  a.advance_ns += s.advance_ns_total();
  a.watchdog_trips += s.watchdog_trips.load(std::memory_order_relaxed);
  a.inline_advances += s.inline_advances.load(std::memory_order_relaxed);
  a.advance_hist.merge(s.advance_ns.snapshot());
  a.drain_hist.merge(s.drain_ns.snapshot());
  a.flush_hist.merge(s.flush_ns.snapshot());
}

inline void print_epoch_stats_summary() {
  const auto& a = epoch_stats_agg();
  if (a.epochs == 0) return;
  const double dedup =
      a.lines > 0 ? double(a.lines + a.deduped) / double(a.lines) : 1.0;
  std::printf(
      "epoch-stats: epochs=%llu ranges_flushed=%llu lines_flushed=%llu "
      "bytes_flushed=%llu dedup_factor=%.2f mean_advance_us=%.1f "
      "mean_drain_us=%.1f mean_flush_us=%.1f\n",
      static_cast<unsigned long long>(a.epochs),
      static_cast<unsigned long long>(a.ranges),
      static_cast<unsigned long long>(a.lines),
      static_cast<unsigned long long>(a.bytes), dedup,
      a.advance_ns / 1e3 / static_cast<double>(a.epochs),
      a.drain_ns / 1e3 / static_cast<double>(a.epochs),
      a.flush_ns / 1e3 / static_cast<double>(a.epochs));
  if (a.watchdog_trips != 0 || a.inline_advances != 0) {
    // Nonzero means the background advancer fell behind its watchdog
    // deadline during the run and workers drove transitions inline —
    // the cell's latency numbers include degraded-mode epochs.
    std::printf("epoch-stats: watchdog_trips=%llu inline_advances=%llu\n",
                static_cast<unsigned long long>(a.watchdog_trips),
                static_cast<unsigned long long>(a.inline_advances));
  }
}

// ---- Structured export (ISSUE 3) ----

/// One printed data point, replicated into the JSON so plots never
/// re-parse stdout. `table` groups rows (one table per printed panel).
struct BenchRow {
  std::string table;
  std::string label;
  int threads;
  double value;
  std::string unit;
};

struct BenchExport {
  std::string name;
  std::string obs_out;    // JSON path; defaults to BENCH_<name>.json
  std::string trace_out;  // empty = tracing stays off
  std::vector<std::string> structures;  // canonical names, insertion order
  std::vector<BenchRow> rows;
  htm::TxStats htm{};     // accumulated measured windows
  bool htm_noted = false;
};

inline BenchExport& bench_export() {
  static BenchExport e;
  return e;
}

/// Parse exporter flags + env and (when tracing) flip the trace switch.
/// Call first thing in main, before any instrumented work.
inline void init(const char* name, int argc, char** argv) {
  BenchExport& e = bench_export();
  e.name = name;
  e.obs_out = env_str("BDHTM_OBS_OUT", "BENCH_" + std::string(name) + ".json");
  e.trace_out = env_str("BDHTM_TRACE_OUT", "");
  auto flag = [&](std::string_view arg, std::string_view key,
                  int& i) -> const char* {
    if (arg.substr(0, key.size()) != key) return nullptr;
    if (arg.size() > key.size() && arg[key.size()] == '=') {
      return argv[i] + key.size() + 1;
    }
    if (arg.size() == key.size() && i + 1 < argc) return argv[++i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (const char* v = flag(arg, "--obs-out", i)) {
      e.obs_out = v;
    } else if (const char* v = flag(arg, "--trace-out", i)) {
      e.trace_out = v;
    }
  }
  if (!e.trace_out.empty()) obs::set_tracing(true);
}

/// Accumulate the engine's current stats window into the export. Call
/// after each measured cell, before the htm::reset_stats() that starts
/// the next one; drivers that never reset can skip it (finish() then
/// snapshots the totals itself).
inline void note_htm_stats() {
  BenchExport& e = bench_export();
  const htm::TxStats s = htm::collect_stats();
  htm::TxStats& a = e.htm;
  a.commits += s.commits;
  a.aborts_conflict += s.aborts_conflict;
  a.aborts_capacity += s.aborts_capacity;
  a.aborts_explicit += s.aborts_explicit;
  a.aborts_lock_subscription += s.aborts_lock_subscription;
  a.aborts_old_see_new += s.aborts_old_see_new;
  a.aborts_persist += s.aborts_persist;
  a.aborts_memtype += s.aborts_memtype;
  a.aborts_spurious += s.aborts_spurious;
  a.fallback_acquisitions += s.fallback_acquisitions;
  a.fallbacks_lockwait += s.fallbacks_lockwait;
  a.fallbacks_exhausted += s.fallbacks_exhausted;
  a.fallbacks_wait_timeout += s.fallbacks_wait_timeout;
  a.fallback_stripes_acquired += s.fallback_stripes_acquired;
  e.htm_noted = true;
}

/// Declare a structure this bench exercises (canonical lowercase name,
/// e.g. "phtm-veb", "bdl-skiplist", "bd-spash"). Repeatable; duplicates
/// collapse. Every driver must call this at least once so the JSON
/// header names its structures uniformly — fig4 and fig7 used to
/// disagree (series-label-only vs free-text) and plot tooling had to
/// special-case them; CI asserts `.config.structures` is non-empty.
inline void set_structure(const char* name) {
  auto& v = bench_export().structures;
  for (const auto& s : v) {
    if (s == name) return;
  }
  v.emplace_back(name);
}

inline void record_row(std::string table, std::string label, int threads,
                       double value, std::string unit) {
  bench_export().rows.push_back({std::move(table), std::move(label), threads,
                                 value, std::move(unit)});
}

namespace detail {

inline void json_histogram(obs::JsonWriter& w,
                           const obs::HistogramSnapshot& h) {
  w.begin_object();
  w.key("count");
  w.value(h.count);
  w.key("mean");
  w.value(h.mean());
  w.key("min");
  w.value(h.min);
  w.key("p50");
  w.value(h.quantile(0.50));
  w.key("p95");
  w.value(h.quantile(0.95));
  w.key("p99");
  w.value(h.quantile(0.99));
  w.key("max");
  w.value(h.max);
  w.end_object();
}

inline bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace detail

/// Write BENCH_<name>.json (+ the trace, when enabled) and print the
/// stdout summary. Returns main()'s exit code.
inline int finish() {
  BenchExport& e = bench_export();
  print_epoch_stats_summary();
  // Drivers that never reset per cell report their totals here; the
  // by-cause sum then equals the engine's own total by construction.
  if (!e.htm_noted) note_htm_stats();
  const htm::TxStats& h = e.htm;
  const EpochStatsAgg& a = epoch_stats_agg();

  obs::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value("bdhtm-bench/1");
  w.key("bench");
  w.value(e.name);
  w.key("config");
  w.begin_object();
  w.key("bench_ms");
  w.value(static_cast<std::uint64_t>(bench_ms()));
  w.key("threads");
  w.value(env_str("BDHTM_THREADS", "1,2,4"));
  // Uniform header fields (the old files let each driver improvise):
  // `structure` is the primary structure under test, `structures` every
  // one the binary exercised, `thread_counts` the sorted unique thread
  // counts that actually produced rows (not the raw env string above,
  // which drivers with fixed thread counts ignore).
  w.key("structure");
  w.value(e.structures.empty() ? std::string{} : e.structures.front());
  w.key("structures");
  w.begin_array();
  for (const std::string& s : e.structures) w.value(s);
  w.end_array();
  {
    std::vector<int> tc;
    for (const BenchRow& r : e.rows) {
      bool seen = false;
      for (int t : tc) seen = seen || t == r.threads;
      if (!seen) tc.push_back(r.threads);
    }
    std::sort(tc.begin(), tc.end());
    w.key("thread_counts");
    w.begin_array();
    for (int t : tc) w.value(t);
    w.end_array();
  }
  w.key("nvm_latency");
  w.value(env_int("BDHTM_NVM_LATENCY", 1) != 0);
  w.key("obs_noop");
  w.value(obs::kNoop);
  w.end_object();

  w.key("rows");
  w.begin_array();
  for (const BenchRow& r : e.rows) {
    w.begin_object();
    w.key("table");
    w.value(r.table);
    w.key("label");
    w.value(r.label);
    w.key("threads");
    w.value(r.threads);
    w.key("value");
    w.value(r.value);
    w.key("unit");
    w.value(r.unit);
    w.end_object();
  }
  w.end_array();

  w.key("htm");
  w.begin_object();
  w.key("commits");
  w.value(h.commits);
  w.key("attempts");
  w.value(h.attempts());
  w.key("aborts");
  w.begin_object();
  w.key("total");
  w.value(h.total_aborts());
  w.key("by_cause");
  w.begin_object();
  w.key("conflict");
  w.value(h.aborts_conflict);
  w.key("capacity");
  w.value(h.aborts_capacity);
  w.key("explicit");
  w.value(h.aborts_explicit);
  w.key("lock_subscription");
  w.value(h.aborts_lock_subscription);
  w.key("old_see_new");
  w.value(h.aborts_old_see_new);
  w.key("persist");
  w.value(h.aborts_persist);
  w.key("memtype");
  w.value(h.aborts_memtype);
  w.key("spurious");
  w.value(h.aborts_spurious);
  w.end_object();
  w.end_object();
  w.key("fallbacks");
  w.begin_object();
  w.key("total");
  w.value(h.fallback_acquisitions);
  w.key("lock_wait");
  w.value(h.fallbacks_lockwait);
  w.key("retry_exhausted");
  w.value(h.fallbacks_exhausted);
  w.key("wait_timeout");
  w.value(h.fallbacks_wait_timeout);
  w.key("stripes_acquired");
  w.value(h.fallback_stripes_acquired);
  w.end_object();
  w.end_object();

  w.key("epoch");
  w.begin_object();
  w.key("epochs_advanced");
  w.value(a.epochs);
  w.key("ranges_flushed");
  w.value(a.ranges);
  w.key("lines_flushed");
  w.value(a.lines);
  w.key("bytes_flushed");
  w.value(a.bytes);
  w.key("lines_deduped");
  w.value(a.deduped);
  w.key("dedup_factor");
  w.value(a.lines > 0 ? double(a.lines + a.deduped) / double(a.lines) : 1.0);
  w.key("watchdog_trips");
  w.value(a.watchdog_trips);
  w.key("inline_advances");
  w.value(a.inline_advances);
  w.key("advance_ns");
  detail::json_histogram(w, a.advance_hist);
  w.key("drain_ns");
  detail::json_histogram(w, a.drain_hist);
  w.key("flush_ns");
  detail::json_histogram(w, a.flush_hist);
  w.end_object();

  // Full registry dump: every named counter and histogram any subsystem
  // registered, so the file never lags a new metric.
  const obs::Registry::Snapshot snap = obs::Registry::global().snapshot();
  w.key("counters");
  w.begin_object();
  for (const auto& [cname, total] : snap.counters) {
    w.key(cname);
    w.value(total);
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [gname, gval] : snap.gauges) {
    w.key(gname);
    w.value(gval);
  }
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [hname, hist] : snap.histograms) {
    w.key(hname);
    detail::json_histogram(w, hist);
  }
  w.end_object();

  if (!e.trace_out.empty()) {
    w.key("trace");
    w.begin_object();
    w.key("file");
    w.value(e.trace_out);
    w.key("events_emitted");
    w.value(obs::trace_events_emitted());
    w.key("events_captured");
    w.value(obs::trace_events_captured());
    w.end_object();
  }
  w.end_object();

  int rc = 0;
  if (!detail::write_file(e.obs_out, std::move(w).str() + "\n")) {
    std::fprintf(stderr, "bench: failed to write %s\n", e.obs_out.c_str());
    rc = 1;
  } else {
    std::printf("bench-json: %s\n", e.obs_out.c_str());
  }
  if (!e.trace_out.empty()) {
    // Workers and advancers joined before finish(): the rings are
    // quiescent, which the trace exporter requires.
    if (!obs::write_chrome_trace(e.trace_out)) {
      std::fprintf(stderr, "bench: failed to write %s\n", e.trace_out.c_str());
      rc = 1;
    } else {
      std::printf("bench-trace: %s (open in https://ui.perfetto.dev)\n",
                  e.trace_out.c_str());
    }
  }
  return rc;
}

}  // namespace bdhtm::bench
