// Ablations for the design choices DESIGN.md §6 calls out (not a paper
// exhibit; supports the §5 discussion and the §4.3 routing decision).
//
// A. BD-Spash persist routing: hotspot-hybrid (the paper's design) vs
//    buffer-everything vs persist-everything-immediately. The paper
//    argues the hybrid matters for large cold values; for small values
//    buffering alone should win, and immediate persistence should
//    approach strict-DL cost.
// B. Listing-1 preallocation reuse: the per-thread block pool
//    (epoch::KVPool) hands a block an operation did not link to the next
//    one, which avoids an allocator round trip whenever an operation
//    updates in place. This ablation measures the allocation rate with
//    and without in-place opportunities (Zipfian vs uniform updates) to
//    expose the reuse saving the paper's lines 9-12 encode.
// C. HTM capacity: PHTM-vEB operations enclose a whole doubly-log
//    traversal; shrinking the engine's speculative write capacity forces
//    capacity aborts and fallback serialization (paper §2.2's
//    "best-effort" caveat).
#include <memory>

#include "bench/bench_common.hpp"
#include "epoch/epoch_sys.hpp"
#include "hash/bd_spash.hpp"
#include "htm/engine.hpp"
#include "veb/phtm_veb.hpp"
#include "workload/workload.hpp"

using namespace bdhtm;

namespace {

double run_bdspash(hash::BDSpash::PersistRouting routing,
                   std::size_t block_bytes, double theta) {
  nvm::Device dev(bench::nvm_cfg(768ull << 20));
  alloc::PAllocator pa(dev);
  epoch::EpochSys es(pa);
  hash::BDSpash m(es, 4, block_bytes, routing);
  workload::Config cfg = workload::Config::write_heavy();
  cfg.key_space = 1 << 16;
  cfg.zipf_theta = theta;
  cfg.threads = 1;
  cfg.duration_ms = bench::bench_ms();
  workload::prefill(m, cfg);
  const double mops = workload::run_workload(m, cfg).mops();
  bench::note_epoch_stats(es.stats());
  return mops;
}

void ablation_routing() {
  std::printf("\nA. BD-Spash persist routing (Mops/s, 1 thread, "
              "write-heavy)\n");
  std::printf("%-16s %14s %14s\n", "routing", "16B blocks",
              "256B blocks");
  using R = hash::BDSpash::PersistRouting;
  for (const auto& [name, r] :
       {std::pair{"hybrid", R::kHybrid}, std::pair{"all-track", R::kAllTrack},
        std::pair{"all-immediate", R::kAllImmediate}}) {
    std::printf("%-16s", name);
    const double small = run_bdspash(r, 16, 0.99);
    const double large = run_bdspash(r, 256, 0.99);
    bench::record_row("A. persist routing, 16B blocks", name, 1, small,
                      "Mops");
    bench::record_row("A. persist routing, 256B blocks", name, 1, large,
                      "Mops");
    std::printf(" %14.3f", small);
    std::printf(" %14.3f", large);
    std::printf("\n");
    std::fflush(stdout);
  }
}

void ablation_prealloc() {
  std::printf("\nB. Listing-1 preallocation reuse (PHTM-vEB, 1 thread)\n");
  std::printf("%-16s %12s %16s %16s\n", "distribution", "Mops",
              "NVM allocs/op", "in-place ratio");
  for (const auto& [name, theta] :
       {std::pair{"uniform", 0.0}, std::pair{"zipf 0.99", 0.99}}) {
    nvm::Device dev(bench::nvm_cfg(768ull << 20));
    alloc::PAllocator pa(dev);
    epoch::EpochSys::Config ecfg;
    ecfg.epoch_length_us = 50'000;  // long epochs: many in-place chances
    epoch::EpochSys es(pa, ecfg);
    veb::PHTMvEB tree(es, 18);
    workload::Config cfg;
    cfg.key_space = 1 << 18;
    cfg.zipf_theta = theta;
    cfg.read_pct = 0;  // pure updates maximize the reuse opportunity
    cfg.insert_pct = 100;
    cfg.remove_pct = 0;
    cfg.threads = 1;
    cfg.duration_ms = bench::bench_ms();
    workload::prefill(tree, cfg);
    const auto used0 = pa.bytes_in_use();
    const auto r = workload::run_workload(tree, cfg);
    // Blocks consumed during the run ~ allocations actually used
    // (in-place updates consume none; the preallocated block is reused).
    const double allocs_per_op =
        r.ops > 0 ? double(pa.bytes_in_use() - used0) / 64.0 / r.ops : 0;
    bench::record_row("B. prealloc reuse", name, 1, r.mops(), "Mops");
    bench::record_row("B. prealloc reuse, allocs/op", name, 1,
                      allocs_per_op, "allocs/op");
    std::printf("%-16s %12.3f %16.3f %15.1f%%\n", name, r.mops(),
                allocs_per_op, 100.0 * (1.0 - std::min(1.0, allocs_per_op)));
    std::fflush(stdout);
  }
  std::printf("(skewed updates hit blocks stamped in the current epoch "
              "and update in place,\n consuming no preallocation — the "
              "saving of Listing 1 lines 9-12)\n");
}

void ablation_capacity() {
  std::printf("\nC. HTM speculative-capacity sensitivity (PHTM-vEB, "
              "1 thread, write-heavy)\n");
  std::printf("(vEB transactions enclose a whole doubly-log traversal; "
              "their footprint is read-dominated)\n");
  std::printf("%-16s %12s %16s %16s\n", "read cap", "Mops",
              "capacity abrt%", "fallbacks");
  for (const std::size_t cap : {8192, 64, 16, 8}) {
    htm::EngineConfig ecfg;
    ecfg.read_cap_entries = cap;
    htm::configure(ecfg);
    htm::reset_stats();
    nvm::Device dev(bench::nvm_cfg(768ull << 20));
    alloc::PAllocator pa(dev);
    epoch::EpochSys es(pa);
    veb::PHTMvEB tree(es, 18);
    workload::Config cfg = workload::Config::write_heavy();
    cfg.key_space = 1 << 18;
    cfg.threads = 1;
    cfg.duration_ms = bench::bench_ms();
    workload::prefill(tree, cfg);
    htm::reset_stats();
    const auto r = workload::run_workload(tree, cfg);
    const auto s = htm::collect_stats();
    bench::note_htm_stats();
    char label[24];
    std::snprintf(label, sizeof label, "read_cap=%zu", cap);
    bench::record_row("C. HTM capacity", label, 1, r.mops(), "Mops");
    std::printf("%-16zu %12.3f %15.2f%% %16llu\n", cap, r.mops(),
                s.attempts() ? 100.0 * s.aborts_capacity / s.attempts() : 0,
                static_cast<unsigned long long>(s.fallback_acquisitions));
    std::fflush(stdout);
  }
  htm::configure(htm::EngineConfig{});
}

void ablation_coalescing() {
  std::printf("\nD. Epoch write-back coalescing (BD-Spash, 1 thread, "
              "write-heavy, zipf 0.99)\n");
  std::printf("(the step-2 pipeline merges duplicate/adjacent buffered "
              "lines before flushing;\n off = one flush per tracked "
              "range, the pre-pipeline behaviour)\n");
  std::printf("%-12s %12s %16s %14s %16s\n", "coalescing", "Mops",
              "bytes flushed", "dedup factor", "mean advance us");
  for (const bool coalesce : {false, true}) {
    nvm::Device dev(bench::nvm_cfg(768ull << 20));
    alloc::PAllocator pa(dev);
    epoch::EpochSys::Config ecfg;
    ecfg.epoch_length_us = 10'000;  // frequent transitions: many flushes
    ecfg.coalesce_flushes = coalesce;
    epoch::EpochSys es(pa, ecfg);
    hash::BDSpash m(es);
    workload::Config cfg = workload::Config::write_heavy();
    cfg.key_space = 1 << 16;
    cfg.zipf_theta = 0.99;
    cfg.threads = 1;
    cfg.duration_ms = bench::bench_ms();
    workload::prefill(m, cfg);
    const double mops = workload::run_workload(m, cfg).mops();
    const auto& s = es.stats();
    const auto epochs = s.epochs_advanced.load();
    bench::record_row("D. coalescing", coalesce ? "on" : "off", 1, mops,
                      "Mops");
    bench::record_row("D. coalescing, bytes flushed",
                      coalesce ? "on" : "off", 1,
                      static_cast<double>(s.bytes_flushed.load()), "B");
    std::printf("%-12s %12.3f %16llu %14.2f %16.1f\n",
                coalesce ? "on" : "off", mops,
                static_cast<unsigned long long>(s.bytes_flushed.load()),
                s.dedup_factor(),
                epochs ? s.advance_ns_total() / 1e3 /
                             static_cast<double>(epochs)
                       : 0.0);
    std::fflush(stdout);
    bench::note_epoch_stats(s);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("ablation_design_choices", argc, argv);
  bench::set_structure("phtm-veb");
  bench::set_structure("bd-spash");
  bench::print_header(
      "Ablations: BD-Spash persist routing / Listing-1 preallocation "
      "reuse / HTM capacity / write-back coalescing",
      "design-choice studies backing DESIGN.md section 6");
  ablation_routing();
  ablation_prealloc();
  ablation_capacity();
  ablation_coalescing();
  return bench::finish();
}
