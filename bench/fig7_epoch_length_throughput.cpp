// Fig. 7 (+ §5.1 abort study) — Single-thread PHTM-vEB throughput as a
// function of epoch length, for uniform / Zipf(0.9) / Zipf(0.99) key
// distributions, 80% writes.
//
// Expected shape (paper): skewed workloads gain (16.7% at theta 0.9,
// 26.7% at 0.99) as the epoch grows from 1 us to 10 ms — background
// flushes stop evicting hot lines — with diminishing/negative returns
// beyond that as memory pressure grows. Uniform workloads are flat.
// The §5.1 companion claim also reproduced here: epoch-flush-induced
// aborts stay under ~2% of transactions at every epoch length.
//
// A single cell spreads widely on a shared host, so each cell runs three
// times and prints its median Mops with the range; the median is the
// exported row.
#include <algorithm>
#include <array>
#include <memory>

#include "bench/bench_common.hpp"
#include "epoch/epoch_sys.hpp"
#include "htm/engine.hpp"
#include "veb/phtm_veb.hpp"
#include "workload/workload.hpp"

using namespace bdhtm;

namespace {

double run_cell(int ubits, double theta, std::uint64_t epoch_us,
                double* abort_pct) {
  const std::size_t cap =
      std::max<std::size_t>(768ull << 20, (std::size_t{1} << ubits) * 160);
  nvm::Device dev(bench::nvm_cfg(cap));
  alloc::PAllocator pa(dev);
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = epoch_us;
  epoch::EpochSys es(pa, ecfg);
  veb::PHTMvEB tree(es, ubits);

  workload::Config cfg;
  cfg.key_space = std::uint64_t{1} << ubits;
  cfg.zipf_theta = theta;
  cfg.read_pct = 20;  // 80% writes (paper)
  cfg.insert_pct = 40;
  cfg.remove_pct = 40;
  cfg.threads = 1;
  cfg.duration_ms = bench::bench_ms();
  workload::prefill(tree, cfg);
  htm::reset_stats();
  const double mops = workload::run_workload(tree, cfg).mops();
  bench::note_epoch_stats(es.stats());
  const auto s = htm::collect_stats();
  bench::note_htm_stats();  // fold this cell's window into the export
  *abort_pct = s.attempts() > 0
                   ? 100.0 * s.total_aborts() / s.attempts()
                   : 0.0;
  return mops;
}

}  // namespace

constexpr int kRepeats = 3;

int main(int argc, char** argv) {
  bench::init("fig7_epoch_length_throughput", argc, argv);
  bench::set_structure("phtm-veb");
  const int ubits = bench::universe_bits(18);  // paper: 2^22 workload size
  bench::print_header(
      "Fig. 7: single-thread PHTM-vEB throughput vs epoch length",
      "paper: workload 2^22 keys, 80% writes, epoch 1us..10s; scaled "
      "default universe 2^18, epoch sweep 10us..1s");

  const std::uint64_t epochs_us[] = {10, 100, 1'000, 10'000, 100'000,
                                     1'000'000};
  std::printf("median Mops of %d runs per cell, [min-max]\n", kRepeats);
  std::printf("%-16s", "epoch length");
  for (auto e : epochs_us) {
    if (e < 1000) {
      std::printf(" %16lluus", static_cast<unsigned long long>(e));
    } else if (e < 1'000'000) {
      std::printf(" %16llums", static_cast<unsigned long long>(e / 1000));
    } else {
      std::printf(" %17llus", static_cast<unsigned long long>(e / 1'000'000));
    }
  }
  std::printf("\n");

  for (const auto& [name, theta] : {std::pair{"uniform", 0.0},
                                    std::pair{"zipf 0.90", 0.9},
                                    std::pair{"zipf 0.99", 0.99}}) {
    std::printf("%-16s", name);
    double worst_abort = 0;
    for (auto e : epochs_us) {
      std::array<double, kRepeats> mops{};
      for (double& m : mops) {
        double abort_pct = 0;
        m = run_cell(ubits, theta, e, &abort_pct);
        worst_abort = std::max(worst_abort, abort_pct);
      }
      std::sort(mops.begin(), mops.end());
      const double median = mops[kRepeats / 2];
      char label[24];
      std::snprintf(label, sizeof label, "epoch_us=%llu",
                    static_cast<unsigned long long>(e));
      bench::record_row(name, label, 1, median, "Mops");
      std::printf(" %6.3f [%4.2f-%4.2f]", median, mops.front(), mops.back());
      std::fflush(stdout);
    }
    std::printf("   (max abort share %.2f%%)\n", worst_abort);
  }
  return bench::finish();
}
