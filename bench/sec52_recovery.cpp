// §5.2 — Recovery study: time to scan the NVM heap and rebuild the DRAM
// index after a crash, for PHTM-vEB, BDL-Skiplist and BD-Spash, with 1
// and with several threads.
//
// Expected shape (paper, 10M records / 500 MiB): heap scan is fast
// (sequential bandwidth); rebuild dominates and parallelizes well; the
// skiplist rebuild is the slowest (log-depth reinsertions), the hash
// table the fastest. Each row also prints the two phases of
// EpochSys::recover: the parallel scan, and the relink, which runs on
// one thread per owner (a standalone structure is one owner).
#include <memory>

#include "bench/bench_common.hpp"
#include "common/spin.hpp"
#include "epoch/epoch_sys.hpp"
#include "hash/bd_spash.hpp"
#include "skiplist/bdl_skiplist.hpp"
#include "veb/phtm_veb.hpp"
#include "workload/workload.hpp"

using namespace bdhtm;

namespace {

struct World {
  std::unique_ptr<nvm::Device> dev;
  std::unique_ptr<alloc::PAllocator> pa;
  std::unique_ptr<epoch::EpochSys> es;
};

World fresh_world(std::size_t cap) {
  World w;
  // Recovery measures scan+rebuild cost; disable the per-access latency
  // model so numbers reflect algorithmic work (enable for media-bound
  // estimates).
  nvm::DeviceConfig cfg;
  cfg.capacity = cap;
  w.dev = std::make_unique<nvm::Device>(cfg);
  w.pa = std::make_unique<alloc::PAllocator>(*w.dev);
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 10'000;
  w.es = std::make_unique<epoch::EpochSys>(*w.pa, ecfg);
  return w;
}

void reattach(World& w) {
  w.es.reset();
  w.dev->simulate_crash();
  w.pa = std::make_unique<alloc::PAllocator>(*w.dev,
                                             alloc::PAllocator::Mode::kAttach);
  epoch::EpochSys::Config ecfg;
  ecfg.start_advancer = false;
  ecfg.attach = true;
  w.es = std::make_unique<epoch::EpochSys>(*w.pa, ecfg);
}

template <typename MakeTree, typename Fill, typename Recover>
void study(const char* name, std::size_t cap, MakeTree&& make, Fill&& fill,
           Recover&& recover) {
  for (int threads : {1, static_cast<int>(bench::thread_counts().back())}) {
    World w = fresh_world(cap);
    {
      auto structure = make(*w.es);
      fill(*structure);
      w.es->persist_all();
      bench::note_epoch_stats(w.es->stats());
    }
    reattach(w);
    const std::uint64_t t0 = now_ns();
    auto structure = make(*w.es);
    const std::size_t n = recover(*structure, threads);
    const std::uint64_t t1 = now_ns();
    const epoch::RecoveryReport& rep = w.es->last_recovery();
    bench::record_row(name, "recovery_ms", threads, (t1 - t0) / 1e6, "ms");
    bench::record_row(name, "scan_ms", threads, rep.scan_ns / 1e6, "ms");
    bench::record_row(name, "relink_ms", threads, rep.relink_ns / 1e6, "ms");
    bench::record_row(name, "records", threads, static_cast<double>(n),
                      "records");
    bench::record_row(name, "headers_persisted", threads,
                      static_cast<double>(rep.headers_persisted), "headers");
    std::printf("%-14s threads=%-2d records=%-9zu recovery=%8.1f ms "
                "(scan=%6.1f relink=%6.1f) headers_persisted=%llu\n",
                name, threads, n, (t1 - t0) / 1e6, rep.scan_ns / 1e6,
                rep.relink_ns / 1e6,
                static_cast<unsigned long long>(rep.headers_persisted));
    std::fflush(stdout);
  }
}

// Recovery under media corruption (DESIGN.md §5, "Corruption model"):
// drop a fraction of the media lines ever written, then time the
// hardened attach + recovery scan and report how much data the
// quarantine machinery sacrificed to keep the scan safe. BD-Spash is the
// subject: its recovery tolerates arbitrary surviving keys (a corrupted
// payload key would be out of range for the vEB's fixed universe).
void corruption_sweep(std::uint64_t records, int ubits, std::size_t cap) {
  std::printf("\nrecovery under corruption (BD-Spash, dropped + "
              "bit-flipped media lines):\n");
  std::uint64_t clean_records = 0;
  for (const double frac : {0.0, 0.001, 0.01, 0.05}) {
    World w = fresh_world(cap);
    {
      hash::BDSpash m(*w.es);
      for (std::uint64_t i = 0; i < records; ++i) {
        m.insert((i * 0x9e3779b97f4a7c15ULL) % (std::uint64_t{1} << ubits),
                 i);
      }
      w.es->persist_all();
    }
    w.es.reset();
    w.dev->simulate_crash();
    // Mix failure modes: dropped lines (read as zeros -> silently lost
    // free-looking blocks) and bit flips (caught by the header checksum
    // -> quarantined), so both loss paths appear in the table.
    nvm::MediaCorruption c;
    const auto budget = static_cast<std::uint32_t>(
        frac * static_cast<double>(w.dev->media_lines_written()));
    c.dropped_lines = budget - budget / 4;
    c.bit_flips = budget / 4;
    c.seed = 0xc0de + static_cast<std::uint64_t>(frac * 1e4);
    const std::uint64_t hit = w.dev->corrupt_media(c);

    const std::uint64_t t0 = now_ns();
    w.pa = std::make_unique<alloc::PAllocator>(
        *w.dev, alloc::PAllocator::Mode::kAttach);
    epoch::EpochSys::Config ecfg;
    ecfg.start_advancer = false;
    ecfg.attach = true;
    w.es = std::make_unique<epoch::EpochSys>(*w.pa, ecfg);
    hash::BDSpash rec(*w.es);
    const std::size_t n = rec.recover(1);
    const std::uint64_t t1 = now_ns();

    const auto& rep = w.es->last_recovery();
    if (frac == 0.0) clean_records = n;
    const std::uint64_t lost = clean_records > n ? clean_records - n : 0;
    char label[24];
    std::snprintf(label, sizeof label, "corrupt=%.1f%%", frac * 100.0);
    bench::record_row("corruption sweep", label, 1, (t1 - t0) / 1e6, "ms");
    bench::record_row("corruption sweep, quarantined", label, 1,
                      static_cast<double>(rep.blocks_quarantined),
                      "blocks");
    bench::record_row("corruption sweep, headers_persisted", label, 1,
                      static_cast<double>(rep.headers_persisted), "headers");
    std::printf(
        "  corrupt=%5.1f%% lines_hit=%-7llu recovery=%8.1f ms "
        "(scan=%6.1f relink=%6.1f) headers_persisted=%-6llu "
        "recovered=%-9zu pairs_lost=%-7llu "
        "quarantined=%-6llu (checksum=%llu epoch=%llu superblocks=%llu)\n",
        frac * 100.0, static_cast<unsigned long long>(hit), (t1 - t0) / 1e6,
        rep.scan_ns / 1e6, rep.relink_ns / 1e6,
        static_cast<unsigned long long>(rep.headers_persisted), n,
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(rep.blocks_quarantined),
        static_cast<unsigned long long>(rep.checksum_failures),
        static_cast<unsigned long long>(rep.epoch_violations),
        static_cast<unsigned long long>(rep.superblocks_quarantined));
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::init("sec52_recovery", argc, argv);
  bench::set_structure("phtm-veb");
  bench::set_structure("bdl-skiplist");
  bench::set_structure("bd-spash");
  const std::uint64_t records = env_int("BDHTM_RECOVERY_RECORDS", 400'000);
  const int ubits = 64 - __builtin_clzll(records * 2 - 1);
  const std::size_t cap =
      std::max<std::size_t>(768ull << 20, records * 512);
  bench::print_header(
      "Sec. 5.2: post-crash recovery time (heap scan + index rebuild)",
      "paper: 10M records / 500 MiB heap; scaled default 400k records "
      "(BDHTM_RECOVERY_RECORDS)");

  const auto fill_n = [&](auto& s) {
    for (std::uint64_t i = 0; i < records; ++i) {
      s.insert((i * 0x9e3779b97f4a7c15ULL) % (std::uint64_t{1} << ubits),
               i);
    }
  };

  study(
      "PHTM-vEB", cap,
      [&](epoch::EpochSys& es) {
        return std::make_unique<veb::PHTMvEB>(es, ubits);
      },
      fill_n,
      [](veb::PHTMvEB& t, int threads) { return t.recover(threads); });

  study(
      "BDL-Skiplist", cap,
      [&](epoch::EpochSys& es) {
        return std::make_unique<skiplist::BDLSkiplist>(es);
      },
      fill_n,
      [](skiplist::BDLSkiplist& t, int threads) {
        return t.recover(threads);
      });

  study(
      "BD-Spash", cap,
      [&](epoch::EpochSys& es) {
        return std::make_unique<hash::BDSpash>(es);
      },
      fill_n,
      [](hash::BDSpash& t, int threads) { return t.recover(threads); });

  corruption_sweep(records, ubits, cap);

  return bench::finish();
}
