// Cross-structure crash-consistency fuzz (DESIGN.md §5).
//
// For each BDL structure of tests/bdl_world.hpp: run a deterministic
// randomized op sequence against the structure AND a per-epoch snapshot
// oracle; crash at a randomized point under a randomized eviction model;
// recover; verify the recovered state equals the oracle snapshot at the
// recovery frontier exactly.
//
// Includes a negative control: a write that skips the epoch system's
// tracking must not survive the crash — the loss the fuzz would report
// if a structure forgot a pTrack.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"
#include "htm/engine.hpp"

namespace bdhtm::test {
namespace {

constexpr int kUbits = 12;  // key universe of the fuzz
constexpr std::uint64_t kKeys = std::uint64_t{1} << kUbits;

struct FuzzParams {
  int ops;
  std::uint64_t seed;
  double dirty_survival;
  double pending_survival;
};

constexpr FuzzParams kFuzzParams[] = {
    {300, 1, 0.0, 0.0},  {300, 2, 0.5, 0.5},   {800, 3, 0.0, 1.0},
    {800, 4, 1.0, 1.0},  {1500, 5, 0.3, 0.7},  {1500, 6, 0.0, 0.0},
};

template <typename S>
class CrashFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    htm::configure(htm::EngineConfig{});
    htm::reset_stats();
  }
};
TYPED_TEST_SUITE(CrashFuzz, Backends::Structures, BackendName);

TYPED_TEST(CrashFuzz, RecoversFrontierSnapshot) {
  for (const FuzzParams& p : kFuzzParams) {
    SCOPED_TRACE("seed " + std::to_string(p.seed));
    nvm::DeviceConfig dcfg = strict_device();
    dcfg.dirty_survival = p.dirty_survival;
    dcfg.pending_survival = p.pending_survival;
    dcfg.crash_seed = p.seed * 31;
    World w(dcfg);
    auto m = make<TypeParam>(*w.es);
    const Snapshots snaps = drive_random(*m, *w.es, p.ops, p.seed, kKeys);
    const std::uint64_t frontier = w.frontier();
    m = crash_and_recover(w, std::move(m));
    verify_exact(finder(*m), snapshot_at(snaps, frontier), kKeys);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---- Negative control ----
//
// Persist a pair, then overwrite its value in place without telling the
// epoch system (no mark_dirty, no pTrack) — what a structure that forgets
// a pSet/pTrack pair would do. The crash must drop that write: the model
// refuses to persist untracked writes, which is what makes the fuzz above
// fail on such a structure.

TEST(CrashFuzzNegative, CrashDropsUntrackedWrite) {
  constexpr std::uint64_t kKey = 5;
  World w;
  auto m = make<hash::BDSpash>(*w.es);
  m->insert(kKey, 111);
  w.es->persist_all();
  ASSERT_EQ(m->find(kKey), 111u);
  bool found = false;
  w.pa->for_each_block([&](alloc::BlockHeader* hdr, void* payload) {
    if (hdr->size_class() ==
        alloc::PAllocator::class_for(sizeof(epoch::KVPair))) {
      auto* kv = static_cast<epoch::KVPair*>(payload);
      if (kv->key == kKey) {
        kv->value = 222;  // untracked write, never marked dirty
        found = true;
      }
    }
  });
  ASSERT_TRUE(found);
  m = crash_and_recover(w, std::move(m));
  EXPECT_EQ(m->find(kKey), 111u);
}

// ---- Crash while the background advancer is live ----
//
// The fuzz above drives epochs manually, so crashes always land between
// transitions. Here the real machinery runs: a background advancer with
// a multi-thread flusher pool, and a FaultPlan that pulls the plug at a
// device event *inside* a transition — including the window between the
// flush barrier and the persisted-counter write (kCounterWrite), the
// exact interval the BDL proof's ordering protects. The recovered state
// must equal the oracle after some prefix of the op sequence: epoch
// boundaries fall between ops of a single-threaded op stream, so any
// consistent cut is an op prefix.

void fuzz_live_advancer(nvm::FaultEvent event, std::uint64_t trigger_at,
                        std::uint64_t seed) {
  nvm::FaultPlan plan;
  plan.event = event;
  plan.trigger_at = trigger_at;
  epoch::EpochSys::Config ecfg;
  ecfg.epoch_length_us = 300;
  ecfg.flusher_threads = 2;
  World w(strict_device(), ecfg, &plan);
  std::vector<Oracle> prefixes;
  auto m = make<hash::BDSpash>(*w.es);
  Oracle oracle;
  prefixes.push_back(oracle);  // the empty prefix (crash before any op)
  Rng rng(seed);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  int i = 0;
  while (!w.dev->fault_tripped() &&
         std::chrono::steady_clock::now() < deadline) {
    const std::uint64_t k = rng.next_below(kKeys);
    if (rng.next_below(3) == 0) {
      m->remove(k);
      oracle.erase(k);
    } else {
      const std::uint64_t v = 1 + rng.next_below(std::uint64_t{1} << 40);
      m->insert(k, v);
      oracle[k] = v;
    }
    prefixes.push_back(oracle);
    // Let the advancer overlap the op stream (and reach the trigger)
    // instead of racing a pure CPU-bound loop on a small machine.
    if (++i % 32 == 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ASSERT_TRUE(w.dev->fault_tripped())
      << "plan never tripped: advancer generated no event "
      << static_cast<int>(event) << " #" << trigger_at;
  m = crash_and_recover(w, std::move(m));
  EXPECT_EQ(w.es->last_recovery().blocks_quarantined, 0u)
      << "clean planned crash must not quarantine blocks";
  // The recovered contents must be an exact prefix.
  const Oracle got = read_back(finder(*m), kKeys);
  bool is_prefix = false;
  for (const auto& p : prefixes) {
    if (p == got) {
      is_prefix = true;
      break;
    }
  }
  EXPECT_TRUE(is_prefix)
      << "recovered state (" << got.size()
      << " keys) matches no prefix of the op sequence";
}

TEST(CrashFuzzLiveAdvancer, CounterWriteWindow) {
  // Trip on a media write of the persisted-epoch counter: the crash
  // lands after the flush barrier, before the counter publish completes.
  fuzz_live_advancer(nvm::FaultEvent::kCounterWrite, 10, 0x11e1);
}

TEST(CrashFuzzLiveAdvancer, MidFlushClwb) {
  // Trip deep inside a transition's write-back fan-out.
  fuzz_live_advancer(nvm::FaultEvent::kClwb, 400, 0x11e2);
}

TEST(CrashFuzzLiveAdvancer, MidFlushEviction) {
  fuzz_live_advancer(nvm::FaultEvent::kEviction, 250, 0x11e3);
}

}  // namespace
}  // namespace bdhtm::test
