// Deterministic fault-plan crash enumeration (DESIGN.md §5).
//
// The crash fuzz in test_crash_fuzz.cpp samples crash points through a
// seeded eviction lottery. This suite instead *enumerates* them: a
// profiling run measures how many device events of each FaultEvent class
// a fixed op sequence generates, then the identical sequence is replayed
// on a fresh world once per (class, trigger) pair with a FaultPlan armed.
// Every enumerated crash must recover to the oracle snapshot of the
// recovery frontier — the BDL guarantee, checked at every clwb, every
// fence, every media eviction, and every media write of the persisted
// epoch counter (the flush-barrier/counter-publish window).
//
// Also covered here: bit-for-bit determinism of a planned crash (same
// plan, same sequence => identical media image and RecoveryReport),
// corruption quarantine (torn / dropped / flipped media lines recover
// gracefully with bounded loss and accounted quarantines), the clean
// image zero-false-positive check, and a negative control proving the
// header checksum detector actually fires.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "bdl_world.hpp"
#include "common/rng.hpp"

namespace bdhtm::test {
namespace {

#if defined(__SANITIZE_THREAD__)
#define BDHTM_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define BDHTM_TSAN 1
#endif
#endif

// Instrumented builds run each world ~20x slower; shrink the enumeration
// so the sanitizer lane stays fast while still crossing every class.
#ifdef BDHTM_TSAN
constexpr int kMaxTriggersPerClass = 6;
#else
constexpr int kMaxTriggersPerClass = 40;
#endif

constexpr int kUbits = 8;  // small key universe: full-sweep verification
constexpr std::uint64_t kKeys = std::uint64_t{1} << kUbits;
constexpr int kOps = 48;
constexpr int kOpsPerEpoch = 8;
constexpr std::uint64_t kOpSeed = 0xfa17;

using nvm::FaultEvent;
using nvm::FaultPlan;
using nvm::MediaCorruption;

/// Fixed op sequence (inserts/removes over a small universe) with an
/// epoch advance every kOpsPerEpoch ops; records the oracle at every
/// epoch boundary. Identical across replay_world()s: allocation offsets,
/// flush order, and therefore the device event stream all replay exactly.
template <typename Map>
Snapshots drive_fixed(Map& m, epoch::EpochSys& es) {
  Snapshots at_epoch_end;
  Oracle oracle;
  Rng rng(kOpSeed);
  for (int i = 0; i < kOps; ++i) {
    const std::uint64_t k = rng.next_below(kKeys);
    if (rng.next_below(4) == 0) {
      m.remove(k);
      oracle.erase(k);
    } else {
      const std::uint64_t v = 1 + rng.next_below(std::uint64_t{1} << 32);
      m.insert(k, v);
      oracle[k] = v;
    }
    if ((i + 1) % kOpsPerEpoch == 0) {
      at_epoch_end[es.current_epoch()] = oracle;
      es.advance();
    }
  }
  at_epoch_end[es.current_epoch()] = oracle;
  return at_epoch_end;
}

using EventTotals = std::uint64_t[static_cast<int>(FaultEvent::kNumEvents)];

/// Every world of this suite: epochs advance by hand and flush on one
/// thread, the precondition for "the N-th event" naming the same instant
/// on every replay. A plan, if given, is armed before formatting.
World replay_world(const FaultPlan* plan = nullptr) {
  return World(strict_device(), replayable_epochs(), plan);
}

/// Phase A: clean profiling run. Returns the oracle snapshots and the
/// per-class event totals the enumeration will cover.
template <typename S>
Snapshots profile(EventTotals& totals) {
  World w = replay_world();
  auto m = make<S>(*w.es);
  Snapshots snaps = drive_fixed(*m, *w.es);
  for (int c = 0; c < static_cast<int>(FaultEvent::kNumEvents); ++c) {
    totals[c] = w.dev->fault_events(static_cast<FaultEvent>(c));
  }
  return snaps;
}

World armed_world(FaultEvent event, std::uint64_t trigger) {
  FaultPlan plan;
  plan.event = event;
  plan.trigger_at = trigger;
  return replay_world(&plan);
}

/// Phase B: replay the identical sequence with a plan armed at (event,
/// trigger), crash, recover, and check the BDL prefix guarantee plus
/// zero quarantines (a clean crash must never trip the corruption
/// detectors — the integrated false-positive check).
template <typename S>
void replay_and_check(FaultEvent event, std::uint64_t trigger,
                      const Snapshots& snaps) {
  World w = armed_world(event, trigger);
  auto m = make<S>(*w.es);
  drive_fixed(*m, *w.es);
  ASSERT_TRUE(w.dev->fault_tripped())
      << "plan (" << static_cast<int>(event) << ", " << trigger
      << ") never tripped";
  m.reset();
  w.crash_and_attach();
  const std::uint64_t frontier = w.frontier();  // as the media froze it
  m = make<S>(*w.es);
  m->recover();
  const auto& rep = w.es->last_recovery();
  EXPECT_EQ(rep.blocks_quarantined, 0u)
      << "clean planned crash must not quarantine blocks";
  EXPECT_EQ(rep.checksum_failures, 0u);
  EXPECT_EQ(rep.epoch_violations, 0u);
  verify_exact(finder(*m), snapshot_at(snaps, frontier), kKeys,
               "event " + std::to_string(static_cast<int>(event)) +
                   " trigger " + std::to_string(trigger));
}

/// Full enumeration: every class, triggers strided to at most
/// kMaxTriggersPerClass per class, endpoints always included.
template <typename S>
void enumerate_all_classes() {
  EventTotals totals = {};
  const Snapshots snaps = profile<S>(totals);
  for (int c = 0; c < static_cast<int>(FaultEvent::kNumEvents); ++c) {
    const auto event = static_cast<FaultEvent>(c);
    const std::uint64_t total = totals[c];
    ASSERT_GT(total, 0u) << "op sequence generated no events of class " << c
                         << "; the enumeration would not cover it";
    const std::uint64_t stride =
        std::max<std::uint64_t>(1, total / kMaxTriggersPerClass);
    for (std::uint64_t n = 0; n < total; n += stride) {
      replay_and_check<S>(event, n, snaps);
      if (::testing::Test::HasFatalFailure()) return;
    }
    if ((total - 1) % stride != 0) {
      replay_and_check<S>(event, total - 1, snaps);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

template <typename S>
class FaultPlanEnumeration : public ::testing::Test {};
TYPED_TEST_SUITE(FaultPlanEnumeration, Backends::Structures, BackendName);

TYPED_TEST(FaultPlanEnumeration, EveryEventClass) {
  enumerate_all_classes<TypeParam>();
}

// ---- Determinism: same plan + same sequence = bit-identical outcome ----

struct PlannedRun {
  std::uint64_t persisted = 0;
  epoch::RecoveryReport report{};
  std::vector<std::byte> media;  // post-recovery media image
};

PlannedRun run_planned(const FaultPlan& plan) {
  PlannedRun out;
  World w = replay_world(&plan);
  auto m = make<hash::BDSpash>(*w.es);
  drive_fixed(*m, *w.es);
  EXPECT_TRUE(w.dev->fault_tripped());
  m.reset();
  w.crash_and_attach();
  out.persisted = w.es->persisted_epoch();
  m = make<hash::BDSpash>(*w.es);
  m->recover();
  out.report = w.es->last_recovery();
  out.media.resize(w.dev->capacity());
  for (std::size_t off = 0; off < w.dev->capacity(); off += 8) {
    const auto word = w.dev->media_read(
        reinterpret_cast<const std::uint64_t*>(w.dev->base() + off));
    std::memcpy(out.media.data() + off, &word, sizeof(word));
  }
  return out;
}

TEST(FaultPlanDeterminism, SamePlanSameBits) {
  EventTotals totals = {};
  (void)profile<hash::BDSpash>(totals);
  FaultPlan plan;
  plan.event = FaultEvent::kEviction;
  plan.trigger_at = totals[static_cast<int>(FaultEvent::kEviction)] / 2;
  const PlannedRun a = run_planned(plan);
  const PlannedRun b = run_planned(plan);
  EXPECT_EQ(a.persisted, b.persisted);
  EXPECT_EQ(a.report.blocks_scanned, b.report.blocks_scanned);
  EXPECT_EQ(a.report.blocks_live, b.report.blocks_live);
  EXPECT_EQ(a.report.blocks_resurrected, b.report.blocks_resurrected);
  EXPECT_EQ(a.report.blocks_discarded, b.report.blocks_discarded);
  EXPECT_EQ(a.report.blocks_quarantined, b.report.blocks_quarantined);
  EXPECT_EQ(a.report.checksum_failures, b.report.checksum_failures);
  EXPECT_EQ(a.report.epoch_violations, b.report.epoch_violations);
  // The recovered heap itself — not just the counters — must replay
  // bit-for-bit: same media image down to the last byte.
  ASSERT_EQ(a.media.size(), b.media.size());
  EXPECT_EQ(std::memcmp(a.media.data(), b.media.data(), a.media.size()), 0)
      << "planned crash + recovery is not deterministic";
}

// ---- Corruption quarantine ----

TEST(FaultPlanCorruption, CleanImageZeroQuarantines) {
  World w = replay_world();
  auto m = make<hash::BDSpash>(*w.es);
  drive_fixed(*m, *w.es);
  w.es->persist_all();
  m = crash_and_recover(w, std::move(m));
  const auto& rep = w.es->last_recovery();
  EXPECT_GT(rep.blocks_scanned, 0u);
  EXPECT_EQ(rep.blocks_quarantined, 0u)
      << "false positive: clean image tripped the corruption detectors";
  EXPECT_EQ(rep.checksum_failures, 0u);
  EXPECT_EQ(rep.epoch_violations, 0u);
  EXPECT_EQ(rep.superblocks_quarantined, 0u);
}

// Negative control: corrupt one block header by hand and require the
// checksum detector to fire, the block to be quarantined, and every
// *other* pair to recover — proving the detector has teeth and the
// degradation is bounded to the damaged block.
TEST(FaultPlanCorruption, DetectorFiresOnHeaderDamage) {
  World w = replay_world();
  auto m = make<hash::BDSpash>(*w.es);
  const Oracle oracle = drive_fixed(*m, *w.es).rbegin()->second;
  w.es->persist_all();
  ASSERT_FALSE(oracle.empty());
  m.reset();
  w.crash_and_attach();
  // Pick a victim pair and damage its header's word 1 directly in the
  // post-reboot image (working == media after the crash), as a media
  // fault would present it to the scan.
  const std::uint64_t victim_key = oracle.begin()->first;
  bool damaged = false;
  w.pa->for_each_block([&](alloc::BlockHeader* hdr, void* payload) {
    if (damaged || hdr->size_class() != alloc::PAllocator::class_for(
                                            sizeof(epoch::KVPair))) {
      return;
    }
    auto* kv = static_cast<epoch::KVPair*>(payload);
    if (kv->key != victim_key ||
        hdr->st() != alloc::BlockStatus::kAllocated) {
      return;
    }
    // A delete-epoch bit: breaks the integrity tag.
    hdr->store_meta(hdr->load_meta() ^
                    std::uint64_t{1} << (alloc::BlockHeader::kDeleteShift + 6));
    damaged = true;
  });
  ASSERT_TRUE(damaged) << "victim block not found in the heap";
  m = make<hash::BDSpash>(*w.es);
  m->recover();
  const auto& rep = w.es->last_recovery();
  EXPECT_GE(rep.checksum_failures, 1u) << "detector failed to fire";
  EXPECT_GE(rep.blocks_quarantined, 1u);
  // Bounded degradation: exactly the damaged pair is lost.
  EXPECT_FALSE(m->find(victim_key).has_value());
  for (const auto& [k, v] : oracle) {
    if (k == victim_key) continue;
    auto got = m->find(k);
    ASSERT_TRUE(got.has_value()) << "undamaged key " << k << " lost";
    ASSERT_EQ(*got, v);
  }
}

// Random media corruption (torn XPLines, dropped lines, bit flips):
// recovery must complete without crashing or handing out wild pointers,
// with accounting identities intact and loss bounded. The bound has two
// parts: a corrupted line touching *blocks* damages at most the pairs
// that line holds (hit count times pairs per line), while a corrupted
// line touching a *superblock header* makes the whole superblock
// unreachable — those pairs vanish from the scan, so the drop in
// blocks_scanned versus a corruption-free control run accounts for them.
TEST(FaultPlanCorruption, RandomCorruptionDegradesGracefully) {
  auto run = [](const MediaCorruption* c, Oracle& oracle,
                std::uint64_t& scanned, std::uint64_t& hit) {
    World w = replay_world();
    {
      auto m = make<hash::BDSpash>(*w.es);
      oracle = drive_fixed(*m, *w.es).rbegin()->second;
      w.es->persist_all();
    }
    w.crash();
    hit = c != nullptr ? w.dev->corrupt_media(*c) : 0;
    w.attach();
    auto rec = make<hash::BDSpash>(*w.es);
    rec->recover();  // must not crash on garbage metadata
    const auto& rep = w.es->last_recovery();
    scanned = rep.blocks_scanned;
    EXPECT_EQ(rep.blocks_live + rep.blocks_discarded + rep.blocks_quarantined,
              rep.blocks_scanned);
    EXPECT_EQ(rep.blocks_quarantined,
              rep.checksum_failures + rep.epoch_violations);
    if (c == nullptr) {
      EXPECT_EQ(rep.blocks_quarantined, 0u);
    }
    std::uint64_t damaged = 0;
    for (const auto& [k, v] : oracle) {
      auto got = rec->find(k);
      if (!got.has_value() || *got != v) ++damaged;
    }
    // The full sweep must be safe even where payload bytes were
    // scrambled.
    for (std::uint64_t k = 0; k < kKeys; ++k) (void)rec->find(k);
    return damaged;
  };

  // Control: identical world, no corruption — recovers losslessly.
  Oracle oracle;
  std::uint64_t scanned_clean = 0, scanned_corrupt = 0, hit = 0, unused = 0;
  const std::uint64_t damaged_clean = run(nullptr, oracle, scanned_clean,
                                          unused);
  EXPECT_EQ(damaged_clean, 0u);

  MediaCorruption c;
  c.torn_xplines = 2;
  c.dropped_lines = 4;
  c.bit_flips = 8;
  c.seed = 0xdead1;
  const std::uint64_t damaged =
      run(&c, oracle, scanned_corrupt, hit);
  ASSERT_GT(hit, 0u);
  const std::uint64_t vanished =
      scanned_clean > scanned_corrupt ? scanned_clean - scanned_corrupt : 0;
  const std::uint64_t pairs_per_line =
      kCacheLineSize / alloc::PAllocator::stride_of_class(
                           alloc::PAllocator::class_for(sizeof(epoch::KVPair)));
  EXPECT_LE(damaged, hit * pairs_per_line + vanished)
      << "loss exceeds the corrupted-line + unreachable-superblock bound";
}

// Corruption riding on the plan itself (crash_corruption): the integrated
// path must be as deterministic as the clean one.
TEST(FaultPlanCorruption, PlanCarriedCorruptionIsDeterministic) {
  EventTotals totals = {};
  (void)profile<hash::BDSpash>(totals);
  FaultPlan plan;
  plan.event = FaultEvent::kClwb;
  plan.trigger_at = totals[static_cast<int>(FaultEvent::kClwb)] / 3;
  plan.crash_corruption.dropped_lines = 3;
  plan.crash_corruption.bit_flips = 2;
  plan.crash_corruption.seed = 0xfeed2;
  const PlannedRun a = run_planned(plan);
  const PlannedRun b = run_planned(plan);
  EXPECT_EQ(a.report.blocks_quarantined, b.report.blocks_quarantined);
  EXPECT_EQ(a.report.checksum_failures, b.report.checksum_failures);
  EXPECT_EQ(a.report.epoch_violations, b.report.epoch_violations);
  ASSERT_EQ(a.media.size(), b.media.size());
  EXPECT_EQ(std::memcmp(a.media.data(), b.media.data(), a.media.size()), 0);
}

}  // namespace
}  // namespace bdhtm::test
