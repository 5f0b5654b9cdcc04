// Tests for the BDHTM_CHECKED runtime protocol checker (DESIGN.md §9).
// Every txlint rule has a dynamic mirror; each test here deliberately
// misuses the API and asserts the checker traps it under the same rule
// name the static analyzer prints. The deliberate misuses carry txlint
// suppressions — the static and dynamic checkers agree on what is wrong
// with this file.
//
// Rule-trap tests skip in a normal build (violation() compiles to a
// no-op there); the naming/report tests run everywhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/checked.hpp"
#include "epoch/epoch_sys.hpp"
#include "htm/access.hpp"
#include "htm/engine.hpp"
#include "htm/fallback.hpp"
#include "nvm/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bdhtm {
namespace {

using alloc::PAllocator;
using epoch::EpochSys;

struct Env {
  explicit Env(nvm::DeviceConfig dcfg) : dev(dcfg), pa(dev) {
    EpochSys::Config cfg;
    cfg.start_advancer = false;
    es = std::make_unique<EpochSys>(pa, cfg);
  }
  nvm::Device dev;
  PAllocator pa;
  std::unique_ptr<EpochSys> es;
};

nvm::DeviceConfig tiny() {
  nvm::DeviceConfig cfg;
  cfg.capacity = 16 << 20;
  cfg.dirty_survival = 0.0;
  cfg.pending_survival = 0.0;
  return cfg;
}

// The handler must be a capture-free function pointer, so the capture
// buffer lives at file scope.
std::vector<std::pair<checked::Rule, std::string>>* g_hits = nullptr;

void capture_hit(checked::Rule r, const char* site) {
  if (g_hits != nullptr) g_hits->emplace_back(r, site);
}

// Installs the capturing handler for one test and resets counters.
struct Capture {
  Capture() {
    g_hits = &hits;
    checked::reset_violation_counts();
  }
  ~Capture() { g_hits = nullptr; }

  bool saw(checked::Rule r) const {
    for (const auto& h : hits) {
      if (h.first == r) return true;
    }
    return false;
  }
  const std::string* site_of(checked::Rule r) const {
    for (const auto& h : hits) {
      if (h.first == r) return &h.second;
    }
    return nullptr;
  }

  std::vector<std::pair<checked::Rule, std::string>> hits;
  checked::ScopedHandler guard{&capture_hit};
};

#define SKIP_UNLESS_CHECKED()                                       \
  do {                                                              \
    if (!checked::enabled())                                        \
      GTEST_SKIP() << "runtime checker needs -DBDHTM_CHECKED=ON";   \
  } while (0)

// ---------------------------------------------------------------------------
// Rule naming and report plumbing (run in every build).

TEST(CheckedProtocol, RuleNamesMatchTxlintDiagnostics) {
  EXPECT_STREQ(checked::rule_name(checked::Rule::kPersistInTx),
               "persist-in-tx");
  EXPECT_STREQ(checked::rule_name(checked::Rule::kAllocInTx), "alloc-in-tx");
  EXPECT_STREQ(checked::rule_name(checked::Rule::kRetireBeforeCommit),
               "retire-before-commit");
  EXPECT_STREQ(checked::rule_name(checked::Rule::kIrrevocableInTx),
               "irrevocable-in-tx");
  EXPECT_STREQ(checked::rule_name(checked::Rule::kUnbalancedEpochOp),
               "unbalanced-epoch-op");
  EXPECT_STREQ(checked::rule_name(checked::Rule::kNoObsInTx), "no-obs-in-tx");
  EXPECT_STREQ(checked::rule_name(checked::Rule::kPublishBeforePersist),
               "publish-before-persist");
  EXPECT_STREQ(checked::rule_name(checked::Rule::kEscapeUnpersistedStack),
               "escape-unpersisted-stack");
}

TEST(CheckedProtocol, ReportWritesSchemaAndCounters) {
  const std::string path =
      testing::TempDir() + "/bdhtm-checked-report-test.json";
  ASSERT_TRUE(checked::write_report(path.c_str()));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[4096] = {};
  const size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  std::remove(path.c_str());
  const std::string body(buf, n);
  EXPECT_NE(body.find("\"schema\":\"bdhtm-checked/1\""), std::string::npos);
  EXPECT_NE(body.find("\"persist-in-tx\""), std::string::npos);
  EXPECT_NE(body.find("\"unbalanced-epoch-op\""), std::string::npos);
  EXPECT_NE(body.find("\"checked_build\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// persist-in-tx

TEST(CheckedProtocol, PersistInTxTrapsClwb) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  nvm::Device dev(tiny());
  auto* x = reinterpret_cast<std::uint64_t*>(dev.base());
  const unsigned st = htm::run([&](htm::Txn& tx) {
    tx.store_nvm(dev, x, std::uint64_t{7});
    // txlint: allow(persist-in-tx) -- provoking the runtime trap
    dev.clwb(x);
  });
  // The trap reports, then the engine still raises the defensive abort.
  EXPECT_TRUE(st & htm::kAbortPersist);
  ASSERT_TRUE(cap.saw(checked::Rule::kPersistInTx));
  EXPECT_EQ(*cap.site_of(checked::Rule::kPersistInTx), "nvm::Device::clwb");
  EXPECT_GE(checked::violations(checked::Rule::kPersistInTx), 1u);
}

TEST(CheckedProtocol, PersistInTxTrapsDrain) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  nvm::Device dev(tiny());
  (void)htm::run([&](htm::Txn& tx) {
    (void)tx;
    // txlint: allow(persist-in-tx) -- provoking the runtime trap
    dev.drain();
  });
  ASSERT_TRUE(cap.saw(checked::Rule::kPersistInTx));
  EXPECT_EQ(*cap.site_of(checked::Rule::kPersistInTx), "nvm::Device::drain");
}

TEST(CheckedProtocol, PersistInTxIsLegalUnderEadr) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  auto cfg = tiny();
  cfg.eadr = true;  // persistent caches: clwb is transaction-neutral (§4.3)
  nvm::Device dev(cfg);
  auto* x = reinterpret_cast<std::uint64_t*>(dev.base());
  const unsigned st = htm::run([&](htm::Txn& tx) {
    tx.store_nvm(dev, x, std::uint64_t{9});
    // txlint: allow(persist-in-tx) -- eADR: not a violation at runtime
    dev.clwb(x);
  });
  EXPECT_EQ(st, htm::kCommitted);
  EXPECT_TRUE(cap.hits.empty());
}

// ---------------------------------------------------------------------------
// alloc-in-tx

TEST(CheckedProtocol, AllocInTxTrapsPNew) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  (void)htm::run([&](htm::Txn& tx) {
    (void)tx;
    // txlint: allow(alloc-in-tx) -- provoking the runtime trap
    void* p = env.es->pNew(32);
    (void)p;
  });
  ASSERT_TRUE(cap.saw(checked::Rule::kAllocInTx));
  // Both the epoch facade and the allocator underneath report.
  EXPECT_EQ(*cap.site_of(checked::Rule::kAllocInTx), "epoch::EpochSys::pNew");
  EXPECT_GE(checked::violations(checked::Rule::kAllocInTx), 2u);
}

// ---------------------------------------------------------------------------
// retire-before-commit

TEST(CheckedProtocol, RetireBeforeCommitTrapsPRetireAndPTrack) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  // Set up a valid tracked block entirely outside any transaction.
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 0x42;
  env.es->pSet(p, &v, sizeof v);
  EpochSys::set_epoch_nontx(env.dev, p, env.es->current_epoch());
  env.es->pTrack(p);
  env.es->endOp();

  env.es->beginOp();
  (void)htm::run([&](htm::Txn& tx) {
    (void)tx;
    // txlint: allow(retire-before-commit) -- provoking the runtime trap
    env.es->pRetire(p);
    // txlint: allow(retire-before-commit) -- provoking the runtime trap
    env.es->pTrack(p);
  });
  env.es->endOp();
  EXPECT_TRUE(cap.saw(checked::Rule::kRetireBeforeCommit));
  EXPECT_GE(checked::violations(checked::Rule::kRetireBeforeCommit), 2u);
}

TEST(CheckedProtocol, RetireBeforeCommitTrapsPDelete) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  void* p = env.es->pNew(16);  // legal: preallocated outside
  (void)htm::run([&](htm::Txn& tx) {
    (void)tx;
    // txlint: allow(retire-before-commit) -- provoking the runtime trap
    env.es->pDelete(p);
  });
  ASSERT_TRUE(cap.saw(checked::Rule::kRetireBeforeCommit));
  EXPECT_EQ(*cap.site_of(checked::Rule::kRetireBeforeCommit),
            "epoch::EpochSys::pDelete");
}

// ---------------------------------------------------------------------------
// irrevocable-in-tx

TEST(CheckedProtocol, IrrevocableInTxTrapsBeginOp) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  (void)htm::run([&](htm::Txn& tx) {
    (void)tx;
    // txlint: allow(irrevocable-in-tx) -- provoking the runtime trap
    (void)env.es->beginOp();
  });
  env.es->endOp();  // rebalance the thread's epoch state
  ASSERT_TRUE(cap.saw(checked::Rule::kIrrevocableInTx));
  EXPECT_NE(cap.site_of(checked::Rule::kIrrevocableInTx)->find("beginOp"),
            std::string::npos);
}

TEST(CheckedProtocol, IrrevocableInTxTrapsLockAcquire) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  htm::FallbackPolicy lock;  // one stripe: the global lock
  // Whether this self-acquisition aborts depends on access order (the
  // engine's own tests cover the conflict semantics); what the checked
  // build guarantees is the diagnostic.
  (void)htm::run([&](htm::Txn& tx) {
    lock.subscribe(tx, lock.all());
    // txlint: allow(irrevocable-in-tx) -- provoking the runtime trap
    lock.acquire(lock.all());
  });
  lock.release(lock.all());
  ASSERT_TRUE(cap.saw(checked::Rule::kIrrevocableInTx));
  EXPECT_EQ(*cap.site_of(checked::Rule::kIrrevocableInTx),
            "htm::FallbackPolicy::acquire");
}

// ---------------------------------------------------------------------------
// unbalanced-epoch-op

TEST(CheckedProtocol, UnbalancedEpochOpTrapsDoubleBegin) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  // txlint: allow(unbalanced-epoch-op) -- provoking the runtime trap
  (void)env.es->beginOp();
  (void)env.es->beginOp();  // op already open: trap
  env.es->endOp();
  ASSERT_TRUE(cap.saw(checked::Rule::kUnbalancedEpochOp));
  EXPECT_NE(cap.site_of(checked::Rule::kUnbalancedEpochOp)->find("beginOp"),
            std::string::npos);
}

TEST(CheckedProtocol, UnbalancedEpochOpTrapsEndWithoutBegin) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  env.es->endOp();  // nothing open: trap
  ASSERT_TRUE(cap.saw(checked::Rule::kUnbalancedEpochOp));
  EXPECT_NE(cap.site_of(checked::Rule::kUnbalancedEpochOp)->find("endOp"),
            std::string::npos);
}

TEST(CheckedProtocol, UnbalancedEpochOpTrapsAbortWithoutBegin) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  env.es->abortOp();  // nothing open: trap
  ASSERT_TRUE(cap.saw(checked::Rule::kUnbalancedEpochOp));
  EXPECT_NE(cap.site_of(checked::Rule::kUnbalancedEpochOp)->find("abortOp"),
            std::string::npos);
}

TEST(CheckedProtocol, UnbalancedEpochOpTrapsTransitionInsideOp) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  const std::uint64_t e = env.es->beginOp();
  // A transition drains the epoch it closes, this thread's open operation
  // included: each call traps and returns without one instead of hanging.
  env.es->advance();
  env.es->persist_all();
  ASSERT_EQ(cap.hits.size(), 2u);
  EXPECT_EQ(cap.hits[0].first, checked::Rule::kUnbalancedEpochOp);
  EXPECT_NE(cap.hits[0].second.find("advance"), std::string::npos);
  EXPECT_EQ(cap.hits[1].first, checked::Rule::kUnbalancedEpochOp);
  EXPECT_NE(cap.hits[1].second.find("persist_all"), std::string::npos);
  EXPECT_EQ(env.es->current_epoch(), e);
  EXPECT_EQ(env.es->stats().epochs_advanced.load(), 0u);
  env.es->endOp();
  env.es->advance();  // nothing open: a clean transition
  EXPECT_EQ(env.es->current_epoch(), e + 1);
  EXPECT_EQ(cap.hits.size(), 2u);
}

// No transition waits for a read envelope, so a write in one could miss
// its epoch's flush: each writing call traps, and the envelope still
// closes.
TEST(CheckedProtocol, UnbalancedEpochOpTrapsWritesInReadEnvelope) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  env.es->beginOp();
  void* p = env.es->pNew(16);
  env.es->pTrack(p);
  env.es->endOp();
  const std::uint64_t v = 7;
  env.es->beginOp(epoch::Access::kRead);
  void* q = env.es->pNew(16);
  env.es->pSet(p, &v, sizeof(v));
  env.es->pTrack(p);
  env.es->pRetire(p);
  env.es->abortOp();
  ASSERT_EQ(cap.hits.size(), 5u);
  const char* sites[] = {"pNew", "pSet", "pTrack", "pRetire", "abortOp"};
  for (std::size_t i = 0; i < cap.hits.size(); ++i) {
    EXPECT_EQ(cap.hits[i].first, checked::Rule::kUnbalancedEpochOp);
    EXPECT_NE(cap.hits[i].second.find(sites[i]), std::string::npos)
        << cap.hits[i].second;
    EXPECT_NE(cap.hits[i].second.find("read envelope"), std::string::npos);
  }
  EXPECT_FALSE(env.es->in_op());
  // A read envelope with no write is clean, and a transition may run
  // beside it.
  env.es->beginOp(epoch::Access::kRead);
  env.es->advance();
  env.es->endOp();
  env.es->pDelete(q);
  EXPECT_EQ(cap.hits.size(), 5u);
}

// ---------------------------------------------------------------------------
// no-obs-in-tx

TEST(CheckedProtocol, NoObsInTxTrapsHistogramRecord) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  obs::Histogram h;
  (void)htm::run([&](htm::Txn& tx) {
    (void)tx;
    // txlint: allow(no-obs-in-tx) -- provoking the runtime trap
    h.record(1);
  });
  ASSERT_TRUE(cap.saw(checked::Rule::kNoObsInTx));
  EXPECT_EQ(*cap.site_of(checked::Rule::kNoObsInTx), "obs::Histogram::record");
}

TEST(CheckedProtocol, NoObsInTxTrapsTraceEmitEvenWithTracingOff) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  ASSERT_FALSE(obs::tracing_enabled());
  (void)htm::run([&](htm::Txn& tx) {
    (void)tx;
    // txlint: allow(no-obs-in-tx) -- provoking the runtime trap
    obs::trace_instant(obs::TraceEventType::kSvcBatch, 1, 2);
    // txlint: allow(no-obs-in-tx) -- provoking the runtime trap
    obs::trace_complete(obs::TraceEventType::kSvcBatch, 0, 1, 2);
  });
  ASSERT_TRUE(cap.saw(checked::Rule::kNoObsInTx));
  EXPECT_GE(checked::violations(checked::Rule::kNoObsInTx), 2u);
  // The checked lane traps before the tracing_enabled gate, so nothing
  // was actually emitted into the rings.
}

TEST(CheckedProtocol, NoObsOutsideTxIsClean) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  obs::Histogram h;
  h.record(7);
  obs::trace_instant(obs::TraceEventType::kSvcBatch, 1, 2);
  EXPECT_TRUE(cap.hits.empty());
}

// ---------------------------------------------------------------------------
// publish-before-persist / escape-unpersisted-stack (the dynamic mirror
// of txlint's persistence-ordering dataflow rules)

TEST(CheckedProtocol, PublishBeforePersistTrapsUntrackedPublishAtEndOp) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  auto* slot =
      reinterpret_cast<std::uint64_t*>(env.dev.base() + (8 << 10));
  htm::NontxAccess na;

  env.es->beginOp();
  void* p = env.es->pNew(16);  // virgin: never pSet/pTrack'd
  // Durably publish the pointer, then close the operation without ever
  // capturing the block — a crash after the epoch persists the slot
  // recovers a pointer to junk.
  na.store_nvm(env.dev, slot, reinterpret_cast<std::uint64_t>(p));
  env.es->endOp();

  ASSERT_TRUE(cap.saw(checked::Rule::kPublishBeforePersist));
  EXPECT_EQ(*cap.site_of(checked::Rule::kPublishBeforePersist),
            "htm::NontxAccess::store_nvm");
  env.es->beginOp();
  env.es->pDelete(p);
  env.es->endOp();
}

TEST(CheckedProtocol, PublishBeforePersistSilentWhenTracked) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  auto* slot =
      reinterpret_cast<std::uint64_t*>(env.dev.base() + (8 << 10));
  htm::NontxAccess na;

  // The sanctioned shape: publish, then pTrack before endOp puts the
  // block in the same epoch write-set as the pointer.
  env.es->beginOp();
  void* p = env.es->pNew(16);
  const std::uint64_t v = 0x51;
  env.es->pSet(p, &v, sizeof v);
  na.store_nvm(env.dev, slot, reinterpret_cast<std::uint64_t>(p));
  env.es->pTrack(p);
  env.es->endOp();
  EXPECT_TRUE(cap.hits.empty());
}

TEST(CheckedProtocol, PublishBeforePersistTrapsImmediatelyOutsideOp) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  auto* slot =
      reinterpret_cast<std::uint64_t*>(env.dev.base() + (8 << 10));
  htm::NontxAccess na;

  void* p = env.es->pNew(16);  // legal: preallocation needs no op
  // No operation envelope: no endOp (and no pTrack) is coming, so the
  // checker does not wait for one.
  na.store_nvm(env.dev, slot, reinterpret_cast<std::uint64_t>(p));
  ASSERT_TRUE(cap.saw(checked::Rule::kPublishBeforePersist));
  env.es->beginOp();
  env.es->pDelete(p);
  env.es->endOp();
}

TEST(CheckedProtocol, EscapeUnpersistedStackTrapsStackPointer) {
  SKIP_UNLESS_CHECKED();
#if !defined(__linux__)
  GTEST_SKIP() << "stack-bounds probe needs pthread_getattr_np";
#endif
  Capture cap;
  Env env(tiny());
  auto* slot =
      reinterpret_cast<std::uint64_t*>(env.dev.base() + (8 << 10));
  htm::NontxAccess na;

  std::uint64_t scratch = 7;
  // txlint: allow(escape-unpersisted-stack) -- provoking the runtime trap
  na.store_nvm(env.dev, slot, reinterpret_cast<std::uint64_t>(&scratch));
  ASSERT_TRUE(cap.saw(checked::Rule::kEscapeUnpersistedStack));
  EXPECT_EQ(*cap.site_of(checked::Rule::kEscapeUnpersistedStack),
            "htm::NontxAccess::store_nvm");
}

// ---------------------------------------------------------------------------
// Handler semantics

TEST(CheckedProtocol, DefaultHandlerAbortsTheProcess) {
#ifdef BDHTM_CHECKED
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      checked::violation(checked::Rule::kPersistInTx, "death-test-site"),
      "protocol violation: persist-in-tx at death-test-site");
#else
  GTEST_SKIP() << "runtime checker needs -DBDHTM_CHECKED=ON";
#endif
}

TEST(CheckedProtocol, CountersAccumulateAndReset) {
  SKIP_UNLESS_CHECKED();
  Capture cap;
  Env env(tiny());
  env.es->endOp();
  env.es->endOp();
  EXPECT_EQ(checked::violations(checked::Rule::kUnbalancedEpochOp), 2u);
  EXPECT_GE(checked::total_violations(), 2u);
  checked::reset_violation_counts();
  EXPECT_EQ(checked::total_violations(), 0u);
}

}  // namespace
}  // namespace bdhtm
