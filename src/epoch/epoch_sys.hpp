// Buffered-durability epoch system (paper §3, Table 2; DESIGN.md §3).
//
// A background thread divides execution into epochs of a few milliseconds.
// Between transitions, with global epoch e:
//   - e      is ACTIVE: operations register here,
//   - i<=e-1 are VALID: all their NVM writes are durable.
// While the transition that ends e runs, e+1 is already ACTIVE and e is
// IN-FLIGHT: operations that began there may still finish, and the
// transition waits for them before it writes e back.
//
// NVM writes made by an operation are tracked in per-thread buffers and
// written back (clwb + fence) by the transition that ends their epoch —
// never on the operation's critical path and never inside a hardware
// transaction. A crash in epoch e therefore recovers to the consistent
// state at the end of epoch e-1: buffered durable linearizability.
//
// HTM extensions over Montage (paper §3):
//   * pNew() returns blocks tagged with an INVALID epoch; operations stamp
//     the real epoch with setEpoch() *inside* the transaction, immediately
//     before the linearization point, and recovery reclaims any block
//     whose epoch is still invalid.
//   * persistence (pTrack) and reclamation (pRetire) happen after the
//     transaction commits, so no persist instruction can abort it.
//   * An operation that observes a block from a *newer* epoch must abort
//     (OldSeeNewException) and restart via abortOp() + beginOp().
//
// Transition algorithm (advance(), executed at most one epoch length
// apart; see "Clock" below), from global epoch e:
//   1. publish global epoch e+1;
//   2. wait until no update operation is announced in an epoch <= e
//      (read envelopes, beginOp(Access::kRead), write nothing and are
//      not waited for);
//   3. flush every write buffered in epoch e and the DELETED headers of
//      blocks retired in e;
//   4. persist the epoch counter as e+2, which makes e durable (the
//      counter names the recovery frontier + 2, see recovery_frontier),
//      and ring the persist bell for threads sleeping until then;
//   5. reclaim the blocks retired in each epoch x <= e-1 that no open
//      reader can still reach: every update operation that could ran in
//      an epoch <= e, and step 2 waited for those; a reader announced at
//      or below x+1 may have begun before the unlink, so x waits for it.
//
// Step 3 runs as a write-back *pipeline* (DESIGN.md §3, "Write-back
// pipeline"): the per-thread buffers are stolen by pointer swap, the
// stolen ranges are coalesced to cache-line granularity (duplicate lines
// flushed once, adjacent lines merged into bulk runs), and the merged
// runs fan out across a small flusher pool. A barrier before step 4
// preserves the flush-before-counter ordering the BDL proof needs.
//
// Clock: the background advancer ends an epoch one epoch length after
// its publish, or earlier when a durable waiter asks for it
// (request_advance(), Montage's sync() without the wait). A requested
// transition starts no sooner than a tenth of the epoch length after the
// previous publish, so there are at most ten transitions per epoch
// length. Write-back stays on the advancer and its flusher pool.
//
// On an eADR device (persistent cache) flushing is unnecessary; the epoch
// system disables its write-back work and keeps only the epoch clock and
// deferred reclamation, as §4.3 describes for BD-Spash.
#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cassert>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <stop_token>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "common/defs.hpp"
#include "common/spin.hpp"
#include "common/threading.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bdhtm::epoch {

using alloc::kInvalidEpoch;

/// What started an epoch transition: the `cause` argument of the
/// epoch.advance trace event.
enum class AdvanceCause : std::uint8_t {
  kExplicit = 0,  // advance() / persist_all() called directly
  kTimer,         // the background advancer's epoch length ran out
  kDemand,        // the background advancer, early, on request_advance()
  kRescue,        // a worker, after a watchdog trip (inline_advances)
};

/// What an operation envelope may do. An update envelope may write
/// (pNew, pSet, pTrack, pRetire, abortOp) and the transition that closes
/// its epoch waits for it. A read envelope writes nothing: it only keeps
/// the blocks it can reach from being reclaimed, so transitions do not
/// wait for it.
enum class Access : std::uint8_t { kUpdate, kRead };

struct EpochStats {
  std::atomic<std::uint64_t> epochs_advanced{0};
  /// Transitions the background advancer started early because a
  /// durable waiter called request_advance(); the rest of its
  /// transitions ran on the epoch-length timer. Mirrored as the
  /// `epoch.demand_advances` registry counter.
  std::atomic<std::uint64_t> demand_advances{0};
  /// Tracked ranges handed to the write-back pipeline (pre-coalescing).
  std::atomic<std::uint64_t> ranges_flushed{0};
  /// Bytes actually written back to the media by the pipeline
  /// (lines_flushed * 64): the number coalescing reduces.
  std::atomic<std::uint64_t> bytes_flushed{0};
  /// Cache lines written back to the media.
  std::atomic<std::uint64_t> lines_flushed{0};
  /// Redundant line flushes eliminated by coalescing (duplicate or
  /// overlapping lines within one epoch's buffered writes).
  std::atomic<std::uint64_t> lines_deduped{0};
  /// Wall time of each transition's step 2, waiting for the update
  /// operations of the closing epoch, log-bucketed.
  obs::Histogram drain_ns;
  /// Wall time of each flush phase of step 3 (coalesce + fan-out +
  /// barrier + drain), log-bucketed: quantiles via flush_ns.snapshot().
  obs::Histogram flush_ns;
  /// Per-transition advance() duration distribution (p50/p95/p99/max via
  /// advance_ns.snapshot(); mean = advance_ns.sum() / count).
  obs::Histogram advance_ns;
  std::atomic<std::uint64_t> blocks_retired{0};
  std::atomic<std::uint64_t> blocks_reclaimed{0};
  /// Watchdog detections: a worker observed that no epoch transition
  /// completed within the watchdog deadline while the background
  /// advancer was supposed to be running (stalled, descheduled, dead).
  std::atomic<std::uint64_t> watchdog_trips{0};
  /// Transitions driven inline by a worker after a watchdog trip — the
  /// degraded mode in which durability keeps progressing without the
  /// advancer.
  std::atomic<std::uint64_t> inline_advances{0};

  // Accessors matching the old atomic-field names, kept so latency
  // totals read the same everywhere. advance_ns_min() is 0 until the
  // first transition completes — the old CAS-loop code leaked its ~0
  // sentinel into reports when nothing had advanced.
  std::uint64_t advance_ns_total() const { return advance_ns.sum(); }
  std::uint64_t advance_ns_min() const { return advance_ns.min(); }
  std::uint64_t advance_ns_max() const { return advance_ns.max(); }
  std::uint64_t flush_ns_total() const { return flush_ns.sum(); }

  /// Redundancy eliminated: raw buffered lines / lines actually flushed.
  double dedup_factor() const {
    const double flushed =
        static_cast<double>(lines_flushed.load(std::memory_order_relaxed));
    const double deduped =
        static_cast<double>(lines_deduped.load(std::memory_order_relaxed));
    return flushed > 0 ? (flushed + deduped) / flushed : 1.0;
  }
};

/// Outcome of a §5.2 recovery scan (returned by EpochSys::recover()).
/// The quarantine counters implement graceful degradation under media
/// corruption: a block whose metadata fails validation is leaked — its
/// pair is lost — instead of being dereferenced or free-listed.
struct RecoveryReport {
  std::uint64_t blocks_scanned = 0;
  std::uint64_t blocks_live = 0;         // handed to an owner's relink
  std::uint64_t blocks_resurrected = 0;  // deleted past the frontier: undone
  std::uint64_t blocks_discarded = 0;    // dead or uncommitted: freed
  std::uint64_t blocks_quarantined = 0;  // failed integrity checks: leaked
  std::uint64_t superblocks_quarantined = 0;  // insane superblock headers
  std::uint64_t checksum_failures = 0;  // header tag/geometry mismatches
  std::uint64_t epoch_violations = 0;   // epoch stamps outside sane bounds
  /// Header write-backs the scan issued: one per header it changed
  /// (resurrected, discarded or newly quarantined). Unchanged live
  /// headers are already durable and cost none.
  std::uint64_t headers_persisted = 0;
  /// Wall time of the two phases: the parallel classify pass up to the
  /// barrier, and the per-owner relink after it.
  std::uint64_t scan_ns = 0;
  std::uint64_t relink_ns = 0;

  /// Sum of per-worker counts (superblocks_quarantined and the phase
  /// times are heap-wide and set once, after the join).
  RecoveryReport& operator+=(const RecoveryReport& o) {
    blocks_scanned += o.blocks_scanned;
    blocks_live += o.blocks_live;
    blocks_resurrected += o.blocks_resurrected;
    blocks_discarded += o.blocks_discarded;
    blocks_quarantined += o.blocks_quarantined;
    checksum_failures += o.checksum_failures;
    epoch_violations += o.epoch_violations;
    headers_persisted += o.headers_persisted;
    return *this;
  }
};

/// A live block as the recovery scan hands it to its owner's relink.
struct LiveBlock {
  void* payload;
  std::uint64_t create_epoch;
};

class EpochSys {
 public:
  struct Config {
    /// Epoch length: the longest an epoch lasts, measured from its
    /// publish. The paper's default is 50 ms (§4), swept in Fig. 7/8. A
    /// durable waiter (request_advance()) can end an epoch once a tenth
    /// of this has passed since its publish.
    std::uint64_t epoch_length_us = 50'000;
    /// Spawn the background advancer. Tests drive advance() manually.
    bool start_advancer = true;
    /// Attach to an existing (crashed) heap instead of formatting a new
    /// root; the caller must run recover() before any operation.
    bool attach = false;
    /// Write-back pipeline width: how many threads flush the coalesced
    /// line runs of step 3 (the advancer itself plus flusher_threads - 1
    /// pool helpers). 1 = flush inline on the advancer (the pre-pipeline
    /// behaviour); 0 = auto (hardware concurrency, clamped to [1, 4]).
    int flusher_threads = 0;
    /// Coalesce buffered ranges to cache-line granularity before
    /// flushing: duplicate lines are flushed once per transition and
    /// adjacent lines merge into bulk line runs. Off reproduces the
    /// naive one-flush-per-tracked-range behaviour.
    bool coalesce_flushes = true;
    /// Advancer watchdog deadline. If no transition completes within
    /// this many microseconds, workers record a trip in EpochStats and
    /// degrade to inline (worker-driven) advancement, with per-thread
    /// bounded exponential backoff between rescue attempts. 0 = auto:
    /// 8x the current epoch length with a 10 ms floor (so long-epoch
    /// sweeps do not trip it). kWatchdogDisabled turns detection off.
    /// Only armed when start_advancer is true — tests that drive
    /// advance() manually are not "stalled".
    std::uint64_t watchdog_timeout_us = 0;
  };
  static constexpr std::uint64_t kWatchdogDisabled = ~std::uint64_t{0};

  /// Fresh heap: formats the persistent root. Pass Config{.attach=true}
  /// (with a kAttach-mode allocator) after a crash, then call recover().
  EpochSys(alloc::PAllocator& pa, const Config& cfg);
  explicit EpochSys(alloc::PAllocator& pa);
  ~EpochSys();
  EpochSys(const EpochSys&) = delete;
  EpochSys& operator=(const EpochSys&) = delete;

  // ---- Table 2 API ----

  /// Register the calling thread in the current epoch and start tracking
  /// its NVM writes. Returns the operation's epoch. A read envelope
  /// (Access::kRead) only pins the blocks it reaches against
  /// reclamation; a write in it reports kUnbalancedEpochOp (checked
  /// build) or asserts.
  std::uint64_t beginOp(Access access = Access::kUpdate);

  /// Schedule tracked writes for persistence and leave the epoch.
  void endOp();

  /// Leave the epoch and discard tracked writes; undoes pRetire() marks
  /// made by the aborted operation.
  void abortOp();

  /// True when the calling thread has an operation envelope open (a
  /// beginOp() without its matching endOp()/abortOp()). Structures run
  /// their operations only under an envelope their caller opened, one
  /// around a whole batch or a single op (epoch/batch.hpp), and assert
  /// this.
  bool in_op() { return tstate().op_epoch != kInvalidEpoch; }

  /// Epoch of the calling thread's open envelope; kInvalidEpoch when no
  /// operation is open.
  std::uint64_t current_op_epoch() { return tstate().op_epoch; }

  /// Allocate an NVM block (epoch = invalid until setEpoch). Must be
  /// called outside any hardware transaction.
  void* pNew(std::size_t size);

  /// In-place update of a block's payload, tracked for delayed
  /// persistence. Non-transactional path; inside transactions use
  /// Txn::store_nvm and pTrack the block after commit.
  void pSet(void* payload, const void* data, std::size_t len,
            std::size_t offset = 0);

  /// Mark a block for reclamation once the current epoch is durable.
  void pRetire(void* payload);

  /// Immediately reclaim a block (only safe for blocks that were never
  /// visible to other threads, e.g. unused preallocations).
  void pDelete(void* payload);

  /// Track an existing block so the whole block (header + payload) is
  /// flushed when the current epoch is persisted.
  void pTrack(void* payload);

  // ---- Epoch tags on blocks (paper's setEpoch()/getEpoch() extension) --

  static std::uint64_t get_epoch(const void* payload) {
    return htm::nontx_load(&alloc::PAllocator::header_of(
                                const_cast<void*>(payload))->create_epoch);
  }
  static void set_epoch_nontx(nvm::Device& dev, void* payload,
                              std::uint64_t e) {
    auto* hdr = alloc::PAllocator::header_of(payload);
    htm::nontx_store(&hdr->create_epoch, e);
    dev.mark_dirty(&hdr->create_epoch, sizeof(e));
  }
  /// Accessor-generic variants (htm/access.hpp), for code shared between
  /// the transactional and fallback paths — the Listing 1 pattern stamps
  /// the epoch inside the transaction, before the linearization point.
  template <typename Acc>
  static std::uint64_t get_epoch_generic(Acc& acc, const void* payload) {
    return acc.load(&alloc::PAllocator::header_of(
                         const_cast<void*>(payload))->create_epoch);
  }
  template <typename Acc>
  static void set_epoch_generic(Acc& acc, nvm::Device& dev, void* payload,
                                std::uint64_t e) {
    auto* hdr = alloc::PAllocator::header_of(payload);
    acc.store_nvm(dev, &hdr->create_epoch, e);
  }

  // ---- Clock / control ----

  std::uint64_t current_epoch() const {
    return global_epoch_.load(std::memory_order_acquire);
  }

  /// True when delayed write-back is active (false on eADR devices, where
  /// the system degenerates to an epoch clock + deferred reclamation).
  bool buffering_enabled() const { return !pa_.device().eadr(); }

  /// One epoch transition, on the calling thread: on return, everything
  /// buffered before the call is durable. The transition waits for the
  /// operations of the epoch it closes, so the caller must not have one
  /// open; a caller that does gets kUnbalancedEpochOp (checked build) or
  /// an assert, and no transition.
  void advance();

  /// Ask the background advancer to start the next transition early,
  /// without waiting for it: Montage's sync() minus the wait. The
  /// transition starts once a tenth of the epoch length has passed since
  /// the open epoch was published, and concurrent requests coalesce into
  /// it. Callers that need durability (kDurable acks) call this while
  /// they wait; the flush still runs on the advancer and its flusher
  /// pool. A no-op without a background advancer; while the advancer is
  /// stalled (stall_advancer_for_testing) a request stays pending. With
  /// a request already pending this costs one relaxed load.
  void request_advance() {
    if (!has_advancer_ || advance_requested_.load(std::memory_order_relaxed)) {
      return;
    }
    post_advance_request();
  }

  /// Advance until everything buffered so far is durable and every block
  /// retired so far is reclaimed: two transitions. Callers must have
  /// quiesced operations (the same rule as advance()); a read envelope
  /// left open keeps the blocks it can reach. Used before planned
  /// shutdown and by the space-accounting benchmarks.
  void persist_all();

  void set_epoch_length_us(std::uint64_t us) {
    epoch_length_us_.store(us, std::memory_order_relaxed);
  }
  std::uint64_t epoch_length_us() const {
    return epoch_length_us_.load(std::memory_order_relaxed);
  }

  /// First epoch operations can ever run in (epoch 0 and 1 are reserved
  /// so the frontier arithmetic below has room). Exposed for tests.
  static constexpr std::uint64_t kFirstEpoch = 2;

  /// Epoch recovered to after the given crash-time persisted epoch. The
  /// transition that closes epoch f persists f+2, so this is the last
  /// closed epoch: a crash in epoch e recovers to e-1. Saturates below
  /// kFirstEpoch instead of wrapping: a crash before the first
  /// transition ever completed (persisted == kFirstEpoch) recovers to
  /// "nothing is durable yet", not to a frontier of ~2^64 that would
  /// resurrect every uncommitted block. Exposed for tests.
  static std::uint64_t recovery_frontier(std::uint64_t persisted) {
    return persisted >= kFirstEpoch + 2 ? persisted - 2 : kFirstEpoch - 1;
  }

  /// Test hook: park the background advancer (it stays stop-token
  /// responsive, so shutdown is unaffected) to model a dead or
  /// descheduled advancer thread for watchdog tests.
  void stall_advancer_for_testing(bool stalled) {
    {
      // Under the wake mutex, like every input of the advancer's wait
      // predicate; a lifted stall then serves a pending request at once.
      std::lock_guard lk(wake_mu_);
      advancer_stalled_.store(stalled, std::memory_order_release);
    }
    wake_cv_.notify_one();
  }

  // ---- Recovery (§5.2) ----

  /// Post-crash constructor path: attach to the heap, classify every
  /// block, neutralize dead ones, resurrect recently-deleted ones, and
  /// hand the live blocks to their owners, from which the caller (one
  /// or more data structures) rebuilds its DRAM indexes.
  ///
  /// Two phases on `threads` workers, the caller included:
  ///   1. Scan. The workers claim superblocks from a shared cursor
  ///      (PAllocator::for_each_block) and classify their blocks. Each
  ///      worker files the live ones under `owner_of(void* payload)`, an
  ///      int in [0, owners), in lists of its own.
  ///   2. Relink. Behind a barrier worker w takes owner w, and the
  ///      workers claim any further owners from a cursor. The claimer
  ///      calls `relink(int owner, std::span<LiveBlock>)` once per owner
  ///      with every live block of that owner. An owner is thus
  ///      relinked on exactly one thread and may use plain accesses
  ///      (htm::OwnerAccess); the join orders them before anything after
  ///      recover(). relink may pDelete a duplicate it loses to; that
  ///      only marks the block kFree, and the free-list rebuild after the
  ///      join picks it up.
  /// No thread beyond the scan's workers is started: thread ids are
  /// never recycled, and suites that recover many times would run out.
  ///
  /// The scan writes back only the headers it changes (resurrected,
  /// discarded, quarantined). A live header that already reads kAllocated
  /// with no delete epoch is left alone: after a crash the working image
  /// is the media image, so its normalized form is already durable. The
  /// device keeps pending write-backs per thread, so every worker drains
  /// its own before the barrier.
  ///
  /// The scan is defensive against media corruption: every header must
  /// pass the allocator's integrity check (tag over status, class, delete
  /// epoch and offset) and carry epoch stamps inside the sanity horizon
  /// before it is classified; anything else is quarantined — leaked,
  /// never handed to an owner or a free list — and counted in the
  /// returned RecoveryReport. A header whose status bits were zeroed
  /// reads as kFree and is silently skipped, which is the same bounded
  /// data loss (the block was durable, its pair is gone) without the
  /// count.
  template <typename OwnerOf, typename Relink>
  RecoveryReport recover(int owners, OwnerOf&& owner_of, Relink&& relink,
                         int threads) {
    const std::uint64_t t_scan = now_ns();
    const std::uint64_t p = persisted_epoch();
    const std::uint64_t frontier = recovery_frontier(p);
    nvm::Device& dev = pa_.device();
    // An epoch stamp far above the persisted counter cannot have been
    // issued by this heap's clock (post-crash stamps above `p` exist only
    // in the narrow window a fault plan freezes the media, and advance at
    // epoch-length cadence keeps them within thousands of p). The wide
    // slack keeps legitimate stamps clear of the bound by orders of
    // magnitude while still catching high-bit corruption.
    constexpr std::uint64_t kEpochSanitySlack = std::uint64_t{1} << 32;
    const std::uint64_t horizon =
        p > kInvalidEpoch - kEpochSanitySlack ? kInvalidEpoch - 1
                                              : p + kEpochSanitySlack;
    auto epoch_sane = [&](std::uint64_t e) {
      return e == kInvalidEpoch || (e >= kFirstEpoch && e <= horizon);
    };
    assert(owners >= 1);
    threads = std::max(threads, 1);
    std::vector<Padded<RecoveryReport>> parts(threads);
    // found[worker * owners + owner]: the live blocks one worker filed
    // for one owner.
    std::vector<Padded<std::vector<LiveBlock>>> found(
        static_cast<std::size_t>(threads) * owners);
    auto scan = [&](int worker, alloc::BlockHeader* hdr, void* payload) {
      RecoveryReport& rep = parts[worker].value;
      auto write_back = [&] {
        dev.clwb_nontxn(hdr);
        ++rep.headers_persisted;
      };
      ++rep.blocks_scanned;
      if (!pa_.validate_header(hdr)) {
        ++rep.checksum_failures;
        ++rep.blocks_quarantined;
        pa_.quarantine_block(hdr);
        write_back();
        return;
      }
      if (hdr->st() == alloc::BlockStatus::kQuarantined) {
        // Leaked by an earlier recovery; stays out of circulation.
        ++rep.blocks_quarantined;
        return;
      }
      const std::uint64_t created = hdr->create_epoch;
      const std::uint64_t deleted = hdr->delete_epoch();
      if (!epoch_sane(created) || !epoch_sane(deleted)) {
        ++rep.epoch_violations;
        ++rep.blocks_quarantined;
        pa_.quarantine_block(hdr);
        write_back();
        return;
      }
      const bool created_valid =
          created != kInvalidEpoch && created <= frontier;
      const bool alive =
          created_valid &&
          (hdr->st() == alloc::BlockStatus::kAllocated
               ? deleted == kInvalidEpoch || deleted > frontier
               : hdr->st() == alloc::BlockStatus::kDeleted &&
                     deleted > frontier);
      if (!alive) {
        ++rep.blocks_discarded;
        pa_.mark_free(hdr);
        write_back();
        return;
      }
      if (hdr->st() == alloc::BlockStatus::kDeleted) ++rep.blocks_resurrected;
      if (hdr->st() != alloc::BlockStatus::kAllocated ||
          deleted != kInvalidEpoch) {
        // Normalize: the resurrected state must itself be durable, or a
        // later crash could re-kill a block we handed back.
        pa_.set_state(hdr, alloc::BlockStatus::kAllocated, kInvalidEpoch);
        write_back();
      }
      ++rep.blocks_live;
      const int owner = owner_of(payload);
      assert(owner >= 0 && owner < owners);
      found[static_cast<std::size_t>(worker) * owners + owner]
          .value.push_back({payload, created});
    };
    std::uint64_t t_relink = 0;
    std::barrier scanned(threads, [&]() noexcept { t_relink = now_ns(); });
    std::atomic<int> next_owner{0};
    auto relink_owners = [&](int worker) {
      dev.drain();
      scanned.arrive_and_wait();
      // Worker w relinks owner w first, so the placement is fixed (one
      // owner relinks on the calling thread); owners past the worker
      // count are claimed from a cursor.
      for (int o = worker; o < owners;
           o = threads + next_owner.fetch_add(1, std::memory_order_relaxed)) {
        // Worker 0's list moves; the other workers' lists append to it.
        std::vector<LiveBlock> blocks = std::move(found[o].value);
        for (int w = 1; w < threads; ++w) {
          const auto& part =
              found[static_cast<std::size_t>(w) * owners + o].value;
          blocks.insert(blocks.end(), part.begin(), part.end());
        }
        relink(o, std::span<LiveBlock>(blocks));
      }
    };
    pa_.for_each_block(threads, scan, relink_owners);
    RecoveryReport rep{};
    for (const auto& part : parts) rep += part.value;
    rep.superblocks_quarantined = pa_.corrupt_superblock_count();
    rep.scan_ns = t_relink - t_scan;
    rep.relink_ns = now_ns() - t_relink;
    pa_.rebuild_free_lists();
    // Resume strictly after every epoch that may appear on a live block.
    global_epoch_.store(p + 2, std::memory_order_release);
    persist_root();
    last_recovery_ = rep;
    obs::trace_complete(obs::TraceEventType::kRecovery, t_scan,
                        rep.blocks_scanned, rep.blocks_quarantined);
    return rep;
  }

  /// The one-owner case: `live_fn(void* payload, std::uint64_t
  /// create_epoch)` runs on one thread for every live block.
  template <typename Fn>
  RecoveryReport recover(Fn&& live_fn, int threads = 1) {
    return recover(
        1, [](void*) { return 0; },
        [&](int, std::span<LiveBlock> blocks) {
          for (const LiveBlock& b : blocks) live_fn(b.payload, b.create_epoch);
        },
        threads);
  }

  /// Report of the most recent recover() on this instance.
  const RecoveryReport& last_recovery() const { return last_recovery_; }

  std::uint64_t persisted_epoch() const;

  /// A wake-up word rung after every persisted counter. A thread that
  /// waits for durability and for events of its own sleeps on it with
  /// std::atomic::wait, and the producers of those events ring it too
  /// (KVStore's idle workers: a submit rings it). Read the word before
  /// checking persisted_epoch(): a counter persisted after that check
  /// moves the word past the value read, so the wait returns.
  const std::atomic<std::uint32_t>& persist_bell() const {
    return persist_bell_;
  }
  void ring_persist_bell() {
    persist_bell_.fetch_add(1, std::memory_order_release);
    persist_bell_.notify_all();
  }

  /// Wallclock age of the oldest buffered-but-not-yet-durable epoch
  /// (persisted counter p means epochs <= p-2 are durable, so p-1 is the
  /// oldest epoch whose buffered writes could still be lost by a crash:
  /// the active epoch, or the closing one while a transition runs).
  /// This is the paper's buffered-durability staleness bound made
  /// observable: under a healthy advancer it stays within a small
  /// multiple of the epoch length; a growing lag is the first symptom of
  /// a stalled advancer or an overloaded flush pipeline. Sampled by the
  /// stats publisher into the `epoch.persistence_lag_us` gauge; each
  /// transition also records the just-retired epoch's age into the
  /// histogram of the same name.
  std::uint64_t persistence_lag_ns() const {
    const std::uint64_t p = persisted_epoch();
    const std::uint64_t begin =
        epoch_begin_ns_[(p - 1) % 4].load(std::memory_order_relaxed);
    const std::uint64_t now = now_ns();
    return now > begin ? now - begin : 0;
  }

  const EpochStats& stats() const { return stats_; }
  alloc::PAllocator& allocator() { return pa_; }
  nvm::Device& device() { return pa_.device(); }

 private:
  struct TrackedRange {
    void* addr;
    std::uint32_t len;
  };

  // All per-thread state lives here (indexed by thread_id()) rather than
  // in thread_locals so multiple EpochSys instances (tests) don't alias.
  struct ThreadState {
    std::uint64_t op_epoch = kInvalidEpoch;
    bool op_read = false;  // the open envelope is a read envelope
    std::vector<TrackedRange> op_tracked;
    std::vector<void*> op_retired;
    // Ring of per-epoch buffers indexed by epoch % 4. Two slots are live
    // at once: the active epoch's and, during a transition, the closing
    // epoch's, which step 3 steals (see advance_locked()).
    std::vector<TrackedRange> epoch_tracked[4];
    std::vector<void*> epoch_retired[4];
    // Watchdog bookkeeping: ops since the last deadline check, and the
    // per-thread exponential-backoff gate between inline rescue attempts.
    std::uint32_t wd_ops = 0;
    std::uint64_t wd_next_attempt_ns = 0;
    std::uint64_t wd_backoff_ns = 0;
  };

  struct PersistentRoot {
    std::uint64_t magic;
    std::uint64_t persisted_epoch;
    std::uint64_t integrity;  // tag over persisted_epoch; a corrupt root
                              // means the recovery frontier is unknowable,
                              // so attach refuses the heap instead of
                              // trusting a garbage counter
  };
  static constexpr std::uint64_t kRootMagic = 0xbd47a6e0ULL;
  static std::uint64_t root_tag(std::uint64_t persisted) {
    return splitmix64(persisted ^ (kRootMagic << 16) ^ 0x5eedf00dULL);
  }

  /// A maximal run of cache lines to write back (the unit of work the
  /// flusher pool distributes).
  struct LineRun {
    std::size_t first;
    std::size_t count;
  };

  PersistentRoot* root();
  const PersistentRoot* root() const;
  void persist_root();
  ThreadState& tstate() { return tstate_[thread_id()].value; }
  /// Returns the number of tracked ranges handed to the pipeline (the
  /// epoch-advance trace event reports it).
  std::uint64_t flush_stolen_buffers(int nthreads);
  /// Stoppable transition: if `st` is signalled while step 2 waits out a
  /// stalled announced thread, the transition is abandoned so shutdown
  /// cannot hang behind it. e+1 stays published, but e is never flushed
  /// or persisted (a crash recovers to e-1). Only the destructor signals
  /// `st`, so no transition follows an abandoned one.
  void advance(const std::stop_token& st, AdvanceCause cause);
  /// True (after reporting kUnbalancedEpochOp) when the calling thread
  /// has an update operation open, so a transition would wait on it
  /// forever.
  bool waits_on_self(const char* site);
  /// Reports kUnbalancedEpochOp (checked build) or asserts when `ts` has
  /// a read envelope open: no transition waits for a reader, so a write
  /// in one could miss its epoch's flush.
  static void forbid_in_read(const ThreadState& ts, const char* site);
  /// Transition body; caller holds advance_mu_.
  void advance_locked(const std::stop_token& st, AdvanceCause cause);
  /// Background advancer: a transition per epoch length, or earlier on
  /// request_advance().
  void advancer_main(const std::stop_token& st);
  void post_advance_request();
  std::uint64_t watchdog_deadline_ns() const;
  void watchdog_check(ThreadState& ts);

  alloc::PAllocator& pa_;
  std::mutex advance_mu_;
  // Retired blocks awaiting reclamation, one entry per retire epoch in
  // epoch order (an open reader can hold back any number of them), and
  // the emptied vectors kept for reuse; touched only under advance_mu_.
  struct RetiredEpoch {
    std::uint64_t epoch;
    std::vector<void*> blocks;
  };
  std::deque<RetiredEpoch> pending_free_;
  std::vector<std::vector<void*>> spare_free_;
  std::atomic<std::uint64_t> global_epoch_{kFirstEpoch};
  std::atomic<std::uint64_t> epoch_length_us_;
  std::unique_ptr<Padded<std::atomic<std::uint64_t>>[]> announce_;
  std::unique_ptr<Padded<ThreadState>[]> tstate_;

  // ---- Write-back pipeline state (touched only under advance_mu_) ----
  // Recycled spares the per-thread buffers are swapped into at the start
  // of step 3: stealing is O(1) per thread, operation threads get empty
  // buffers with retained capacity back, and the flusher walks memory no
  // operation thread touches. Cleared (not freed) after each transition.
  std::unique_ptr<std::vector<TrackedRange>[]> stolen_tracked_;
  std::unique_ptr<std::vector<void*>[]> stolen_retired_;
  std::vector<LineRun> runs_;  // transition-local work list, recycled
  int flusher_threads_;
  bool coalesce_flushes_;
  std::unique_ptr<FlusherPool> flushers_;  // only when flusher_threads_ > 1

  EpochStats stats_;
  RecoveryReport last_recovery_{};

  // ---- Epoch clock and persistence-lag sampling ----
  // Wallclock publish time of epoch i at slot i % 4; only the active
  // epoch's (the advancer's clock) and the closing epoch's are
  // consulted, and the two spare slots give a lock-free reader two
  // transitions before its slot is reused. Written at each publish
  // (under advance_mu_), read lock-free by the advancer and
  // persistence_lag_ns().
  std::atomic<std::uint64_t> epoch_begin_ns_[4];

  // ---- Advancer watchdog ----
  bool watchdog_enabled_ = false;
  std::uint64_t watchdog_timeout_us_ = 0;  // 0 = auto-scale with epoch length
  std::atomic<std::uint64_t> last_transition_ns_{0};

  // ---- Advancer wake-up ----
  // The advancer sleeps on wake_cv_ until the open epoch's length runs
  // out or a request is pending; while it is stalled, it sleeps until the
  // stall lifts. Both flags change only under wake_mu_, so no wake-up is
  // lost; request_advance() reads advance_requested_ lock-free to skip a
  // pending request.
  bool has_advancer_ = false;
  std::mutex wake_mu_;
  std::condition_variable_any wake_cv_;
  std::atomic<bool> advance_requested_{false};
  std::atomic<bool> advancer_stalled_{false};  // test hook
  alignas(kCacheLineSize) std::atomic<std::uint32_t> persist_bell_{0};

  std::jthread advancer_;  // last member: joins before the rest dies
};

/// Post-crash rebuild of one structure, the single owner of every live
/// block: EpochSys::recover on `threads` workers, then
/// s.relink_recovered(blocks) on one thread. Returns the live count.
template <typename Structure>
std::size_t recover_into(EpochSys& es, Structure& s, int threads) {
  return es
      .recover(
          1, [](void*) { return 0; },
          [&](int, std::span<LiveBlock> blocks) { s.relink_recovered(blocks); },
          threads)
      .blocks_live;
}

}  // namespace bdhtm::epoch
