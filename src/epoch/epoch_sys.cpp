#include "epoch/epoch_sys.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <stdexcept>

#include "common/checked.hpp"
#include "common/spin.hpp"

namespace bdhtm::epoch {

namespace {
// An announcement slot holds kIdle or the epoch of the thread's open
// envelope; a read envelope's carries kReaderBit. kIdle has the bit too,
// so "the bit is clear" reads "an update operation is announced".
constexpr std::uint64_t kIdle = ~std::uint64_t{0};
constexpr std::uint64_t kReaderBit = std::uint64_t{1} << 63;

// abortOp files an undone retire in the retired list of its epoch for the
// header's write-back only. The tag bit (payloads are 16-byte aligned)
// keeps such an entry out of reclamation.
void* header_only(void* payload) {
  return reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(payload) |
                                 1);
}
bool is_header_only(const void* p) {
  return (reinterpret_cast<std::uintptr_t>(p) & 1) != 0;
}
void* untagged(void* p) {
  return reinterpret_cast<void*>(reinterpret_cast<std::uintptr_t>(p) &
                                 ~std::uintptr_t{1});
}

int resolve_flusher_threads(int configured) {
  if (configured > 0) return std::min(configured, kMaxThreads);
  const unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(hw, 1u, 4u));
}
}  // namespace

EpochSys::EpochSys(alloc::PAllocator& pa) : EpochSys(pa, Config{}) {}

EpochSys::EpochSys(alloc::PAllocator& pa, const Config& cfg)
    : pa_(pa),
      epoch_length_us_(cfg.epoch_length_us),
      flusher_threads_(resolve_flusher_threads(cfg.flusher_threads)),
      coalesce_flushes_(cfg.coalesce_flushes) {
  announce_ =
      std::make_unique<Padded<std::atomic<std::uint64_t>>[]>(kMaxThreads);
  for (int t = 0; t < kMaxThreads; ++t) {
    announce_[t].value.store(kIdle, std::memory_order_relaxed);
  }
  tstate_ = std::make_unique<Padded<ThreadState>[]>(kMaxThreads);
  stolen_tracked_ = std::make_unique<std::vector<TrackedRange>[]>(kMaxThreads);
  stolen_retired_ = std::make_unique<std::vector<void*>[]>(kMaxThreads);
  if (flusher_threads_ > 1) {
    flushers_ = std::make_unique<FlusherPool>(flusher_threads_ - 1);
  }

  // The persisted-epoch counter line is the device's fault-watch range:
  // kCounterWrite fault plans trigger on its media writes, and random
  // corruption injection spares it by default.
  pa_.device().set_fault_watch(root(), sizeof(PersistentRoot));

  if (cfg.attach) {
    if (root()->magic == 0 && root()->persisted_epoch == 0 &&
        root()->integrity == 0) {
      // All-zero root: the crash hit before the root's first persist ever
      // reached the media. Nothing was durable — recover to an empty,
      // freshly formatted heap (distinct from a *garbage* root below).
      root()->magic = kRootMagic;
      root()->persisted_epoch = kFirstEpoch;
      persist_root();
    } else if (root()->magic != kRootMagic ||
               root()->integrity != root_tag(root()->persisted_epoch)) {
      // A corrupt root means the recovery frontier is unknowable;
      // refusing the heap beats trusting a garbage counter and
      // resurrecting junk.
      throw std::runtime_error(
          "bdhtm: persistent root failed validation; heap unrecoverable");
    }
    // global_epoch_ is set by recover(); park it at the persisted value
    // so current_epoch() is sane in the interim.
    global_epoch_.store(root()->persisted_epoch, std::memory_order_release);
  } else {
    root()->magic = kRootMagic;
    root()->persisted_epoch = kFirstEpoch;
    persist_root();
  }

  watchdog_timeout_us_ = cfg.watchdog_timeout_us;
  watchdog_enabled_ =
      cfg.start_advancer && cfg.watchdog_timeout_us != kWatchdogDisabled;
  const std::uint64_t t_start = now_ns();
  last_transition_ns_.store(t_start, std::memory_order_relaxed);
  for (auto& b : epoch_begin_ns_) b.store(t_start, std::memory_order_relaxed);

  if (cfg.start_advancer) {
    has_advancer_ = true;
    advancer_ = std::jthread([this](std::stop_token st) { advancer_main(st); });
  }
}

void EpochSys::advancer_main(const std::stop_token& st) {
  // The interruptible waits (instead of a bare sleep_for) let
  // request_stop() cut both the inter-epoch sleep and — via the
  // stop-token-aware advance() — a step-2 wait stalled behind an
  // announced thread, so destruction never hangs.
  const auto stalled = [this] {
    return advancer_stalled_.load(std::memory_order_relaxed);
  };
  const auto demanded = [this] {
    return advance_requested_.load(std::memory_order_relaxed);
  };
  const auto at = [](std::uint64_t ns) {
    return std::chrono::steady_clock::time_point(std::chrono::nanoseconds(ns));
  };
  std::unique_lock lk(wake_mu_);
  while (!st.stop_requested()) {
    // Parked by stall_advancer_for_testing: sleep (and keep honouring
    // stop requests) without advancing, exactly like a descheduled or
    // dead advancer as far as workers can tell. Neither a pending request
    // nor an epoch past its length wakes it; lifting the stall does.
    if (stalled()) {
      wake_cv_.wait(lk, st, [&] { return !stalled(); });
      continue;
    }
    // The open epoch ends one epoch length after its publish. The clock
    // counts from the publish stamp, not from the end of the previous
    // transition, so a slow drain or flush does not lengthen the epoch
    // after it.
    const std::uint64_t e = current_epoch();
    const std::uint64_t published =
        epoch_begin_ns_[e % 4].load(std::memory_order_relaxed);
    const std::uint64_t len_ns = epoch_length_us() * 1000;
    const std::uint64_t due = published + len_ns;
    const bool woke = wake_cv_.wait_until(
        lk, st, at(due), [&] { return stalled() || demanded(); });
    if (st.stop_requested()) break;
    // Another thread's transition (advance(), a watchdog rescue) moved
    // the clock: start over from the new epoch's stamp.
    if (stalled() || current_epoch() != e) continue;
    // Early: a request woke the advancer before the epoch length ran out
    // (a request that is pending when the timer fires rides the timer).
    const bool early = woke && now_ns() < due;
    if (early) {
      // Demand cannot end an epoch sooner than a tenth of its length
      // after its publish. The gap caps the transition rate at ten per
      // epoch length (and so the per-transition flush and counter
      // persist) under constant demand, and gives a requester's peers
      // time to park their writes in the epoch being closed.
      const std::uint64_t not_before = published + len_ns / 10;
      if (now_ns() < not_before) {
        wake_cv_.wait_until(lk, st, at(not_before), stalled);
        if (st.stop_requested()) break;
        if (stalled() || current_epoch() != e) continue;
      }
    }
    // Requests posted from here on ask for the transition after this one.
    advance_requested_.store(false, std::memory_order_relaxed);
    lk.unlock();
    advance(st, early ? AdvanceCause::kDemand : AdvanceCause::kTimer);
    lk.lock();
  }
}

void EpochSys::post_advance_request() {
  {
    std::lock_guard lk(wake_mu_);
    if (advance_requested_.load(std::memory_order_relaxed)) return;
    advance_requested_.store(true, std::memory_order_relaxed);
  }
  wake_cv_.notify_one();
}

EpochSys::~EpochSys() {
  if (advancer_.joinable()) {
    advancer_.request_stop();
    advancer_.join();
  }
}

EpochSys::PersistentRoot* EpochSys::root() {
  return reinterpret_cast<PersistentRoot*>(pa_.device().base());
}
const EpochSys::PersistentRoot* EpochSys::root() const {
  return reinterpret_cast<const PersistentRoot*>(pa_.device().base());
}

void EpochSys::persist_root() {
  root()->integrity = root_tag(root()->persisted_epoch);
  pa_.device().mark_dirty(root(), sizeof(PersistentRoot));
  pa_.device().persist_nontxn(root(), sizeof(PersistentRoot));
}

std::uint64_t EpochSys::persisted_epoch() const {
  // The root lives in the mapped device image, so the field is a plain
  // uint64_t (recovery reads it byte-for-byte); at runtime the advancer
  // publishes it concurrently with reader threads polling durable-ack
  // frontiers, so the runtime accesses go through atomic_ref.
  auto* r = const_cast<PersistentRoot*>(root());
  return std::atomic_ref<std::uint64_t>(r->persisted_epoch)
      .load(std::memory_order_acquire);
}

std::uint64_t EpochSys::beginOp(Access access) {
  ThreadState& ts = tstate();
  // Epoch registration announces through seq_cst atomics — an
  // irrevocable side effect a hardware transaction cannot roll back;
  // Listing 1 places beginOp strictly before the transaction.
  if (checked::enabled() && htm::in_txn()) {
    checked::violation(checked::Rule::kIrrevocableInTx,
                       "epoch::EpochSys::beginOp");
  }
  if (ts.op_epoch != kInvalidEpoch) {
    checked::violation(checked::Rule::kUnbalancedEpochOp,
                       "epoch::EpochSys::beginOp (operation already open)");
    assert(checked::enabled() && "beginOp without matching endOp");
  }
  // Watchdog: every 32nd op (before announcing, so an inline rescue
  // never waits on this thread's own announcement) check whether the
  // background advancer has missed its deadline.
  if (watchdog_enabled_ && (++ts.wd_ops & 0x1F) == 0) watchdog_check(ts);
  auto& slot = announce_[thread_id()].value;
  const bool read = access == Access::kRead;
  const std::uint64_t tag = read ? kReaderBit : 0;
  std::uint64_t e;
  for (;;) {
    e = global_epoch_.load(std::memory_order_seq_cst);
    slot.store(e | tag, std::memory_order_seq_cst);
    if (global_epoch_.load(std::memory_order_seq_cst) == e) break;
    slot.store(kIdle, std::memory_order_seq_cst);  // raced with advance()
  }
  ts.op_epoch = e;
  ts.op_read = read;
  ts.op_tracked.clear();
  ts.op_retired.clear();
  checked::pb_begin_op();
  return e;
}

void EpochSys::endOp() {
  ThreadState& ts = tstate();
  if (checked::enabled() && htm::in_txn()) {
    checked::violation(checked::Rule::kIrrevocableInTx,
                       "epoch::EpochSys::endOp");
  }
  if (ts.op_epoch == kInvalidEpoch) {
    checked::violation(checked::Rule::kUnbalancedEpochOp,
                       "epoch::EpochSys::endOp (no operation open)");
    assert(checked::enabled() && "endOp without beginOp");
  }
  // Judgement point for publish-before-persist: pSet/pTrack captures
  // already ran, so any published pointer whose block is still virgin
  // here will never be captured before the epoch can persist it.
  checked::pb_end_op();
  // Only an update operation merges into its epoch's buffers: the
  // transition that steals them waits for it. No transition waits for a
  // read envelope, so it must not touch them.
  if (!ts.op_read) {
    const std::size_t slot_idx = ts.op_epoch % 4;
    auto& tracked = ts.epoch_tracked[slot_idx];
    tracked.insert(tracked.end(), ts.op_tracked.begin(), ts.op_tracked.end());
    auto& retired = ts.epoch_retired[slot_idx];
    retired.insert(retired.end(), ts.op_retired.begin(), ts.op_retired.end());
  }
  ts.op_tracked.clear();
  ts.op_retired.clear();
  ts.op_epoch = kInvalidEpoch;
  ts.op_read = false;
  // The release in this store orders the buffer merges above before the
  // advancer's acquire of the announcement slot.
  announce_[thread_id()].value.store(kIdle, std::memory_order_seq_cst);
}

void EpochSys::abortOp() {
  ThreadState& ts = tstate();
  if (checked::enabled() && htm::in_txn()) {
    checked::violation(checked::Rule::kIrrevocableInTx,
                       "epoch::EpochSys::abortOp");
  }
  if (ts.op_epoch == kInvalidEpoch) {
    checked::violation(checked::Rule::kUnbalancedEpochOp,
                       "epoch::EpochSys::abortOp (no operation open)");
    assert(checked::enabled() && "abortOp without beginOp");
  }
  forbid_in_read(ts, "epoch::EpochSys::abortOp (read envelope)");
  checked::pb_abort_op();
  // Undo retire marks applied by the aborted operation. A line-mate's
  // write-back may have put a mark on the media, where nothing else would
  // overwrite it, so each undone header is written back with the retired
  // headers of the operation's epoch: by the time that epoch is durable,
  // so is the undo.
  auto& retired = ts.epoch_retired[ts.op_epoch % 4];
  for (void* p : ts.op_retired) {
    pa_.set_state(alloc::PAllocator::header_of(p),
                  alloc::BlockStatus::kAllocated, kInvalidEpoch);
    retired.push_back(header_only(p));
  }
  ts.op_tracked.clear();
  ts.op_retired.clear();
  ts.op_epoch = kInvalidEpoch;
  ts.op_read = false;
  announce_[thread_id()].value.store(kIdle, std::memory_order_seq_cst);
}

void EpochSys::forbid_in_read(const ThreadState& ts, const char* site) {
  if (!ts.op_read) return;
  checked::violation(checked::Rule::kUnbalancedEpochOp, site);
  assert(checked::enabled() && "a write inside a read envelope");
}

void* EpochSys::pNew(std::size_t size) {
  // Table 2: pNew preallocates OUTSIDE the transaction (invalid epoch
  // stamp); allocator metadata updates inside a txn would be rolled back
  // on abort while the block leaked, and on real hardware the allocator
  // itself can abort the transaction.
  if (checked::enabled() && htm::in_txn()) {
    checked::violation(checked::Rule::kAllocInTx, "epoch::EpochSys::pNew");
  }
  forbid_in_read(tstate(), "epoch::EpochSys::pNew (read envelope)");
  void* p = pa_.alloc(size);
  if (checked::enabled() && p != nullptr) {
    auto* hdr = alloc::PAllocator::header_of(p);
    checked::pb_register_block(hdr, pa_.block_bytes(hdr));
  }
  return p;
}

void EpochSys::pSet(void* payload, const void* data, std::size_t len,
                    std::size_t offset) {
  if (htm::in_txn()) {
    checked::violation(checked::Rule::kPersistInTx, "epoch::EpochSys::pSet");
    assert(checked::enabled() &&
           "use Txn::store_nvm inside transactions, pTrack after commit");
  }
  ThreadState& ts = tstate();
  forbid_in_read(ts, "epoch::EpochSys::pSet (read envelope)");
  auto* dst = static_cast<std::byte*>(payload) + offset;
  pa_.device().write_bytes(dst, data, len);
  ts.op_tracked.push_back({dst, static_cast<std::uint32_t>(len)});
  if (checked::enabled()) {
    // The destination bytes enter the epoch write-set (capture); the
    // written *values* are durable content — any pointer-sized word
    // among them that aims at a virgin block is a publish.
    checked::pb_capture_range(dst, len);
    const auto* bytes = static_cast<const std::byte*>(data);
    for (std::size_t k = 0; k + sizeof(std::uint64_t) <= len;
         k += sizeof(std::uint64_t)) {
      std::uint64_t word;
      std::memcpy(&word, bytes + k, sizeof(word));
      checked::pb_publish_value(word, "epoch::EpochSys::pSet");
    }
  }
}

void EpochSys::pRetire(void* payload) {
  if (htm::in_txn()) {
    checked::violation(checked::Rule::kRetireBeforeCommit,
                       "epoch::EpochSys::pRetire");
    assert(checked::enabled() &&
           "pRetire persists state; call it after commit");
  }
  ThreadState& ts = tstate();
  assert(ts.op_epoch != kInvalidEpoch && "pRetire outside an operation");
  forbid_in_read(ts, "epoch::EpochSys::pRetire (read envelope)");
  pa_.set_state(alloc::PAllocator::header_of(payload),
                alloc::BlockStatus::kDeleted, ts.op_epoch);
  ts.op_retired.push_back(payload);
  stats_.blocks_retired.fetch_add(1, std::memory_order_relaxed);
}

void EpochSys::pDelete(void* payload) {
  // Immediate reclamation inside a transaction is a use-after-free in
  // waiting: the commit may still fail, but the block is already gone.
  if (checked::enabled() && htm::in_txn()) {
    checked::violation(checked::Rule::kRetireBeforeCommit,
                       "epoch::EpochSys::pDelete");
  }
  checked::pb_release_block(alloc::PAllocator::header_of(payload));
  pa_.free(payload);
}

void EpochSys::pTrack(void* payload) {
  if (htm::in_txn()) {
    checked::violation(checked::Rule::kRetireBeforeCommit,
                       "epoch::EpochSys::pTrack");
    assert(checked::enabled() && "pTrack after commit, not inside the txn");
  }
  ThreadState& ts = tstate();
  assert(ts.op_epoch != kInvalidEpoch && "pTrack outside an operation");
  forbid_in_read(ts, "epoch::EpochSys::pTrack (read envelope)");
  auto* hdr = alloc::PAllocator::header_of(payload);
  const std::size_t bytes = pa_.block_bytes(hdr);
  ts.op_tracked.push_back({hdr, static_cast<std::uint32_t>(bytes)});
  checked::pb_capture_range(hdr, bytes);
}

bool EpochSys::waits_on_self(const char* site) {
  if (!in_op() || tstate().op_read) return false;
  // The transition drains the closing epoch, and the caller's own open
  // update operation is announced there: it would wait on itself
  // forever. A read envelope is not drained.
  checked::violation(checked::Rule::kUnbalancedEpochOp, site);
  assert(checked::enabled() && "advance() with an operation open");
  return true;
}

void EpochSys::advance() {
  if (waits_on_self("epoch::EpochSys::advance (operation open)")) return;
  advance(std::stop_token{}, AdvanceCause::kExplicit);
}

void EpochSys::advance(const std::stop_token& st, AdvanceCause cause) {
  // Transitions are serialized: the background advancer and explicit
  // advance()/persist_all() callers may overlap.
  std::scoped_lock lk(advance_mu_);
  advance_locked(st, cause);
}

std::uint64_t EpochSys::watchdog_deadline_ns() const {
  if (watchdog_timeout_us_ != 0) return watchdog_timeout_us_ * 1000;
  // Auto: generous multiple of the *current* epoch length (it is runtime
  // tunable — fig7's sweeps stretch it to seconds), floored so very
  // short test epochs don't make scheduling jitter look like a stall.
  const std::uint64_t auto_us = epoch_length_us() * 8;
  return std::max<std::uint64_t>(auto_us, 10'000) * 1000;
}

void EpochSys::watchdog_check(ThreadState& ts) {
  const std::uint64_t deadline = watchdog_deadline_ns();
  // Load the stamp BEFORE sampling the clock: a concurrent advance_locked
  // can publish a later stamp, and unsigned `now - last` would wrap into
  // a huge value — a spurious trip. Saturating compare guards the same
  // race on the re-check below.
  std::uint64_t last = last_transition_ns_.load(std::memory_order_relaxed);
  std::uint64_t now = now_ns();
  if (now < last || now - last < deadline) {
    ts.wd_backoff_ns = 0;  // healthy again: reset the rescue backoff
    return;
  }
  // Per-thread bounded exponential backoff between rescue attempts so a
  // fleet of workers doesn't convoy on the transition mutex.
  if (now < ts.wd_next_attempt_ns) return;
  stats_.watchdog_trips.fetch_add(1, std::memory_order_relaxed);
  obs::trace_instant(obs::TraceEventType::kWatchdogTrip, deadline, now - last);
  if (advance_mu_.try_lock()) {
    std::lock_guard lk(advance_mu_, std::adopt_lock);
    // Re-check under the lock: another worker may have just rescued.
    last = last_transition_ns_.load(std::memory_order_relaxed);
    now = now_ns();
    if (now >= last && now - last >= deadline) {
      advance_locked(std::stop_token{}, AdvanceCause::kRescue);
      stats_.inline_advances.fetch_add(1, std::memory_order_relaxed);
      obs::trace_instant(obs::TraceEventType::kInlineAdvance,
                         global_epoch_.load(std::memory_order_relaxed));
    }
  }
  // try_lock failure means a transition (or another rescuer) is already
  // running; either way, back off before this thread looks again.
  ts.wd_backoff_ns = ts.wd_backoff_ns == 0
                         ? deadline / 8 + 1
                         : std::min(ts.wd_backoff_ns * 2, deadline);
  ts.wd_next_attempt_ns = now_ns() + ts.wd_backoff_ns;
}

void EpochSys::advance_locked(const std::stop_token& st,
                              AdvanceCause cause) {
  const std::uint64_t t_begin = now_ns();
  const std::uint64_t e = global_epoch_.load(std::memory_order_seq_cst);

  // (1) Publish e+1. Operations that begin from here on register in it,
  // so the closing epoch e keeps only the operations already announced
  // there (beginOp re-checks the epoch after announcing, so none slips
  // into e behind this store). The new epoch's publish stamp goes first,
  // so whoever reads e+1 reads its stamp: the advancer's clock and the
  // persistence-lag samples count from it.
  epoch_begin_ns_[(e + 1) % 4].store(t_begin, std::memory_order_relaxed);
  global_epoch_.store(e + 1, std::memory_order_seq_cst);

  // (2) Drain: wait until no update operation is announced in an epoch
  // <= e. Read envelopes write nothing to flush and are not waited for
  // (step 5 keeps what they can reach). New operations keep starting in
  // e+1 meanwhile. Bounded exponential backoff instead of a raw yield
  // loop: announced threads need the CPU more than the advancer does,
  // and the stop-token check lets shutdown abandon the transition
  // instead of hanging behind a stalled thread.
  const std::uint64_t t_drain = now_ns();
  const int nthreads = max_thread_id_seen();
  std::uint64_t waited_on = 0;
  for (int t = 0; t < nthreads; ++t) {
    const auto drained = [&, &slot = announce_[t].value] {
      const std::uint64_t a = slot.load(std::memory_order_seq_cst);
      return (a & kReaderBit) != 0 || a > e;
    };
    if (drained()) continue;
    ++waited_on;
    Backoff backoff;
    do {
      if (st.stop_requested()) return;  // abandoned: e is never persisted
      backoff.pause();
    } while (!drained());
  }
  stats_.drain_ns.record(now_ns() - t_drain);
  obs::trace_complete(obs::TraceEventType::kEpochDrain, t_drain, e,
                      waited_on);

  // (3) The write-back pipeline: steal the per-thread buffers of epoch e
  // (O(1) swaps with recycled spares — operation threads get their
  // capacity back and the flusher walks memory no operation thread
  // touches), then coalesce and flush them. Retired blocks are queued
  // for reclamation, one entry for epoch e; their DELETED headers join
  // the same flush (as do abortOp's undone headers, which are not
  // queued).
  const std::size_t slot_idx = e % 4;
  nvm::Device& dev = pa_.device();
  const bool do_flush = buffering_enabled();
  std::vector<void*> retired;
  if (!spare_free_.empty()) {
    retired = std::move(spare_free_.back());
    spare_free_.pop_back();
  }
  for (int t = 0; t < nthreads; ++t) {
    ThreadState& ts = tstate_[t].value;
    ts.epoch_tracked[slot_idx].swap(stolen_tracked_[t]);
    ts.epoch_retired[slot_idx].swap(stolen_retired_[t]);
    for (void* p : stolen_retired_[t]) {
      if (!is_header_only(p)) retired.push_back(p);
    }
  }
  pending_free_.push_back({e, std::move(retired)});
  std::uint64_t flushed_ranges = 0;
  if (do_flush) flushed_ranges = flush_stolen_buffers(nthreads);
  for (int t = 0; t < nthreads; ++t) {
    stolen_tracked_[t].clear();
    stolen_retired_[t].clear();
  }

  // (4) Persist the counter as e+2 (recovery_frontier(e+2) == e): behind
  // the flush barrier, this store is the point at which epoch e becomes
  // durable. The counter is published through atomic_ref because
  // durable-ack pollers read it via persisted_epoch() without taking the
  // advance lock.
  std::atomic_ref<std::uint64_t>(root()->persisted_epoch)
      .store(e + 2, std::memory_order_release);
  if (do_flush) {
    persist_root();
  } else {
    root()->integrity = root_tag(e + 2);
    dev.mark_dirty(root(), sizeof(PersistentRoot));
  }
  ring_persist_bell();

  // Persistence-lag accounting: epoch e just became durable; its age
  // (now - its begin) is one sample of how stale a crash at this instant
  // could have left us.
  {
    const std::uint64_t t_pub = now_ns();
    const std::uint64_t began =
        epoch_begin_ns_[e % 4].load(std::memory_order_relaxed);
    const std::uint64_t lag_us = t_pub > began ? (t_pub - began) / 1000 : 0;
    static auto& lag_hist =
        obs::Registry::global().histogram("epoch.persistence_lag_us");
    static auto& lag_gauge =
        obs::Registry::global().gauge("epoch.persistence_lag_us");
    lag_hist.record(lag_us);
    lag_gauge.set(static_cast<std::int64_t>(lag_us));
  }

  // (5) Reclaim the blocks retired in each epoch x <= e-1 that no open
  // reader can reach. Their DELETED headers are durable (flushed when the
  // transition that closed x ran), the persisted counter proves recovery
  // will not resurrect them, AND no running operation can still hold a
  // reference: an op could only have found a block that was reachable
  // when the op began, and the unlinking op ran in x (while the global
  // epoch was x or x+1). Every update op overlapping it ran in an epoch
  // <= x+1 <= e, and step (2) of this or an earlier transition waited for
  // those. Readers are not drained, so x also waits until no reader is
  // announced at or below x+1; one in x+2 or later began after the
  // unlink. A reader that announces after this scan gets e+1 or later
  // (beginOp re-checks the epoch). Blocks retired in e wait for the next
  // transition: an op of e+1 may have begun before their unlink. This
  // delay is what makes the epoch system double as safe memory
  // reclamation (Montage's design).
  std::uint64_t oldest_reader = kIdle;
  for (int t = 0; t < nthreads; ++t) {
    const std::uint64_t a = announce_[t].value.load(std::memory_order_seq_cst);
    if (a != kIdle && (a & kReaderBit) != 0) {
      oldest_reader = std::min(oldest_reader, a & ~kReaderBit);
    }
  }
  // The entry for e stays queued, so the loop never empties the queue.
  while (pending_free_.front().epoch < e &&
         pending_free_.front().epoch + 1 < oldest_reader) {
    std::vector<void*>& to_free = pending_free_.front().blocks;
    for (void* p : to_free) {
      checked::pb_release_block(alloc::PAllocator::header_of(p));
      pa_.free(p);
      stats_.blocks_reclaimed.fetch_add(1, std::memory_order_relaxed);
    }
    to_free.clear();
    spare_free_.push_back(std::move(to_free));
    pending_free_.pop_front();
  }
  stats_.epochs_advanced.fetch_add(1, std::memory_order_relaxed);
  if (cause == AdvanceCause::kDemand) {
    static auto& demand_counter =
        obs::Registry::global().counter("epoch.demand_advances");
    stats_.demand_advances.fetch_add(1, std::memory_order_relaxed);
    demand_counter.add(1);
  }

  // Transition-latency distribution (EXPERIMENTS.md reports quantiles).
  stats_.advance_ns.record(now_ns() - t_begin);
  obs::trace_complete(obs::TraceEventType::kEpochAdvance, t_begin, e + 1,
                      flushed_ranges, static_cast<std::uint32_t>(cause));
  // Feed the watchdog only on *completed* transitions (the early return
  // above skips this, so an advancer wedged in step 2 still counts as
  // stalled).
  last_transition_ns_.store(now_ns(), std::memory_order_relaxed);
}

std::uint64_t EpochSys::flush_stolen_buffers(int nthreads) {
  // Convert every stolen range (and every retired block's header) to a
  // run of cache lines. Tracked ranges are flushed unconditionally: they
  // may have been written through the HTM engine's commit path, which
  // does not always mark lines dirty at byte granularity.
  nvm::Device& dev = pa_.device();
  const std::uint64_t t_flush = now_ns();
  runs_.clear();
  std::uint64_t raw_lines = 0;
  std::uint64_t n_ranges = 0;
  auto add_range = [&](const void* addr, std::size_t len) {
    const std::size_t first = dev.line_index(addr);
    const std::size_t last =
        dev.line_index(static_cast<const std::byte*>(addr) + len - 1);
    runs_.push_back({first, last - first + 1});
    raw_lines += last - first + 1;
  };
  for (int t = 0; t < nthreads; ++t) {
    for (const TrackedRange& r : stolen_tracked_[t]) {
      add_range(r.addr, r.len);
      ++n_ranges;
    }
    for (void* p : stolen_retired_[t]) {
      auto* hdr = alloc::PAllocator::header_of(untagged(p));
      add_range(hdr, sizeof(*hdr));
    }
  }
  if (runs_.empty()) {
    dev.drain();
    return n_ranges;
  }

  // Coalesce to cache-line granularity: sort and merge duplicate,
  // overlapping, and adjacent runs into maximal disjoint runs, so a line
  // written by N operations in the epoch is flushed once and contiguous
  // lines become a single bulk media write (which the device further
  // coalesces into XPLine-granularity accesses).
  std::uint64_t flush_lines = raw_lines;
  if (coalesce_flushes_) {
    std::sort(runs_.begin(), runs_.end(),
              [](const LineRun& a, const LineRun& b) {
                return a.first < b.first;
              });
    std::size_t out = 0;
    for (std::size_t i = 1; i < runs_.size(); ++i) {
      LineRun& cur = runs_[out];
      const LineRun& nxt = runs_[i];
      if (nxt.first <= cur.first + cur.count) {  // overlap or adjacency
        cur.count = std::max(cur.count, nxt.first + nxt.count - cur.first);
      } else {
        runs_[++out] = nxt;
      }
    }
    runs_.resize(out + 1);
    flush_lines = 0;
    for (const LineRun& r : runs_) flush_lines += r.count;
  }

  // Fan the merged runs out across the flusher pool (runs are disjoint,
  // so flushers never write the same media line). Each part claims runs
  // from a shared cursor, so a helper the host has not scheduled yet
  // leaves its share to the parts that run. run() returns once the
  // cursor is spent and every part that started has finished: nothing
  // after this point can precede a flush, which is the step-3 -> step-4
  // ordering the BDL guarantee rests on.
  const int parties = std::min<std::size_t>(
      flushers_ ? flusher_threads_ : 1, runs_.size());
  if (parties <= 1) {
    const std::uint64_t t_batch = now_ns();
    for (const LineRun& r : runs_) {
      dev.flush_line_run_to_media(r.first, r.count);
    }
    obs::trace_complete(obs::TraceEventType::kFlusherBatch, t_batch, 0,
                        runs_.size());
  } else {
    std::atomic<std::size_t> next{0};
    flushers_->run(parties, [&](int part) {
      // Batch events land in each flusher thread's own ring — the trace
      // shows the fan-out as parallel spans on distinct track rows.
      const std::uint64_t t_batch = now_ns();
      std::uint64_t handled = 0;
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < runs_.size(); i = next.fetch_add(1, std::memory_order_relaxed)) {
        dev.flush_line_run_to_media(runs_[i].first, runs_[i].count);
        ++handled;
      }
      obs::trace_complete(obs::TraceEventType::kFlusherBatch, t_batch,
                          static_cast<std::uint64_t>(part), handled);
    });
  }
  dev.drain();

  stats_.ranges_flushed.fetch_add(n_ranges, std::memory_order_relaxed);
  stats_.lines_flushed.fetch_add(flush_lines, std::memory_order_relaxed);
  stats_.bytes_flushed.fetch_add(flush_lines * kCacheLineSize,
                                 std::memory_order_relaxed);
  stats_.lines_deduped.fetch_add(raw_lines - flush_lines,
                                 std::memory_order_relaxed);
  const std::uint64_t flush_took = now_ns() - t_flush;
  stats_.flush_ns.record(flush_took);
  // The service-facing latency-decomposition family (svc.lat.*) needs
  // the flush leg too; it physically happens here, on the advancer, so
  // mirror it into the global registry alongside the per-instance stat.
  static auto& svc_flush_hist =
      obs::Registry::global().histogram("svc.lat.flush_ns");
  svc_flush_hist.record(flush_took);
  obs::trace_complete(obs::TraceEventType::kEpochFlush, t_flush, runs_.size(),
                      flush_lines);
  return n_ranges;
}

void EpochSys::persist_all() {
  if (waits_on_self("epoch::EpochSys::persist_all (operation open)")) return;
  // The first transition flushes the active epoch's writes (everything
  // older is durable already); the second reclaims the blocks retired in
  // it.
  advance();
  advance();
}

}  // namespace bdhtm::epoch
