// KVStore (DESIGN.md §10): the service front door over the BD-HTM
// structures — sharding, batching, admission control and graceful
// shutdown on top of one shared EpochSys.
//
// Request path: a client thread submits Requests into its own bounded
// SPSC queue (admission control: full queue => Status::kRejected, closed
// store => Status::kClosed, never blocking). Worker threads drain the
// queues they own, group the operations by shard, and execute each
// per-shard group as ONE elided transaction under ONE beginOp/endOp
// envelope (epoch/batch.hpp), amortizing both the HTM and the epoch
// registration cost across the batch. A worker with nothing to run
// sleeps on the epoch system's persist bell: a submit to one of its
// queues, a persisted counter and close() wake it. Results release to
// clients according to the ReleasePolicy:
//   kBuffered - as soon as the batch commits (the paper's §3 buffered
//               guarantee: a crash may roll acknowledged operations back
//               to an epoch-consistent prefix);
//   kDurable  - parked until persisted_epoch >= completion epoch + 2,
//               i.e. acknowledgements imply durability (strict-DL
//               answer-time semantics over the same buffered machinery).
//               The transition that closes the completion epoch flushes
//               it and persists that counter, so one transition releases
//               the request. While a worker holds parked releases it
//               calls EpochSys::request_advance() (group commit): the
//               advancer ends the epoch a tenth of the epoch length after
//               the previous transition instead of at the full length,
//               and that one transition releases every parked request of
//               every worker. The flush stays on the advancer; kBuffered
//               stores never request a transition.
//
// Shutdown (close()) drains: workers finish every queued request, parked
// durable releases are pushed out by advancing the epoch system, workers
// join, and any straggler left in a queue resolves as kRejected — a
// submitted request always resolves, it is never lost.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "obs/metrics.hpp"
#include "svc/queue.hpp"
#include "svc/shard.hpp"

namespace bdhtm::svc {

enum class Status : std::uint8_t {
  kOk = 0,
  kNotFound,     // get/remove on an absent key
  kRejected,     // shed by admission control (queue full / close sweep)
  kClosed,       // submitted after close()
  kUnsupported,  // e.g. scan on the hash backend
  kClientGone,   // ipc: the submitting client process died before the
                 // response could be delivered (slot reclaimed)
};

const char* status_name(Status s);

struct Result {
  Status status = Status::kOk;
  bool applied = false;        // put: newly inserted; remove: removed
  std::uint64_t value = 0;     // get payload
};

/// One in-flight operation. The submitting client owns the storage and
/// must keep it alive until wait() returns; `state` is the cross-thread
/// handoff (C++20 atomic wait, spin-then-park). kWaiting is the parked
/// marker: wait() CASes kQueued->kWaiting before the futex park, and the
/// resolver only pays the notify syscall when it observes it — in the
/// common closed-loop rhythm the batch resolves while the client is
/// still spinning, so the hot path never touches the futex.
struct Request {
  enum : std::uint32_t { kFree = 0, kQueued, kWaiting, kDone };

  epoch::BatchOp op;           // in: kind/key/value, out: ok/out_value
  Status status = Status::kOk;
  std::uint64_t t_submit_ns = 0;
  /// End-to-end span identity (0 = untraced). The IPC server copies the
  /// client's span id and submit stamp out of the wire slot before
  /// submit(); span trace events (req.queue/exec/epoch/ack/durable) are
  /// emitted only for requests that carry one, so in-process callers pay
  /// nothing. t_origin_ns is the CLIENT's CLOCK_MONOTONIC submit stamp —
  /// the same host-wide clock as now_ns(), so queue latency may subtract
  /// them directly; 0 means "origin = t_submit_ns" (in-process path).
  std::uint64_t span_id = 0;
  std::uint64_t t_origin_ns = 0;
  /// Epoch of the envelope the op committed in; the op is durable once
  /// persisted_epoch >= complete_epoch + 2. 0 for rejected requests.
  std::uint64_t complete_epoch = 0;
  std::atomic<std::uint32_t> state{kFree};

  Request() = default;
  // The atomic makes Request non-copyable by default; copying is only
  // used before submission (factories, bench request pools).
  Request(const Request& o)
      : op(o.op),
        status(o.status),
        t_submit_ns(o.t_submit_ns),
        span_id(o.span_id),
        t_origin_ns(o.t_origin_ns),
        complete_epoch(o.complete_epoch),
        state(o.state.load(std::memory_order_relaxed)) {}
  Request& operator=(const Request& o) {
    op = o.op;
    status = o.status;
    t_submit_ns = o.t_submit_ns;
    span_id = o.span_id;
    t_origin_ns = o.t_origin_ns;
    complete_epoch = o.complete_epoch;
    state.store(o.state.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  static Request get(std::uint64_t key) {
    Request r;
    r.op.kind = epoch::BatchOp::Kind::kGet;
    r.op.key = key;
    return r;
  }
  static Request put(std::uint64_t key, std::uint64_t value) {
    Request r;
    r.op.kind = epoch::BatchOp::Kind::kPut;
    r.op.key = key;
    r.op.value = value;
    return r;
  }
  static Request del(std::uint64_t key) {
    Request r;
    r.op.kind = epoch::BatchOp::Kind::kRemove;
    r.op.key = key;
    return r;
  }
};

enum class ReleasePolicy : std::uint8_t { kBuffered, kDurable };

struct KVStoreConfig {
  Backend backend = Backend::kHash;
  int shards = 1;   // rounded up to a power of two
  int workers = 1;  // drainer threads; client c is owned by worker c % workers
  int clients = 1;  // number of submission queues
  std::size_t queue_capacity = 64;  // per client (power of two)
  std::size_t max_batch = 16;       // ops per per-shard transaction
  ReleasePolicy release = ReleasePolicy::kBuffered;
  /// Test hook: leave the drainers unstarted; close() then resolves every
  /// queued request as kRejected (the never-lost shutdown contract).
  bool start_workers = true;
  ShardOptions shard_opt;
};

class KVStore {
 public:
  KVStore(epoch::EpochSys& es, const KVStoreConfig& cfg);
  ~KVStore();

  /// Enqueue on `client`'s queue (one producer thread per client id).
  /// Returns false when admission control resolved the request
  /// immediately (status kRejected or kClosed, state already kDone).
  bool submit(int client, Request* req);
  /// Block until the request resolves.
  void wait(Request* req);
  static Result result_of(const Request& req);

  // Synchronous conveniences: submit + wait (+ admission verdicts).
  Result get(int client, std::uint64_t key);
  Result put(int client, std::uint64_t key, std::uint64_t value);
  Result remove(int client, std::uint64_t key);

  /// Ordered scan: up to max_out pairs with key > start_key, merged
  /// across shards. kUnsupported on unordered backends. Runs on the
  /// calling thread with per-probe envelopes (not batched).
  Status scan(std::uint64_t start_key, std::size_t max_out,
              std::vector<std::pair<std::uint64_t, std::uint64_t>>* out);

  /// Drain-then-advance graceful shutdown; idempotent. Every request
  /// submitted before close() resolves (kDurable parks are flushed by
  /// advancing the epoch system); stragglers resolve kRejected.
  void close();
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  /// Sharded post-crash rebuild: ONE heap scan on `threads` workers that
  /// files each live block under its shard, and a relink in which the
  /// same workers take whole shards, one thread per shard; each shard
  /// rebuilds from an empty index. Call before any submission. Returns
  /// the live block count.
  std::size_t recover(int threads = 1);

  int shards() const { return static_cast<int>(shards_.size()); }
  int shard_of(std::uint64_t key) const {
    // Decorrelated from BD-Spash's bucket hash (also splitmix64 of the
    // key) so a shard does not collapse onto a directory-index subset.
    return static_cast<int>(splitmix64(key ^ kShardSeed) & shard_mask_);
  }
  ShardIndex& shard(int i) { return *shards_[i]; }
  epoch::EpochSys& epoch_sys() { return es_; }
  const KVStoreConfig& config() const { return cfg_; }

  // Per-store totals (obs registry mirrors live under "svc.*").
  std::uint64_t completed_total() const { return completed_.load(); }
  std::uint64_t batches_total() const { return batches_.load(); }
  std::uint64_t restarts_total() const { return restarts_.load(); }
  std::uint64_t shed_total() const { return shed_.load(); }
  std::uint64_t rejected_on_close_total() const {
    return rejected_on_close_.load();
  }
  /// Requests in `client`'s queue that no worker has taken yet (exact on
  /// the client's or its worker's thread, a snapshot elsewhere).
  std::size_t queued(int client) const { return queues_[client]->size(); }

 private:
  static constexpr std::uint64_t kShardSeed = 0x7f4a7c15ca7b9a1dULL;

  struct Parked {
    std::uint64_t release_epoch;  // persisted_epoch needed for release
    std::uint64_t t_exec_ns;      // envelope commit time (epoch-wait leg)
    Request* req;
  };
  struct WorkerCtx {
    std::vector<std::vector<Request*>> by_shard;
    std::vector<epoch::BatchOp> ops;
    std::vector<Request*> reqs;
    std::vector<Parked> parked;
    std::uint64_t next_release = 0;  // lowest release_epoch in parked
  };

  /// Idle passes (each a yield) a worker makes before it sleeps.
  static constexpr int kIdleSpins = 64;

  void worker_main(int w);
  /// Sleep until worker w may have work: a submit to one of its queues,
  /// close(), or a persisted counter that can release a parked request.
  void sleep_until_work(int w, const WorkerCtx& ctx);
  /// Execute reqs[0..m) against shard s in batched envelopes.
  void execute_shard_batch(int s, WorkerCtx& ctx, std::size_t m);
  void resolve(Request* req);
  static void mark_done(Request* req);
  void release_parked(WorkerCtx& ctx, bool force_advance);
  void reject_queue(SpscQueue<Request*>& q);
  void sweep_rejected();

  epoch::EpochSys& es_;
  KVStoreConfig cfg_;
  std::uint64_t shard_mask_;
  std::vector<std::unique_ptr<ShardIndex>> shards_;
  std::vector<std::unique_ptr<SpscQueue<Request*>>> queues_;
  std::vector<std::thread> workers_;
  // Set while worker w sleeps on the epoch system's persist bell; a
  // submit to one of its queues clears it and rings the bell.
  std::unique_ptr<Padded<std::atomic<bool>>[]> asleep_;
  std::atomic<bool> closed_{false};
  bool joined_ = false;
  // Cold-path handshake for submits racing close(): a push that lands
  // after the final sweep is detected by the submitter (seq_cst fences on
  // both sides rule out the store-buffering interleaving where neither
  // the sweeper sees the push nor the submitter sees closed_) and swept
  // by the submitter itself under close_mu_.
  std::mutex close_mu_;
  bool swept_ = false;

  // Per-store counters (monotone; mirrored into the obs registry).
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> rejected_on_close_{0};

  obs::Counter& c_ops_;
  obs::Counter& c_batches_;
  obs::Counter& c_restarts_;
  obs::Counter& c_shed_;
  obs::Counter& c_rejected_closed_;
  obs::Histogram& h_batch_size_;
  obs::Histogram& h_latency_ns_;
  obs::Histogram& h_queue_depth_;
  // Latency decomposition (svc.lat.*): where a request's wall time goes.
  // queue = origin submit -> worker pickup; htm = batched envelope
  // execution (HTM attempts + fallback); epoch_wait = envelope commit ->
  // durable release (kDurable only). The fourth leg, svc.lat.flush_ns,
  // is recorded by the epoch advancer where the flush runs. Ack split:
  // svc.ack.buffered_ns vs svc.ack.durable_ns measure origin -> ack for
  // the two release policies. All sampled once per batch / release
  // sweep, same policy as svc.latency_ns.
  obs::Histogram& h_lat_queue_;
  obs::Histogram& h_lat_htm_;
  obs::Histogram& h_lat_epoch_wait_;
  obs::Histogram& h_ack_buffered_;
  obs::Histogram& h_ack_durable_;
  std::vector<obs::Histogram*> h_shard_depth_;  // per-shard drain backlog
  std::vector<obs::Counter*> c_shard_ops_;
};

}  // namespace bdhtm::svc
