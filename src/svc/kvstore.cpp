#include "svc/kvstore.hpp"

#include <algorithm>
#include <string>

#include "common/spin.hpp"
#include "obs/trace.hpp"

namespace bdhtm::svc {

namespace {
obs::Registry& reg() { return obs::Registry::global(); }
}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk:
      return "ok";
    case Status::kNotFound:
      return "not_found";
    case Status::kRejected:
      return "rejected";
    case Status::kClosed:
      return "closed";
    case Status::kUnsupported:
      return "unsupported";
    case Status::kClientGone:
      return "client_gone";
  }
  return "?";
}

KVStore::KVStore(epoch::EpochSys& es, const KVStoreConfig& cfg)
    : es_(es),
      cfg_(cfg),
      c_ops_(reg().counter("svc.ops")),
      c_batches_(reg().counter("svc.batches")),
      c_restarts_(reg().counter("svc.envelope_restarts")),
      c_shed_(reg().counter("svc.shed")),
      c_rejected_closed_(reg().counter("svc.rejected_on_close")),
      h_batch_size_(reg().histogram("svc.batch_size")),
      h_latency_ns_(reg().histogram("svc.latency_ns")),
      h_queue_depth_(reg().histogram("svc.queue_depth")),
      h_lat_queue_(reg().histogram("svc.lat.queue_ns")),
      h_lat_htm_(reg().histogram("svc.lat.htm_ns")),
      h_lat_epoch_wait_(reg().histogram("svc.lat.epoch_wait_ns")),
      h_ack_buffered_(reg().histogram("svc.ack.buffered_ns")),
      h_ack_durable_(reg().histogram("svc.ack.durable_ns")) {
  int ns = 1;
  while (ns < cfg_.shards) ns <<= 1;
  cfg_.shards = ns;
  shard_mask_ = static_cast<std::uint64_t>(ns) - 1;
  if (cfg_.clients < 1) cfg_.clients = 1;
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (cfg_.workers > cfg_.clients) cfg_.workers = cfg_.clients;
  if (cfg_.max_batch < 1) cfg_.max_batch = 1;

  for (int s = 0; s < ns; ++s) {
    shards_.push_back(make_shard(cfg_.backend, es_, cfg_.shard_opt));
    const std::string base = "svc.shard" + std::to_string(s);
    h_shard_depth_.push_back(&reg().histogram(base + ".backlog"));
    c_shard_ops_.push_back(&reg().counter(base + ".ops"));
  }
  for (int c = 0; c < cfg_.clients; ++c) {
    queues_.push_back(
        std::make_unique<SpscQueue<Request*>>(cfg_.queue_capacity));
  }
  asleep_ = std::make_unique<Padded<std::atomic<bool>>[]>(
      static_cast<std::size_t>(cfg_.workers));
  if (cfg_.start_workers) {
    for (int w = 0; w < cfg_.workers; ++w) {
      workers_.emplace_back([this, w] { worker_main(w); });
    }
  }
}

KVStore::~KVStore() { close(); }

void KVStore::mark_done(Request* req) {
  // Resolver side of the spin-then-park handshake: the notify syscall is
  // paid only when the waiter already parked (CASed kQueued->kWaiting).
  const std::uint32_t prev =
      req->state.exchange(Request::kDone, std::memory_order_acq_rel);
  if (prev == Request::kWaiting) req->state.notify_all();
}

bool KVStore::submit(int client, Request* req) {
  req->t_submit_ns = now_ns();
  req->complete_epoch = 0;
  req->state.store(Request::kQueued, std::memory_order_relaxed);
  if (closed_.load(std::memory_order_acquire)) {
    req->status = Status::kClosed;
    mark_done(req);
    return false;
  }
  auto& q = *queues_[client];
  if (!q.try_push(req)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    c_shed_.add(1);
    obs::trace_instant(obs::TraceEventType::kSvcShed,
                       static_cast<std::uint64_t>(client), q.capacity());
    req->status = Status::kRejected;
    mark_done(req);
    return false;
  }
  // Dekker handshake with close(): submitter = [push; fence; read
  // closed_], closer = [write closed_; fence; sweep]. The fences make it
  // impossible that the sweep misses this push AND this read misses
  // closed_ — so a push that raced past the final sweep is caught here
  // and swept by the submitter itself (the workers are gone by then, and
  // close_mu_ serializes against close(), so SPSC consumption holds).
  // The same fence pairs with sleep_until_work: either the owning worker
  // sees this push before it sleeps, or this sees it asleep and wakes it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  auto& asleep = asleep_[client % cfg_.workers].value;
  if (asleep.load(std::memory_order_relaxed) &&
      asleep.exchange(false, std::memory_order_relaxed)) {
    es_.ring_persist_bell();
  }
  if (closed_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> g(close_mu_);
    if (swept_) reject_queue(q);
    return req->state.load(std::memory_order_acquire) != Request::kDone;
  }
  return true;
}

void KVStore::wait(Request* req) {
  auto& st = req->state;
  for (int i = 0; i < 256; ++i) {
    if (st.load(std::memory_order_acquire) == Request::kDone) return;
    std::this_thread::yield();
  }
  for (;;) {
    std::uint32_t s = Request::kQueued;
    if (st.compare_exchange_strong(s, Request::kWaiting,
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
      s = Request::kWaiting;
    }
    if (s == Request::kDone) return;
    st.wait(s, std::memory_order_acquire);
  }
}

Result KVStore::result_of(const Request& req) {
  Result r;
  r.status = req.status;
  r.applied = req.op.ok;
  r.value = req.op.out_value;
  return r;
}

Result KVStore::get(int client, std::uint64_t key) {
  Request r = Request::get(key);
  submit(client, &r);
  wait(&r);
  return result_of(r);
}

Result KVStore::put(int client, std::uint64_t key, std::uint64_t value) {
  Request r = Request::put(key, value);
  submit(client, &r);
  wait(&r);
  return result_of(r);
}

Result KVStore::remove(int client, std::uint64_t key) {
  Request r = Request::del(key);
  submit(client, &r);
  wait(&r);
  return result_of(r);
}

Status KVStore::scan(
    std::uint64_t start_key, std::size_t max_out,
    std::vector<std::pair<std::uint64_t, std::uint64_t>>* out) {
  out->clear();
  if (shards_.empty() || !shards_[0]->ordered()) return Status::kUnsupported;
  const int n = shards();
  // K-way merge over per-shard successor cursors.
  std::vector<std::optional<std::pair<std::uint64_t, std::uint64_t>>> cand(
      static_cast<std::size_t>(n));
  for (int s = 0; s < n; ++s) cand[s] = shards_[s]->successor(start_key);
  while (out->size() < max_out) {
    int best = -1;
    for (int s = 0; s < n; ++s) {
      if (cand[s] && (best < 0 || cand[s]->first < cand[best]->first)) {
        best = s;
      }
    }
    if (best < 0) break;
    out->push_back(*cand[best]);
    cand[best] = shards_[best]->successor(cand[best]->first);
  }
  return Status::kOk;
}

void KVStore::resolve(Request* req) {
  using Kind = epoch::BatchOp::Kind;
  switch (req->op.kind) {
    case Kind::kGet:
    case Kind::kRemove:
      req->status = req->op.ok ? Status::kOk : Status::kNotFound;
      break;
    case Kind::kPut:
      req->status = Status::kOk;
      break;
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  if (req->span_id != 0) {
    obs::trace_instant(obs::TraceEventType::kReqAck, req->span_id,
                       static_cast<std::uint64_t>(req->status));
  }
  mark_done(req);
}

void KVStore::execute_shard_batch(int s, WorkerCtx& ctx, std::size_t m) {
  const std::uint64_t t0 = now_ns();
  ctx.ops.resize(m);
  for (std::size_t i = 0; i < m; ++i) ctx.ops[i] = ctx.reqs[i]->op;

  std::size_t envelopes = 0;
  epoch::run_envelope(es_, m, [&](std::size_t first, std::size_t count) {
    ++envelopes;
    // Stamp the segment with its envelope's epoch BEFORE applying: a
    // restart re-stamps only the unapplied suffix, so every request ends
    // up with the exact epoch its effects are stamped with (the recovery
    // oracle and the kDurable release both depend on this).
    const std::uint64_t cur = es_.current_op_epoch();
    for (std::size_t i = first; i < first + count; ++i) {
      ctx.reqs[i]->complete_epoch = cur;
    }
    shards_[static_cast<std::size_t>(s)]->apply_batch(ctx.ops.data() + first,
                                                      count);
  });

  for (std::size_t i = 0; i < m; ++i) {
    ctx.reqs[i]->op.ok = ctx.ops[i].ok;
    ctx.reqs[i]->op.out_value = ctx.ops[i].out_value;
  }
  batches_.fetch_add(1, std::memory_order_relaxed);
  c_batches_.add(1);
  c_ops_.add(m);
  if (envelopes > 1) {
    restarts_.fetch_add(envelopes - 1, std::memory_order_relaxed);
    c_restarts_.add(envelopes - 1);
  }
  h_batch_size_.record(m);
  const std::uint64_t t_end = now_ns();
  // Sampled (one point per batch, the oldest request): per-op records
  // would cost more than the batching saves. Drivers that need exact
  // quantiles time submit->wait themselves.
  h_latency_ns_.record(t_end - ctx.reqs[0]->t_submit_ns);
  // Decomposition legs, sampled at the same once-per-batch cadence. The
  // origin is the client-side submit stamp when the request crossed the
  // IPC boundary with one, else the in-process submit time.
  const std::uint64_t origin = ctx.reqs[0]->t_origin_ns != 0
                                   ? ctx.reqs[0]->t_origin_ns
                                   : ctx.reqs[0]->t_submit_ns;
  if (t0 > origin) h_lat_queue_.record(t0 - origin);
  h_lat_htm_.record(t_end - t0);
  c_shard_ops_[static_cast<std::size_t>(s)]->add(m);
  obs::trace_complete(obs::TraceEventType::kSvcBatch, t0,
                      static_cast<std::uint64_t>(s), m);
  if (obs::tracing_enabled()) {
    for (std::size_t i = 0; i < m; ++i) {
      if (ctx.reqs[i]->span_id == 0) continue;
      // Each traced request shows the envelope window it rode in plus
      // the epoch its effects were stamped with.
      obs::trace_complete(obs::TraceEventType::kReqExec, t0,
                          ctx.reqs[i]->span_id,
                          static_cast<std::uint64_t>(s));
      obs::trace_instant(obs::TraceEventType::kReqEpoch, ctx.reqs[i]->span_id,
                         ctx.reqs[i]->complete_epoch);
    }
  }

  if (cfg_.release == ReleasePolicy::kBuffered) {
    for (std::size_t i = 0; i < m; ++i) resolve(ctx.reqs[i]);
    const std::uint64_t t_ack = now_ns();
    if (t_ack > origin) h_ack_buffered_.record(t_ack - origin);
  } else {
    for (std::size_t i = 0; i < m; ++i) {
      ctx.parked.push_back(
          {ctx.reqs[i]->complete_epoch + 2, t_end, ctx.reqs[i]});
    }
  }
}

void KVStore::release_parked(WorkerCtx& ctx, bool force_advance) {
  while (!ctx.parked.empty()) {
    const std::uint64_t p = es_.persisted_epoch();
    std::size_t kept = 0;
    bool sampled = false;
    ctx.next_release = ~std::uint64_t{0};
    for (auto& pk : ctx.parked) {
      if (p >= pk.release_epoch) {
        if (!sampled) {
          // One sample per sweep (same cadence policy as the batch
          // latencies): how long the commit waited on durability, and
          // the full origin->durable-ack span.
          sampled = true;
          const std::uint64_t now = now_ns();
          if (now > pk.t_exec_ns) {
            h_lat_epoch_wait_.record(now - pk.t_exec_ns);
          }
          const std::uint64_t origin = pk.req->t_origin_ns != 0
                                           ? pk.req->t_origin_ns
                                           : pk.req->t_submit_ns;
          if (now > origin) h_ack_durable_.record(now - origin);
        }
        if (pk.req->span_id != 0) {
          obs::trace_complete(obs::TraceEventType::kReqDurable, pk.t_exec_ns,
                              pk.req->span_id, pk.release_epoch);
        }
        resolve(pk.req);
      } else {
        ctx.next_release = std::min(ctx.next_release, pk.release_epoch);
        ctx.parked[kept++] = pk;
      }
    }
    ctx.parked.resize(kept);
    if (ctx.parked.empty()) return;
    if (!force_advance) {
      // Group commit: a worker holding parked releases (a batch it just
      // parked, or ones this sweep left) asks the advancer to end the
      // epoch early instead of waiting out its timer. Every parked
      // request of every worker rides the same transition, and the flush
      // stays on the advancer. Pending already: one relaxed load.
      es_.request_advance();
      return;
    }
    // Drain-then-advance: at shutdown nobody else may move the epoch
    // forward, so the worker pushes durability out itself.
    es_.advance();
  }
}

void KVStore::sleep_until_work(int w, const WorkerCtx& ctx) {
  // The bell is read first: a persist or a submit that rings it after
  // the checks below moves it past `seen`, so the wait returns at once.
  const std::uint32_t seen = es_.persist_bell().load(std::memory_order_acquire);
  auto& asleep = asleep_[w].value;
  asleep.store(true, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);  // pairs with submit
  bool work = closed_.load(std::memory_order_relaxed) ||
              (!ctx.parked.empty() &&
               es_.persisted_epoch() >= ctx.next_release);
  for (int c = w; !work && c < cfg_.clients; c += cfg_.workers) {
    work = !queues_[c]->empty();
  }
  if (!work) {
    es_.persist_bell().wait(seen, std::memory_order_acquire);
  }
  asleep.store(false, std::memory_order_relaxed);
}

void KVStore::worker_main(int w) {
  WorkerCtx ctx;
  ctx.by_shard.resize(shards_.size());
  int idle = 0;
  for (;;) {
    bool any = false;
    for (int c = w; c < cfg_.clients; c += cfg_.workers) {
      // Depth sampled at drain time (admission pressure as the worker
      // sees it), keeping the submit hot path free of registry traffic.
      const std::size_t depth = queues_[c]->size();
      if (depth > 0) h_queue_depth_.record(depth);
      Request* r = nullptr;
      std::size_t pulled = 0;
      while (pulled < cfg_.max_batch && queues_[c]->try_pop(&r)) {
        ctx.by_shard[static_cast<std::size_t>(shard_of(r->op.key))]
            .push_back(r);
        ++pulled;
      }
      if (pulled > 0) any = true;
    }
    if (any) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        auto& bucket = ctx.by_shard[s];
        if (bucket.empty()) continue;
        h_shard_depth_[s]->record(bucket.size());
        std::size_t off = 0;
        while (off < bucket.size()) {
          const std::size_t m =
              std::min(cfg_.max_batch, bucket.size() - off);
          ctx.reqs.assign(bucket.begin() + static_cast<std::ptrdiff_t>(off),
                          bucket.begin() +
                              static_cast<std::ptrdiff_t>(off + m));
          execute_shard_batch(static_cast<int>(s), ctx, m);
          off += m;
        }
        bucket.clear();
      }
    }
    release_parked(ctx, /*force_advance=*/false);
    if (!any) {
      bool drained = closed_.load(std::memory_order_acquire);
      if (drained) {
        for (int c = w; c < cfg_.clients; c += cfg_.workers) {
          if (!queues_[c]->empty()) {
            drained = false;
            break;
          }
        }
      }
      if (drained) {
        release_parked(ctx, /*force_advance=*/true);
        break;
      }
      // Spin a little, then sleep. A worker that only yields keeps its
      // core busy, so every thread woken on that core (a client, the
      // epoch advancer) waits behind it, or behind whatever the
      // scheduler placed there, for up to a scheduler tick.
      if (++idle < kIdleSpins) {
        std::this_thread::yield();
      } else {
        idle = 0;
        sleep_until_work(w, ctx);
      }
    } else {
      idle = 0;
    }
  }
}

void KVStore::reject_queue(SpscQueue<Request*>& q) {
  Request* r = nullptr;
  while (q.try_pop(&r)) {
    r->status = Status::kRejected;
    rejected_on_close_.fetch_add(1, std::memory_order_relaxed);
    c_rejected_closed_.add(1);
    mark_done(r);
  }
}

void KVStore::sweep_rejected() {
  // Post-join (or never-started-workers) sweep: anything still queued
  // resolves as kRejected — a submitted request is never lost. Callers
  // hold close_mu_.
  for (auto& q : queues_) reject_queue(*q);
}

void KVStore::close() {
  closed_.store(true, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  es_.ring_persist_bell();  // wake sleeping workers to drain and exit
  // Everything after the closed_ publication happens under close_mu_, so
  // a second concurrent close() simply queues behind the first and
  // returns once the drain is complete (idempotent: joined_/swept_ flags
  // make the join and the straggler sweep single-shot). Joining outside
  // the mutex raced two closers into std::thread::join() on the same
  // handles — one of them UB. No deadlock risk: workers never take
  // close_mu_, and submit()'s cold path holds it only briefly to sweep.
  std::lock_guard<std::mutex> g(close_mu_);
  if (!joined_) {
    for (auto& t : workers_) {
      if (t.joinable()) t.join();
    }
    joined_ = true;
  }
  if (!swept_) {
    sweep_rejected();
    swept_ = true;
  }
}

std::size_t KVStore::recover(int threads) {
  return es_
      .recover(
          shards(),
          [this](void* p) {
            return shard_of(static_cast<epoch::KVPair*>(p)->key);
          },
          [this](int s, std::span<epoch::LiveBlock> blocks) {
            shards_[static_cast<std::size_t>(s)]->relink_recovered(blocks);
          },
          threads)
      .blocks_live;
}

}  // namespace bdhtm::svc
