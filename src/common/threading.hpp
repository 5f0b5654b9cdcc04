// Thread registration: every worker participating in HTM / epoch / NVM
// machinery gets a small dense id in [0, kMaxThreads). Per-thread state in
// those subsystems is an array indexed by this id (cache-line padded),
// mirroring the per-thread announcement arrays of Montage.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

namespace bdhtm {

/// Upper bound on simultaneously registered threads (paper machine: 80 HW
/// threads; we keep headroom for test harnesses).
inline constexpr int kMaxThreads = 128;

/// Dense id of the calling thread; registers it on first call.
int thread_id();

/// Number of ids handed out so far (monotonic; ids are never recycled
/// within a process run — workers are long-lived in all our harnesses).
int max_thread_id_seen();

/// Reset the id counter. Only safe between test cases when all previously
/// registered worker threads have been joined.
void reset_thread_ids_for_testing();

/// Small fixed-size helper pool for fork/join work bursts — built for the
/// epoch advancer's parallel write-back fan-out, usable by any caller with
/// the same shape: one coordinator that occasionally has an embarrassingly
/// parallel batch and must barrier before proceeding.
///
/// `run(parties, job)` invokes `job(0)` on the calling thread and offers
/// parts 1 .. parties-1 to pool threads. The parts claim their work from
/// a cursor the job shares, so the coordinator alone can finish it: once
/// `job(0)` returns, run() waits only for the parts that have started
/// (the barrier the epoch transition's flush-before-counter ordering
/// needs), and a helper that wakes later skips the run. A job must
/// therefore never split its work by part index. `parties` is clamped to
/// `1 + workers()`; with a single party the job runs inline with zero
/// synchronization. Only one run() may be active at a time.
class FlusherPool {
 public:
  /// Spawns `workers` helper threads (0 is valid: run() degenerates to an
  /// inline loop).
  explicit FlusherPool(int workers);
  ~FlusherPool();
  FlusherPool(const FlusherPool&) = delete;
  FlusherPool& operator=(const FlusherPool&) = delete;

  int workers() const;
  void run(int parties, const std::function<void(int)>& job);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace bdhtm
