#include "common/threading.hpp"

#include <atomic>
#include <cassert>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace bdhtm {
namespace {

std::atomic<int> g_next_id{0};
std::atomic<std::uint64_t> g_generation{0};

struct ThreadSlot {
  int id = -1;
  std::uint64_t generation = ~0ull;
};
thread_local ThreadSlot t_slot;

}  // namespace

int thread_id() {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  if (t_slot.id < 0 || t_slot.generation != gen) {
    t_slot.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    t_slot.generation = gen;
    assert(t_slot.id < kMaxThreads && "raise kMaxThreads");
  }
  return t_slot.id;
}

int max_thread_id_seen() { return g_next_id.load(std::memory_order_relaxed); }

void reset_thread_ids_for_testing() {
  g_next_id.store(0, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_release);
}

struct FlusherPool::Impl {
  std::mutex mu;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;       // bumped once per run()
  int active_parties = 0;             // parties of the current run
  int outstanding = 0;                // helper parts not yet finished
  const std::function<void(int)>* job = nullptr;
  std::vector<std::jthread> threads;  // last: joins before state dies

  void worker(std::stop_token st, int helper_index) {
    std::uint64_t seen = 0;
    std::unique_lock lk(mu);
    for (;;) {
      work_cv.wait(lk, [&] {
        return st.stop_requested() || generation != seen;
      });
      if (st.stop_requested()) return;
      seen = generation;
      // Helper i executes part i+1 (part 0 runs on the coordinator).
      if (helper_index + 1 < active_parties) {
        const auto* fn = job;
        lk.unlock();
        (*fn)(helper_index + 1);
        lk.lock();
        if (--outstanding == 0) done_cv.notify_all();
      }
    }
  }
};

FlusherPool::FlusherPool(int workers) : impl_(std::make_unique<Impl>()) {
  assert(workers >= 0);
  impl_->threads.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    impl_->threads.emplace_back(
        [impl = impl_.get(), i](std::stop_token st) { impl->worker(st, i); });
  }
}

FlusherPool::~FlusherPool() {
  {
    // Raise the stop under mu: a helper holds mu from its predicate
    // check until it sleeps, so a stop (and its wakeup) raised in that
    // window without mu would be lost and the join below would hang.
    std::scoped_lock lk(impl_->mu);
    for (auto& t : impl_->threads) t.request_stop();
  }
  impl_->work_cv.notify_all();
  // jthread destructors join.
}

int FlusherPool::workers() const {
  return static_cast<int>(impl_->threads.size());
}

void FlusherPool::run(int parties, const std::function<void(int)>& job) {
  assert(parties >= 1);
  parties = std::min(parties, 1 + workers());
  if (parties <= 1) {
    job(0);
    return;
  }
  {
    std::scoped_lock lk(impl_->mu);
    impl_->job = &job;
    impl_->active_parties = parties;
    impl_->outstanding = parties - 1;
    ++impl_->generation;
  }
  impl_->work_cv.notify_all();
  job(0);
  std::unique_lock lk(impl_->mu);
  impl_->done_cv.wait(lk, [&] { return impl_->outstanding == 0; });
  impl_->job = nullptr;
}

}  // namespace bdhtm
