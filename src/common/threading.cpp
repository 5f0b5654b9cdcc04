#include "common/threading.hpp"

#include <atomic>
#include <cassert>
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
  // Bumped once per run() and once at shutdown; idle helpers sleep on it.
  std::atomic<std::uint32_t> generation{0};
  // kOpen while part 0 runs; the low bits count the helper parts inside
  // the job. A helper enters only an open run, and run() closes it in one
  // atomic step, so a helper the host has not scheduled yet can neither
  // join a closed run nor hold up the barrier (no lock stands between).
  static constexpr std::uint32_t kOpen = std::uint32_t{1} << 31;
  std::atomic<std::uint32_t> state{0};
  // The current run, written before it opens. A helper reads them only
  // once inside, and the next run() rewrites them only after every
  // helper has left.
  int active_parties = 0;
  const std::function<void(int)>* job = nullptr;
  std::vector<std::jthread> threads;  // last: joins before state dies

  bool enter() {
    std::uint32_t s = state.load(std::memory_order_relaxed);
    do {
      if ((s & kOpen) == 0) return false;
    } while (!state.compare_exchange_weak(s, s + 1, std::memory_order_acquire,
                                          std::memory_order_relaxed));
    return true;
  }

  void worker(const std::stop_token& st, int helper_index) {
    std::uint32_t seen = 0;
    for (;;) {
      generation.wait(seen, std::memory_order_acquire);
      // Read the generation before the stop flag: the destructor raises
      // the stop before its bump, so a helper that saw the bump sees it.
      seen = generation.load(std::memory_order_acquire);
      if (st.stop_requested()) return;
      if (!enter()) continue;
      // Inside, the run cannot change: the next one opens after we leave.
      seen = generation.load(std::memory_order_relaxed);
      // Helper i executes part i+1 (part 0 runs on the coordinator).
      if (helper_index + 1 < active_parties) (*job)(helper_index + 1);
      if (state.fetch_sub(1, std::memory_order_release) == 1) {
        state.notify_one();  // the last helper out of a closed run
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
  for (auto& t : impl_->threads) t.request_stop();
  impl_->generation.fetch_add(1, std::memory_order_release);
  impl_->generation.notify_all();
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
  Impl& p = *impl_;
  p.job = &job;
  p.active_parties = parties;
  p.state.store(Impl::kOpen, std::memory_order_release);
  p.generation.fetch_add(1, std::memory_order_release);
  p.generation.notify_all();
  job(0);
  // Part 0 returns once the shared cursor is spent: close the run and
  // wait only for the helpers already inside it.
  std::uint32_t inside =
      p.state.fetch_and(~Impl::kOpen, std::memory_order_acquire) &
      ~Impl::kOpen;
  while (inside != 0) {
    p.state.wait(inside, std::memory_order_acquire);
    inside = p.state.load(std::memory_order_acquire);
  }
}

}  // namespace bdhtm
