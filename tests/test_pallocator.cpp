// Tests for the persistent allocator: size classes, header integrity,
// reuse, large spans, heap iteration, free-list rebuild, concurrency.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "alloc/pallocator.hpp"
#include "nvm/device.hpp"

namespace bdhtm {
namespace {

using alloc::BlockHeader;
using alloc::BlockStatus;
using alloc::PAllocator;

nvm::DeviceConfig cfg_mb(std::size_t mb) {
  nvm::DeviceConfig cfg;
  cfg.capacity = mb << 20;
  return cfg;
}

TEST(PAllocator, ClassForSelectsSmallestFit) {
  // stride must fit header (16 B) + payload
  EXPECT_EQ(PAllocator::class_for(1), 0u);
  EXPECT_EQ(PAllocator::class_for(16), 0u);   // 16+16 = 32
  EXPECT_EQ(PAllocator::class_for(17), 1u);   // needs 64
  EXPECT_EQ(PAllocator::class_for(112), 2u);  // 112+16 = 128
  EXPECT_EQ(PAllocator::class_for(113), 3u);
  EXPECT_EQ(PAllocator::class_for(65520), 11u);
  EXPECT_EQ(PAllocator::class_for(65521), PAllocator::kNumClasses);  // large
}

TEST(PAllocator, AllocInitializesHeader) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  void* p = pa.alloc(16);
  ASSERT_NE(p, nullptr);
  BlockHeader* h = PAllocator::header_of(p);
  EXPECT_EQ(h->st(), BlockStatus::kAllocated);
  EXPECT_EQ(h->create_epoch, alloc::kInvalidEpoch);
  EXPECT_EQ(h->delete_epoch(), alloc::kInvalidEpoch);
  EXPECT_EQ(pa.block_bytes(h), 32u);
  EXPECT_EQ(h->size_class(), 0u);
  EXPECT_EQ(PAllocator::payload_of(h), p);
}

TEST(PAllocator, PayloadsAreDistinctAndWritable) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  std::set<void*> seen;
  for (int i = 0; i < 10000; ++i) {
    void* p = pa.alloc(16);
    ASSERT_TRUE(seen.insert(p).second) << "duplicate block";
    std::memset(p, i & 0xff, 16);
    dev.mark_dirty(p, 16);
  }
}

TEST(PAllocator, FreeAndReuse) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  void* p = pa.alloc(16);
  const auto used_before = pa.bytes_in_use();
  pa.free(p);
  EXPECT_EQ(pa.bytes_in_use(), used_before - 32);
  // Same thread's cache serves the block right back.
  void* q = pa.alloc(16);
  EXPECT_EQ(q, p);
  EXPECT_EQ(PAllocator::header_of(q)->st(), BlockStatus::kAllocated);
}

TEST(PAllocator, DifferentClassesDontMix) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  void* small = pa.alloc(16);
  void* big = pa.alloc(200);
  EXPECT_EQ(PAllocator::header_of(small)->size_class(), 0u);
  EXPECT_EQ(PAllocator::header_of(big)->size_class(), 3u);
  pa.free(small);
  void* big2 = pa.alloc(200);  // must not land on the freed small block
  EXPECT_NE(big2, small);
}

TEST(PAllocator, LargeAllocationRoundTrip) {
  nvm::Device dev(cfg_mb(32));
  PAllocator pa(dev);
  const std::size_t big = 1 << 20;  // 1 MiB: spans multiple superblocks
  void* p = pa.alloc(big);
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5a, big);
  dev.mark_dirty(p, big);
  BlockHeader* h = PAllocator::header_of(p);
  EXPECT_EQ(pa.block_bytes(h), sizeof(BlockHeader) + big);
  EXPECT_GE(h->size_class(), PAllocator::kNumClasses);
  pa.free(p);
  void* q = pa.alloc(big);  // reuses the span
  EXPECT_EQ(q, p);
}

TEST(PAllocator, ForEachBlockFindsLiveBlocksOnly) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  std::set<void*> live;
  for (int i = 0; i < 100; ++i) live.insert(pa.alloc(16));
  // free half
  int k = 0;
  for (auto it = live.begin(); it != live.end();) {
    if (++k % 2 == 0) {
      pa.free(*it);
      it = live.erase(it);
    } else {
      ++it;
    }
  }
  std::set<void*> found;
  pa.for_each_block([&](BlockHeader*, void* payload) {
    found.insert(payload);
  });
  EXPECT_EQ(found, live);
}

TEST(PAllocator, ForEachBlockSeesLargeBlocks) {
  nvm::Device dev(cfg_mb(32));
  PAllocator pa(dev);
  void* small = pa.alloc(16);
  void* large = pa.alloc(1 << 20);
  std::set<void*> found;
  pa.for_each_block([&](BlockHeader*, void* p) { found.insert(p); });
  EXPECT_TRUE(found.count(small));
  EXPECT_TRUE(found.count(large));
  EXPECT_EQ(found.size(), 2u);
}

TEST(PAllocator, ParallelWalkVisitsEachBlockOnce) {
  // Large spans between sized superblocks: a worker must claim a span as
  // one unit and never read its interior as superblock headers.
  nvm::Device dev(cfg_mb(32));
  PAllocator pa(dev);
  std::set<void*> live;
  for (int i = 0; i < 20000; ++i) {
    live.insert(pa.alloc(i % 3 == 0 ? 100 : 16));
    if (i % 5000 == 0) live.insert(pa.alloc(1 << 20));
  }
  constexpr int kWorkers = 4;
  std::vector<std::vector<void*>> seen(kWorkers);
  std::vector<int> done(kWorkers, 0);
  pa.for_each_block(
      kWorkers,
      [&](int w, BlockHeader*, void* payload) { seen[w].push_back(payload); },
      [&](int w) { ++done[w]; });
  std::multiset<void*> all;
  for (const auto& v : seen) all.insert(v.begin(), v.end());
  EXPECT_EQ(std::set<void*>(all.begin(), all.end()), live);
  EXPECT_EQ(all.size(), live.size()) << "a block was visited twice";
  EXPECT_EQ(done, std::vector<int>(kWorkers, 1));
}

TEST(PAllocator, ParallelWalkRethrowsAfterEveryWorkerIsDone) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  for (int i = 0; i < 10000; ++i) pa.alloc(16);
  constexpr int kWorkers = 4;
  std::vector<int> done(kWorkers, 0);
  EXPECT_THROW(pa.for_each_block(
                   kWorkers,
                   [](int, BlockHeader*, void*) {
                     throw std::runtime_error("visit failed");
                   },
                   [&](int w) { ++done[w]; }),
               std::runtime_error);
  EXPECT_EQ(done, std::vector<int>(kWorkers, 1));
}

TEST(PAllocator, RebuildFreeListsRecoversFreeBlocks) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  std::vector<void*> blocks;
  for (int i = 0; i < 64; ++i) blocks.push_back(pa.alloc(16));
  for (int i = 0; i < 32; ++i) pa.free(blocks[i]);
  const auto used = pa.bytes_in_use();
  pa.rebuild_free_lists();
  EXPECT_EQ(pa.bytes_in_use(), used);  // accounting reproduced from headers
  // Allocation must never hand out a block whose header says kAllocated.
  const std::set<void*> live(blocks.begin() + 32, blocks.end());
  std::set<void*> fresh;
  for (int i = 0; i < 64; ++i) {
    void* p = pa.alloc(16);
    EXPECT_FALSE(live.count(p)) << "live block handed out after rebuild";
    EXPECT_TRUE(fresh.insert(p).second) << "duplicate block";
  }
}

TEST(PAllocator, AttachModeFindsWatermark) {
  nvm::Device dev(cfg_mb(16));
  auto pa = std::make_unique<PAllocator>(dev);
  for (int i = 0; i < 20000; ++i) pa->alloc(16);  // forces several SBs
  const auto reserved = pa->bytes_reserved();
  pa.reset();
  PAllocator attached(dev, PAllocator::Mode::kAttach);
  EXPECT_EQ(attached.bytes_reserved(), reserved);
}

// Regression: a large multi-superblock span carved LAST has no later
// superblock header after it, and only its FIRST superblock carries
// magic. The attach watermark walk must still cover the whole span —
// a flat magic scan stopped at first_index + 1, which made
// superblock_span() reject the live span as corrupt (losing the durable
// block) and let the next carve hand out superblocks inside its payload.
TEST(PAllocator, TailLargeSpanSurvivesAttach) {
  nvm::Device dev(cfg_mb(32));
  auto pa = std::make_unique<PAllocator>(dev);
  void* small = pa->alloc(16);
  const std::size_t big = 1 << 20;  // spans several superblocks
  void* large = pa->alloc(big);
  for (void* p : {small, large}) {
    BlockHeader* h = PAllocator::header_of(p);
    h->create_epoch = 7;
    dev.mark_dirty(h, sizeof(*h));
    dev.persist_nontxn(h, sizeof(*h));
  }
  std::memset(large, 0x5a, big);
  dev.mark_dirty(large, big);
  dev.persist_nontxn(large, big);
  const auto reserved = pa->bytes_reserved();
  pa.reset();
  dev.simulate_crash();

  PAllocator attached(dev, PAllocator::Mode::kAttach);
  // Watermark covers the span interior, not just its first superblock.
  EXPECT_EQ(attached.bytes_reserved(), reserved);
  EXPECT_EQ(attached.corrupt_superblock_count(), 0u);
  bool found_large = false;
  attached.for_each_block([&](BlockHeader* hdr, void* payload) {
    if (payload != large) return;
    found_large = true;
    EXPECT_TRUE(attached.validate_header(hdr));
    EXPECT_EQ(attached.block_bytes(hdr), sizeof(BlockHeader) + big);
    EXPECT_EQ(*static_cast<std::uint8_t*>(payload), 0x5au);
  });
  EXPECT_TRUE(found_large) << "durable tail span lost by the attach scan";
  // A fresh carve must land beyond the span, never inside its payload.
  attached.rebuild_free_lists();
  auto* fresh = static_cast<std::byte*>(attached.alloc(4000));
  auto* span_begin = static_cast<std::byte*>(large);
  const bool inside = fresh >= span_begin && fresh < span_begin + big;
  EXPECT_FALSE(inside) << "new carve overlapped the live large span";
}

TEST(PAllocator, ExhaustionThrowsBadAlloc) {
  nvm::Device dev(cfg_mb(1));
  PAllocator pa(dev);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100000; ++i) pa.alloc(4000);
      },
      std::bad_alloc);
}

TEST(PAllocator, ConcurrentAllocFreeStress) {
  nvm::Device dev(cfg_mb(64));
  PAllocator pa(dev);
  constexpr int kThreads = 4, kIters = 5000;
  std::atomic<bool> failed{false};
  std::vector<std::thread> ths;
  for (int t = 0; t < kThreads; ++t) {
    ths.emplace_back([&, t] {
      std::vector<void*> mine;
      for (int i = 0; i < kIters; ++i) {
        void* p = pa.alloc(16 + (i % 3) * 40);
        auto* h = PAllocator::header_of(p);
        if (h->st() != BlockStatus::kAllocated) failed.store(true);
        // write a thread-unique tag and verify nobody else got the block
        *static_cast<std::uint64_t*>(p) = (std::uint64_t(t) << 32) | i;
        dev.mark_dirty(p, 8);
        mine.push_back(p);
        if (mine.size() > 64) {
          void* victim = mine.front();
          mine.erase(mine.begin());
          if ((*static_cast<std::uint64_t*>(victim) >> 32) !=
              std::uint64_t(t)) {
            failed.store(true);
          }
          pa.free(victim);
        }
      }
      for (void* p : mine) pa.free(p);
    });
  }
  for (auto& t : ths) t.join();
  EXPECT_FALSE(failed.load());
}

TEST(PAllocator, HeaderSurvivesCrashWhenPersisted) {
  nvm::Device dev(cfg_mb(16));
  PAllocator pa(dev);
  void* p = pa.alloc(16);
  BlockHeader* h = PAllocator::header_of(p);
  h->create_epoch = 5;
  dev.mark_dirty(h, sizeof(*h));
  *static_cast<std::uint64_t*>(p) = 0xabcd;
  dev.mark_dirty(p, 8);
  dev.persist_nontxn(h, sizeof(*h) + 16);
  dev.simulate_crash();
  PAllocator attached(dev, PAllocator::Mode::kAttach);
  int live = 0;
  attached.for_each_block([&](BlockHeader* hdr, void* payload) {
    ++live;
    EXPECT_EQ(hdr->create_epoch, 5u);
    EXPECT_EQ(*static_cast<std::uint64_t*>(payload), 0xabcdu);
  });
  EXPECT_EQ(live, 1);
}

}  // namespace
}  // namespace bdhtm
