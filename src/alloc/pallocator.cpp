#include "alloc/pallocator.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/checked.hpp"
#include "htm/engine.hpp"

namespace bdhtm::alloc {
namespace {

// Strides (header + payload): 32 B (two blocks per cache line), then
// cache-line multiples 64 B .. 64 KiB.
constexpr std::size_t kStrides[PAllocator::kNumClasses] = {
    32,   64,   128,  256,   512,   1024,
    2048, 4096, 8192, 16384, 32768, 65536};
static_assert(PAllocator::kNumClasses < 16, "size class is a 4-bit field");

// Blocks handed from a class free list to a thread cache per refill. Even,
// so the line-mates of an address-ordered list move together.
constexpr std::size_t kCacheRefill = 32;
// Thread-cache high-water mark before spilling back to the class list.
constexpr std::size_t kCacheSpill = 128;

}  // namespace

std::size_t PAllocator::class_for(std::size_t user_size) {
  const std::size_t need = user_size + sizeof(BlockHeader);
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (need <= kStrides[c]) return c;
  }
  return kNumClasses;  // large
}

std::size_t PAllocator::stride_of_class(std::size_t cls) {
  assert(cls < kNumClasses);
  return kStrides[cls];
}

PAllocator::PAllocator(nvm::Device& dev, Mode mode) : dev_(dev) {
  max_superblocks_ = (dev_.capacity() - kHeaderReserve) / kSuperblockSize;
  tcaches_ = std::make_unique<Padded<ThreadCache>[]>(kMaxThreads);
  if (mode == Mode::kFormat) {
    // Fresh anonymous mappings are already zero; nothing to format. A
    // file-backed device being recycled would need explicit zeroing, which
    // tests do by constructing a fresh Device.
    return;
  }
  // kAttach: rebuild the watermark by walking superblock headers. Only
  // the FIRST superblock of a large span carries a header, so the walk
  // advances by each validated span and the watermark covers span
  // interiors — a flat per-superblock magic scan would leave the
  // watermark mid-span for a live large allocation at the heap tail, and
  // the next carve would hand out superblocks inside its payload.
  // Superblocks with magic but insane geometry advance by 1: they stay
  // carved (out of circulation) and every scan skips them as opaque.
  std::size_t watermark = 0;
  for_each_superblock(max_superblocks_, [&](std::size_t i, std::size_t span) {
    watermark = i + (span == 0 ? 1 : span);
  });
  next_superblock_.store(watermark, std::memory_order_release);
  // Free lists stay empty until rebuild_free_lists(); the epoch-system
  // recovery must classify blocks first.
}

std::uint64_t PAllocator::carve_superblocks(std::size_t count) {
  const std::uint64_t idx =
      next_superblock_.fetch_add(count, std::memory_order_acq_rel);
  if (idx + count > max_superblocks_) {
    throw std::bad_alloc();  // simulated device is full
  }
  return idx;
}

void PAllocator::refill(std::size_t cls, std::vector<std::uint64_t>& cache) {
  ClassState& cs = classes_[cls];
  std::scoped_lock lk(cs.mu);
  if (!cs.free_offsets.empty()) {
    const std::size_t n = std::min(kCacheRefill, cs.free_offsets.size());
    cache.insert(cache.end(), cs.free_offsets.end() - n, cs.free_offsets.end());
    cs.free_offsets.resize(cs.free_offsets.size() - n);
    return;
  }
  const std::size_t stride = kStrides[cls];
  const std::size_t run = std::max(stride, kCacheLineSize);
  if (cs.bump_sb == ~std::uint64_t{0} ||
      cs.bump_next + run > sb_offset(cs.bump_sb) + kSuperblockSize) {
    const std::uint64_t sb = carve_superblocks(1);
    auto* hdr = reinterpret_cast<SuperblockHeader*>(at(sb_offset(sb)));
    hdr->magic = kSbMagic;
    hdr->size_class = cls;
    hdr->span = 1;
    hdr->user_size = 0;
    dev_.mark_dirty(hdr, sizeof(*hdr));
    // The superblock header must be durable before any block carved from
    // it can have a persisted epoch, or recovery's scan would miss it.
    dev_.persist_nontxn(hdr, sizeof(*hdr));
    cs.bump_sb = sb;
    cs.bump_next = sb_offset(sb) + kCacheLineSize;
  }
  // Every block of the line goes to this thread, the first on top. A
  // fresh block's word 0 is a zero page: give it kInvalidEpoch, as every
  // free block holds (the file comment says why).
  const std::uint64_t first = cs.bump_next;
  cs.bump_next += run;
  for (std::uint64_t off = first + run; off > first;) {
    off -= stride;
    reinterpret_cast<BlockHeader*>(at(off))->create_epoch = kInvalidEpoch;
    cache.push_back(off + sizeof(BlockHeader));
  }
}

void PAllocator::write_meta(BlockHeader* hdr, BlockStatus status,
                            std::size_t cls, std::uint64_t delete_epoch) {
  if (delete_epoch != kInvalidEpoch &&
      delete_epoch >= BlockHeader::kNoDelete) {
    std::fprintf(stderr,
                 "bdhtm: delete epoch %llu overflows the header's %u-bit "
                 "field\n",
                 static_cast<unsigned long long>(delete_epoch),
                 BlockHeader::kDeleteBits);
    std::abort();
  }
  const std::uint64_t d =
      delete_epoch == kInvalidEpoch ? BlockHeader::kNoDelete : delete_epoch;
  const std::uint64_t fields = static_cast<std::uint64_t>(status) |
                               std::uint64_t{cls} << BlockHeader::kClassShift |
                               d << BlockHeader::kDeleteShift;
  const auto block_off = static_cast<std::uint64_t>(
      reinterpret_cast<std::byte*>(hdr) - dev_.base());
  hdr->store_meta(fields |
                  header_tag(fields, block_off) << BlockHeader::kTagShift);
  dev_.mark_dirty(&hdr->meta, sizeof(hdr->meta));
}

void PAllocator::mark_free(BlockHeader* hdr) {
  hdr->create_epoch = kInvalidEpoch;
  dev_.mark_dirty(&hdr->create_epoch, sizeof(hdr->create_epoch));
  write_meta(hdr, BlockStatus::kFree, hdr->size_class(), kInvalidEpoch);
}

std::size_t PAllocator::block_bytes(const BlockHeader* hdr) const {
  const std::size_t cls = hdr->size_class();
  if (cls < kNumClasses) return kStrides[cls];
  return sizeof(BlockHeader) + superblock_of(hdr)->user_size;
}

void* PAllocator::init_block(std::uint64_t payload_off, std::size_t cls,
                             std::size_t bytes) {
  void* payload = at(payload_off);
  BlockHeader* hdr = header_of(payload);
  hdr->create_epoch = kInvalidEpoch;
  dev_.mark_dirty(&hdr->create_epoch, sizeof(hdr->create_epoch));
  write_meta(hdr, BlockStatus::kAllocated, cls, kInvalidEpoch);
  bytes_in_use_.fetch_add(bytes, std::memory_order_relaxed);
  return payload;
}

void* PAllocator::alloc(std::size_t user_size) {
  if (htm::in_txn()) {
    checked::violation(checked::Rule::kAllocInTx, "alloc::PAllocator::alloc");
    assert(checked::enabled() &&
           "NVM allocation inside a transaction aborts on real HTM; "
           "preallocate outside (paper Listing 1)");
  }
  const std::size_t cls = class_for(user_size);
  if (cls >= kNumClasses) return alloc_large(user_size);

  auto& cache = tcaches_[thread_id()].value.free_offsets[cls];
  if (cache.empty()) refill(cls, cache);
  const std::uint64_t off = cache.back();
  cache.pop_back();
  return init_block(off, cls, kStrides[cls]);
}

void* PAllocator::alloc_large(std::size_t user_size) {
  const std::size_t need =
      kCacheLineSize /*sb header*/ + sizeof(BlockHeader) + user_size;
  const std::size_t span = (need + kSuperblockSize - 1) / kSuperblockSize;
  std::uint64_t sb = ~std::uint64_t{0};
  {
    std::scoped_lock lk(large_mu_);
    for (auto it = large_free_.begin(); it != large_free_.end(); ++it) {
      if (it->second >= span) {
        sb = it->first;
        large_free_.erase(it);
        break;
      }
    }
  }
  if (sb == ~std::uint64_t{0}) sb = carve_superblocks(span);
  auto* shdr = reinterpret_cast<SuperblockHeader*>(at(sb_offset(sb)));
  shdr->magic = kSbMagic;
  shdr->size_class = kNumClasses;
  shdr->span = span;
  shdr->user_size = user_size;
  dev_.mark_dirty(shdr, sizeof(*shdr));
  dev_.persist_nontxn(shdr, sizeof(*shdr));
  return init_block(sb_offset(sb) + kCacheLineSize + sizeof(BlockHeader),
                    kNumClasses, sizeof(BlockHeader) + user_size);
}

void PAllocator::free(void* payload) {
  BlockHeader* hdr = header_of(payload);
  assert(hdr->st() != BlockStatus::kFree && "double free");
  const std::size_t cls = hdr->size_class();
  mark_free(hdr);

  if (cls >= kNumClasses) {
    const std::uint64_t block_off =
        static_cast<std::uint64_t>(reinterpret_cast<std::byte*>(hdr) -
                                   dev_.base());
    const std::uint64_t sb =
        (block_off - kCacheLineSize - kHeaderReserve) / kSuperblockSize;
    auto* shdr = reinterpret_cast<SuperblockHeader*>(at(sb_offset(sb)));
    bytes_in_use_.fetch_sub(shdr->user_size + sizeof(BlockHeader),
                            std::memory_order_relaxed);
    std::scoped_lock lk(large_mu_);
    large_free_.emplace_back(sb, shdr->span);
    return;
  }

  bytes_in_use_.fetch_sub(kStrides[cls], std::memory_order_relaxed);
  const std::uint64_t payload_off =
      static_cast<std::uint64_t>(static_cast<std::byte*>(payload) -
                                 dev_.base());
  auto& cache = tcaches_[thread_id()].value.free_offsets[cls];
  cache.push_back(payload_off);
  if (cache.size() > kCacheSpill) {
    ClassState& cs = classes_[cls];
    std::scoped_lock lk(cs.mu);
    // Spill the older half back to the shared list.
    cs.free_offsets.insert(cs.free_offsets.end(), cache.begin(),
                           cache.begin() + kCacheSpill / 2);
    cache.erase(cache.begin(), cache.begin() + kCacheSpill / 2);
  }
}

bool PAllocator::validate_header(const BlockHeader* hdr) const {
  const auto block_off = static_cast<std::uint64_t>(
      reinterpret_cast<const std::byte*>(hdr) - dev_.base());
  const std::uint64_t sb_index =
      (block_off - kHeaderReserve) / kSuperblockSize;
  const auto* sb = superblock_of(hdr);
  // The scan only reaches blocks through a validated superblock header,
  // but re-derive the bound so validate_header is safe standalone.
  if (sb->magic != kSbMagic || superblock_span(sb, sb_index) == 0) {
    return false;
  }
  if (hdr->size_class() != sb->size_class) return false;
  return hdr->tag() == header_tag(hdr->load_meta(), block_off);
}

void PAllocator::quarantine_block(BlockHeader* hdr) {
  // The class comes from the superblock header, which carve time
  // persisted and the scan validated — the block header itself is
  // untrustworthy.
  hdr->create_epoch = kInvalidEpoch;
  dev_.mark_dirty(&hdr->create_epoch, sizeof(hdr->create_epoch));
  write_meta(hdr, BlockStatus::kQuarantined, superblock_of(hdr)->size_class,
             kInvalidEpoch);
}

std::uint64_t PAllocator::corrupt_superblock_count() const {
  std::uint64_t corrupt = 0;
  for_each_superblock(superblock_watermark(),
                      [&](std::size_t, std::size_t span) {
                        if (span == 0) ++corrupt;
                      });
  return corrupt;
}

void PAllocator::rebuild_free_lists() {
  for (auto& cs : classes_) {
    std::scoped_lock lk(cs.mu);
    cs.free_offsets.clear();
    cs.bump_sb = ~std::uint64_t{0};
    cs.bump_next = 0;
  }
  {
    std::scoped_lock lk(large_mu_);
    large_free_.clear();
  }
  for (int t = 0; t < kMaxThreads; ++t) {
    for (auto& v : tcaches_[t].value.free_offsets) v.clear();
  }
  bytes_in_use_.store(0, std::memory_order_relaxed);

  // A corrupt superblock header (span 0) keeps its blocks unreachable
  // and its space out of circulation (see corrupt_superblock_count).
  for_each_superblock(superblock_watermark(), [&](std::size_t i,
                                                  std::size_t span) {
    if (span == 0) return;
    auto* sb = reinterpret_cast<SuperblockHeader*>(at(sb_offset(i)));
    if (sb->size_class >= kNumClasses) {
      auto* hdr = reinterpret_cast<BlockHeader*>(
          at(sb_offset(i) + kCacheLineSize));
      if (hdr->st() == BlockStatus::kFree) {
        hdr->create_epoch = kInvalidEpoch;
        std::scoped_lock lk(large_mu_);
        large_free_.emplace_back(i, span);
      } else {
        bytes_in_use_.fetch_add(sb->user_size + sizeof(BlockHeader),
                                std::memory_order_relaxed);
      }
      return;
    }
    const std::size_t stride = kStrides[sb->size_class];
    ClassState& cs = classes_[sb->size_class];
    std::scoped_lock lk(cs.mu);
    for (std::size_t off = sb_offset(i) + kCacheLineSize;
         off + stride <= sb_offset(i) + kSuperblockSize; off += stride) {
      auto* hdr = reinterpret_cast<BlockHeader*>(at(off));
      if (hdr->st() == BlockStatus::kFree) {
        hdr->create_epoch = kInvalidEpoch;
        cs.free_offsets.push_back(off + sizeof(BlockHeader));
      } else {
        bytes_in_use_.fetch_add(stride, std::memory_order_relaxed);
      }
    }
  });
}

std::uint64_t PAllocator::bytes_reserved() const {
  return superblock_watermark() * kSuperblockSize;
}

}  // namespace bdhtm::alloc
