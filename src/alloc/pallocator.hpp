// Persistent NVM allocator (Ralloc substitute, DESIGN.md §2).
//
// Segregated size classes (strides 32 B .. 64 KiB) carved from 256 KiB
// superblocks inside an nvm::Device, with per-thread block caches so the
// pNew() fast path is lock-free. Every block carries a self-describing
// 16-byte header (create epoch; packed status, size class, delete epoch
// and integrity tag) — the metadata the epoch system's §5.2 recovery
// scan classifies blocks by. A 16-byte pair takes a 32-byte block, so two
// blocks share a cache line ("line-mates"); the superblock header holds
// the class, and a large span's size, so no block repeats them.
//
// Crash-consistency contract (shared with EpochSys):
//   * Superblock headers are persisted synchronously at carve time, so a
//     block whose epoch has persisted is always reachable by the scan.
//   * Block headers are persisted lazily by the epoch system; a header
//     that never reaches the media leaves the block looking FREE or stale
//     on recovery, which the §5.2 rules resolve (reclaim or resurrect).
//   * free() never needs to persist: it is only legal once the block's
//     DELETED (or invalid-epoch) state is already durable — the epoch
//     system and recovery uphold that ordering.
//   * A line-mate's write-back copies a block's words as they are at that
//     instant, so any mix of a call's old and new header words may reach
//     the media. Every block on a free list or in a thread cache therefore
//     holds kInvalidEpoch in word 0, in the working image: a reused block
//     can never pair its previous create epoch with a fresh kAllocated
//     word 1 (DESIGN.md §5, "Line-mates").
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/defs.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "nvm/device.hpp"

namespace bdhtm::alloc {

inline constexpr std::uint64_t kInvalidEpoch = ~std::uint64_t{0};

enum class BlockStatus : std::uint32_t {
  kFree = 0,       // never used, or reclaimed (matches zero pages)
  kAllocated = 1,  // live (create_epoch may still be kInvalidEpoch)
  kDeleted = 2,    // retired; delete_epoch says when
  kQuarantined = 3,  // header failed a recovery integrity check: the
                     // block is leaked (never free-listed, never handed
                     // to a structure) so corrupt metadata degrades to
                     // bounded data loss instead of a wild pointer
};

/// Self-describing per-block metadata, stored immediately before the
/// payload: two 8-byte words, so payloads keep 16-byte alignment.
///
///   word 0  create_epoch, the full 64 bits: the one header field an
///           operation writes inside a hardware transaction (the
///           Listing 1 stamp).
///   word 1  meta, packed from the low bit up: status (2 bits), size
///           class (4), delete epoch (42; all ones is kInvalidEpoch) and
///           an integrity tag (16). Written only outside transactions,
///           each time with one 8-byte store (PAllocator::set_state).
///
/// The tag covers word 1's other fields and the block's device offset.
/// The create epoch is deliberately NOT covered — it changes inside
/// transactions, where recomputing a tag is impossible — so recovery
/// validates it by range instead (kInvalidEpoch or below the persisted
/// horizon). Read word 1 only through the accessors below.
///
/// Word 1 is read and written concurrently: the thread that linked a
/// block reads its class after commit (pTrack sizes the flush by it)
/// while a thread that unlinked it already stores the retired state
/// (pRetire). Both sides go through relaxed atomic_ref, each one 8-byte
/// load or store: the class bits never change, and every status change
/// is ordered by the epoch protocol, not by this word.
struct BlockHeader {
  static constexpr unsigned kClassShift = 2;
  static constexpr unsigned kDeleteShift = 6;
  static constexpr unsigned kDeleteBits = 42;
  static constexpr unsigned kTagShift = kDeleteShift + kDeleteBits;  // 48
  /// The delete-epoch field's value for kInvalidEpoch; every real delete
  /// epoch is below it (PAllocator::pack_meta checks).
  static constexpr std::uint64_t kNoDelete =
      (std::uint64_t{1} << kDeleteBits) - 1;
  static constexpr std::uint64_t kTagMask = (std::uint64_t{1} << kTagShift) - 1;

  std::uint64_t create_epoch;
  std::uint64_t meta;

  /// Word 1, loaded once.
  std::uint64_t load_meta() const {
    return std::atomic_ref<std::uint64_t>(const_cast<std::uint64_t&>(meta))
        .load(std::memory_order_relaxed);
  }
  void store_meta(std::uint64_t m) {
    std::atomic_ref<std::uint64_t>(meta).store(m, std::memory_order_relaxed);
  }

  BlockStatus st() const {
    return static_cast<BlockStatus>(load_meta() & 3);
  }
  std::size_t size_class() const {
    return (load_meta() >> kClassShift) & 0xf;
  }
  std::uint64_t delete_epoch() const {
    const std::uint64_t d = (load_meta() >> kDeleteShift) & kNoDelete;
    return d == kNoDelete ? kInvalidEpoch : d;
  }
  std::uint64_t tag() const { return load_meta() >> kTagShift; }
};
static_assert(sizeof(BlockHeader) == 16);
static_assert(kCacheLineSize % alignof(std::max_align_t) == 0 &&
              sizeof(BlockHeader) % alignof(std::max_align_t) == 0);

class PAllocator {
 public:
  static constexpr std::size_t kSuperblockSize = 256 * 1024;
  static constexpr std::size_t kNumClasses = 12;  // strides 32 B .. 64 KiB
  static constexpr std::size_t kHeaderReserve = 4096;  // device-front area

  enum class Mode {
    kFormat,  // zero-initialize heap metadata (fresh heap)
    kAttach,  // adopt an existing heap after a crash; caller must then
              // run the epoch-system recovery before allocating
  };

  explicit PAllocator(nvm::Device& dev, Mode mode = Mode::kFormat);

  /// Allocate a block with at least `user_size` payload bytes. The header
  /// is initialized to {kAllocated, kInvalidEpoch, kInvalidEpoch}. Never
  /// legal inside a hardware transaction (it may persist superblock
  /// metadata); asserts in debug builds. When a line holds several blocks
  /// of the class, a bump hands the calling thread all of them, so
  /// line-mates start out with one owner.
  void* alloc(std::size_t user_size);

  /// Return a block to its size-class free list. See the ordering
  /// contract above: the block's durable state must already be dead.
  void free(void* payload);

  static BlockHeader* header_of(void* payload) {
    return reinterpret_cast<BlockHeader*>(static_cast<std::byte*>(payload) -
                                          sizeof(BlockHeader));
  }
  static void* payload_of(BlockHeader* hdr) {
    return reinterpret_cast<std::byte*>(hdr) + sizeof(BlockHeader);
  }

  /// Visit every non-free block on `threads` workers: the caller plus
  /// threads - 1 helpers it spawns and joins. Workers claim superblocks
  /// from a shared cursor over the heap's superblock list (a large span
  /// is one unit), so each block is visited once, by the worker that
  /// claimed its superblock: fn(worker, BlockHeader*, void* payload),
  /// worker in [0, threads). Each worker calls done(worker) on its own
  /// thread after its last block, also when fn threw; the first
  /// exception of either is rethrown after the join. The recovery scan
  /// runs on this, and its relink phase runs in done.
  template <typename Fn, typename Done>
  void for_each_block(int threads, Fn&& fn, Done&& done) {
    std::vector<std::size_t> units;
    for_each_superblock(superblock_watermark(),
                        [&](std::size_t i, std::size_t span) {
                          if (span != 0) units.push_back(i);
                        });
    std::atomic<std::size_t> cursor{0};
    std::mutex error_mu;
    std::exception_ptr error;  // guarded by error_mu
    auto keep_first = [&] {
      std::scoped_lock lk(error_mu);
      if (!error) error = std::current_exception();
    };
    auto work = [&](int worker) {
      try {
        for (;;) {
          const std::size_t u =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (u >= units.size()) break;
          visit_superblock(units[u], [&](BlockHeader* hdr, void* payload) {
            fn(worker, hdr, payload);
          });
        }
      } catch (...) {
        keep_first();
      }
      try {
        done(worker);
      } catch (...) {
        keep_first();
      }
    };
    std::vector<std::thread> helpers;
    for (int w = 1; w < threads; ++w) helpers.emplace_back(work, w);
    work(0);
    for (auto& h : helpers) h.join();
    if (error) std::rethrow_exception(error);
  }

  /// The serial walk, fn(BlockHeader*, void* payload): one worker.
  template <typename Fn>
  void for_each_block(Fn&& fn) {
    for_each_block(
        1, [&](int, BlockHeader* hdr, void* payload) { fn(hdr, payload); },
        [](int) {});
  }

  /// Rebuild all transient free lists from header states. Part of
  /// recovery, after the epoch system has classified blocks. Blocks in
  /// any non-free state (including kQuarantined) are counted as in-use
  /// and never handed out; free ones get kInvalidEpoch in word 0 (the
  /// free-list invariant, see the file comment).
  void rebuild_free_lists();

  // ---- Header word 1 (BlockHeader::meta) ----

  /// Set a block's status and delete epoch, keeping its class, with one
  /// 8-byte store of word 1 and a fresh tag; marks the word dirty. Only
  /// outside transactions: pRetire, abortOp and recovery.
  void set_state(BlockHeader* hdr, BlockStatus status,
                 std::uint64_t delete_epoch) {
    write_meta(hdr, status, hdr->size_class(), delete_epoch);
  }
  /// Mark a dead block kFree with kInvalidEpoch in word 0: free() and the
  /// recovery scan's discard. The block must not be reachable.
  void mark_free(BlockHeader* hdr);

  /// Header plus payload bytes the block spans: its class stride, or a
  /// large span's header plus user size. pTrack flushes this much.
  std::size_t block_bytes(const BlockHeader* hdr) const;

  // ---- Recovery-scan integrity checks ----

  /// 16-bit tag over word 1's status, class and delete epoch
  /// (`fields`, the bits below kTagShift) and the block's device offset.
  /// Content-free on purpose: it detects a header that was torn,
  /// dropped, or bit-flipped on the media, not payload corruption.
  static std::uint64_t header_tag(std::uint64_t fields,
                                  std::uint64_t block_off) {
    constexpr std::uint64_t kTagSalt = 0x8d1f5a2bd47c90e3ULL;
    return splitmix64((fields & BlockHeader::kTagMask) ^
                      splitmix64(block_off ^ kTagSalt)) >>
           BlockHeader::kTagShift;
  }

  /// Full check for a non-free header met during the recovery scan: the
  /// size class matches the containing superblock and the integrity tag
  /// verifies. The create epoch is NOT covered (see BlockHeader) — the
  /// epoch system bounds-checks both epochs separately.
  bool validate_header(const BlockHeader* hdr) const;

  /// Neutralize a block whose header failed validation: the class is
  /// restored from the (validated) superblock header, status becomes
  /// kQuarantined, both epochs become kInvalidEpoch, and a fresh tag is
  /// computed. The block is leaked permanently. Caller persists the
  /// rewritten header (clwb + eventual drain).
  void quarantine_block(BlockHeader* hdr);

  /// Superblocks below the watermark whose header is formatted (magic
  /// matches) but whose geometry fields are insane. Their blocks are
  /// unreachable — the whole superblock is effectively quarantined — and
  /// every scan skips them, so a garbage `span` can never wedge the
  /// recovery walk.
  std::uint64_t corrupt_superblock_count() const;

  /// Payload bytes of live (kAllocated or kDeleted-pending) blocks.
  std::uint64_t bytes_in_use() const {
    return bytes_in_use_.load(std::memory_order_relaxed);
  }
  /// Total NVM footprint including headers and superblock slack.
  std::uint64_t bytes_reserved() const;

  nvm::Device& device() { return dev_; }

  static std::size_t class_for(std::size_t user_size);
  static std::size_t stride_of_class(std::size_t cls);

 private:
  struct SuperblockHeader {
    std::uint64_t magic;
    std::uint64_t size_class;  // kNumClasses == large span
    std::uint64_t span;        // superblocks covered (1 for sized classes)
    std::uint64_t user_size;   // for large spans (block headers hold none)
  };
  static constexpr std::uint64_t kSbMagic = 0xbdbdbdbd5b5b5b5bULL;

  struct ClassState {
    std::mutex mu;
    std::vector<std::uint64_t> free_offsets;  // payload offsets
    std::uint64_t bump_sb = ~std::uint64_t{0};  // active superblock index
    std::uint64_t bump_next = 0;                // next payload offset in it
  };

  struct ThreadCache {
    std::vector<std::uint64_t> free_offsets[kNumClasses];
  };

  std::size_t superblock_watermark() const {
    return next_superblock_.load(std::memory_order_acquire);
  }
  /// Validated span of a formatted superblock: how many superblocks its
  /// header claims to cover, or 0 when the claim is insane (unknown size
  /// class, zero span, span overflowing the device) and the superblock
  /// must be skipped as an opaque unit. The bound is device capacity, NOT
  /// the carve watermark: after a crash the kAttach scan derives the
  /// watermark from headers alone, and only the FIRST superblock of a
  /// large span carries one — a live span at the heap tail must still
  /// validate even though no later carve pushed the watermark past it.
  std::size_t superblock_span(const SuperblockHeader* sb,
                              std::size_t index) const {
    if (sb->size_class > kNumClasses) return 0;
    const auto span = static_cast<std::size_t>(sb->span);
    if (sb->size_class == kNumClasses) {
      return (span == 0 || span > max_superblocks_ - index) ? 0 : span;
    }
    return span == 1 ? 1 : 0;
  }
  /// fn(index, span) for every formatted superblock header below
  /// `limit`, a large span once. span is 0 for an insane header: the
  /// walk steps over it as one opaque superblock, so garbage geometry can
  /// neither misdirect the walk nor (span == 0) stall it.
  template <typename Fn>
  void for_each_superblock(std::size_t limit, Fn&& fn) const {
    for (std::size_t i = 0; i < limit;) {
      const auto* sb = reinterpret_cast<const SuperblockHeader*>(
          dev_.base() + sb_offset(i));
      if (sb->magic != kSbMagic) {  // never persisted (e.g. crash
        ++i;                        // mid-carve): may be a gap
        continue;
      }
      const std::size_t span = superblock_span(sb, i);
      fn(i, span);
      i += span == 0 ? 1 : span;
    }
  }
  /// Visit the non-free blocks of the sane superblock at `index`.
  template <typename Fn>
  void visit_superblock(std::size_t index, Fn&& fn);
  std::uint64_t carve_superblocks(std::size_t count);  // returns sb index
  /// Fill an empty thread cache: a batch from the class free list, or
  /// else every block of the next bump line (one block when a block spans
  /// lines), first block on top.
  void refill(std::size_t cls, std::vector<std::uint64_t>& cache);
  /// `bytes`: what the block adds to bytes_in_use.
  void* init_block(std::uint64_t payload_off, std::size_t cls,
                   std::size_t bytes);
  void* alloc_large(std::size_t user_size);
  void write_meta(BlockHeader* hdr, BlockStatus status, std::size_t cls,
                  std::uint64_t delete_epoch);
  const SuperblockHeader* superblock_of(const BlockHeader* hdr) const {
    const auto block_off = static_cast<std::uint64_t>(
        reinterpret_cast<const std::byte*>(hdr) - dev_.base());
    return reinterpret_cast<const SuperblockHeader*>(
        dev_.base() +
        sb_offset((block_off - kHeaderReserve) / kSuperblockSize));
  }

  std::byte* at(std::uint64_t off) { return dev_.base() + off; }
  std::uint64_t sb_offset(std::uint64_t index) const {
    return kHeaderReserve + index * kSuperblockSize;
  }

  nvm::Device& dev_;
  std::size_t max_superblocks_;
  std::atomic<std::uint64_t> next_superblock_{0};
  ClassState classes_[kNumClasses];
  std::mutex large_mu_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> large_free_;  // {sb index, span}
  std::unique_ptr<Padded<ThreadCache>[]> tcaches_;
  std::atomic<std::uint64_t> bytes_in_use_{0};
};

template <typename Fn>
void PAllocator::visit_superblock(std::size_t index, Fn&& fn) {
  auto* sb = reinterpret_cast<SuperblockHeader*>(at(sb_offset(index)));
  if (sb->size_class >= kNumClasses) {
    // Large span: single block right after the superblock header.
    auto* hdr = reinterpret_cast<BlockHeader*>(
        at(sb_offset(index) + kCacheLineSize));
    if (hdr->st() != BlockStatus::kFree) fn(hdr, payload_of(hdr));
    return;
  }
  const std::size_t stride = stride_of_class(sb->size_class);
  const std::size_t first = sb_offset(index) + kCacheLineSize;
  const std::size_t end = sb_offset(index) + kSuperblockSize;
  for (std::size_t off = first; off + stride <= end; off += stride) {
    auto* hdr = reinterpret_cast<BlockHeader*>(at(off));
    if (hdr->st() != BlockStatus::kFree) fn(hdr, payload_of(hdr));
  }
}

}  // namespace bdhtm::alloc
