// van Emde Boas tree core (Khalaji et al. [28]; paper §4.1).
//
// Doubly-logarithmic ordered set over a universe of 2^ubits keys, with one
// 64-bit "slot" of satellite data per key. The transient tree (HTM-vEB)
// stores values directly in slots; the buffered-durable tree (PHTM-vEB)
// stores pointers to NVM KV blocks.
//
// Structure (CLRS layout):
//   - internal node: min/max keys, the min's slot (the minimum is NOT
//     stored recursively; the maximum IS mirrored in its cluster),
//     a summary tree over non-empty clusters, and 2^hi cluster pointers;
//   - leaf (ubits <= 6): a bitmap plus a slot array.
//
// All mutable fields are accessed through an Acc (htm/access.hpp), so the
// same algorithm runs inside one hardware transaction per operation or on
// the global-lock fallback path. Nodes are allocated from a per-tree
// arena, initialized privately, and published with a single transactional
// pointer store; they are never freed before the tree dies (clusters are
// retained when emptied, as in the original implementation).
//
// Concurrency contract: every public method must be called inside one
// transaction (or under the fallback lock); the tree provides no internal
// synchronization of its own — that is the entire point of the HTM
// design.
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/defs.hpp"
#include "common/threading.hpp"

namespace bdhtm::veb {

inline constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

/// Bump arena for tree nodes: per-thread chunks so concurrent inserts do
/// not contend, with byte accounting for the Table 3 space study.
class NodeArena {
 public:
  static constexpr std::size_t kChunkSize = 1 << 20;

  void* alloc(std::size_t n) {
    n = round_up_pow2(n, 16);
    auto& ts = per_thread_[thread_id()].value;
    if (n > ts.left) {
      refill(ts, std::max(n, kChunkSize));
    }
    void* out = ts.cur;
    ts.cur += n;
    ts.left -= n;
    bytes_.fetch_add(n, std::memory_order_relaxed);
    return out;
  }

  std::uint64_t bytes_allocated() const {
    return bytes_.load(std::memory_order_relaxed);
  }

 private:
  struct TState {
    std::byte* cur = nullptr;
    std::size_t left = 0;
  };

  void refill(TState& ts, std::size_t n) {
    auto chunk = std::make_unique<std::byte[]>(n);
    ts.cur = chunk.get();
    ts.left = n;
    std::scoped_lock lk(mu_);
    chunks_.push_back(std::move(chunk));
  }

  std::unique_ptr<Padded<TState>[]> per_thread_ =
      std::make_unique<Padded<TState>[]>(kMaxThreads);
  std::mutex mu_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::atomic<std::uint64_t> bytes_{0};
};

class VebCore {
 public:
  explicit VebCore(int ubits) : ubits_(ubits) {
    assert(ubits >= 1 && ubits <= 48);
    root_ = make_node(ubits_);
  }

  int ubits() const { return ubits_; }
  std::uint64_t universe() const { return std::uint64_t{1} << ubits_; }
  std::uint64_t dram_bytes() const { return arena_.bytes_allocated(); }

  /// Address of the key's slot, or nullptr if absent.
  template <typename Acc>
  std::uint64_t* slot_addr(Acc& acc, std::uint64_t key) {
    return slot_addr_rec(acc, root_, ubits_, key);
  }

  /// Insert `key` (must be absent) with the given slot.
  template <typename Acc>
  void insert_new(Acc& acc, std::uint64_t key, std::uint64_t slot) {
    insert_rec(acc, root_, ubits_, key, slot);
  }

  /// Remove `key` (must be present); returns its slot.
  template <typename Acc>
  std::uint64_t remove_existing(Acc& acc, std::uint64_t key) {
    return remove_rec(acc, root_, ubits_, key);
  }

  /// Smallest (key, slot) strictly greater than `key`, if any.
  template <typename Acc>
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      Acc& acc, std::uint64_t key) {
    return succ_rec(acc, root_, ubits_, key);
  }

  /// Smallest key overall (for iteration / audits).
  template <typename Acc>
  std::optional<std::pair<std::uint64_t, std::uint64_t>> minimum(Acc& acc) {
    if (node_empty(acc, root_, ubits_)) return std::nullopt;
    return std::pair{node_min_key(acc, root_, ubits_),
                     node_min_slot(acc, root_, ubits_)};
  }

 private:
  // ---- Layouts ----
  // Children/summary pointers are stored as std::uint64_t so they can be
  // read and written through the accessor uniformly.

  struct Inner {  // ubits > 6
    std::uint64_t min_key;
    std::uint64_t min_slot;
    std::uint64_t max_key;
    std::uint64_t summary;     // node pointer (universe 2^hi)
    std::uint64_t children[];  // 2^hi node pointers (universe 2^lo)
  };

  struct Leaf {  // ubits <= 6
    std::uint64_t bitmap;
    std::uint64_t slots[];  // 2^ubits entries
  };

  static constexpr bool is_leaf_level(int ubits) { return ubits <= 6; }
  static constexpr int lo_bits(int ubits) { return ubits / 2; }
  static constexpr int hi_bits(int ubits) { return ubits - ubits / 2; }
  static constexpr std::uint64_t hi_of(std::uint64_t k, int ubits) {
    return k >> lo_bits(ubits);
  }
  static constexpr std::uint64_t lo_of(std::uint64_t k, int ubits) {
    return k & ((std::uint64_t{1} << lo_bits(ubits)) - 1);
  }

  void* make_node(int ubits) {
    if (is_leaf_level(ubits)) {
      const std::size_t n =
          sizeof(Leaf) + (std::size_t{1} << ubits) * sizeof(std::uint64_t);
      auto* l = static_cast<Leaf*>(arena_.alloc(n));
      std::memset(l, 0, n);
      return l;
    }
    const std::size_t fanout = std::size_t{1} << hi_bits(ubits);
    const std::size_t n = sizeof(Inner) + fanout * sizeof(std::uint64_t);
    auto* node = static_cast<Inner*>(arena_.alloc(n));
    std::memset(node, 0, n);
    node->min_key = kEmptyKey;
    node->max_key = kEmptyKey;
    return node;
  }

  // ---- Generic node helpers (dispatch on level) ----

  template <typename Acc>
  bool node_empty(Acc& acc, void* n, int ubits) {
    if (is_leaf_level(ubits)) {
      return acc.load(&static_cast<Leaf*>(n)->bitmap) == 0;
    }
    return acc.load(&static_cast<Inner*>(n)->min_key) == kEmptyKey;
  }

  template <typename Acc>
  std::uint64_t node_min_key(Acc& acc, void* n, int ubits) {
    if (is_leaf_level(ubits)) {
      const std::uint64_t bm = acc.load(&static_cast<Leaf*>(n)->bitmap);
      assert(bm != 0);
      return static_cast<std::uint64_t>(__builtin_ctzll(bm));
    }
    return acc.load(&static_cast<Inner*>(n)->min_key);
  }

  template <typename Acc>
  std::uint64_t node_min_slot(Acc& acc, void* n, int ubits) {
    if (is_leaf_level(ubits)) {
      auto* l = static_cast<Leaf*>(n);
      const std::uint64_t bm = acc.load(&l->bitmap);
      return acc.load(&l->slots[__builtin_ctzll(bm)]);
    }
    return acc.load(&static_cast<Inner*>(n)->min_slot);
  }

  template <typename Acc>
  std::uint64_t node_max_key(Acc& acc, void* n, int ubits) {
    if (is_leaf_level(ubits)) {
      const std::uint64_t bm = acc.load(&static_cast<Leaf*>(n)->bitmap);
      assert(bm != 0);
      return static_cast<std::uint64_t>(63 - __builtin_clzll(bm));
    }
    return acc.load(&static_cast<Inner*>(n)->max_key);
  }

  // ---- slot_addr ----

  template <typename Acc>
  std::uint64_t* slot_addr_rec(Acc& acc, void* n, int ubits,
                               std::uint64_t key) {
    if (is_leaf_level(ubits)) {
      auto* l = static_cast<Leaf*>(n);
      const std::uint64_t bm = acc.load(&l->bitmap);
      if ((bm >> key) & 1) return &l->slots[key];
      return nullptr;
    }
    auto* in = static_cast<Inner*>(n);
    const std::uint64_t mn = acc.load(&in->min_key);
    if (mn == kEmptyKey || key < mn) return nullptr;
    if (key == mn) return &in->min_slot;
    const std::uint64_t child =
        acc.load(&in->children[hi_of(key, ubits)]);
    if (child == 0) return nullptr;
    return slot_addr_rec(acc, reinterpret_cast<void*>(child),
                         lo_bits(ubits), lo_of(key, ubits));
  }

  // ---- insert ----

  template <typename Acc>
  void insert_rec(Acc& acc, void* n, int ubits, std::uint64_t key,
                  std::uint64_t slot) {
    if (is_leaf_level(ubits)) {
      auto* l = static_cast<Leaf*>(n);
      const std::uint64_t bm = acc.load(&l->bitmap);
      assert(((bm >> key) & 1) == 0 && "insert_new of present key");
      acc.store(&l->bitmap, bm | (std::uint64_t{1} << key));
      acc.store(&l->slots[key], slot);
      return;
    }
    auto* in = static_cast<Inner*>(n);
    std::uint64_t mn = acc.load(&in->min_key);
    if (mn == kEmptyKey) {
      acc.store(&in->min_key, key);
      acc.store(&in->min_slot, slot);
      acc.store(&in->max_key, key);
      return;
    }
    assert(key != mn && "insert_new of present key");
    if (key < mn) {
      // The new key becomes the minimum; the old minimum is pushed down.
      const std::uint64_t old_slot = acc.load(&in->min_slot);
      acc.store(&in->min_key, key);
      acc.store(&in->min_slot, slot);
      key = mn;
      slot = old_slot;
    }
    if (key > acc.load(&in->max_key)) acc.store(&in->max_key, key);

    const std::uint64_t h = hi_of(key, ubits);
    std::uint64_t child = acc.load(&in->children[h]);
    if (child == 0) {
      child = reinterpret_cast<std::uint64_t>(make_node(lo_bits(ubits)));
      acc.store(&in->children[h], child);
    }
    void* cp = reinterpret_cast<void*>(child);
    const bool child_was_empty = node_empty(acc, cp, lo_bits(ubits));
    insert_rec(acc, cp, lo_bits(ubits), lo_of(key, ubits), slot);
    if (child_was_empty) {
      // O(1) child insert above; the real recursion goes to the summary.
      std::uint64_t sum = acc.load(&in->summary);
      if (sum == 0) {
        sum = reinterpret_cast<std::uint64_t>(make_node(hi_bits(ubits)));
        acc.store(&in->summary, sum);
      }
      insert_rec(acc, reinterpret_cast<void*>(sum), hi_bits(ubits), h, 0);
    }
  }

  // ---- remove ----

  template <typename Acc>
  std::uint64_t remove_rec(Acc& acc, void* n, int ubits,
                           std::uint64_t key) {
    if (is_leaf_level(ubits)) {
      auto* l = static_cast<Leaf*>(n);
      const std::uint64_t bm = acc.load(&l->bitmap);
      assert(((bm >> key) & 1) == 1 && "remove of absent key");
      acc.store(&l->bitmap, bm & ~(std::uint64_t{1} << key));
      return acc.load(&l->slots[key]);
    }
    auto* in = static_cast<Inner*>(n);
    const std::uint64_t mn = acc.load(&in->min_key);
    assert(mn != kEmptyKey);

    if (key == mn) {
      const std::uint64_t removed = acc.load(&in->min_slot);
      const std::uint64_t sum = acc.load(&in->summary);
      void* sp = reinterpret_cast<void*>(sum);
      if (sum == 0 || node_empty(acc, sp, hi_bits(ubits))) {
        // The minimum was the only element.
        acc.store(&in->min_key, kEmptyKey);
        acc.store(&in->max_key, kEmptyKey);
        return removed;
      }
      // Pull the next-smallest element up out of its cluster.
      const std::uint64_t h = node_min_key(acc, sp, hi_bits(ubits));
      void* cp = reinterpret_cast<void*>(acc.load(&in->children[h]));
      const std::uint64_t next_lo = node_min_key(acc, cp, lo_bits(ubits));
      const std::uint64_t next_slot =
          remove_rec(acc, cp, lo_bits(ubits), next_lo);
      acc.store(&in->min_key, (h << lo_bits(ubits)) | next_lo);
      acc.store(&in->min_slot, next_slot);
      if (node_empty(acc, cp, lo_bits(ubits))) {
        remove_rec(acc, sp, hi_bits(ubits), h);
      }
      // If the promoted element was the maximum, the mirror invariant
      // (max lives in a cluster iff max != min) is restored implicitly.
      return removed;
    }

    const std::uint64_t h = hi_of(key, ubits);
    void* cp = reinterpret_cast<void*>(acc.load(&in->children[h]));
    assert(cp != nullptr && "remove of absent key");
    const std::uint64_t removed =
        remove_rec(acc, cp, lo_bits(ubits), lo_of(key, ubits));
    const std::uint64_t sum = acc.load(&in->summary);
    void* sp = reinterpret_cast<void*>(sum);
    if (node_empty(acc, cp, lo_bits(ubits))) {
      remove_rec(acc, sp, hi_bits(ubits), h);
    }
    if (key == acc.load(&in->max_key)) {
      if (sum == 0 || node_empty(acc, sp, hi_bits(ubits))) {
        acc.store(&in->max_key, acc.load(&in->min_key));
      } else {
        const std::uint64_t hs = node_max_key(acc, sp, hi_bits(ubits));
        void* c2 = reinterpret_cast<void*>(acc.load(&in->children[hs]));
        acc.store(&in->max_key, (hs << lo_bits(ubits)) |
                                    node_max_key(acc, c2, lo_bits(ubits)));
      }
    }
    return removed;
  }

  // ---- successor ----

  template <typename Acc>
  std::optional<std::pair<std::uint64_t, std::uint64_t>> succ_rec(
      Acc& acc, void* n, int ubits, std::uint64_t key) {
    if (is_leaf_level(ubits)) {
      auto* l = static_cast<Leaf*>(n);
      const std::uint64_t bm = acc.load(&l->bitmap);
      if (key >= 63) return std::nullopt;
      const std::uint64_t above = bm & (~std::uint64_t{0} << (key + 1));
      if (above == 0) return std::nullopt;
      const std::uint64_t k = __builtin_ctzll(above);
      return std::pair{k, acc.load(&l->slots[k])};
    }
    auto* in = static_cast<Inner*>(n);
    const std::uint64_t mn = acc.load(&in->min_key);
    if (mn == kEmptyKey) return std::nullopt;
    if (key < mn) return std::pair{mn, acc.load(&in->min_slot)};
    const std::uint64_t mx = acc.load(&in->max_key);
    if (key >= mx) return std::nullopt;

    const std::uint64_t h = hi_of(key, ubits);
    void* cp = reinterpret_cast<void*>(acc.load(&in->children[h]));
    if (cp != nullptr && !node_empty(acc, cp, lo_bits(ubits)) &&
        lo_of(key, ubits) < node_max_key(acc, cp, lo_bits(ubits))) {
      auto sub = succ_rec(acc, cp, lo_bits(ubits), lo_of(key, ubits));
      assert(sub.has_value());
      return std::pair{(h << lo_bits(ubits)) | sub->first, sub->second};
    }
    // Next non-empty cluster via the summary (exists because key < max).
    void* sp = reinterpret_cast<void*>(acc.load(&in->summary));
    assert(sp != nullptr);
    auto hs = succ_rec(acc, sp, hi_bits(ubits), h);
    assert(hs.has_value());
    void* c2 = reinterpret_cast<void*>(acc.load(&in->children[hs->first]));
    return std::pair{(hs->first << lo_bits(ubits)) |
                         node_min_key(acc, c2, lo_bits(ubits)),
                     node_min_slot(acc, c2, lo_bits(ubits))};
  }

  int ubits_;
  void* root_;
  NodeArena arena_;
};

}  // namespace bdhtm::veb
