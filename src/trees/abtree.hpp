// OCC-ABTree and Elim-ABTree (Srivastava & Brown [48]; paper §4.1
// baselines): fully persistent (a,b)-trees — every node, internal and
// leaf, lives in NVM (Table 3: zero DRAM).
//
// OCC-ABTree: fine-grained versioned locks (seqlocks) per node. Searches
// traverse optimistically, validating each node's version after reading
// it (optimistic concurrency control) and never take a lock. Updates
// lock only the affected leaf and persist the modified slots before
// returning (strict DL). Structural changes (splits) additionally hold a
// structure mutex and bump the versions of every touched node so
// in-flight optimistic readers retry.
//
// Elim-ABTree adds publishing elimination for skewed workloads: writes
// to *hot* keys are briefly published in an elimination array; a
// concurrent remove of the same key consumes the published insert, and
// the pair completes with (at most) one NVM write instead of two.
//
// Crash recovery rebuilds the internal layer from the persistent leaf
// chain (splits keep the chain crash-atomic the same way LB+Tree does).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include "alloc/pallocator.hpp"
#include "common/threading.hpp"
#include "hash/hotspot.hpp"
#include "nvm/device.hpp"

namespace bdhtm::trees {

class OCCABTree {
 public:
  enum class Mode { kFormat, kAttach };

  OCCABTree(nvm::Device& dev, alloc::PAllocator& pa,
            Mode mode = Mode::kFormat);
  virtual ~OCCABTree();

  virtual bool insert(std::uint64_t key, std::uint64_t value);
  virtual bool remove(std::uint64_t key);
  std::optional<std::uint64_t> find(std::uint64_t key);
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t key);

  /// Rebuild the internal layer from the leaf chain after a crash.
  void recover();

  std::uint64_t nvm_bytes() const { return pa_.bytes_in_use(); }

  static constexpr int kB = 14;  // max keys per node (b); a = b/2

 protected:
  struct Node {  // NVM; seqlock version: odd = write-locked
    std::atomic<std::uint64_t> version;
    std::uint64_t count;
    std::uint64_t is_leaf;
    std::uint64_t next_off;  // leaf chain (offset+1; 0 = none)
    std::uint64_t keys[kB];
    std::uint64_t slots[kB + 1];  // vals (leaf) or child offsets+1
  };

  Node* make_node(bool leaf);
  Node* node_at(std::uint64_t off_plus1) const {
    return off_plus1 == 0
               ? nullptr
               : reinterpret_cast<Node*>(dev_.base() + off_plus1 - 1);
  }
  std::uint64_t off_of(const Node* n) const {
    return static_cast<std::uint64_t>(
               reinterpret_cast<const std::byte*>(n) - dev_.base()) + 1;
  }
  /// A leaf and the version it carried when the route to it was last
  /// validated (odd: a writer, possibly the caller, holds it).
  struct LeafRef {
    Node* leaf;
    std::uint64_t version;
  };
  /// Optimistic descent to the leaf covering `key`; retries internally.
  LeafRef descend(std::uint64_t key) const;
  std::uint64_t root_off() const {
    return std::atomic_ref<std::uint64_t>(proot_->root_off)
        .load(std::memory_order_acquire);
  }
  void set_root_off(std::uint64_t off) {
    std::atomic_ref<std::uint64_t>(proot_->root_off)
        .store(off, std::memory_order_release);
  }
  bool lock_node(Node* n);       // returns false if deleted/retired
  void unlock_node(Node* n);     // version += 1 (back to even)
  void persist_slot(Node* n, int i);
  bool do_insert(std::uint64_t key, std::uint64_t value);
  bool do_remove(std::uint64_t key);
  void split_leaf(std::uint64_t key);
  void insert_separator(std::uint64_t sep, Node* right);

  nvm::Device& dev_;
  alloc::PAllocator& pa_;
  struct PRoot {
    std::uint64_t root_off;
    std::uint64_t head_off;
  };
  PRoot* proot_ = nullptr;  // NVM
  std::mutex structure_mu_;
};

class ElimABTree : public OCCABTree {
 public:
  ElimABTree(nvm::Device& dev, alloc::PAllocator& pa,
             Mode mode = Mode::kFormat);
  ~ElimABTree() override;

  bool insert(std::uint64_t key, std::uint64_t value) override;
  bool remove(std::uint64_t key) override;

  std::uint64_t eliminated_pairs() const {
    return eliminated_.load(std::memory_order_relaxed);
  }

 private:
  struct ElimSlot {
    std::atomic<std::uint64_t> state;  // 0 empty, 1 publishing, 2 taken
    std::uint64_t key;
    std::uint64_t value;
  };
  static constexpr int kElimSlots = 64;
  static constexpr int kParkSpins = 400;

  hash::HotspotDetector hot_;
  std::unique_ptr<Padded<ElimSlot>[]> elim_;
  std::atomic<std::uint64_t> eliminated_{0};
};

}  // namespace bdhtm::trees
