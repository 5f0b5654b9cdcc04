// Lock-free skiplist core (Herlihy–Shavit structure, CAS steps routed
// through an Ops policy so one algorithm yields the T-/P-/DL-Skiplist
// family of paper §4.2 and the BDL-Skiplist's DRAM towers).
//
// Level 0 is authoritative; upper levels are index shortcuts linked
// lazily. Logical deletion marks next pointers (kMark); find() helps
// unlink marked nodes. A node's value word can be pinned against
// concurrent removal with a 2-word CAS {next[0] unchanged-and-unmarked,
// value swapped} — the idiomatic multi-word-CAS trick the paper's Fig. 4
// motivates.
//
// Node reclamation goes through a per-structure EBR domain.
#pragma once

#include <cassert>
#include <cstdint>

#include "common/ebr.hpp"
#include "common/rng.hpp"
#include "common/threading.hpp"
#include "skiplist/sl_ops.hpp"

namespace bdhtm::skiplist {

inline constexpr int kMaxLevel = 20;

template <typename Ops>
class SkiplistBase {
 public:
  using Word = typename Ops::Word;

  struct Node {
    std::uint64_t key;
    Word value;
    std::uint64_t level;
    Word next[];  // `level` entries

    static std::size_t bytes(int level) {
      return sizeof(Node) + level * sizeof(Word);
    }
  };

  explicit SkiplistBase(Ops ops, std::uint64_t seed = 0x51ee9)
      : ops_(ops), seed_(seed) {
    head_ = make_node(/*key=*/0, /*slot=*/0, kMaxLevel);
    ops_.persist(head_, Node::bytes(kMaxLevel));
  }

  ~SkiplistBase() {
    ebr_.drain_for_teardown();
    if constexpr (Ops::kDramNodes) {
      // Free what is still linked. Level 0 holds every linked node once,
      // and a node is unlinked before it is retired, so none of these
      // was in the limbo just drained. NVM nodes stay: the heap image
      // outlives the structure (crash tests re-attach it).
      Node* n = head_;
      while (n != nullptr) {
        Node* next = ptr(strip(ops_.read(&n->next[0])));
        ops_.dealloc(n);
        n = next;
      }
    }
  }

  Node* head() { return head_; }
  void set_head(Node* h) { head_ = h; }  // recovery attach
  EbrDomain& ebr() { return ebr_; }
  Ops& ops() { return ops_; }

  /// Present and not logically deleted? Returns the node.
  Node* find_node(std::uint64_t key) {
    EbrDomain::Guard g(ebr_);
    // Wait-free-ish read path: no helping, skip marked nodes.
    Node* pred = head_;
    Node* curr = nullptr;
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
      curr = ptr(strip(ops_.read(&pred->next[lvl])));
      while (curr != nullptr && curr->key < key) {
        pred = curr;
        curr = ptr(strip(ops_.read(&curr->next[lvl])));
      }
    }
    if (curr == nullptr || curr->key != key) return nullptr;
    if (is_marked(ops_.read(&curr->next[0]))) return nullptr;
    return curr;
  }

  std::uint64_t read_value(Node* n) { return ops_.read(&n->value); }

  /// Swap the node's value from `expected` to `desired`, atomically
  /// verifying the node is still unmarked. Fails on contention/removal.
  bool update_value(Node* n, std::uint64_t expected, std::uint64_t desired) {
    EbrDomain::Guard g(ebr_);
    const std::uint64_t w0 = ops_.read(&n->next[0]);
    if (is_marked(w0)) return false;
    CasTriple t[2] = {{&n->next[0], w0, w0},  // pin: still linked, unmarked
                      {&n->value, expected, desired}};
    return ops_.mcas(t, 2);
  }

  /// Insert a new node (key must not be present at the time of linking).
  /// Returns true on success; false with *existing set when the key was
  /// found instead.
  bool insert_node(std::uint64_t key, std::uint64_t slot, Node** existing) {
    EbrDomain::Guard g(ebr_);
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    for (;;) {
      if (find(key, preds, succs)) {
        *existing = succs[0];
        return false;
      }
      const int h = random_level();
      Node* node = make_node(key, slot, h);
      for (int i = 0; i < h; ++i) {
        node->next[i] = as_word(succs[i]);
      }
      ops_.persist(node, Node::bytes(h));
      CasTriple link0{&preds[0]->next[0], as_u64(succs[0]), as_u64(node)};
      if (!ops_.mcas(&link0, 1)) {
        ops_.dealloc(node);  // never published
        continue;
      }
      link_upper_levels(node, h, key, preds, succs);
      return true;
    }
  }

  /// Logically remove `key`. Returns true if this call removed it, and
  /// writes the value word observed at removal time (stable: updates pin
  /// the unmarked state).
  bool remove_node(std::uint64_t key, std::uint64_t* out_slot) {
    EbrDomain::Guard g(ebr_);
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    if (!find(key, preds, succs)) return false;
    Node* node = succs[0];
    for (;;) {
      const std::uint64_t w0 = ops_.read(&node->next[0]);
      switch (try_remove_node(node, w0, nullptr, 0, out_slot)) {
        case MarkResult::kMarked:
          return true;
        case MarkResult::kLost:
          return false;
        case MarkResult::kRetry:
          break;
      }
    }
  }

  enum class MarkResult { kMarked, kLost, kRetry };

  /// One level-0 marking attempt for `node`, expecting its next word to
  /// still be `expected_w0`, atomically validated with up to two extra
  /// pinned words (e.g. the value word — the BDL variant pins the block
  /// it retires). On success this call also marks the upper levels,
  /// physically unlinks the node and retires it to the EBR domain.
  /// Caller must hold an EBR guard.
  MarkResult try_remove_node(Node* node, std::uint64_t expected_w0,
                             const CasTriple* extra, int n_extra,
                             std::uint64_t* out_slot) {
    if (is_marked(expected_w0)) return MarkResult::kLost;
    // Mark upper levels top-down first (idempotent; helps concurrent
    // removers converge).
    for (int i = static_cast<int>(node->level) - 1; i >= 1; --i) {
      std::uint64_t w = ops_.read(&node->next[i]);
      while (!is_marked(w)) {
        CasTriple t{&node->next[i], w, w | kMark};
        ops_.mcas(&t, 1);
        w = ops_.read(&node->next[i]);
      }
    }
    CasTriple t[3] = {{&node->next[0], expected_w0, expected_w0 | kMark}};
    assert(n_extra <= 2);
    for (int i = 0; i < n_extra; ++i) t[1 + i] = extra[i];
    if (!ops_.mcas(t, 1 + n_extra)) {
      return is_marked(ops_.read(&node->next[0])) ? MarkResult::kLost
                                                  : MarkResult::kRetry;
    }
    *out_slot = ops_.read(&node->value);
    Node* preds[kMaxLevel];
    Node* succs[kMaxLevel];
    find(node->key, preds, succs);  // physical unlink via helping
    retire(node);
    return MarkResult::kMarked;
  }

  /// Smallest (key, value-word) strictly greater than `key`.
  bool successor(std::uint64_t key, std::uint64_t* out_key,
                 std::uint64_t* out_slot) {
    EbrDomain::Guard g(ebr_);
    Node* pred = head_;
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
      Node* curr = ptr(strip(ops_.read(&pred->next[lvl])));
      while (curr != nullptr && curr->key <= key) {
        pred = curr;
        curr = ptr(strip(ops_.read(&curr->next[lvl])));
      }
    }
    Node* curr = ptr(strip(ops_.read(&pred->next[0])));
    while (curr != nullptr &&
           (curr->key <= key || is_marked(ops_.read(&curr->next[0])))) {
      curr = ptr(strip(ops_.read(&curr->next[0])));
    }
    if (curr == nullptr) return false;
    *out_key = curr->key;
    *out_slot = ops_.read(&curr->value);
    return true;
  }

  /// Owner-exclusive bulk load: appends nodes in strictly ascending key
  /// order to a list that starts empty, with plain stores and one finger
  /// per level at that level's last node, so each append costs O(height)
  /// instead of a search. Only for a thread that holds the list outright
  /// with DRAM towers (recovery's relink); a happens-before edge must
  /// order the appends before any concurrent use.
  class Appender {
   public:
    explicit Appender(SkiplistBase& sl)
      requires(Ops::kDramNodes)
        : sl_(sl) {
      assert(sl.ops_.read(&sl.head_->next[0]) == 0 && "list is not empty");
      for (Node*& f : last_) f = sl.head_;
    }
    void append(std::uint64_t key, std::uint64_t slot) {
      assert(last_[0] == sl_.head_ || last_[0]->key < key);
      const int h = sl_.random_level();
      Node* node = sl_.make_node(key, slot, h);
      for (int i = 0; i < h; ++i) {
        last_[i]->next[i] = as_word(node);
        last_[i] = node;
      }
    }

   private:
    SkiplistBase& sl_;
    Node* last_[kMaxLevel];
  };

  /// Level-0 walk for audits/recovery; fn(Node*) on each unmarked node.
  template <typename Fn>
  void for_each_live(Fn&& fn) {
    Node* curr = ptr(strip(ops_.read(&head_->next[0])));
    while (curr != nullptr) {
      if (!is_marked(ops_.read(&curr->next[0]))) fn(curr);
      curr = ptr(strip(ops_.read(&curr->next[0])));
    }
  }

  Node* make_node(std::uint64_t key, std::uint64_t slot, int level) {
    auto* n = static_cast<Node*>(ops_.alloc(Node::bytes(level)));
    n->key = key;
    n->value = slot;
    n->level = static_cast<std::uint64_t>(level);
    for (int i = 0; i < level; ++i) n->next[i] = 0;
    return n;
  }

  int random_level() {
    thread_local Rng rng(splitmix64(seed_ + thread_id()));
    int h = 1;
    while (h < kMaxLevel && (rng.next() & 1)) ++h;
    return h;
  }

 private:
  static Node* ptr(std::uint64_t w) { return reinterpret_cast<Node*>(w); }
  static std::uint64_t as_u64(Node* n) {
    return reinterpret_cast<std::uint64_t>(n);
  }
  static std::uint64_t as_word(Node* n) {
    return reinterpret_cast<std::uint64_t>(n);
  }

  void retire(Node* n) {
    ebr_.retire(
        n,
        [](void* p, void* self) {
          static_cast<SkiplistBase*>(self)->ops_.dealloc(p);
        },
        this);
  }

  /// Herlihy–Shavit find with helping: populates preds/succs; returns
  /// whether an unmarked node with `key` sits at level 0.
  bool find(std::uint64_t key, Node** preds, Node** succs) {
  retry:
    Node* pred = head_;
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
      std::uint64_t currw = ops_.read(&pred->next[lvl]);
      if (is_marked(currw)) goto retry;  // pred got removed under us
      Node* curr = ptr(strip(currw));
      for (;;) {
        if (curr == nullptr) break;
        std::uint64_t succw = ops_.read(&curr->next[lvl]);
        while (is_marked(succw)) {
          // curr is logically deleted at this level: snip it.
          CasTriple t{&pred->next[lvl], as_u64(curr), strip(succw)};
          if (!ops_.mcas(&t, 1)) goto retry;
          curr = ptr(strip(succw));
          if (curr == nullptr) break;
          succw = ops_.read(&curr->next[lvl]);
        }
        if (curr == nullptr) break;
        if (curr->key < key) {
          pred = curr;
          curr = ptr(strip(succw));
        } else {
          break;
        }
      }
      preds[lvl] = pred;
      succs[lvl] = curr;
    }
    return succs[0] != nullptr && succs[0]->key == key;
  }

  void link_upper_levels(Node* node, int h, std::uint64_t key, Node** preds,
                         Node** succs) {
    for (int i = 1; i < h; ++i) {
      for (;;) {
        if (is_marked(ops_.read(&node->next[0]))) return;  // removed
        const std::uint64_t cur_next = ops_.read(&node->next[i]);
        if (is_marked(cur_next)) return;
        if (strip(cur_next) != as_u64(succs[i])) {
          // Refresh the node's own forward pointer first.
          CasTriple t{&node->next[i], cur_next, as_u64(succs[i])};
          if (!ops_.mcas(&t, 1)) continue;
        }
        CasTriple link{&preds[i]->next[i], as_u64(succs[i]), as_u64(node)};
        if (ops_.mcas(&link, 1)) break;
        // Contention: recompute neighbours; stop if the node is gone.
        find(key, preds, succs);
        if (succs[0] != node) return;
      }
    }
  }

  Ops ops_;
  std::uint64_t seed_;
  Node* head_;
  EbrDomain ebr_;
};

}  // namespace bdhtm::skiplist
