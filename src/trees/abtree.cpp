#include "trees/abtree.hpp"

#include <algorithm>
#include <cassert>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "nvm/roots.hpp"

namespace bdhtm::trees {

OCCABTree::OCCABTree(nvm::Device& dev, alloc::PAllocator& pa, Mode mode)
    : dev_(dev), pa_(pa) {
  if (mode == Mode::kFormat) {
    proot_ = static_cast<PRoot*>(pa_.alloc(sizeof(PRoot)));
    Node* leaf = make_node(true);
    dev_.persist_nontxn(leaf, sizeof(Node));
    proot_->root_off = off_of(leaf);
    proot_->head_off = off_of(leaf);
    dev_.mark_dirty(proot_, sizeof(PRoot));
    dev_.persist_nontxn(proot_, sizeof(PRoot));
    nvm::publish_root(dev_, nvm::kRootStructure,
                      static_cast<std::uint64_t>(
                          reinterpret_cast<std::byte*>(proot_) -
                          dev_.base()));
  } else {
    proot_ = reinterpret_cast<PRoot*>(
        dev_.base() + *nvm::root_slot(dev_, nvm::kRootStructure));
  }
}

OCCABTree::~OCCABTree() = default;

OCCABTree::Node* OCCABTree::make_node(bool leaf) {
  auto* n = static_cast<Node*>(pa_.alloc(sizeof(Node)));
  n->version.store(0, std::memory_order_relaxed);
  n->count = 0;
  n->is_leaf = leaf ? 1 : 0;
  n->next_off = 0;
  dev_.mark_dirty(n, sizeof(Node));
  return n;
}

bool OCCABTree::lock_node(Node* n) {
  for (;;) {
    std::uint64_t v = n->version.load(std::memory_order_acquire);
    if (v & 1) continue;  // spin while write-locked
    if (n->version.compare_exchange_weak(v, v + 1,
                                         std::memory_order_acquire)) {
      return true;
    }
  }
}

void OCCABTree::unlock_node(Node* n) {
  n->version.fetch_add(1, std::memory_order_release);
}

namespace {
// Seqlock read-side check: the acquire fence keeps the plain reads of the
// node's fields before the version re-read.
bool still_at(const std::atomic<std::uint64_t>& version, std::uint64_t v) {
  std::atomic_thread_fence(std::memory_order_acquire);
  return version.load(std::memory_order_relaxed) == v;
}
}  // namespace

void OCCABTree::persist_slot(Node* n, int i) {
  dev_.mark_dirty(&n->keys[i], 8);
  dev_.mark_dirty(&n->slots[i], 8);
  dev_.persist_nontxn(&n->keys[i], 8);
  dev_.persist_nontxn(&n->slots[i], 8);
}

// Optimistic, lock-free descent (optimistic lock coupling): each node is
// read under its seqlock, and a parent is re-validated only AFTER the
// child's version has been read. A split keeps the split node
// write-locked until its separator is in the parent (split_leaf,
// insert_separator), so a reader either finds the child locked or sees
// the parent's version move. Validating the parent before reading the
// child let a reader that read the parent before a split trust the split
// child afterwards: the route then led to a leaf that no longer covered
// the key, and an insert placed there was never found again.
OCCABTree::LeafRef OCCABTree::descend(std::uint64_t key) const {
  for (;;) {
    const std::uint64_t off = root_off();
    Node* n = node_at(off);
    std::uint64_t v = n->version.load(std::memory_order_acquire);
    // The root pointer changes only while the old root is write-locked,
    // so an unchanged pointer after the version read validates it.
    if (root_off() != off) continue;
    bool restart = false;
    while (!n->is_leaf) {
      if (v & 1) {
        restart = true;
        break;
      }
      dev_.account_read();  // internal nodes are NVM (fully persistent)
      const std::uint64_t cnt = n->count;
      int i = 0;
      while (i < static_cast<int>(cnt) - 1 && key >= n->keys[i]) ++i;
      Node* child = node_at(n->slots[i]);
      if (!still_at(n->version, v) || child == nullptr) {
        restart = true;
        break;
      }
      const std::uint64_t cv = child->version.load(std::memory_order_acquire);
      if (!still_at(n->version, v)) {
        restart = true;
        break;
      }
      n = child;
      v = cv;
    }
    // A leaf's version is reported, not checked: the caller validates
    // (under its own lock or a seqlock read) and may itself hold the
    // leaf's lock during route re-validation.
    if (!restart) return {n, v};
  }
}

bool OCCABTree::insert(std::uint64_t key, std::uint64_t value) {
  return do_insert(key, value);
}

bool OCCABTree::do_insert(std::uint64_t key, std::uint64_t value) {
  for (;;) {
    Node* leaf = descend(key).leaf;
    lock_node(leaf);
    // Validate the route: the leaf may have split under us.
    if (descend(key).leaf != leaf) {
      unlock_node(leaf);
      continue;
    }
    dev_.account_read();
    int free_slot = -1;
    for (int i = 0; i < static_cast<int>(leaf->count); ++i) {
      if (leaf->keys[i] == key) {
        leaf->slots[i] = value;
        dev_.mark_dirty(&leaf->slots[i], 8);
        dev_.persist_nontxn(&leaf->slots[i], 8);
        unlock_node(leaf);
        return false;
      }
    }
    if (leaf->count < kB) free_slot = static_cast<int>(leaf->count);
    if (free_slot >= 0) {
      leaf->keys[free_slot] = key;
      leaf->slots[free_slot] = value;
      persist_slot(leaf, free_slot);
      leaf->count++;
      dev_.mark_dirty(&leaf->count, 8);
      dev_.persist_nontxn(&leaf->count, 8);
      unlock_node(leaf);
      return true;
    }
    unlock_node(leaf);
    split_leaf(key);
  }
}

void OCCABTree::split_leaf(std::uint64_t key) {
  std::scoped_lock slk(structure_mu_);
  Node* leaf = descend(key).leaf;
  lock_node(leaf);
  if (descend(key).leaf != leaf || leaf->count < kB) {
    unlock_node(leaf);
    return;  // someone else already made room
  }
  // Sort-copy, keep the lower half, move the upper half.
  std::pair<std::uint64_t, std::uint64_t> entries[kB];
  for (int i = 0; i < kB; ++i) entries[i] = {leaf->keys[i], leaf->slots[i]};
  std::sort(entries, entries + kB);
  const int keep = kB / 2;

  Node* right = make_node(true);
  right->count = kB - keep;
  for (int i = keep; i < kB; ++i) {
    right->keys[i - keep] = entries[i].first;
    right->slots[i - keep] = entries[i].second;
  }
  right->next_off = leaf->next_off;
  dev_.mark_dirty(right, sizeof(Node));
  dev_.persist_nontxn(right, sizeof(Node));  // sibling durable first

  for (int i = 0; i < keep; ++i) {
    leaf->keys[i] = entries[i].first;
    leaf->slots[i] = entries[i].second;
  }
  leaf->count = keep;
  leaf->next_off = off_of(right);
  dev_.mark_dirty(leaf, sizeof(Node));
  dev_.persist_nontxn(leaf, sizeof(Node));

  // The leaf stays locked until its separator is in the parent.
  insert_separator(entries[keep].first, right);
  unlock_node(leaf);
}

void OCCABTree::insert_separator(std::uint64_t sep, Node* right) {
  // Caller holds structure_mu_. Walk down from the root recording the
  // path, insert (sep, right), splitting internals as needed. Every
  // modified node is locked (odd version) during its change so
  // optimistic readers retry, and persisted afterwards. A split internal
  // node stays locked until its own separator is in its parent: until
  // then its upper keys are reachable from no route.
  Node* root = node_at(root_off());
  if (root->is_leaf) {
    Node* nr = make_node(false);
    nr->count = 2;
    nr->keys[0] = sep;
    nr->slots[0] = off_of(root);
    nr->slots[1] = off_of(right);
    dev_.mark_dirty(nr, sizeof(Node));
    dev_.persist_nontxn(nr, sizeof(Node));
    set_root_off(off_of(nr));
    dev_.mark_dirty(proot_, sizeof(PRoot));
    dev_.persist_nontxn(proot_, sizeof(PRoot));
    return;
  }
  Node* path[64];
  int depth = 0;
  Node* n = root;
  while (!n->is_leaf) {
    path[depth++] = n;
    int i = 0;
    while (i < static_cast<int>(n->count) - 1 && sep >= n->keys[i]) ++i;
    n = node_at(n->slots[i]);
  }
  std::uint64_t carry_key = sep;
  std::uint64_t carry_off = off_of(right);
  Node* split = nullptr;  // locked, its separator is carry_key
  for (int d = depth - 1; d >= 0; --d) {
    Node* node = path[d];
    lock_node(node);
    const int cnt = static_cast<int>(node->count);
    int pos = 0;
    while (pos < cnt - 1 && carry_key >= node->keys[pos]) ++pos;
    if (cnt < kB) {
      for (int i = cnt - 1; i > pos; --i) {
        node->keys[i] = node->keys[i - 1];
        node->slots[i + 1] = node->slots[i];
      }
      node->keys[pos] = carry_key;
      node->slots[pos + 1] = carry_off;
      node->count++;
      dev_.mark_dirty(node, sizeof(Node));
      dev_.persist_nontxn(node, sizeof(Node));
      unlock_node(node);
      if (split != nullptr) unlock_node(split);
      return;
    }
    // Split this internal node.
    std::uint64_t tk[kB + 1];
    std::uint64_t tc[kB + 2];
    for (int i = 0; i < cnt - 1; ++i) tk[i] = node->keys[i];
    for (int i = 0; i < cnt; ++i) tc[i] = node->slots[i];
    for (int i = cnt - 1; i > pos; --i) tk[i] = tk[i - 1];
    for (int i = cnt; i > pos + 1; --i) tc[i] = tc[i - 1];
    tk[pos] = carry_key;
    tc[pos + 1] = carry_off;
    const int total = cnt + 1;
    const int left_count = total / 2;
    Node* rnode = make_node(false);
    rnode->count = total - left_count;
    for (int i = 0; i < static_cast<int>(rnode->count); ++i) {
      rnode->slots[i] = tc[left_count + i];
    }
    for (int i = 0; i < static_cast<int>(rnode->count) - 1; ++i) {
      rnode->keys[i] = tk[left_count + i];
    }
    dev_.mark_dirty(rnode, sizeof(Node));
    dev_.persist_nontxn(rnode, sizeof(Node));
    node->count = left_count;
    for (int i = 0; i < left_count; ++i) node->slots[i] = tc[i];
    for (int i = 0; i < left_count - 1; ++i) node->keys[i] = tk[i];
    dev_.mark_dirty(node, sizeof(Node));
    dev_.persist_nontxn(node, sizeof(Node));
    // The lower level's separator is in place (in node or rnode, and
    // node stays locked until rnode is linked).
    if (split != nullptr) unlock_node(split);
    split = node;
    carry_key = tk[left_count - 1];
    carry_off = off_of(rnode);
    if (d == 0) {
      Node* nr = make_node(false);
      nr->count = 2;
      nr->keys[0] = carry_key;
      nr->slots[0] = off_of(node);
      nr->slots[1] = carry_off;
      dev_.mark_dirty(nr, sizeof(Node));
      dev_.persist_nontxn(nr, sizeof(Node));
      set_root_off(off_of(nr));
      dev_.mark_dirty(proot_, sizeof(PRoot));
      dev_.persist_nontxn(proot_, sizeof(PRoot));
      unlock_node(node);
      return;
    }
  }
}

bool OCCABTree::remove(std::uint64_t key) { return do_remove(key); }

bool OCCABTree::do_remove(std::uint64_t key) {
  for (;;) {
    Node* leaf = descend(key).leaf;
    lock_node(leaf);
    if (descend(key).leaf != leaf) {
      unlock_node(leaf);
      continue;
    }
    dev_.account_read();
    const int cnt = static_cast<int>(leaf->count);
    for (int i = 0; i < cnt; ++i) {
      if (leaf->keys[i] == key) {
        // Move-last-into-hole, persist the hole, then the count.
        leaf->keys[i] = leaf->keys[cnt - 1];
        leaf->slots[i] = leaf->slots[cnt - 1];
        persist_slot(leaf, i);
        leaf->count--;
        dev_.mark_dirty(&leaf->count, 8);
        dev_.persist_nontxn(&leaf->count, 8);
        unlock_node(leaf);
        return true;
      }
    }
    unlock_node(leaf);
    return false;
  }
}

std::optional<std::uint64_t> OCCABTree::find(std::uint64_t key) {
  for (;;) {
    // The version comes from descend(), read before the parent was last
    // validated: a split that finished before this point moved the
    // parent's version, so the route covers `key` at version v1.
    const auto [leaf, v1] = descend(key);
    if (v1 & 1) continue;
    dev_.account_read();
    std::optional<std::uint64_t> out;
    for (int i = 0; i < static_cast<int>(leaf->count); ++i) {
      if (leaf->keys[i] == key) {
        out = leaf->slots[i];
        break;
      }
    }
    if (still_at(leaf->version, v1)) return out;
  }
}

std::optional<std::pair<std::uint64_t, std::uint64_t>> OCCABTree::successor(
    std::uint64_t key) {
  Node* leaf = descend(key).leaf;
  while (leaf != nullptr) {
    for (;;) {
      const std::uint64_t v1 =
          leaf->version.load(std::memory_order_acquire);
      if (v1 & 1) continue;
      dev_.account_read();
      std::uint64_t best_k = ~std::uint64_t{0};
      std::uint64_t best_v = 0;
      for (int i = 0; i < static_cast<int>(leaf->count); ++i) {
        if (leaf->keys[i] > key && leaf->keys[i] < best_k) {
          best_k = leaf->keys[i];
          best_v = leaf->slots[i];
        }
      }
      const std::uint64_t next = leaf->next_off;
      if (!still_at(leaf->version, v1)) continue;
      if (best_k != ~std::uint64_t{0}) return std::pair{best_k, best_v};
      leaf = node_at(next);
      break;
    }
  }
  return std::nullopt;
}

void OCCABTree::recover() {
  std::scoped_lock slk(structure_mu_);
  // The leaf chain is the durable truth; rebuild the internal layer.
  Node* head = node_at(proot_->head_off);
  proot_->root_off = proot_->head_off;
  dev_.mark_dirty(proot_, sizeof(PRoot));
  dev_.persist_nontxn(proot_, sizeof(PRoot));
  std::vector<std::pair<std::uint64_t, Node*>> seps;
  for (Node* l = node_at(head->next_off); l != nullptr;
       l = node_at(l->next_off)) {
    l->version.store(0, std::memory_order_relaxed);
    std::uint64_t mn = ~std::uint64_t{0};
    for (int i = 0; i < static_cast<int>(l->count); ++i) {
      mn = std::min(mn, l->keys[i]);
    }
    if (mn != ~std::uint64_t{0}) seps.emplace_back(mn, l);
  }
  head->version.store(0, std::memory_order_relaxed);
  for (auto& [sep, l] : seps) insert_separator(sep, l);
}

// ---- Elim-ABTree ----

ElimABTree::ElimABTree(nvm::Device& dev, alloc::PAllocator& pa, Mode mode)
    : OCCABTree(dev, pa, mode),
      elim_(std::make_unique<Padded<ElimSlot>[]>(kElimSlots)) {}

ElimABTree::~ElimABTree() = default;

bool ElimABTree::insert(std::uint64_t key, std::uint64_t value) {
  const std::uint64_t h = splitmix64(key);
  if (!hot_.touch(h)) return do_insert(key, value);

  // Hot key: publish briefly so a concurrent remove can eliminate us.
  ElimSlot& slot = elim_[h % kElimSlots].value;
  std::uint64_t expected = 0;
  if (!slot.state.compare_exchange_strong(expected, 1,
                                          std::memory_order_acq_rel)) {
    return do_insert(key, value);  // slot busy: go straight to the tree
  }
  slot.key = key;
  slot.value = value;
  slot.state.store(2, std::memory_order_release);  // published
  for (int spin = 0; spin < kParkSpins; ++spin) {
    if ((spin & 15) == 15) std::this_thread::yield();  // let removers run
    if (slot.state.load(std::memory_order_acquire) == 3) {  // consumed
      slot.state.store(0, std::memory_order_release);
      eliminated_.fetch_add(1, std::memory_order_relaxed);
      // Linearized as insert-then-remove; the return value reflects the
      // key's presence at the insert's linearization point.
      return !find(key).has_value();
    }
  }
  // Nobody eliminated us: withdraw and apply to the tree.
  std::uint64_t st = 2;
  if (slot.state.compare_exchange_strong(st, 0,
                                         std::memory_order_acq_rel)) {
    return do_insert(key, value);
  }
  // A remover grabbed it concurrently (state 3): eliminated after all.
  while (slot.state.load(std::memory_order_acquire) != 3) {
  }
  slot.state.store(0, std::memory_order_release);
  eliminated_.fetch_add(1, std::memory_order_relaxed);
  return !find(key).has_value();
}

bool ElimABTree::remove(std::uint64_t key) {
  const std::uint64_t h = splitmix64(key);
  ElimSlot& slot = elim_[h % kElimSlots].value;
  if (slot.state.load(std::memory_order_acquire) == 2 && slot.key == key) {
    std::uint64_t st = 2;
    if (slot.state.compare_exchange_strong(st, 3,
                                           std::memory_order_acq_rel)) {
      // Consumed the published insert; also clear any older durable copy
      // so the pair's net effect (insert then remove) holds.
      do_remove(key);
      return true;
    }
  }
  return do_remove(key);
}

}  // namespace bdhtm::trees
