// BDL-Skiplist (paper §4.2): the buffered-durable, HTM-optimized rework
// of DL-Skiplist.
//
// Three changes relative to Wang et al.'s original, matching the paper's
// attribution of its ~3x speedup:
//   1. the towers (index) live in DRAM — faster searches;
//   2. only KVPair blocks live in NVM, and their write-back happens in
//      the background at epoch granularity (no persist on the critical
//      path) — buffered durability via the epoch system;
//   3. link updates use HTM-MwCAS instead of the descriptor protocol.
//
// KV blocks follow the Listing 1 epoch rules: preallocate outside
// transactions with an invalid epoch, stamp inside the transaction before
// the linearization point, abort-and-restart on OldSeeNewException,
// retire/track after commit. The rules are written once, in apply_batch;
// the single-op insert/remove/find are one-op batches (epoch::apply_one).
// After a crash, recover() scans the heap and rebuilds the towers from
// the surviving blocks on one thread: sorted by key, then appended.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "common/defs.hpp"
#include "common/threading.hpp"
#include "epoch/batch.hpp"
#include "epoch/epoch_sys.hpp"
#include "epoch/kvpair.hpp"
#include "skiplist/skiplist_base.hpp"
#include "sync/htm_mwcas.hpp"

namespace bdhtm::skiplist {

class BDLSkiplist {
 public:
  /// `fallback_stripes` selects the fallback policy of the internal
  /// HTM-MwCAS (DESIGN.md §11): link updates stripe by word address, so
  /// tower updates in disjoint regions stop serializing on one global
  /// fallback lock. 1 = global (default).
  explicit BDLSkiplist(epoch::EpochSys& es, int fallback_stripes = 1);
  ~BDLSkiplist();

  /// Insert or update; returns true if the key was newly inserted.
  bool insert(std::uint64_t key, std::uint64_t value);
  /// Returns true if this call removed the key.
  bool remove(std::uint64_t key);
  std::optional<std::uint64_t> find(std::uint64_t key);
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t key);

  /// Post-crash rebuild with `threads` workers; returns live pairs.
  std::size_t recover(int threads = 1);

  /// The one operation path (DESIGN.md §10): apply ops[0..n) under
  /// the CALLER's epoch envelope. Unlike the elided structures the
  /// skiplist cannot group a batch into one transaction — link updates
  /// are individual HTM-MwCAS operations — so the batch amortizes only
  /// the beginOp/endOp envelope; ops run sequentially. OldSeeNew throws
  /// epoch::EnvelopeRestart (see epoch/batch.hpp).
  void apply_batch(epoch::BatchOp* ops, std::size_t n);

  /// Rebuild the towers from recovered blocks: drop them, sort the
  /// blocks by key, keep the newest epoch of each key and pDelete the
  /// other copies (epoch::keep_newer), whatever their order in `blocks`,
  /// then append the winners in order with plain stores. The caller owns
  /// the list outright, as PHTMvEB::relink_recovered describes.
  void relink_recovered(std::span<epoch::LiveBlock> blocks);

  std::uint64_t nvm_bytes() const { return es_.allocator().bytes_in_use(); }
  epoch::EpochSys& epoch_sys() { return es_; }

  /// The internal HTM-MwCAS's fallback policy (DESIGN.md §11), plus a
  /// REPRESENTATIVE footprint for ops on `key`: link updates stripe by
  /// tower-word address, which is unknowable before the search, so this
  /// models a typical two-word link update by hashing the key. Exposed
  /// for tests and fallback-contention benchmarks; not a soundness
  /// contract like the elided structures' footprints.
  htm::FallbackPolicy& fallback_policy();
  htm::StripeMask footprint(std::uint64_t key) const;

 private:
  struct DramOps {
    sync::HTMMwCAS& mw;
    using Word = std::uint64_t;
    static constexpr bool kPersistentNodes = false;
    static constexpr bool kDramNodes = true;
    std::uint64_t read(Word* w) { return mw.read(w); }
    bool mcas(CasTriple* t, int n) {
      sync::HTMMwCAS::Word words[sync::kMwCASMaxWords];
      for (int i = 0; i < n; ++i) {
        words[i] = {static_cast<Word*>(t[i].addr), t[i].expected,
                    t[i].desired};
      }
      return mw.execute(words, n).success;
    }
    void* alloc(std::size_t n) { return ::operator new(n); }
    void dealloc(void* p) { ::operator delete(p); }
    void persist(const void*, std::size_t) {}
  };

  using Base = SkiplistBase<DramOps>;
  using Node = Base::Node;

  // Op cores of apply_batch, running under the open envelope at
  // `op_epoch`; on OldSeeNew they set *restart and return without
  // touching the envelope (apply_batch throws EnvelopeRestart).
  bool insert_enveloped(std::uint64_t op_epoch, std::uint64_t key,
                        std::uint64_t value, bool* restart);
  bool remove_enveloped(std::uint64_t op_epoch, std::uint64_t key,
                        bool* restart);
  std::optional<std::uint64_t> find_enveloped(std::uint64_t key);

  epoch::EpochSys& es_;
  nvm::Device& dev_;
  sync::HTMMwCAS mw_;
  std::unique_ptr<Base> base_;
  std::unique_ptr<Padded<epoch::KVPool>[]> pools_;  // per-thread
};

}  // namespace bdhtm::skiplist
