// CAS-operation policies for the skiplist family (paper §4.2, Fig. 5).
// One lock-free skiplist algorithm (skiplist_base.hpp) is instantiated
// with four synchronization/persistence regimes:
//
//   MwcasDramOps       - T-Skiplist:            DRAM nodes, volatile MwCAS
//   MwcasNvmNoFlushOps - P-Skiplist-no-flush:   NVM nodes, volatile MwCAS
//                        (paper: DL-Skiplist with persists removed; NOT
//                        crash consistent)
//   HtmNvmNoFlushOps   - P-Skiplist-HTM-MwCAS:  NVM nodes, HTM-MwCAS
//                        (NOT crash consistent)
//   PmwcasOps          - DL-Skiplist:           NVM nodes, PMwCAS,
//                        strictly durably linearizable
#pragma once

#include <atomic>
#include <cstdint>

#include "alloc/pallocator.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"
#include "sync/htm_mwcas.hpp"
#include "sync/mwcas.hpp"
#include "sync/pmwcas.hpp"

namespace bdhtm::skiplist {

/// Logical-deletion mark on next pointers (bit 2: clear of the MwCAS tag
/// bits 0-1 and the PMwCAS dirty bit 63; node pointers are 8+ aligned).
inline constexpr std::uint64_t kMark = 4;

constexpr bool is_marked(std::uint64_t w) { return (w & kMark) != 0; }
constexpr std::uint64_t strip(std::uint64_t w) { return w & ~kMark; }

struct CasTriple {
  void* addr;  // Ops::Word*
  std::uint64_t expected;
  std::uint64_t desired;
};

/// T-Skiplist: volatile descriptor MwCAS on DRAM nodes.
struct MwcasDramOps {
  using Word = std::atomic<std::uint64_t>;
  static constexpr bool kPersistentNodes = false;
  static constexpr bool kDramNodes = true;  // the base frees them at teardown

  std::uint64_t read(Word* w) { return sync::MwCAS::read(w); }
  bool mcas(CasTriple* t, int n) {
    sync::MwCAS::Word words[sync::kMwCASMaxWords];
    for (int i = 0; i < n; ++i) {
      words[i] = {static_cast<Word*>(t[i].addr), t[i].expected, t[i].desired};
    }
    return sync::MwCAS::execute(words, n);
  }
  void* alloc(std::size_t n) { return ::operator new(n); }
  void dealloc(void* p) { ::operator delete(p); }
  void persist(const void*, std::size_t) {}
};

/// P-Skiplist-no-flush: volatile MwCAS on NVM-resident nodes.
struct MwcasNvmNoFlushOps {
  alloc::PAllocator& pa;
  using Word = std::atomic<std::uint64_t>;
  static constexpr bool kPersistentNodes = false;  // no flushes -> no DL
  static constexpr bool kDramNodes = false;

  std::uint64_t read(Word* w) {
    pa.device().account_read();  // towers live in NVM: every hop pays
    return sync::MwCAS::read(w);
  }
  bool mcas(CasTriple* t, int n) {
    sync::MwCAS::Word words[sync::kMwCASMaxWords];
    for (int i = 0; i < n; ++i) {
      words[i] = {static_cast<Word*>(t[i].addr), t[i].expected, t[i].desired};
    }
    return sync::MwCAS::execute(words, n);
  }
  void* alloc(std::size_t n) {
    void* p = pa.alloc(n);
    pa.device().mark_dirty(p, n);
    return p;
  }
  void dealloc(void* p) { pa.free(p); }
  void persist(const void*, std::size_t) {}
};

/// P-Skiplist-HTM-MwCAS: HTM-based MwCAS on NVM-resident nodes.
struct HtmNvmNoFlushOps {
  alloc::PAllocator& pa;
  sync::HTMMwCAS& mw;
  using Word = std::uint64_t;  // plain words through the HTM engine
  static constexpr bool kPersistentNodes = false;
  static constexpr bool kDramNodes = false;

  std::uint64_t read(Word* w) {
    pa.device().account_read();  // towers live in NVM: every hop pays
    return mw.read(w);
  }
  bool mcas(CasTriple* t, int n) {
    sync::HTMMwCAS::Word words[sync::kMwCASMaxWords];
    for (int i = 0; i < n; ++i) {
      words[i] = {static_cast<Word*>(t[i].addr), t[i].expected, t[i].desired};
    }
    return mw.execute(words, n).success;
  }
  void* alloc(std::size_t n) {
    void* p = pa.alloc(n);
    pa.device().mark_dirty(p, n);
    return p;
  }
  void dealloc(void* p) { pa.free(p); }
  void persist(const void*, std::size_t) {}
};

/// DL-Skiplist: PMwCAS on NVM nodes; every link/value change is durable
/// before the operation returns.
struct PmwcasOps {
  alloc::PAllocator& pa;
  sync::PMwCAS& pm;
  using Word = std::atomic<std::uint64_t>;
  static constexpr bool kPersistentNodes = true;
  static constexpr bool kDramNodes = false;

  std::uint64_t read(Word* w) {
    pa.device().account_read();  // towers live in NVM: every hop pays
    return pm.read(w);
  }
  bool mcas(CasTriple* t, int n) {
    sync::PMwCAS::Word words[sync::kMwCASMaxWords];
    for (int i = 0; i < n; ++i) {
      words[i] = {static_cast<Word*>(t[i].addr), t[i].expected, t[i].desired};
    }
    return pm.execute(words, n);
  }
  void* alloc(std::size_t n) {
    void* p = pa.alloc(n);
    pa.device().mark_dirty(p, n);
    return p;
  }
  void dealloc(void* p) { pa.free(p); }
  void persist(const void* p, std::size_t n) {
    pa.device().persist_nontxn(p, n);
  }
};

}  // namespace bdhtm::skiplist
