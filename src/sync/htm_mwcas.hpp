// HTM-based multi-word compare-and-swap (paper §2.2, Fig. 4 "HTM-MwCAS").
//
// A short hardware transaction reads the N target words, compares them
// with the expected values, and stores the desired values — no
// descriptor, no helping, no persistence on the critical path. It runs
// through the shared retry loop (htm::elide): best-effort aborts fall
// back to an elided fallback policy (global lock by default, optionally
// striped by word address — DESIGN.md §11) after htm::kMaxRetries
// attempts, with the loop's backoff and total-wait deadline; an
// expected-value mismatch is the explicit abort kMismatch (0x4d), a
// failed CAS rather than a retry. Plain readers use read(), which goes
// through the engine's non-transactional interop so they serialize
// correctly with both the transactional and the fallback path.
//
// Words are plain (non-atomic) std::uint64_t accessed exclusively through
// the HTM engine.
#pragma once

#include <cstdint>

#include "htm/engine.hpp"
#include "htm/fallback.hpp"

namespace bdhtm::sync {

class HTMMwCAS {
 public:
  struct Word {
    std::uint64_t* addr;
    std::uint64_t expected;
    std::uint64_t desired;
  };

  struct Result {
    bool success;
    bool used_fallback;
  };

  /// `fallback_stripes` selects the fallback policy: 1 = global lock
  /// (default); >1 = stripes keyed by hashed word address, so an MwCAS
  /// footprint is the union of its words' stripes and fallbacks on
  /// disjoint word sets no longer serialize (or abort) each other.
  explicit HTMMwCAS(int fallback_stripes = 1) : policy_(fallback_stripes) {}

  /// Atomic N-word compare-and-swap. Lock-free in the common case; falls
  /// back to the internal fallback policy under persistent aborts, which
  /// preserves progress exactly as best-effort HTM requires.
  Result execute(Word* words, int n);

  /// Read one word, serialized against concurrent execute() calls.
  std::uint64_t read(const std::uint64_t* addr) {
    return htm::nontx_load(addr);
  }

  htm::FallbackPolicy& fallback_policy() { return policy_; }
  const htm::FallbackPolicy& fallback_policy() const { return policy_; }

 private:
  htm::FallbackPolicy policy_;
};

}  // namespace bdhtm::sync
