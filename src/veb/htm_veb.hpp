// HTM-vEB (Khalaji et al. [28]): transient concurrent van Emde Boas tree.
// Every operation runs as one hardware transaction over the shared tree,
// with the usual global-lock fallback. Doubly-logarithmic insert, remove,
// find and successor; values are stored in the tree's slots.
#pragma once

#include <cstdint>
#include <optional>

#include "htm/fallback.hpp"
#include "veb/veb_core.hpp"

namespace bdhtm::veb {

class HTMvEB {
 public:
  explicit HTMvEB(int ubits);

  /// Insert or update; returns true if the key was newly inserted.
  bool insert(std::uint64_t key, std::uint64_t value);
  /// Returns true if the key was present.
  bool remove(std::uint64_t key);
  std::optional<std::uint64_t> find(std::uint64_t key);
  /// Smallest (key, value) strictly greater than `key`.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> successor(
      std::uint64_t key);

  int ubits() const { return core_.ubits(); }
  std::uint64_t dram_bytes() const { return core_.dram_bytes(); }

 private:
  VebCore core_;
  htm::FallbackPolicy policy_;  // one stripe: the global lock
};

}  // namespace bdhtm::veb
