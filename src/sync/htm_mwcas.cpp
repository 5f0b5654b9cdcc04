#include "sync/htm_mwcas.hpp"

#include <cassert>

#include "common/rng.hpp"
#include "htm/retry.hpp"

namespace bdhtm::sync {

namespace {
constexpr std::uint8_t kMismatch = 0x4d;  // explicit abort: expected differs
}  // namespace

HTMMwCAS::Result HTMMwCAS::execute(Word* words, int n) {
  // Footprint: the union of the target words' stripes (one stripe under
  // the global policy). Two MwCASes that can touch the same word always
  // share a stripe, so a fallback excludes every conflicting fast path.
  htm::StripeMask mask = 0;
  for (int i = 0; i < n; ++i) {
    mask |= policy_.mask_of_hash(
        splitmix64(reinterpret_cast<std::uintptr_t>(words[i].addr)));
  }
  bool used_fallback = false;
  try {
    htm::elide<bool>(policy_, mask, [&](auto& acc) {
      used_fallback = !acc.transactional();
      for (int i = 0; i < n; ++i) {
        if (acc.load(words[i].addr) != words[i].expected) {
          acc.fail(kMismatch);  // genuine CAS failure, not contention
        }
      }
      for (int i = 0; i < n; ++i) acc.store(words[i].addr, words[i].desired);
      return true;
    });
  } catch (const htm::FallbackRestart& fr) {
    assert(fr.code == kMismatch);
    (void)fr;
    return {false, used_fallback};
  }
  return {true, used_fallback};
}

}  // namespace bdhtm::sync
