// Memory-access abstraction so a data structure's algorithm is written
// once and runs both inside a hardware transaction (TxAccess) and on the
// global-lock fallback path (NontxAccess) — the standard best-effort HTM
// structure (paper Listing 1: the fallback "path similar to lines 20-36").
//
// Both access modes go through the engine's stripe table, so fallback
// writes conflict with — and abort — concurrent transactions. The third
// mode, OwnerAccess, is for a thread that owns a structure outright
// (recovery's relink, DESIGN.md §5): plain loads and stores, no stripes.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/checked.hpp"
#include "htm/engine.hpp"
#include "nvm/device.hpp"

namespace bdhtm::htm {

/// Thrown by NontxAccess::fail(): the fallback path cannot _xabort, so
/// algorithmic restarts (e.g. OldSeeNewException) unwind with this.
struct FallbackRestart {
  std::uint8_t code;
};

struct TxAccess {
  Txn& tx;

  template <typename T>
  T load(const T* p) {
    return tx.load(p);
  }
  template <typename T>
  void store(T* p, T v) {
    tx.store(p, v);
  }
  template <typename T>
  void store_nvm(nvm::Device& dev, T* p, T v) {
    tx.store_nvm(dev, p, v);
  }
  [[noreturn]] void fail(std::uint8_t code) { tx.abort(code); }
  static constexpr bool transactional() { return true; }
};

struct NontxAccess {
  template <typename T>
  T load(const T* p) {
    return nontx_load(p);
  }
  template <typename T>
  void store(T* p, T v) {
    nontx_store(p, v);
  }
  template <typename T>
  void store_nvm(nvm::Device& dev, T* p, T v) {
    nontx_store(p, v);
    dev.mark_dirty(p, sizeof(T));
    // Fallback-path durable store: same publish scan as the HTM commit
    // write-back, for pointer-sized values.
    if constexpr (sizeof(T) == sizeof(std::uint64_t)) {
      if (checked::enabled()) {
        std::uint64_t word;
        std::memcpy(&word, &v, sizeof(word));
        checked::pb_publish_value(word, "htm::NontxAccess::store_nvm");
      }
    }
  }
  [[noreturn]] void fail(std::uint8_t code) { throw FallbackRestart{code}; }
  static constexpr bool transactional() { return false; }
};

/// Owner-exclusive access: plain loads and stores, for a thread that is
/// the only one touching the structure and that no transaction overlaps
/// (recovery's relink). Nothing bumps a stripe version, so the caller
/// must order these writes before any later transaction by a
/// happens-before edge (recovery's join); the TL2 snapshot of that
/// transaction then reads their values under unchanged versions.
struct OwnerAccess {
  template <typename T>
  T load(const T* p) {
    return *p;
  }
  template <typename T>
  void store(T* p, T v) {
    *p = v;
  }
  [[noreturn]] void fail(std::uint8_t code) { throw FallbackRestart{code}; }
  static constexpr bool transactional() { return false; }
};

}  // namespace bdhtm::htm
