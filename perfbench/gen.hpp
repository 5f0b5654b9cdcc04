// Load generation and sample bookkeeping for svcbench.
//
// Everything here belongs to the benchmark, not to the program under
// test: the key popularity model, the value encoding the online checks
// rely on, and the fixed-size latency reservoirs. Keeping them out of
// src/ means a change to the library's own generators cannot silently
// change the benchmark's inputs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace perfbench {

using bdhtm::Rng;
using bdhtm::splitmix64;

/// Zipfian ranks over [0, n) (Gray et al., the YCSB generator). zeta(n) is
/// an O(n) sum, so it is computed once and shared by every client.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
    double zetan = 0;
    for (std::uint64_t i = 1; i <= n; ++i) {
      zetan += std::pow(1.0 / static_cast<double>(i), theta);
    }
    const double zeta2 = 1.0 + std::pow(0.5, theta);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan);
  }

  std::uint64_t rank(Rng& rng) const {
    const double u = rng.next_double();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return std::min(r, n_ - 1);
  }

  /// Popular ranks are scattered over the key space by a fixed hash, so
  /// the hot keys are the same for every seed: the seed picks the request
  /// sequence, not which buckets or subtrees are hot.
  std::uint64_t key(Rng& rng) const { return splitmix64(rank(rng)) % n_; }

 private:
  std::uint64_t n_;
  double theta_;
  double zetan_ = 0, alpha_ = 0, eta_ = 0;
};

/// Prefill key i of [0, n/2): an odd multiplicative step is a bijection
/// modulo a power of two, so the keys are distinct and spread out.
inline std::uint64_t prefill_key(std::uint64_t i, std::uint64_t n) {
  return (i * 0x9e3779b97f4a7c15ULL) & (n - 1);
}

// ---- Value encoding ----
//
// Every value the benchmark writes is a 56-bit hash of its key plus the
// writer's id in the top byte (0 = prefill, c + 1 = client c). A get or
// scan that returns anything else for a key returned a value no prefill
// or put for that key could have written.
inline constexpr std::uint64_t kHashMask = (std::uint64_t{1} << 56) - 1;
/// Map sentinel for "key absent"; its writer byte is never legal.
inline constexpr std::uint64_t kAbsent = ~std::uint64_t{0};

inline std::uint64_t value_for(std::uint64_t key, unsigned writer) {
  return (splitmix64(key ^ 0x7a11e75eedULL) & kHashMask) |
         (static_cast<std::uint64_t>(writer) << 56);
}

inline bool value_ok(std::uint64_t key, std::uint64_t v, unsigned writers) {
  return (v & kHashMask) == (value_for(key, 0) & kHashMask) &&
         (v >> 56) <= writers;
}

// ---- Samples ----

/// Uniform fixed-size sample of a stream (Vitter's algorithm R). The
/// buffer is allocated once, before set-up, so memory does not grow with
/// the number of operations a run completes; `seen` weights the sample
/// when reservoirs of several threads are merged.
template <typename T>
class Reservoir {
 public:
  Reservoir(std::size_t cap, std::uint64_t seed) : buf_(cap), rng_(seed) {}

  void add(const T& x) {
    if (seen_ < buf_.size()) {
      buf_[seen_] = x;
    } else {
      const std::uint64_t j = rng_.next_below(seen_ + 1);
      if (j < buf_.size()) buf_[j] = x;
    }
    ++seen_;
  }

  std::uint64_t seen() const { return seen_; }
  std::size_t size() const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(seen_, buf_.size()));
  }
  const T& operator[](std::size_t i) const { return buf_[i]; }

 private:
  std::vector<T> buf_;
  std::uint64_t seen_ = 0;
  Rng rng_;
};

/// Exact-timestamp quantiles over merged per-thread samples: each sample
/// stands for seen/size stream elements of its thread.
class Quantiles {
 public:
  void add(double v, double weight) {
    pts_.emplace_back(v, weight);
    total_ += weight;
  }
  std::size_t count() const { return pts_.size(); }

  double at(double q) {
    if (pts_.empty()) return 0;
    if (!sorted_) {
      std::sort(pts_.begin(), pts_.end());
      sorted_ = true;
    }
    const double target = q * total_;
    double cum = 0;
    for (const auto& [v, w] : pts_) {
      cum += w;
      if (cum >= target) return v;
    }
    return pts_.back().first;
  }

 private:
  std::vector<std::pair<double, double>> pts_;
  double total_ = 0;
  bool sorted_ = false;
};

}  // namespace perfbench
