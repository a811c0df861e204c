// Deterministic pseudo-random number generation for the whole library.
//
// Every source of randomness (workload generation, KMV hash seeds, exchange
// hashing) derives from explicit 64-bit seeds, so tests and benchmarks are
// exactly reproducible. We use SplitMix64 for seed expansion and
// xoshiro256** for the main stream.

#ifndef PARJOIN_COMMON_RANDOM_H_
#define PARJOIN_COMMON_RANDOM_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "parjoin/common/logging.h"

namespace parjoin {

// SplitMix64 step: maps a state to the next state and a well-mixed output.
// Also usable as a standalone 64-bit mixer / hash finalizer.
inline std::uint64_t SplitMix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** by Blackman & Vigna: fast, high-quality, 256-bit state.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = SplitMix64(sm);
  }

  std::uint64_t Next() {
    const std::uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t Uniform(std::int64_t lo, std::int64_t hi) {
    CHECK_LE(lo, hi);
    const std::uint64_t range = static_cast<std::uint64_t>(hi - lo) + 1;
    if (range == 0) return static_cast<std::int64_t>(Next());  // full range
    return lo + static_cast<std::int64_t>(Next() % range);
  }

  // Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Bernoulli trial with success probability prob.
  bool Bernoulli(double prob) { return UniformDouble() < prob; }

 private:
  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

// Samples from a Zipf(s) distribution over {1, ..., n} using precomputed
// cumulative weights (O(log n) per sample after O(n) setup). Skew parameter
// s = 0 is uniform; larger s concentrates mass on small ranks.
class ZipfSampler {
 public:
  ZipfSampler(std::int64_t n, double skew) : cdf_(static_cast<size_t>(n)) {
    CHECK_GT(n, 0);
    double total = 0;
    for (std::int64_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (auto& v : cdf_) v /= total;
  }

  // Returns a rank in [1, n].
  std::int64_t Sample(Rng& rng) const {
    const double u = rng.UniformDouble();
    // Binary search for the first cdf entry >= u.
    size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return static_cast<std::int64_t>(lo) + 1;
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace parjoin

#endif  // PARJOIN_COMMON_RANDOM_H_
