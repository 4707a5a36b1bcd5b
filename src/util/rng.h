// Deterministic, splittable random number generation.
//
// xoshiro256** seeded via splitmix64 — fast, high quality, and reproducible
// across platforms (no reliance on libstdc++ distribution internals for the
// core streams; normal variates use Box–Muller on our own uniforms).
#pragma once

#include <cmath>
#include <cstdint>

namespace dtfe {

namespace detail {
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}
}  // namespace detail

/// Nonzero RNG state for task `index` of a stream (one ray, one grid
/// column): a splitmix of (seed, index). It does not depend on which thread
/// runs the task, so parallel renders are bitwise reproducible under any
/// OpenMP team size or schedule.
inline std::uint64_t task_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ull * (index + 1));
  const std::uint64_t v = detail::splitmix64(state);
  return v ? v : 0x9e3779b97f4a7c15ull;
}

/// xoshiro256** PRNG. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x2545f4914f6cdd1dull) {
    std::uint64_t sm = seed;
    for (auto& s : s_) s = detail::splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Derive an independent stream (e.g. one per rank or per work item).
  Rng split(std::uint64_t stream) const {
    Rng child(s_[0] ^ (stream * 0x9e3779b97f4a7c15ull + 0x1234567));
    return child;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n) {
    // Lemire's nearly-divisionless bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal variate (Box–Muller; one value per call, cached pair).
  double normal() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = uniform();
    while (u1 <= 0.0) u1 = uniform();
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  /// Poisson variate (Knuth for small mean, normal approximation for large).
  std::uint64_t poisson(double mean) {
    if (mean <= 0.0) return 0;
    if (mean < 30.0) {
      const double limit = std::exp(-mean);
      double prod = uniform();
      std::uint64_t n = 0;
      while (prod > limit) {
        ++n;
        prod *= uniform();
      }
      return n;
    }
    const double v = mean + std::sqrt(mean) * normal();
    return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace dtfe
