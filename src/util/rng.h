#pragma once
// Deterministic, seedable pseudo-random number generation for all stochastic
// parts of the simulator (edit injection, Monte-Carlo device mismatch, HDAC
// coin flips). A single engine type is used everywhere so experiments are
// reproducible from a single seed.

#include <cstdint>

namespace asmcap {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference
/// implementation re-expressed in C++). Fast, 2^256-1 period, passes BigCrush.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the state from a single 64-bit value via splitmix64, which
  /// guarantees a well-mixed non-zero state for any seed (including 0).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  result_type operator()() { return next(); }

  std::uint64_t next();

  /// Uniform double in [0, 1). Uses the top 53 bits.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). Unbiased (rejection sampling).
  std::uint64_t below(std::uint64_t n);

  /// Standard normal via Box-Muller (cached second deviate).
  double normal();

  /// Normal with given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p);

  /// Forks an independent stream: deterministic function of the current
  /// state and the stream index, so parallel components can draw without
  /// correlating.
  Rng fork(std::uint64_t stream) const;

 private:
  std::uint64_t s_[4] = {};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

}  // namespace asmcap
