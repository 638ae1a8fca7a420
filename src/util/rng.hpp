// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component of the library (defect sampling, Monte-Carlo
// populations, process jitter) draws from `Rng`, a xoshiro256** generator
// seeded explicitly, so that every experiment is reproducible bit-for-bit
// from its seed.
#pragma once

#include <cstdint>
#include <vector>

namespace memstress {

/// xoshiro256** pseudo-random generator with SplitMix64 seeding.
///
/// Satisfies the essentials of `UniformRandomBitGenerator` so it can also be
/// plugged into <random> distributions if desired.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next raw 64-bit value.
  std::uint64_t operator()();

  /// Advance the stream past its next n values, as n calls of operator()
  /// would (the std engines' name).
  void discard(std::uint64_t n);

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Log-uniform double in [lo, hi); lo and hi must be positive.
  double log_uniform(double lo, double hi);

  /// Standard normal via Box-Muller (no cached spare; stateless per call pair).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal: exp(normal(mu, sigma)).
  double log_normal(double mu, double sigma);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t below(std::uint64_t n);

  /// Bernoulli trial with probability p of returning true.
  bool chance(double p);

  /// Poisson-distributed count with the given mean: PoissonDraw(mean) of
  /// this stream.
  unsigned poisson(double mean);

  /// Pick an index in [0, weights.size()) with probability proportional to
  /// weights[i]. Weights must be non-negative with a positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Derive an independent child generator (for parallel or per-device
  /// streams) without disturbing this generator's sequence statistics.
  Rng split();

 private:
  std::uint64_t state_[4];
};

/// Poisson counts of one mean (Knuth for small means, normal approximation
/// above 64), with the checks on the mean and exp(-mean) done once: a
/// caller drawing many counts of one mean builds one. Draw for draw and
/// throw for throw, `PoissonDraw(mean)(rng)` is `rng.poisson(mean)`.
class PoissonDraw {
 public:
  /// Throws Error for a negative (or NaN) mean.
  explicit PoissonDraw(double mean);

  /// One count from `rng`. Throws Error for a draw that does not fit
  /// `unsigned` (a mean near 2^32 or above).
  unsigned operator()(Rng& rng) const;

 private:
  double mean_;
  double stddev_ = 0.0;    ///< normal approximation: sqrt(mean)
  double threshold_ = 0.0; ///< Knuth: exp(-mean)
};

}  // namespace memstress
