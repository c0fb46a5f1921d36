// Deterministic random number generation for reproducible experiments.
//
// Every stochastic component in ccascope (workload generators, the synthetic
// NDT dataset, jitter models) draws from an Rng seeded explicitly by the
// scenario. Two runs with the same seed produce byte-identical output; the
// simulator never reads wall-clock entropy.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "util/units.hpp"

namespace ccc {

/// A seeded pseudo-random source with the distributions our workloads need.
///
/// Wraps std::mt19937_64 (fixed algorithm across platforms, guaranteed by the
/// standard) so results are reproducible everywhere.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_{seed} {}

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() { return unit_(engine_); }
  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [lo, hi] (inclusive).
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }
  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) { return uniform() < p; }

  /// Exponential with the given mean (mean = 1/lambda). Used for poisson
  /// inter-arrival times of short flows (§3.2's "poisson arrivals" traffic).
  [[nodiscard]] double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Normal (Gaussian) with mean mu and standard deviation sigma.
  [[nodiscard]] double normal(double mu, double sigma) {
    return std::normal_distribution<double>{mu, sigma}(engine_);
  }

  /// Log-normal parameterized by the *underlying* normal's mu/sigma.
  [[nodiscard]] double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>{mu, sigma}(engine_);
  }

  /// Bounded Pareto on [lo, hi] with shape alpha. Models heavy-tailed flow
  /// sizes ("most flows are short, most bytes are in long flows", §2.2).
  [[nodiscard]] double bounded_pareto(double alpha, double lo, double hi);

  /// Poisson-distributed count with the given mean.
  [[nodiscard]] std::int64_t poisson(double mean) {
    return std::poisson_distribution<std::int64_t>{mean}(engine_);
  }

  /// Pick an index in [0, weights.size()) with probability proportional to
  /// its weight. Precondition: at least one strictly positive weight.
  [[nodiscard]] std::size_t weighted_index(const std::vector<double>& weights);

  /// Derive an independent child generator (for per-flow streams) so that
  /// adding draws in one component does not perturb another.
  [[nodiscard]] Rng fork() { return Rng{engine_()}; }

  /// Access the raw engine for std distributions not wrapped above.
  [[nodiscard]] std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

namespace util {

/// splitmix64 (Steele, Lea & Flood): one golden-ratio Weyl step followed by
/// the finalizer. A cheap, stateless, well-mixed 64-bit hash; adjacent
/// inputs land in unrelated parts of the output space.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e37'79b9'7f4a'7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58'476d'1ce4'e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d0'49bb'1331'11ebull;
  return x ^ (x >> 31);
}

}  // namespace util

}  // namespace ccc
