// Deterministic, seedable random number generation.
//
// All stochastic components of treesat (workload generators, the genetic
// algorithm, property-test instance factories) draw from this generator so
// that every experiment in EXPERIMENTS.md is reproducible from a seed.
// The engine is xoshiro256**, which is small, fast and has no measurable
// bias for the distributions used here.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace treesat {

/// splitmix64 (Steele et al.): advances `state` by the golden-ratio stride
/// and returns the mixed value. Rng seeds its words with it, and it is the
/// one finalizer behind derive_instance_seed (core/executor.hpp) and
/// FaultPlan's decision hash (storage/faults.hpp).
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** by Blackman & Vigna (public domain reference implementation
/// re-expressed). Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four words of state via SplitMix64, per the authors'
  /// recommendation, so that low-entropy seeds (0, 1, 2, ...) still produce
  /// decorrelated streams.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~static_cast<result_type>(0); }

  result_type operator()();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Uniform index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Picks one element uniformly. Requires non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    TS_REQUIRE(!v.empty(), "Rng::pick on empty vector");
    return v[index(v.size())];
  }

  /// Forks an independent stream (used to give each GA island / each
  /// generated scenario its own generator without sharing state).
  Rng fork();

 private:
  std::uint64_t state_[4];
};

}  // namespace treesat
