#include "common/rng.hpp"

namespace treesat {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) {
    word = splitmix64(s);
  }
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  TS_REQUIRE(lo <= hi, "uniform_int: lo=" << lo << " > hi=" << hi);
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {
    // Full 64-bit range requested.
    return static_cast<std::int64_t>((*this)());
  }
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = max() - max() % span;
  std::uint64_t draw = (*this)();
  while (draw >= limit) {
    draw = (*this)();
  }
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::uniform_real(double lo, double hi) {
  TS_REQUIRE(lo <= hi, "uniform_real: lo=" << lo << " > hi=" << hi);
  // 53 random mantissa bits -> uniform in [0, 1).
  const double unit = static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  return lo + unit * (hi - lo);
}

bool Rng::bernoulli(double p) {
  TS_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli: p=" << p << " outside [0,1]");
  return uniform_real(0.0, 1.0) < p;
}

std::size_t Rng::index(std::size_t n) {
  TS_REQUIRE(n > 0, "index: empty range");
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

Rng Rng::fork() { return Rng((*this)()); }

}  // namespace treesat
