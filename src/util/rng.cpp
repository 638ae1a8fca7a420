#include "util/rng.hpp"

#include <cassert>
#include <cmath>

#include "util/error.hpp"

namespace memstress {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::operator()() {
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

void Rng::discard(std::uint64_t n) {
  for (; n > 0; --n) (*this)();
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

double Rng::log_uniform(double lo, double hi) {
  require(lo > 0 && hi > lo, "Rng::log_uniform requires 0 < lo < hi");
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

double Rng::normal() {
  // Box-Muller; reject u1 == 0 to avoid log(0).
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::log_normal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

std::uint64_t Rng::below(std::uint64_t n) {
  require(n > 0, "Rng::below requires n > 0");
  // Rejection sampling to kill modulo bias.
  const std::uint64_t limit = max() - max() % n;
  std::uint64_t value = 0;
  do {
    value = (*this)();
  } while (value >= limit);
  return value % n;
}

bool Rng::chance(double p) { return uniform() < p; }

unsigned Rng::poisson(double mean) { return PoissonDraw(mean)(*this); }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  require(!weights.empty(), "Rng::weighted_index requires weights");
  double total = 0.0;
  for (double w : weights) {
    require(w >= 0.0, "Rng::weighted_index requires non-negative weights");
    total += w;
  }
  require(total > 0.0, "Rng::weighted_index requires a positive weight sum");
  double point = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    point -= weights[i];
    if (point < 0.0) return i;
  }
  return weights.size() - 1;  // Floating-point edge: return last bucket.
}

Rng Rng::split() { return Rng((*this)()); }

PoissonDraw::PoissonDraw(double mean) : mean_(mean) {
  require(mean >= 0.0, "Rng::poisson requires a non-negative mean");
  if (mean > 64.0)
    stddev_ = std::sqrt(mean);
  else
    threshold_ = std::exp(-mean);
}

unsigned PoissonDraw::operator()(Rng& rng) const {
  if (mean_ == 0.0) return 0;
  if (mean_ > 64.0) {
    // Normal approximation; adequate for the large-population studies here.
    const double draw = rng.normal(mean_, stddev_);
    if (draw <= 0.0) return 0u;
    // Past 2^32 (or for an infinite mean) the cast would be undefined.
    require(draw + 0.5 < 4294967296.0,
            "Rng::poisson: the mean is too large for an unsigned count");
    return static_cast<unsigned>(draw + 0.5);
  }
  unsigned count = 0;
  double product = rng.uniform();
  while (product > threshold_) {
    ++count;
    product *= rng.uniform();
  }
  return count;
}

}  // namespace memstress
