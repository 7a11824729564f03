#include "util/rng.h"

#include <cmath>

#include "util/check.h"

namespace picloud::util {

namespace {

std::uint64_t splitmix64(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(&sm);
}

Rng Rng::fork() {
  return Rng(next_u64());
}

std::uint64_t Rng::next_u64() {
  // xoshiro256**
  std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  PICLOUD_CHECK_LE(lo, hi) << "uniform_int bounds";
  // Unsigned arithmetic: a span wider than INT64_MAX would overflow hi - lo
  // and lo + offset as signed integers; modulo 2^64 both come out right.
  const auto ulo = static_cast<std::uint64_t>(lo);
  std::uint64_t range = static_cast<std::uint64_t>(hi) - ulo + 1;
  if (range == 0) return static_cast<std::int64_t>(next_u64());  // full range
  // Rejection sampling to avoid modulo bias.
  std::uint64_t limit = ~0ULL - (~0ULL % range + 1) % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v > limit);
  return static_cast<std::int64_t>(ulo + v % range);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

double Rng::exponential(double mean) {
  PICLOUD_CHECK_GT(mean, 0) << "exponential mean";
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::pareto(double alpha, double xm) {
  PICLOUD_CHECK(alpha > 0 && xm > 0)
      << "pareto shape/minimum: alpha=" << alpha << " xm=" << xm;
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return xm / std::pow(u, 1.0 / alpha);
}

double Rng::normal(double mean, double stddev) {
  double u1;
  do {
    u1 = next_double();
  } while (u1 <= 0.0);
  double u2 = next_double();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

bool Rng::chance(double p) {
  return next_double() < p;
}

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  PICLOUD_CHECK(!weights.empty()) << "weighted_index over empty vector";
  double total = 0;
  for (double w : weights) {
    PICLOUD_CHECK_GE(w, 0) << "weighted_index weight";
    total += w;
  }
  PICLOUD_CHECK_GT(total, 0) << "weighted_index weights all zero";
  double x = uniform(0, total);
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (x < acc) return i;
  }
  return weights.size() - 1;
}

}  // namespace picloud::util
