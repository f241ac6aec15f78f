#include "util/rng.hpp"

#include <cmath>
#include <numbers>

namespace sf {

namespace {
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

std::uint64_t stable_hash64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

void Rng::reseed(std::uint64_t seed, std::uint64_t stream) {
  state_ = 0;
  inc_ = (stream << 1u) | 1u;
  next_u32();
  state_ += splitmix64(seed);
  next_u32();
  has_cached_normal_ = false;
}

std::uint32_t Rng::next_u32() {
  const std::uint64_t old = state_;
  state_ = old * 6364136223846793005ULL + inc_;
  const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
  const auto rot = static_cast<std::uint32_t>(old >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((~rot + 1u) & 31u));
}

std::uint64_t Rng::next_u64() {
  return (static_cast<std::uint64_t>(next_u32()) << 32) | next_u32();
}

double Rng::uniform() {
  // 53 random bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (hi <= lo) return lo;
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = std::numeric_limits<std::uint64_t>::max() -
                              std::numeric_limits<std::uint64_t>::max() % range;
  std::uint64_t draw;
  do {
    draw = next_u64();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % range);
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform();
  } while (u1 <= 0.0);
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double sd) { return mean + sd * normal(); }

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

double Rng::exponential(double rate) {
  double u = 0.0;
  do {
    u = uniform();
  } while (u <= 0.0);
  return -std::log(u) / rate;
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += (w > 0.0 ? w : 0.0);
  if (total <= 0.0 || weights.empty()) return 0;
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    if (r < w) return i;
    r -= w;
  }
  return weights.size() - 1;
}

Rng Rng::split(std::uint64_t tag) const {
  const std::uint64_t child_seed = mix64(state_, tag);
  const std::uint64_t child_stream = mix64(inc_, ~tag);
  return Rng(child_seed, child_stream);
}

Rng Rng::split(std::string_view tag) const { return split(stable_hash64(tag)); }

}  // namespace sf
