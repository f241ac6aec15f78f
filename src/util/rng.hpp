// Deterministic, splittable random number generation.
//
// Every stochastic component in summitfold draws from an explicit Rng
// instance; there is no hidden global state. Campaign-level code derives
// independent streams with Rng::split(tag...) keyed by stable identifiers
// (species id, protein index, model id), so results are bit-reproducible
// under any worker count or task schedule — mirroring the property that the
// real pipeline's outputs do not depend on which Dask worker ran a task.
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

namespace sf {

// PCG32 (O'Neill, pcg-random.org): small, fast, statistically strong, and
// trivially seedable with a (state, stream) pair — ideal for splitting.
class Rng {
 public:
  Rng() : Rng(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}
  explicit Rng(std::uint64_t seed, std::uint64_t stream = 1) { reseed(seed, stream); }

  void reseed(std::uint64_t seed, std::uint64_t stream = 1);

  // Uniform 32-bit draw; the base primitive for everything below.
  std::uint32_t next_u32();
  std::uint64_t next_u64();

  // Uniform real in [0, 1).
  double uniform();
  // Uniform real in [lo, hi).
  double uniform(double lo, double hi);
  // Uniform integer in [lo, hi] inclusive (unbiased via rejection).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  // Standard normal via Box-Muller (cached second deviate).
  double normal();
  double normal(double mean, double sd);
  // Log-normal with the *underlying* normal's mean/sd.
  double lognormal(double mu, double sigma);
  // Exponential with given rate (lambda).
  double exponential(double rate);
  // Bernoulli trial.
  bool chance(double p);
  // Index drawn from unnormalized weights (empty -> 0).
  std::size_t weighted_index(const std::vector<double>& weights);

  // Derive an independent child stream from this stream's identity and a
  // tag. Deterministic: same parent seed + same tags -> same child.
  Rng split(std::uint64_t tag) const;
  Rng split(std::string_view tag) const;

  // Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
  }

  // UniformRandomBitGenerator interface so <algorithm> utilities work too.
  using result_type = std::uint32_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<std::uint32_t>::max(); }
  result_type operator()() { return next_u32(); }

 private:
  std::uint64_t state_ = 0;
  std::uint64_t inc_ = 0;   // stream selector (must be odd)
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

// Stable 64-bit hash (FNV-1a) used for seed derivation from strings.
std::uint64_t stable_hash64(std::string_view s);
// Mix two 64-bit values (splitmix64 finalizer over their combination).
std::uint64_t mix64(std::uint64_t a, std::uint64_t b);

}  // namespace sf
