#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace sf {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(42), b(43);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, UniformIntDegenerate) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
  EXPECT_EQ(rng.uniform_int(5, 4), 5);  // inverted range clamps to lo
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  double sum = 0.0, sum2 = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParams) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, LognormalMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.lognormal(0.0, 0.5);
  EXPECT_NEAR(sum / n, std::exp(0.125), 0.05);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng rng(29);
  const std::vector<double> w{1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) ++counts[rng.weighted_index(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(Rng, WeightedIndexDegenerate) {
  Rng rng(29);
  EXPECT_EQ(rng.weighted_index({}), 0u);
  EXPECT_EQ(rng.weighted_index({0.0, 0.0}), 0u);
}

TEST(Rng, SplitIsDeterministicAndIndependent) {
  Rng parent1(99), parent2(99);
  Rng a = parent1.split(7);
  Rng b = parent2.split(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());

  Rng c = parent1.split(8);
  Rng d = parent1.split("features");
  int same_cd = 0;
  Rng c2 = parent1.split(8);  // same tag from same state -> same stream
  for (int i = 0; i < 50; ++i) {
    if (c.next_u32() == d.next_u32()) ++same_cd;
  }
  EXPECT_LT(same_cd, 3);
  (void)c2;
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), sorted.begin()));
}

TEST(Rng, StableHashIsStable) {
  EXPECT_EQ(stable_hash64("summit"), stable_hash64("summit"));
  EXPECT_NE(stable_hash64("summit"), stable_hash64("andes"));
}

TEST(Rng, Mix64Mixes) {
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
  EXPECT_NE(mix64(0, 0), 0u);
}

}  // namespace
}  // namespace sf
