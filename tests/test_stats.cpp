#include "util/stats.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats rs;
  const double xs[] = {1.0, 2.0, 4.0, 8.0, 16.0};
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), 5u);
  EXPECT_DOUBLE_EQ(rs.mean(), 6.2);
  EXPECT_DOUBLE_EQ(rs.max(), 16.0);
  // Sample variance with n-1.
  double m = 6.2, s2 = 0.0;
  for (double x : xs) s2 += (x - m) * (x - m);
  EXPECT_NEAR(rs.variance(), s2 / 4.0, 1e-12);
}

TEST(RunningStats, Empty) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
}

TEST(SampleSet, QuantilesExact) {
  SampleSet s;
  for (int i = 1; i <= 5; ++i) s.add(i);  // 1..5
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.25), 2.0);
}

TEST(SampleSet, FractionAtLeast) {
  SampleSet s;
  for (int i = 0; i < 10; ++i) s.add(i);  // 0..9
  EXPECT_DOUBLE_EQ(s.fraction_at_least(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.fraction_at_least(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.fraction_at_least(100.0), 0.0);
}

TEST(SampleSet, EmptyIsSafe) {
  SampleSet s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.fraction_at_least(1.0), 0.0);
}

TEST(Pearson, PerfectCorrelation) {
  std::vector<double> x{1, 2, 3, 4}, y{2, 4, 6, 8}, z{8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
}

TEST(Pearson, DegenerateIsZero) {
  std::vector<double> x{1, 1, 1}, y{1, 2, 3};
  EXPECT_EQ(pearson(x, y), 0.0);
  EXPECT_EQ(pearson({}, {}), 0.0);
}

TEST(LinearFitTest, RecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 20; ++i) {
    x.push_back(i);
    y.push_back(3.0 + 2.5 * i);
  }
  const LinearFit f = linear_fit(x, y);
  EXPECT_NEAR(f.intercept, 3.0, 1e-9);
  EXPECT_NEAR(f.slope, 2.5, 1e-9);
}

TEST(HistogramTest, BinningAndClamping) {
  Histogram h(0.0, 10.0, 5);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 4
  h.add(-3.0);  // clamps to bin 0
  h.add(42.0);  // clamps to bin 4
  h.add(5.0);   // bin 2
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(4), 2u);
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
  EXPECT_FALSE(h.ascii().empty());
}

}  // namespace
}  // namespace sf
