#include "geom/distogram.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace sf {
namespace {

std::vector<Vec3> line(std::size_t n, double spacing) {
  std::vector<Vec3> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back({spacing * static_cast<double>(i), 0, 0});
  return pts;
}

TEST(Distogram, BinMapping) {
  EXPECT_EQ(Distogram::distance_to_bin(0.0), 0);  // below range clamps
  EXPECT_EQ(Distogram::distance_to_bin(Distogram::kMinDist), 0);
  EXPECT_EQ(Distogram::distance_to_bin(100.0), Distogram::kBins - 1);
  // Monotone.
  EXPECT_LE(Distogram::distance_to_bin(5.0), Distogram::distance_to_bin(6.0));
}

TEST(Distogram, IdenticalStructuresHaveZeroChange) {
  const auto pts = line(30, 3.8);
  Distogram a(pts), b(pts);
  EXPECT_DOUBLE_EQ(a.mean_abs_change(b), 0.0);
}

TEST(Distogram, ChangeScalesWithPerturbation) {
  Rng rng(3);
  const auto pts = line(40, 3.8);
  auto small = pts;
  auto big = pts;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    small[i] += Vec3{rng.normal(0, 0.3), rng.normal(0, 0.3), rng.normal(0, 0.3)};
    big[i] += Vec3{rng.normal(0, 2.0), rng.normal(0, 2.0), rng.normal(0, 2.0)};
  }
  const Distogram base(pts);
  EXPECT_LT(base.mean_abs_change(Distogram(small)), base.mean_abs_change(Distogram(big)));
}

TEST(Distogram, ChangeIsSymmetric) {
  Rng rng(5);
  const auto a = line(25, 3.8);
  auto b = a;
  for (auto& p : b) p += Vec3{rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)};
  Distogram da(a), db(b);
  EXPECT_DOUBLE_EQ(da.mean_abs_change(db), db.mean_abs_change(da));
}

TEST(Distogram, MismatchedSizesThrow) {
  Distogram a(line(10, 3.8)), b(line(11, 3.8));
  EXPECT_THROW(a.mean_abs_change(b), std::invalid_argument);
}

TEST(Distogram, TinyStructures) {
  Distogram a{std::vector<Vec3>{}}, b{std::vector<Vec3>{{0, 0, 0}}};
  EXPECT_DOUBLE_EQ(a.mean_abs_change(a), 0.0);
  EXPECT_DOUBLE_EQ(b.mean_abs_change(Distogram{std::vector<Vec3>{{1, 0, 0}}}), 0.0);
}

}  // namespace
}  // namespace sf
