#include "geom/kabsch.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.hpp"

namespace sf {
namespace {

// Determinant of a row-major 3x3 matrix: row0 . (row1 x row2).
double det(const Mat3& r) {
  const auto row = [&](int i) { return Vec3{r.m[i][0], r.m[i][1], r.m[i][2]}; };
  return row(0).dot(row(1).cross(row(2)));
}

std::vector<Vec3> random_cloud(std::size_t n, Rng& rng) {
  std::vector<Vec3> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back({rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-10, 10)});
  }
  return pts;
}

TEST(Kabsch, IdentityForIdenticalClouds) {
  Rng rng(1);
  const auto pts = random_cloud(20, rng);
  const Superposition sp = kabsch(pts, pts);
  EXPECT_NEAR(sp.rmsd, 0.0, 1e-9);
  for (const auto& p : pts) {
    const Vec3 q = sp.apply(p);
    EXPECT_NEAR(distance(p, q), 0.0, 1e-9);
  }
}

// Property: kabsch exactly recovers any rigid transform, across sizes.
class KabschRecovery : public ::testing::TestWithParam<int> {};

TEST_P(KabschRecovery, RecoversRigidTransform) {
  Rng rng(GetParam());
  const auto mobile = random_cloud(static_cast<std::size_t>(GetParam()) + 4, rng);
  const Mat3 rot = rotation_about_axis(Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized(),
                                       rng.uniform(-3.0, 3.0));
  const Vec3 shift{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)};
  std::vector<Vec3> target;
  for (const auto& p : mobile) target.push_back(rot * p + shift);

  const Superposition sp = kabsch(mobile, target);
  EXPECT_NEAR(sp.rmsd, 0.0, 1e-6);
  for (std::size_t i = 0; i < mobile.size(); ++i) {
    EXPECT_NEAR(distance(sp.apply(mobile[i]), target[i]), 0.0, 1e-6);
  }
  EXPECT_NEAR(det(sp.rotation), 1.0, 1e-9);  // proper rotation, no reflection
}

INSTANTIATE_TEST_SUITE_P(Sizes, KabschRecovery, ::testing::Values(1, 3, 5, 17, 64, 200));

TEST(Kabsch, RmsdMatchesDirectForNoisyClouds) {
  Rng rng(7);
  const auto a = random_cloud(50, rng);
  std::vector<Vec3> b = a;
  for (auto& p : b) p += Vec3{rng.normal(0, 0.5), rng.normal(0, 0.5), rng.normal(0, 0.5)};
  const Superposition sp = kabsch(a, b);
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += distance2(sp.apply(a[i]), b[i]);
  EXPECT_NEAR(sp.rmsd, std::sqrt(s / a.size()), 1e-9);
  // Optimal superposition can only improve on the RMSD as placed.
  double raw = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) raw += distance2(a[i], b[i]);
  EXPECT_LE(sp.rmsd, std::sqrt(raw / a.size()) + 1e-12);
}

TEST(Kabsch, WeightedIgnoresZeroWeightOutliers) {
  Rng rng(13);
  auto mobile = random_cloud(20, rng);
  auto target = mobile;
  std::vector<double> w(20, 1.0);
  // Outlier pair with zero weight must not affect the fit.
  mobile.push_back({100, 100, 100});
  target.push_back({-100, -100, -100});
  w.push_back(0.0);
  const auto m = [&](std::size_t i) -> const Vec3& { return mobile[i]; };
  const auto t = [&](std::size_t i) -> const Vec3& { return target[i]; };
  const auto wt = [&](std::size_t i) { return w[i]; };
  const Superposition sp = superpose(mobile.size(), m, t, wt, 20.0);
  EXPECT_NEAR(superposition_rmsd(sp, mobile.size(), m, t, wt, 20.0), 0.0, 1e-9);
}

TEST(Kabsch, ThrowsOnBadInput) {
  std::vector<Vec3> a{{0, 0, 0}}, b;
  EXPECT_THROW(kabsch(a, b), std::invalid_argument);
  EXPECT_THROW(kabsch(b, b), std::invalid_argument);
}

}  // namespace
}  // namespace sf
