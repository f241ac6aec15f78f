#include "geom/vec3.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

namespace sf {
namespace {

Vec3 row(const Mat3& r, int i) { return {r.m[i][0], r.m[i][1], r.m[i][2]}; }

// Determinant of a row-major 3x3 matrix: row0 . (row1 x row2).
double det(const Mat3& r) { return row(r, 0).dot(row(r, 1).cross(row(r, 2))); }

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ((a * 2.0).y, 4.0);
  EXPECT_DOUBLE_EQ((2.0 * a).y, 4.0);
  EXPECT_DOUBLE_EQ((a / 2.0).x, 0.5);
  EXPECT_DOUBLE_EQ((-a).z, -3.0);
}

TEST(Vec3, DotAndCross) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
  const Vec3 c = x.cross(y);
  EXPECT_DOUBLE_EQ(c.x, z.x);
  EXPECT_DOUBLE_EQ(c.y, z.y);
  EXPECT_DOUBLE_EQ(c.z, z.z);
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_DOUBLE_EQ(v.normalized().norm(), 1.0);
  // Zero vector normalizes to a unit fallback, not NaN.
  EXPECT_DOUBLE_EQ(Vec3{}.normalized().norm(), 1.0);
}

TEST(Vec3, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0, 0}, {3, 4, 0}), 5.0);
  EXPECT_DOUBLE_EQ(distance2({1, 1, 1}, {2, 2, 2}), 3.0);
}

TEST(Mat3, IdentityAction) {
  const Mat3 id = Mat3::identity();
  const Vec3 v{1.5, -2.5, 3.5};
  const Vec3 r = id * v;
  EXPECT_DOUBLE_EQ(r.x, v.x);
  EXPECT_DOUBLE_EQ(r.y, v.y);
  EXPECT_DOUBLE_EQ(r.z, v.z);
  EXPECT_DOUBLE_EQ(det(id), 1.0);
}

TEST(Mat3, Product) {
  Mat3 m;
  m.m[0][1] = 2.0;
  const Mat3 p = m * Mat3::identity();
  EXPECT_DOUBLE_EQ(p.m[0][1], 2.0);
}

TEST(Rotation, PreservesLengthAndAngle) {
  const Mat3 r = rotation_about_axis({0, 0, 1}, std::numbers::pi / 2.0);
  const Vec3 v = r * Vec3{1, 0, 0};
  EXPECT_NEAR(v.x, 0.0, 1e-12);
  EXPECT_NEAR(v.y, 1.0, 1e-12);
  EXPECT_NEAR(v.z, 0.0, 1e-12);
  EXPECT_NEAR(det(r), 1.0, 1e-12);
}

TEST(Rotation, ArbitraryAxisIsOrthonormal) {
  const Mat3 r = rotation_about_axis(Vec3{1, 2, 3}.normalized(), 0.7);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      EXPECT_NEAR(row(r, i).dot(row(r, j)), i == j ? 1.0 : 0.0, 1e-12);
    }
  }
}

}  // namespace
}  // namespace sf
