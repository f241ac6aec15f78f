// 3-vector / 3x3-matrix primitives for structural geometry.
//
// Header-only by design: these are the innermost types of the relaxation
// force loops and the TM-score superposition search, and must inline.
#pragma once

#include <cmath>
#include <ostream>

namespace sf {

struct Vec3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  constexpr Vec3() = default;
  constexpr Vec3(double x_, double y_, double z_) : x(x_), y(y_), z(z_) {}

  constexpr Vec3 operator+(const Vec3& o) const { return {x + o.x, y + o.y, z + o.z}; }
  constexpr Vec3 operator-(const Vec3& o) const { return {x - o.x, y - o.y, z - o.z}; }
  constexpr Vec3 operator*(double s) const { return {x * s, y * s, z * s}; }
  constexpr Vec3 operator/(double s) const { return {x / s, y / s, z / s}; }
  constexpr Vec3 operator-() const { return {-x, -y, -z}; }

  Vec3& operator+=(const Vec3& o) {
    x += o.x;
    y += o.y;
    z += o.z;
    return *this;
  }
  Vec3& operator-=(const Vec3& o) {
    x -= o.x;
    y -= o.y;
    z -= o.z;
    return *this;
  }
  Vec3& operator*=(double s) {
    x *= s;
    y *= s;
    z *= s;
    return *this;
  }

  constexpr double dot(const Vec3& o) const { return x * o.x + y * o.y + z * o.z; }
  constexpr Vec3 cross(const Vec3& o) const {
    return {y * o.z - z * o.y, z * o.x - x * o.z, x * o.y - y * o.x};
  }
  double norm2() const { return dot(*this); }
  double norm() const { return std::sqrt(norm2()); }
  Vec3 normalized() const {
    const double n = norm();
    return n > 0.0 ? (*this) / n : Vec3{1.0, 0.0, 0.0};
  }
};

inline constexpr Vec3 operator*(double s, const Vec3& v) { return v * s; }

inline double distance(const Vec3& a, const Vec3& b) { return (a - b).norm(); }
inline double distance2(const Vec3& a, const Vec3& b) { return (a - b).norm2(); }

inline std::ostream& operator<<(std::ostream& os, const Vec3& v) {
  return os << '(' << v.x << ", " << v.y << ", " << v.z << ')';
}

// Row-major 3x3 matrix; only the operations superposition needs.
struct Mat3 {
  double m[3][3] = {{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};

  static constexpr Mat3 identity() { return Mat3{}; }

  Vec3 operator*(const Vec3& v) const {
    return {m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
            m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
            m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z};
  }

  Mat3 operator*(const Mat3& o) const {
    Mat3 r;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        r.m[i][j] = m[i][0] * o.m[0][j] + m[i][1] * o.m[1][j] + m[i][2] * o.m[2][j];
      }
    }
    return r;
  }
};

// Rotation by angle (radians) about a unit axis (Rodrigues' formula).
Mat3 rotation_about_axis(const Vec3& axis, double angle);

}  // namespace sf
