#include "geom/kabsch.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

namespace sf {

namespace {

// Jacobi rotation eigensolver for small symmetric matrices (N <= 4).
// Cheap, branch-light, and dependency-free; accuracy is ample for
// superposition (off-diagonals reduced below 1e-13).
template <int N>
void jacobi_eigen(std::array<std::array<double, N>, N>& a, std::array<double, N>& eigenvalues,
                  std::array<std::array<double, N>, N>& vectors) {
  for (int i = 0; i < N; ++i) {
    for (int j = 0; j < N; ++j) vectors[i][j] = (i == j) ? 1.0 : 0.0;
  }
  for (int sweep = 0; sweep < 64; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < N; ++p) {
      for (int q = p + 1; q < N; ++q) off += a[p][q] * a[p][q];
    }
    if (off < 1e-26) break;
    for (int p = 0; p < N; ++p) {
      for (int q = p + 1; q < N; ++q) {
        if (std::abs(a[p][q]) < 1e-300) continue;
        const double theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < N; ++k) {
          const double akp = a[k][p];
          const double akq = a[k][q];
          a[k][p] = c * akp - s * akq;
          a[k][q] = s * akp + c * akq;
        }
        for (int k = 0; k < N; ++k) {
          const double apk = a[p][k];
          const double aqk = a[q][k];
          a[p][k] = c * apk - s * aqk;
          a[q][k] = s * apk + c * aqk;
        }
        for (int k = 0; k < N; ++k) {
          const double vkp = vectors[k][p];
          const double vkq = vectors[k][q];
          vectors[k][p] = c * vkp - s * vkq;
          vectors[k][q] = s * vkp + c * vkq;
        }
      }
    }
  }
  for (int i = 0; i < N; ++i) eigenvalues[i] = a[i][i];
  // Sort eigenpairs descending.
  for (int i = 0; i < N; ++i) {
    int best = i;
    for (int j = i + 1; j < N; ++j) {
      if (eigenvalues[j] > eigenvalues[best]) best = j;
    }
    if (best != i) {
      std::swap(eigenvalues[i], eigenvalues[best]);
      for (int k = 0; k < N; ++k) std::swap(vectors[k][i], vectors[k][best]);
    }
  }
}

}  // namespace

Mat3 rotation_about_axis(const Vec3& axis, double angle) {
  const Vec3 u = axis.normalized();
  const double c = std::cos(angle);
  const double s = std::sin(angle);
  const double t = 1.0 - c;
  Mat3 r;
  r.m[0][0] = c + u.x * u.x * t;
  r.m[0][1] = u.x * u.y * t - u.z * s;
  r.m[0][2] = u.x * u.z * t + u.y * s;
  r.m[1][0] = u.y * u.x * t + u.z * s;
  r.m[1][1] = c + u.y * u.y * t;
  r.m[1][2] = u.y * u.z * t - u.x * s;
  r.m[2][0] = u.z * u.x * t - u.y * s;
  r.m[2][1] = u.z * u.y * t + u.x * s;
  r.m[2][2] = c + u.z * u.z * t;
  return r;
}

Superposition superposition_from_covariance(const double S[3][3], const Vec3& mobile_centroid,
                                            const Vec3& target_centroid) {
  // Horn's quaternion method: the rotation is encoded in the dominant
  // eigenvector of this 4x4 symmetric matrix; the quaternion form never
  // produces a reflection, so no determinant fix-up is needed.
  std::array<std::array<double, 4>, 4> N{};
  N[0][0] = S[0][0] + S[1][1] + S[2][2];
  N[0][1] = N[1][0] = S[1][2] - S[2][1];
  N[0][2] = N[2][0] = S[2][0] - S[0][2];
  N[0][3] = N[3][0] = S[0][1] - S[1][0];
  N[1][1] = S[0][0] - S[1][1] - S[2][2];
  N[1][2] = N[2][1] = S[0][1] + S[1][0];
  N[1][3] = N[3][1] = S[2][0] + S[0][2];
  N[2][2] = -S[0][0] + S[1][1] - S[2][2];
  N[2][3] = N[3][2] = S[1][2] + S[2][1];
  N[3][3] = -S[0][0] - S[1][1] + S[2][2];

  std::array<double, 4> vals{};
  std::array<std::array<double, 4>, 4> vecs{};
  jacobi_eigen<4>(N, vals, vecs);

  const double qw = vecs[0][0];
  const double qx = vecs[1][0];
  const double qy = vecs[2][0];
  const double qz = vecs[3][0];

  Superposition sp;
  sp.rotation.m[0][0] = qw * qw + qx * qx - qy * qy - qz * qz;
  sp.rotation.m[0][1] = 2.0 * (qx * qy - qw * qz);
  sp.rotation.m[0][2] = 2.0 * (qx * qz + qw * qy);
  sp.rotation.m[1][0] = 2.0 * (qx * qy + qw * qz);
  sp.rotation.m[1][1] = qw * qw - qx * qx + qy * qy - qz * qz;
  sp.rotation.m[1][2] = 2.0 * (qy * qz - qw * qx);
  sp.rotation.m[2][0] = 2.0 * (qx * qz - qw * qy);
  sp.rotation.m[2][1] = 2.0 * (qy * qz + qw * qx);
  sp.rotation.m[2][2] = qw * qw - qx * qx - qy * qy + qz * qz;

  sp.translation = target_centroid - sp.rotation * mobile_centroid;
  return sp;
}

Superposition kabsch(const std::vector<Vec3>& mobile, const std::vector<Vec3>& target) {
  if (mobile.size() != target.size() || mobile.empty()) {
    throw std::invalid_argument("kabsch: size mismatch or empty input");
  }
  const auto m = [&](std::size_t i) -> const Vec3& { return mobile[i]; };
  const auto t = [&](std::size_t i) -> const Vec3& { return target[i]; };
  const auto wsum = static_cast<double>(mobile.size());
  Superposition sp = superpose(mobile.size(), m, t, kUnitWeight, wsum);
  sp.rmsd = superposition_rmsd(sp, mobile.size(), m, t, kUnitWeight, wsum);
  return sp;
}

}  // namespace sf
