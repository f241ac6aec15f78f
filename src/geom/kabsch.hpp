// Kabsch optimal rigid-body superposition.
//
// Core primitive under TM-score, SPECS-score, and the structural aligner:
// given paired point sets, find the rotation + translation minimizing RMSD.
// Every superposition goes through one path: superpose() accumulates the
// centroids and cross-covariance, superposition_from_covariance() turns
// the covariance into a rotation with Horn's quaternion method (Jacobi
// eigendecomposition of a 4x4 symmetric matrix, no external
// linear-algebra dependency, never a reflection).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "geom/vec3.hpp"

namespace sf {

struct Superposition {
  Mat3 rotation = Mat3::identity();
  Vec3 translation;  // apply as: rotation * x + translation
  double rmsd = 0.0;

  Vec3 apply(const Vec3& p) const { return rotation * p + translation; }
};

// Optimal superposition of `mobile` onto `target` (equal sizes, >= 1).
// With size 1 or 2 a valid (degenerate) solution is still returned.
Superposition kabsch(const std::vector<Vec3>& mobile, const std::vector<Vec3>& target);

// Rotation from the cross-covariance cov[a][b] = sum_i w_i m_a t_b of
// centred point pairs, and the translation taking `mobile_centroid` onto
// `target_centroid`; rmsd is left 0.
Superposition superposition_from_covariance(const double cov[3][3], const Vec3& mobile_centroid,
                                            const Vec3& target_centroid);

// The weight of every pair in an unweighted superposition: a constant,
// so no weight vector exists. Multiplying by 1.0 is exact, so an
// unweighted superposition is bit-identical to a weighted one with all
// weights 1.
inline constexpr auto kUnitWeight = [](std::size_t) { return 1.0; };

// Superposition of the n pairs (mobile(i), target(i)) with weights
// weight(i) summing to wsum > 0, read through accessors so a caller can
// superpose an index subset without gathering it; rmsd is left 0.
template <typename MobileAt, typename TargetAt, typename WeightAt>
Superposition superpose(std::size_t n, const MobileAt& mobile, const TargetAt& target,
                        const WeightAt& weight, double wsum) {
  Vec3 cm;
  Vec3 ct;
  for (std::size_t i = 0; i < n; ++i) {
    cm += mobile(i) * weight(i);
    ct += target(i) * weight(i);
  }
  cm = cm / wsum;
  ct = ct / wsum;
  double cov[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  for (std::size_t i = 0; i < n; ++i) {
    const Vec3 m = mobile(i) - cm;
    const Vec3 t = target(i) - ct;
    const double w = weight(i);
    const double mc[3] = {m.x, m.y, m.z};
    const double tc[3] = {t.x, t.y, t.z};
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) cov[a][b] += w * mc[a] * tc[b];
    }
  }
  return superposition_from_covariance(cov, cm, ct);
}

// Weighted RMSD of the same pairs under `sp`, from the transformed points
// (the eigenvalue identity cancels catastrophically for near-perfect fits).
template <typename MobileAt, typename TargetAt, typename WeightAt>
double superposition_rmsd(const Superposition& sp, std::size_t n, const MobileAt& mobile,
                          const TargetAt& target, const WeightAt& weight, double wsum) {
  double e = 0.0;
  for (std::size_t i = 0; i < n; ++i) e += weight(i) * distance2(sp.apply(mobile(i)), target(i));
  return std::sqrt(std::max(0.0, e) / wsum);
}

}  // namespace sf
