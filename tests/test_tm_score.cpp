#include "score/tm_score.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "geom/backbone.hpp"
#include "geom/kabsch.hpp"
#include "util/rng.hpp"

namespace sf {
namespace {

std::vector<Vec3> helix_trace(int n, unsigned seed = 5) {
  Rng rng(seed);
  return build_ca_trace(std::string(static_cast<std::size_t>(n), 'H'), rng);
}

// ---- reference: the search before passes were allocation-free and
// memoized, with the superposition it called, verbatim ----------------
namespace ref {

// Jacobi rotation eigensolver for small symmetric matrices (N <= 4).
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

Vec3 centroid_weighted(const std::vector<Vec3>& pts, const std::vector<double>& w, double wsum) {
  Vec3 c;
  for (std::size_t i = 0; i < pts.size(); ++i) c += pts[i] * w[i];
  return c / wsum;
}

Superposition kabsch_weighted(const std::vector<Vec3>& mobile, const std::vector<Vec3>& target,
                              const std::vector<double>& weights) {
  if (mobile.size() != target.size() || mobile.size() != weights.size() || mobile.empty()) {
    throw std::invalid_argument("kabsch_weighted: size mismatch or empty input");
  }
  double wsum = 0.0;
  for (double w : weights) wsum += w;
  if (wsum <= 0.0) throw std::invalid_argument("kabsch_weighted: non-positive weight sum");

  const Vec3 cm = centroid_weighted(mobile, weights, wsum);
  const Vec3 ct = centroid_weighted(target, weights, wsum);

  // Cross-covariance S_ab = sum_i w_i * m_a * t_b over centered coords.
  double S[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  double norm_m = 0.0;
  double norm_t = 0.0;
  for (std::size_t i = 0; i < mobile.size(); ++i) {
    const Vec3 m = mobile[i] - cm;
    const Vec3 t = target[i] - ct;
    const double w = weights[i];
    const double mc[3] = {m.x, m.y, m.z};
    const double tc[3] = {t.x, t.y, t.z};
    for (int a = 0; a < 3; ++a) {
      for (int b = 0; b < 3; ++b) S[a][b] += w * mc[a] * tc[b];
    }
    norm_m += w * m.norm2();
    norm_t += w * t.norm2();
  }

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

  sp.translation = ct - sp.rotation * cm;

  // Direct residual evaluation: the eigenvalue identity
  // e = |m|^2 + |t|^2 - 2*lambda_max suffers catastrophic cancellation for
  // near-perfect fits, so compute the RMSD from the transformed points.
  (void)norm_m;
  (void)norm_t;
  double e = 0.0;
  for (std::size_t i = 0; i < mobile.size(); ++i) {
    e += weights[i] * distance2(sp.apply(mobile[i]), target[i]);
  }
  sp.rmsd = std::sqrt(std::max(0.0, e) / wsum);
  return sp;
}

Superposition kabsch(const std::vector<Vec3>& mobile, const std::vector<Vec3>& target) {
  const std::vector<double> w(mobile.size(), 1.0);
  return ref::kabsch_weighted(mobile, target, w);
}

// One evaluation: superpose on `subset`, score all pairs, and return the
// next subset (pairs within d_cut of each other after superposition).
struct PassResult {
  double tm = 0.0;
  Superposition sp;
  std::vector<int> next_subset;
};

PassResult evaluate_pass(const std::vector<Vec3>& model, const std::vector<Vec3>& target,
                         const std::vector<std::pair<int, int>>& pairs,
                         const std::vector<int>& subset, double d0, double d_cut,
                         std::size_t norm_length) {
  PassResult res;
  std::vector<Vec3> m_sub;
  std::vector<Vec3> t_sub;
  m_sub.reserve(subset.size());
  t_sub.reserve(subset.size());
  for (int k : subset) {
    m_sub.push_back(model[static_cast<std::size_t>(pairs[static_cast<std::size_t>(k)].first)]);
    t_sub.push_back(target[static_cast<std::size_t>(pairs[static_cast<std::size_t>(k)].second)]);
  }
  res.sp = ref::kabsch(m_sub, t_sub);

  const double d0_2 = d0 * d0;
  const double d_cut2 = d_cut * d_cut;
  double score = 0.0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const Vec3 mp = res.sp.apply(model[static_cast<std::size_t>(pairs[k].first)]);
    const double d2 = distance2(mp, target[static_cast<std::size_t>(pairs[k].second)]);
    score += 1.0 / (1.0 + d2 / d0_2);
    if (d2 < d_cut2) res.next_subset.push_back(static_cast<int>(k));
  }
  res.tm = score / static_cast<double>(norm_length);
  return res;
}

TmResult tm_score_aligned(const std::vector<Vec3>& model_ca, const std::vector<Vec3>& target_ca,
                          const std::vector<std::pair<int, int>>& pairs,
                          std::size_t norm_length) {
  TmResult best;
  if (pairs.empty() || norm_length == 0) return best;
  const double d0 = tm_d0(norm_length);
  // Distance cutoff for subset refinement, as in the reference
  // implementation: d0 but never below 4.5 A.
  const double d_cut = std::max(4.5, d0);
  const auto n_ali = static_cast<int>(pairs.size());

  // Seed fragments: full alignment, halves, quarters... down to length 4,
  // each at several offsets (the published heuristic's seed schedule).
  std::vector<std::vector<int>> seeds;
  for (int frag = n_ali; frag >= 4; frag /= 2) {
    const int step = std::max(1, frag / 2);
    for (int start = 0; start + frag <= n_ali; start += step) {
      std::vector<int> seed(static_cast<std::size_t>(frag));
      for (int i = 0; i < frag; ++i) seed[static_cast<std::size_t>(i)] = start + i;
      seeds.push_back(std::move(seed));
    }
    if (frag == 4) break;
  }
  if (seeds.empty()) {
    std::vector<int> all(static_cast<std::size_t>(n_ali));
    for (int i = 0; i < n_ali; ++i) all[static_cast<std::size_t>(i)] = i;
    seeds.push_back(std::move(all));
  }

  for (const auto& seed : seeds) {
    std::vector<int> subset = seed;
    for (int iter = 0; iter < 20; ++iter) {
      if (subset.size() < 3) break;
      PassResult pass =
          ref::evaluate_pass(model_ca, target_ca, pairs, subset, d0, d_cut, norm_length);
      if (pass.tm > best.tm_score) {
        best.tm_score = pass.tm;
        best.superposition = pass.sp;
        // RMSD and count over the converged inclusion set.
        best.aligned = pass.next_subset.size();
        if (!pass.next_subset.empty()) {
          double s = 0.0;
          for (int k : pass.next_subset) {
            const auto& pr = pairs[static_cast<std::size_t>(k)];
            const Vec3 mp = pass.sp.apply(model_ca[static_cast<std::size_t>(pr.first)]);
            s += distance2(mp, target_ca[static_cast<std::size_t>(pr.second)]);
          }
          best.rmsd_aligned = std::sqrt(s / static_cast<double>(pass.next_subset.size()));
        }
      }
      if (pass.next_subset == subset || pass.next_subset.size() < 3) break;
      subset = std::move(pass.next_subset);
    }
  }
  return best;
}

TmResult tm_score(const std::vector<Vec3>& model_ca, const std::vector<Vec3>& target_ca) {
  if (model_ca.size() != target_ca.size()) {
    throw std::invalid_argument("tm_score: structures must have equal residue counts");
  }
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(model_ca.size());
  for (std::size_t i = 0; i < model_ca.size(); ++i) {
    pairs.emplace_back(static_cast<int>(i), static_cast<int>(i));
  }
  return ref::tm_score_aligned(model_ca, target_ca, pairs, target_ca.size());
}

}  // namespace ref

TEST(TmScore, D0Formula) {
  EXPECT_DOUBLE_EQ(tm_d0(10), 0.5);  // floor for tiny proteins
  EXPECT_NEAR(tm_d0(100), 1.24 * std::cbrt(85.0) - 1.8, 1e-12);
  EXPECT_GT(tm_d0(500), tm_d0(100));
}

TEST(TmScore, SelfScoreIsOne) {
  const auto ca = helix_trace(80);
  const TmResult r = tm_score(ca, ca);
  EXPECT_NEAR(r.tm_score, 1.0, 1e-9);
  EXPECT_NEAR(r.rmsd_aligned, 0.0, 1e-9);
  EXPECT_EQ(r.aligned, ca.size());
}

TEST(TmScore, RigidMotionInvariance) {
  const auto ca = helix_trace(60);
  const Mat3 rot = rotation_about_axis(Vec3{1, 1, 0}.normalized(), 1.2);
  std::vector<Vec3> moved;
  for (const auto& p : ca) moved.push_back(rot * p + Vec3{20, -5, 3});
  EXPECT_NEAR(tm_score(moved, ca).tm_score, 1.0, 1e-6);
}

TEST(TmScore, MonotoneUnderNoise) {
  Rng rng(9);
  const auto ca = helix_trace(100);
  double prev = 1.1;
  for (double sigma : {0.5, 1.5, 3.0, 6.0}) {
    Rng noise(3);
    std::vector<Vec3> noisy = ca;
    for (auto& p : noisy) {
      p += Vec3{noise.normal(0, sigma), noise.normal(0, sigma), noise.normal(0, sigma)};
    }
    const double tm = tm_score(noisy, ca).tm_score;
    EXPECT_LT(tm, prev);
    prev = tm;
  }
  EXPECT_GT(prev, 0.0);
}

TEST(TmScore, PartialMatchBeatsGlobalRmsdFit) {
  // Half the structure matches perfectly, half is displaced far away:
  // the iterative search must lock onto the good half.
  const auto ca = helix_trace(80);
  std::vector<Vec3> model = ca;
  for (std::size_t i = 40; i < model.size(); ++i) model[i] += Vec3{25, 25, 25};
  const TmResult r = tm_score(model, ca);
  // Roughly half the residues at near-zero distance -> TM ~ 0.5.
  EXPECT_GT(r.tm_score, 0.40);
  EXPECT_LT(r.tm_score, 0.65);
  EXPECT_GE(r.aligned, 35u);
  EXPECT_LT(r.rmsd_aligned, 2.0);
}

TEST(TmScore, ThrowsOnLengthMismatch) {
  EXPECT_THROW(tm_score(helix_trace(10), helix_trace(11)), std::invalid_argument);
}

TEST(TmScore, EmptyPairsGiveZero) {
  const TmResult r = tm_score_aligned({}, {}, {}, 10);
  EXPECT_EQ(r.tm_score, 0.0);
}

TEST(TmScore, AlignedNormalization) {
  // Same correspondence, different normalization lengths.
  const auto ca = helix_trace(50);
  std::vector<std::pair<int, int>> pairs;
  for (int i = 0; i < 50; ++i) pairs.emplace_back(i, i);
  const TmResult by50 = tm_score_aligned(ca, ca, pairs, 50);
  const TmResult by100 = tm_score_aligned(ca, ca, pairs, 100);
  EXPECT_NEAR(by50.tm_score, 1.0, 1e-9);
  EXPECT_NEAR(by100.tm_score, 0.5, 0.05);
}

// Property: TM in (0, 1] for random perturbation levels and sizes.
class TmRange : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TmRange, ScoreInRange) {
  const auto [n, sigma] = GetParam();
  Rng noise(n);
  auto ca = helix_trace(n, 17);
  std::vector<Vec3> noisy = ca;
  for (auto& p : noisy) {
    p += Vec3{noise.normal(0, sigma), noise.normal(0, sigma), noise.normal(0, sigma)};
  }
  const double tm = tm_score(noisy, ca).tm_score;
  EXPECT_GT(tm, 0.0);
  EXPECT_LE(tm, 1.0 + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Grid, TmRange,
                         ::testing::Combine(::testing::Values(20, 60, 150),
                                            ::testing::Values(0.2, 2.0, 8.0)));

// ---- the search against the reference ------------------------------------

// A mixed helix/strand/coil trace, as the engine's natives are.
std::vector<Vec3> mixed_trace(int n, unsigned seed) {
  Rng rng(seed);
  std::string ss;
  for (int i = 0; i < n; ++i) ss += (i / 12) % 3 == 0 ? 'H' : ((i / 12) % 3 == 1 ? 'E' : 'C');
  return build_ca_trace(ss, rng);
}

std::vector<Vec3> perturbed(const std::vector<Vec3>& ca, double sigma, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec3> out = ca;
  for (auto& p : out) p += Vec3{rng.normal(0, sigma), rng.normal(0, sigma), rng.normal(0, sigma)};
  return out;
}

void expect_same_superposition(const Superposition& got, const Superposition& want) {
  for (int a = 0; a < 3; ++a) {
    for (int b = 0; b < 3; ++b) EXPECT_EQ(got.rotation.m[a][b], want.rotation.m[a][b]);
  }
  EXPECT_EQ(got.translation.x, want.translation.x);
  EXPECT_EQ(got.translation.y, want.translation.y);
  EXPECT_EQ(got.translation.z, want.translation.z);
  EXPECT_EQ(got.rmsd, want.rmsd);
}

void expect_same_result(const TmResult& got, const TmResult& want) {
  EXPECT_EQ(got.tm_score, want.tm_score);
  EXPECT_EQ(got.rmsd_aligned, want.rmsd_aligned);
  EXPECT_EQ(got.aligned, want.aligned);
  expect_same_superposition(got.superposition, want.superposition);
}

TEST(TmScoreSearch, MatchesTheReferenceSearchBitForBit) {
  for (const int n : {3, 4, 5, 17, 64, 300, 900}) {
    const auto target = mixed_trace(n, static_cast<unsigned>(n));
    for (const double sigma : {0.2, 2.0, 8.0}) {
      SCOPED_TRACE(::testing::Message() << "n " << n << " sigma " << sigma);
      const auto model = perturbed(target, sigma, static_cast<std::uint64_t>(n) * 7 + 1);
      expect_same_result(tm_score(model, target), ref::tm_score(model, target));
    }
  }
}

TEST(TmScoreSearch, HalfDisplacedModelMatchesTheReference) {
  for (const int n : {17, 64, 300}) {
    SCOPED_TRACE(::testing::Message() << "n " << n);
    const auto target = mixed_trace(n, 11);
    auto model = perturbed(target, 0.5, 3);
    for (std::size_t i = target.size() / 2; i < model.size(); ++i) model[i] += Vec3{25, 25, 25};
    expect_same_result(tm_score(model, target), ref::tm_score(model, target));
  }
}

TEST(TmScoreSearch, RigidSegmentModelMatchesTheReference) {
  // A 119-residue chain cut into rigidly shifted segments. Some seed's
  // trajectory here reaches a subset that an earlier seed reached with
  // fewer passes left and must go on past it: a memo that stopped at any
  // revisited subset would report a lower score on this input.
  Rng pick(1760 * 977 + 13);
  const int n = static_cast<int>(pick.uniform_int(8, 120));
  const auto target = mixed_trace(n, 1760);
  auto model = perturbed(target, pick.uniform(1, 4), 1760);
  const int segments = static_cast<int>(pick.uniform_int(2, 5));
  for (int s = 0; s < segments; ++s) {
    const Vec3 shift{pick.normal(0, 5), pick.normal(0, 5), pick.normal(0, 5)};
    for (int i = s * n / segments; i < (s + 1) * n / segments; ++i) {
      model[static_cast<std::size_t>(i)] += shift;
    }
  }
  expect_same_result(tm_score(model, target), ref::tm_score(model, target));
}

TEST(TmScoreSearch, StructAlignStylePairsMatchTheReference) {
  // Unequal lengths under a monotone, gapped correspondence, normalized
  // by either chain's length, as the structural aligner scores them.
  for (const int m : {40, 150, 400}) {
    const auto target = mixed_trace(m, static_cast<unsigned>(m) + 3);
    Rng rng(static_cast<std::uint64_t>(m));
    std::vector<Vec3> query;
    std::vector<std::pair<int, int>> pairs;
    for (int j = 0; j < m; ++j) {
      if (rng.chance(0.15)) continue;  // deleted from the query
      if (rng.chance(0.1)) query.push_back(target[static_cast<std::size_t>(j)] + Vec3{6, -4, 3});
      if (!rng.chance(0.2)) pairs.emplace_back(static_cast<int>(query.size()), j);
      query.push_back(target[static_cast<std::size_t>(j)]);
    }
    query = perturbed(query, 1.5, 9);
    for (const std::size_t norm : {query.size(), target.size()}) {
      SCOPED_TRACE(::testing::Message() << "m " << m << " norm " << norm);
      expect_same_result(tm_score_aligned(query, target, pairs, norm),
                         ref::tm_score_aligned(query, target, pairs, norm));
    }
  }
}

TEST(TmScoreSearch, KabschMatchesTheReferenceBitForBit) {
  for (const int n : {1, 2, 3, 17, 300}) {
    const auto a = mixed_trace(n, 5);
    const auto b = perturbed(a, 2.0, 8);
    expect_same_superposition(kabsch(b, a), ref::kabsch(b, a));
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<double> w;
    for (int i = 0; i < n; ++i) w.push_back(rng.uniform(0.02, 1.0));
    double wsum = 0.0;
    for (double x : w) wsum += x;
    const auto mob = [&](std::size_t i) -> const Vec3& { return b[i]; };
    const auto tgt = [&](std::size_t i) -> const Vec3& { return a[i]; };
    const auto wt = [&](std::size_t i) { return w[i]; };
    Superposition sp = superpose(b.size(), mob, tgt, wt, wsum);
    sp.rmsd = superposition_rmsd(sp, b.size(), mob, tgt, wt, wsum);
    expect_same_superposition(sp, ref::kabsch_weighted(b, a, w));
  }
}

}  // namespace
}  // namespace sf
