#include "analysis/struct_align.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bio/fold_grammar.hpp"
#include "geom/kabsch.hpp"
#include "native/render.hpp"
#include "score/tm_score.hpp"
#include "util/rng.hpp"

namespace sf {

// The kernel before its DP kept two rolling score rows: a dense n*m
// similarity matrix and an (n+1)*(m+1) score matrix, with the
// re-superposition weights read back from the similarity matrix. Kept
// verbatim as the reference the streaming kernel must match bit for bit.
namespace reference {

namespace {

// Needleman-Wunsch over a dense similarity matrix with linear gaps;
// returns the monotone correspondence maximizing total similarity.
// `h` and `tb` are the caller's (n+1)*(m+1) score and traceback
// matrices; every call rewrites all of both but the zero boundary row
// and column of `h`, which it never writes, so the caller zero-fills
// them once and reuses them across calls.
std::vector<std::pair<int, int>> dp_align(const std::vector<double>& sim, int n, int m,
                                          double gap, std::vector<double>& h,
                                          std::vector<std::uint8_t>& tb) {
  const auto at = [m](int i, int j) {
    return static_cast<std::size_t>(i) * (m + 1) + static_cast<std::size_t>(j);
  };
  // Boundary rows stay 0: end gaps are free (glocal alignment), as in
  // TM-align's DP phase.
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= m; ++j) {
      const double diag =
          h[at(i - 1, j - 1)] + sim[static_cast<std::size_t>(i - 1) * m + (j - 1)];
      const double up = h[at(i - 1, j)] - gap;
      const double left = h[at(i, j - 1)] - gap;
      double best = diag;
      std::uint8_t dir = 1;
      if (up > best) {
        best = up;
        dir = 2;
      }
      if (left > best) {
        best = left;
        dir = 3;
      }
      h[at(i, j)] = best;
      tb[at(i, j)] = dir;
    }
  }
  std::vector<std::pair<int, int>> pairs;
  int i = n;
  int j = m;
  while (i > 0 && j > 0) {
    const std::uint8_t dir = tb[at(i, j)];
    if (dir == 1) {
      pairs.emplace_back(i - 1, j - 1);
      --i;
      --j;
    } else if (dir == 2) {
      --i;
    } else {
      --j;
    }
  }
  std::reverse(pairs.begin(), pairs.end());
  return pairs;
}

double tm_from_pairs(const std::vector<Vec3>& q, const std::vector<Vec3>& t,
                     const std::vector<std::pair<int, int>>& pairs, std::size_t norm,
                     const Superposition& sp) {
  const double d0 = tm_d0(norm);
  double score = 0.0;
  for (const auto& [qi, tj] : pairs) {
    const double d2 =
        distance2(sp.apply(q[static_cast<std::size_t>(qi)]), t[static_cast<std::size_t>(tj)]);
    score += 1.0 / (1.0 + d2 / (d0 * d0));
  }
  return score / static_cast<double>(norm);
}

}  // namespace

StructAlignResult struct_align_ca(const std::vector<Vec3>& query_ca,
                                  const std::vector<Vec3>& target_ca,
                                  const std::string& query_seq, const std::string& target_seq,
                                  const StructAlignParams& params) {
  StructAlignResult best;
  const int n = static_cast<int>(query_ca.size());
  const int m = static_cast<int>(target_ca.size());
  if (n < 4 || m < 4) return best;

  const double d0q = tm_d0(static_cast<std::size_t>(n));

  // Phase 1 -- dense gapless-threading seeds, cheaply scored. For every
  // (query anchor, target offset) fragment pair: superpose the fragments,
  // then score the *whole* implied gapless register (i -> i + offset)
  // under that transform in O(overlap). Density matters: d0 is small, so
  // a register error of a few residues makes the true correspondence
  // invisible to the DP; only the best seeds earn the expensive
  // refinement.
  const int frag = std::min({params.fragment_length, n, m});
  struct ScoredSeed {
    double threading_tm;
    Superposition sp;
  };
  std::vector<ScoredSeed> scored_seeds;
  {
    const int q_anchors = std::clamp((n - frag) / std::max(1, frag / 2) + 1, 1, 5);
    const int t_step = std::max(2, frag / 4);
    for (int a = 0; a < q_anchors; ++a) {
      const int qa = q_anchors > 1 ? (n - frag) * a / (q_anchors - 1) : 0;
      for (int tb = 0; tb + frag <= m; tb += t_step) {
        // The fragments are read in place; only the transform is used, so
        // its RMSD is never computed.
        const auto qf = [&](std::size_t i) -> const Vec3& {
          return query_ca[static_cast<std::size_t>(qa) + i];
        };
        const auto tf = [&](std::size_t i) -> const Vec3& {
          return target_ca[static_cast<std::size_t>(tb) + i];
        };
        ScoredSeed seed;
        seed.sp = superpose(static_cast<std::size_t>(frag), qf, tf, kUnitWeight,
                            static_cast<double>(frag));
        // Gapless register implied by the fragment pair.
        const int offset = tb - qa;
        const int lo = std::max(0, -offset);
        const int hi = std::min(n, m - offset);
        double tm = 0.0;
        for (int i = lo; i < hi; ++i) {
          const double d2 = distance2(seed.sp.apply(query_ca[static_cast<std::size_t>(i)]),
                                      target_ca[static_cast<std::size_t>(i + offset)]);
          tm += 1.0 / (1.0 + d2 / (d0q * d0q));
        }
        seed.threading_tm = tm / static_cast<double>(n);
        scored_seeds.push_back(std::move(seed));
      }
    }
  }
  std::sort(scored_seeds.begin(), scored_seeds.end(),
            [](const ScoredSeed& a, const ScoredSeed& b) {
              return a.threading_tm > b.threading_tm;
            });
  const std::size_t refine_count =
      std::min<std::size_t>(scored_seeds.size(),
                            static_cast<std::size_t>(std::max(1, params.max_seeds / 6)));

  // Phase 2 -- iterative DP refinement of the best seeds.
  std::vector<Superposition> seeds;
  seeds.reserve(refine_count);
  for (std::size_t i = 0; i < refine_count; ++i) seeds.push_back(scored_seeds[i].sp);

  // Buffers shared by every refinement iteration of every seed.
  std::vector<double> sim(static_cast<std::size_t>(n) * m);
  std::vector<double> dp_h(static_cast<std::size_t>(n + 1) * (m + 1), 0.0);
  std::vector<std::uint8_t> dp_tb(static_cast<std::size_t>(n + 1) * (m + 1), 0);
  std::vector<Vec3> qs;
  std::vector<Vec3> ts;
  std::vector<double> ws;
  for (const auto& seed : seeds) {
    Superposition sp = seed;
    std::vector<std::pair<int, int>> pairs;
    double prev_tm = -1.0;
    for (int iter = 0; iter < params.max_iterations; ++iter) {
      // Score matrix under the current transform.
      for (int i = 0; i < n; ++i) {
        const Vec3 qi = sp.apply(query_ca[static_cast<std::size_t>(i)]);
        for (int j = 0; j < m; ++j) {
          const double d2 = distance2(qi, target_ca[static_cast<std::size_t>(j)]);
          sim[static_cast<std::size_t>(i) * m + j] = 1.0 / (1.0 + d2 / (d0q * d0q));
        }
      }
      pairs = dp_align(sim, n, m, params.gap_penalty, dp_h, dp_tb);
      if (pairs.size() < 3) break;
      // Re-superpose weighted by the TM kernel: well-fitting pairs steer
      // the transform, badly-fitting ones barely perturb it, which lets
      // the iteration walk into the right register from a rough seed.
      qs.clear();
      ts.clear();
      ws.clear();
      for (const auto& [qi, tj] : pairs) {
        qs.push_back(query_ca[static_cast<std::size_t>(qi)]);
        ts.push_back(target_ca[static_cast<std::size_t>(tj)]);
        ws.push_back(sim[static_cast<std::size_t>(qi) * m + tj] + 0.02);
      }
      sp = kabsch_weighted(qs, ts, ws);
      const double tm = tm_from_pairs(query_ca, target_ca, pairs, static_cast<std::size_t>(n), sp);
      if (tm <= prev_tm + 1e-6) break;
      prev_tm = tm;
    }
    if (pairs.size() < 3) continue;
    const double tmq =
        tm_from_pairs(query_ca, target_ca, pairs, static_cast<std::size_t>(n), sp);
    if (tmq > best.tm_query) {
      best.tm_query = tmq;
      best.tm_target =
          tm_from_pairs(query_ca, target_ca, pairs, static_cast<std::size_t>(m), sp);
      best.pairs = pairs;
      double s2 = 0.0;
      std::size_t same = 0;
      for (const auto& [qi, tj] : pairs) {
        s2 += distance2(sp.apply(query_ca[static_cast<std::size_t>(qi)]),
                        target_ca[static_cast<std::size_t>(tj)]);
        if (qi < static_cast<int>(query_seq.size()) && tj < static_cast<int>(target_seq.size()) &&
            query_seq[static_cast<std::size_t>(qi)] == target_seq[static_cast<std::size_t>(tj)]) {
          ++same;
        }
      }
      best.rmsd = std::sqrt(s2 / static_cast<double>(pairs.size()));
      best.aligned_seq_identity =
          pairs.empty() ? 0.0 : static_cast<double>(same) / static_cast<double>(pairs.size());
    }
  }
  return best;
}


}  // namespace reference

namespace {

struct AlignWorld {
  Rng rng{41};
  FoldSpec fold_a = sample_fold(rng, 120);
  FoldSpec fold_b = sample_fold(rng, 120);
  std::string seq_a = sample_sequence_for_ss(render_ss(fold_a, 120), rng);
  std::string seq_b = sample_sequence_for_ss(render_ss(fold_b, 120), rng);
  Structure a = build_fold_structure("a", fold_a, seq_a);
  Structure b = build_fold_structure("b", fold_b, seq_b);
};

TEST(StructAlign, SelfAlignmentIsPerfect) {
  AlignWorld w;
  const StructAlignResult r = struct_align(w.a, w.a);
  EXPECT_GT(r.tm_query, 0.98);
  EXPECT_NEAR(r.aligned_seq_identity, 1.0, 1e-9);
  EXPECT_LT(r.rmsd, 0.2);
  EXPECT_EQ(r.pairs.size(), w.a.size());
}

TEST(StructAlign, SameFoldDifferentLengthAlignsWell) {
  AlignWorld w;
  // Same fold rendered at a different length: a genuine remote homolog.
  Rng hrng(5);
  const std::string seq2 = homolog_sequence(w.fold_a, w.seq_a, 120, 150, 0.25, hrng);
  const Structure homolog = build_fold_structure("h", w.fold_a, seq2);
  const StructAlignResult r = struct_align(w.a, homolog);
  EXPECT_GT(r.tm_query, 0.5);
  // Sequence identity over the structural alignment is low -- the §4.6
  // regime where structure search succeeds and sequence search fails.
  EXPECT_LT(r.aligned_seq_identity, 0.45);
}

TEST(StructAlign, DifferentFoldsScoreLow) {
  AlignWorld w;
  const StructAlignResult r = struct_align(w.a, w.b);
  EXPECT_LT(r.tm_query, 0.5);
}

TEST(StructAlign, SameVsDifferentFoldSeparation) {
  AlignWorld w;
  Rng hrng(9);
  const std::string seq2 = homolog_sequence(w.fold_a, w.seq_a, 120, 110, 0.3, hrng);
  const Structure same_fold = build_fold_structure("same", w.fold_a, seq2);
  const double tm_same = struct_align(w.a, same_fold).tm_query;
  const double tm_diff = struct_align(w.a, w.b).tm_query;
  EXPECT_GT(tm_same, tm_diff + 0.15);
}

TEST(StructAlign, NormalizationAsymmetry) {
  AlignWorld w;
  // Align a fragment against the full structure: tm_query (by fragment
  // length) should exceed tm_target (by full length).
  Structure fragment("frag");
  for (std::size_t i = 10; i < 70; ++i) fragment.add_residue(w.a.residue(i));
  const StructAlignResult r = struct_align(fragment, w.a);
  EXPECT_GT(r.tm_query, 0.8);
  EXPECT_LT(r.tm_target, r.tm_query);
}

TEST(StructAlign, TinyStructuresAreSafe) {
  Structure tiny("t");
  for (int i = 0; i < 3; ++i) {
    Residue r;
    r.ca = {static_cast<double>(i) * 3.8, 0, 0};
    tiny.add_residue(r);
  }
  AlignWorld w;
  const StructAlignResult r = struct_align(tiny, w.a);
  EXPECT_EQ(r.tm_query, 0.0);  // too small to align
}

TEST(StructAlign, PairsAreMonotone) {
  AlignWorld w;
  Rng hrng(13);
  const std::string seq2 = homolog_sequence(w.fold_a, w.seq_a, 120, 140, 0.4, hrng);
  const Structure homolog = build_fold_structure("h", w.fold_a, seq2);
  const StructAlignResult r = struct_align(w.a, homolog);
  for (std::size_t i = 1; i < r.pairs.size(); ++i) {
    EXPECT_GT(r.pairs[i].first, r.pairs[i - 1].first);
    EXPECT_GT(r.pairs[i].second, r.pairs[i - 1].second);
  }
}

// Bit identity with the dense-matrix reference: every output of
// struct_align_ca, the whole correspondence included, must be equal, not
// merely close.
void expect_same_as_reference(const Structure& q, const Structure& t) {
  SCOPED_TRACE(q.name() + " (" + std::to_string(q.size()) + ") vs " + t.name() + " (" +
               std::to_string(t.size()) + ")");
  const StructAlignParams params;
  const StructAlignResult got = struct_align_ca(q.ca_coords(), t.ca_coords(),
                                                q.sequence_string(), t.sequence_string(), params);
  const StructAlignResult want = reference::struct_align_ca(
      q.ca_coords(), t.ca_coords(), q.sequence_string(), t.sequence_string(), params);
  EXPECT_EQ(got.tm_query, want.tm_query);
  EXPECT_EQ(got.tm_target, want.tm_target);
  EXPECT_EQ(got.rmsd, want.rmsd);
  EXPECT_EQ(got.aligned_seq_identity, want.aligned_seq_identity);
  EXPECT_EQ(got.pairs, want.pairs);
}

TEST(StructAlign, BitIdenticalToDenseMatrixReference) {
  Rng rng(2024);
  // One fold per length; neighbouring lengths are different folds, and
  // each pair is aligned both ways (n < m and n > m).
  const std::vector<int> lengths = {3, 4, 5, 20, 64, 257, 600};
  std::vector<FoldSpec> folds;
  std::vector<std::string> seqs;
  std::vector<Structure> chains;
  for (const int len : lengths) {
    folds.push_back(sample_fold(rng, len));
    seqs.push_back(sample_sequence_for_ss(render_ss(folds.back(), len), rng));
    chains.push_back(build_fold_structure("len" + std::to_string(len), folds.back(), seqs.back()));
  }
  for (std::size_t k = 0; k < chains.size(); ++k) {
    expect_same_as_reference(chains[k], chains[k]);
    if (k + 1 < chains.size()) {
      expect_same_as_reference(chains[k], chains[k + 1]);
      expect_same_as_reference(chains[k + 1], chains[k]);
    }
  }
  // Different folds at one length.
  const FoldSpec other = sample_fold(rng, 64);
  const Structure other64 =
      build_fold_structure("other64", other, sample_sequence_for_ss(render_ss(other, 64), rng));
  expect_same_as_reference(chains[4], other64);
  // The same fold rendered at two lengths, both ways.
  for (const std::size_t k : {std::size_t{3}, std::size_t{4}, std::size_t{5}}) {
    const int len = lengths[k];
    Rng hrng(300 + static_cast<std::uint64_t>(len));
    const std::string hseq = homolog_sequence(folds[k], seqs[k], len, len + len / 4, 0.3, hrng);
    const Structure homolog =
        build_fold_structure("homolog" + std::to_string(len), folds[k], hseq);
    expect_same_as_reference(chains[k], homolog);
    expect_same_as_reference(homolog, chains[k]);
  }
}

}  // namespace
}  // namespace sf
