#include "analysis/struct_align.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "geom/kabsch.hpp"
#include "score/tm_score.hpp"

namespace sf {

namespace {

// TM-score kernel of one CA pair: 1 / (1 + d^2 / d0^2).
double tm_similarity(const Vec3& a, const Vec3& b, double d0) {
  return 1.0 / (1.0 + distance2(a, b) / (d0 * d0));
}

// dp_align's working memory, reused by every refinement iteration of one
// struct_align_ca call: the similarity row of the current query residue,
// two rolling score rows, and the n*m one-byte traceback. About one byte
// per DP cell plus O(m).
struct DpBuffers {
  DpBuffers(int n, int m)
      : sim(static_cast<std::size_t>(m)),
        prev(static_cast<std::size_t>(m) + 1, 0.0),
        cur(static_cast<std::size_t>(m) + 1, 0.0),
        tb(static_cast<std::size_t>(n) * static_cast<std::size_t>(m)) {}
  std::vector<double> sim;
  std::vector<double> prev;
  std::vector<double> cur;
  std::vector<std::uint8_t> tb;
};

// Needleman-Wunsch with linear gaps over the similarity S_ij =
// tm_similarity(sp(q_i), t_j, d0); returns the monotone correspondence
// maximizing total similarity. Each query row's similarities go into one
// m-long buffer and straight into that row of the DP, whose scores live
// in two rolling rows; only the traceback covers the whole matrix.
std::vector<std::pair<int, int>> dp_align(const std::vector<Vec3>& q, const std::vector<Vec3>& t,
                                          const Superposition& sp, double d0, double gap,
                                          DpBuffers& buf) {
  const int n = static_cast<int>(q.size());
  const int m = static_cast<int>(t.size());
  // The boundary row and column stay 0: end gaps are free (glocal
  // alignment), as in TM-align's DP phase. Column 0 of either row is
  // never written.
  std::fill(buf.prev.begin(), buf.prev.end(), 0.0);
  for (int i = 1; i <= n; ++i) {
    const Vec3 qi = sp.apply(q[static_cast<std::size_t>(i - 1)]);
    for (int j = 0; j < m; ++j) {
      buf.sim[static_cast<std::size_t>(j)] = tm_similarity(qi, t[static_cast<std::size_t>(j)], d0);
    }
    const double* sim = buf.sim.data();
    const double* up_row = buf.prev.data();
    double* row = buf.cur.data();
    std::uint8_t* tb = buf.tb.data() + static_cast<std::size_t>(i - 1) * m;
    for (int j = 1; j <= m; ++j) {
      const double diag = up_row[j - 1] + sim[j - 1];
      const double up = up_row[j] - gap;
      const double left = row[j - 1] - gap;
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
      row[j] = best;
      tb[j - 1] = dir;
    }
    std::swap(buf.prev, buf.cur);
  }
  std::vector<std::pair<int, int>> pairs;
  int i = n;
  int j = m;
  while (i > 0 && j > 0) {
    const std::uint8_t dir = buf.tb[static_cast<std::size_t>(i - 1) * m + (j - 1)];
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
    score += tm_similarity(sp.apply(q[static_cast<std::size_t>(qi)]),
                           t[static_cast<std::size_t>(tj)], d0);
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
          tm += tm_similarity(seed.sp.apply(query_ca[static_cast<std::size_t>(i)]),
                              target_ca[static_cast<std::size_t>(i + offset)], d0q);
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
  DpBuffers dp(n, m);
  std::vector<double> ws;
  for (const auto& seed : seeds) {
    Superposition sp = seed;
    std::vector<std::pair<int, int>> pairs;
    double prev_tm = -1.0;
    for (int iter = 0; iter < params.max_iterations; ++iter) {
      pairs = dp_align(query_ca, target_ca, sp, d0q, params.gap_penalty, dp);
      if (pairs.size() < 3) break;
      // Re-superpose weighted by the TM kernel: well-fitting pairs steer
      // the transform, badly-fitting ones barely perturb it, which lets
      // the iteration walk into the right register from a rough seed.
      // Each weight is the aligned pair's DP similarity (same transform,
      // same expression) plus a floor.
      ws.clear();
      double wsum = 0.0;
      for (const auto& [qi, tj] : pairs) {
        ws.push_back(tm_similarity(sp.apply(query_ca[static_cast<std::size_t>(qi)]),
                                   target_ca[static_cast<std::size_t>(tj)], d0q) +
                     0.02);
        wsum += ws.back();
      }
      sp = superpose(
          pairs.size(),
          [&](std::size_t k) -> const Vec3& {
            return query_ca[static_cast<std::size_t>(pairs[k].first)];
          },
          [&](std::size_t k) -> const Vec3& {
            return target_ca[static_cast<std::size_t>(pairs[k].second)];
          },
          [&](std::size_t k) { return ws[k]; }, wsum);
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

StructAlignResult struct_align(const Structure& query, const Structure& target,
                               const StructAlignParams& params) {
  return struct_align_ca(query.ca_coords(), target.ca_coords(), query.sequence_string(),
                         target.sequence_string(), params);
}

}  // namespace sf
