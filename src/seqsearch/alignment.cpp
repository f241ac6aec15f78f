#include "seqsearch/alignment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "bio/amino_acid.hpp"

namespace sf {

namespace {

constexpr int kNegInf = std::numeric_limits<int>::min() / 4;

// Traceback codes for the H (best-ending-here) matrix.
enum : std::uint8_t { kStop = 0, kDiag = 1, kFromE = 2, kFromF = 3 };
// Codes for E/F: whether the gap was opened (from H) or extended.
enum : std::uint8_t { kGapOpen = 0, kGapExtend = 1 };

struct DpResult {
  int best_score = 0;
  int best_i = 0;  // 1-based end row
  int best_j = 0;  // 1-based end col
};

// Gotoh affine-gap Smith-Waterman DP (clamped at 0, best anywhere) over
// the window j in [lo(i), hi(i)]. Traceback matrices are (n+1) x (m+1).
DpResult run_dp(std::string_view q, std::string_view s, const AlignmentParams& p,
                int diagonal, int band, std::vector<std::uint8_t>& tb_h,
                std::vector<std::uint8_t>& tb_e, std::vector<std::uint8_t>& tb_f) {
  const int n = static_cast<int>(q.size());
  const int m = static_cast<int>(s.size());
  const std::size_t stride = static_cast<std::size_t>(m) + 1;
  tb_h.assign((static_cast<std::size_t>(n) + 1) * stride, kStop);
  tb_e.assign((static_cast<std::size_t>(n) + 1) * stride, kGapOpen);
  tb_f.assign((static_cast<std::size_t>(n) + 1) * stride, kGapOpen);

  const bool banded = band >= 0;
  auto window_lo = [&](int i) {
    if (!banded) return 1;
    return std::max(1, i - diagonal - band);
  };
  auto window_hi = [&](int i) {
    if (!banded) return m;
    return std::min(m, i - diagonal + band);
  };

  std::vector<int> h_prev(stride, 0);
  std::vector<int> h_cur(stride, 0);
  std::vector<int> e_cur(stride, kNegInf);
  // f_cur[j] holds F(i-1, j) when row i reads it, then is overwritten
  // with F(i, j); vertical gaps extend across rows through this buffer.
  std::vector<int> f_cur(stride, kNegInf);

  // H never drops below 0, so every H read below is finite.
  DpResult res;
  for (int i = 1; i <= n; ++i) {
    std::fill(h_cur.begin(), h_cur.end(), 0);
    std::fill(e_cur.begin(), e_cur.end(), kNegInf);
    const int lo = window_lo(i);
    const int hi = window_hi(i);
    const char qc = q[static_cast<std::size_t>(i - 1)];
    for (int j = lo; j <= hi; ++j) {
      const std::size_t idx = static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j);
      // E: gap in query (move along subject).
      const int e_open = h_cur[static_cast<std::size_t>(j - 1)] + p.gap_open;
      const int e_ext = e_cur[static_cast<std::size_t>(j - 1)] + p.gap_extend;
      int e = e_open;
      if (e_ext > e_open) {
        e = e_ext;
        tb_e[idx] = kGapExtend;
      }
      e_cur[static_cast<std::size_t>(j)] = e;
      // F: gap in subject (move along query); extends vertically from row
      // i-1, whose value is still in f_cur[j].
      const int f_open = h_prev[static_cast<std::size_t>(j)] + p.gap_open;
      const int f_prev_row = f_cur[static_cast<std::size_t>(j)];
      int fv = f_open;
      if (f_prev_row != kNegInf && f_prev_row + p.gap_extend > fv) {
        fv = f_prev_row + p.gap_extend;
        tb_f[idx] = kGapExtend;
      }
      int best = h_prev[static_cast<std::size_t>(j - 1)] +
                 blosum62(qc, s[static_cast<std::size_t>(j - 1)]);
      std::uint8_t dir = kDiag;
      if (e > best) {
        best = e;
        dir = kFromE;
      }
      if (fv > best) {
        best = fv;
        dir = kFromF;
      }
      if (best <= 0) {
        best = 0;
        dir = kStop;
      }
      h_cur[static_cast<std::size_t>(j)] = best;
      tb_h[idx] = dir;
      f_cur[static_cast<std::size_t>(j)] = fv;
      if (best > res.best_score) {
        res.best_score = best;
        res.best_i = i;
        res.best_j = j;
      }
    }
    std::swap(h_prev, h_cur);
  }
  return res;
}

AlignmentResult traceback(std::string_view q, std::string_view s, const DpResult& dp,
                          std::size_t stride, const std::vector<std::uint8_t>& tb_h,
                          const std::vector<std::uint8_t>& tb_e,
                          const std::vector<std::uint8_t>& tb_f) {
  AlignmentResult res;
  res.score = dp.best_score;
  int i = dp.best_i;
  int j = dp.best_j;
  // Walk H/E/F states back to the first kStop.
  enum class State { H, E, F } state = State::H;
  std::vector<std::pair<int, int>> rev;
  while (i > 0 || j > 0) {
    const std::size_t idx = static_cast<std::size_t>(i) * stride + static_cast<std::size_t>(j);
    if (state == State::H) {
      const std::uint8_t dir = tb_h[idx];
      if (dir == kStop) break;
      if (dir == kDiag) {
        rev.emplace_back(i - 1, j - 1);
        --i;
        --j;
      } else if (dir == kFromE) {
        state = State::E;
      } else {
        state = State::F;
      }
    } else if (state == State::E) {
      const std::uint8_t g = tb_e[idx];
      --j;
      state = g == kGapExtend ? State::E : State::H;
    } else {
      const std::uint8_t g = tb_f[idx];
      --i;
      state = g == kGapExtend ? State::F : State::H;
    }
    if (i < 0 || j < 0) break;
  }
  std::reverse(rev.begin(), rev.end());
  res.pairs = std::move(rev);
  if (!res.pairs.empty()) {
    res.query_begin = res.pairs.front().first;
    res.query_end = res.pairs.back().first + 1;
    res.subject_begin = res.pairs.front().second;
    res.subject_end = res.pairs.back().second + 1;
    std::size_t same = 0;
    for (const auto& [qi, sj] : res.pairs) {
      if (q[static_cast<std::size_t>(qi)] == s[static_cast<std::size_t>(sj)]) ++same;
    }
    res.identity = static_cast<double>(same) / static_cast<double>(res.pairs.size());
    res.query_coverage =
        q.empty() ? 0.0 : static_cast<double>(res.pairs.size()) / static_cast<double>(q.size());
  }
  return res;
}

AlignmentResult align(std::string_view q, std::string_view s, const AlignmentParams& p,
                      int diagonal, int band) {
  if (q.empty() || s.empty()) return {};
  std::vector<std::uint8_t> tb_h;
  std::vector<std::uint8_t> tb_e;
  std::vector<std::uint8_t> tb_f;
  const std::size_t stride = s.size() + 1;
  const DpResult dp = run_dp(q, s, p, diagonal, band, tb_h, tb_e, tb_f);
  return traceback(q, s, dp, stride, tb_h, tb_e, tb_f);
}

}  // namespace

AlignmentResult smith_waterman(std::string_view query, std::string_view subject,
                               const AlignmentParams& params) {
  return align(query, subject, params, 0, -1);
}

AlignmentResult banded_smith_waterman(std::string_view query, std::string_view subject,
                                      int diagonal, int band, const AlignmentParams& params) {
  return align(query, subject, params, diagonal, std::max(band, 1));
}

double evalue(int score, std::size_t query_length, std::size_t library_residues) {
  constexpr double kLambda = 0.267;
  constexpr double kK = 0.041;
  return kK * static_cast<double>(query_length) * static_cast<double>(library_residues) *
         std::exp(-kLambda * static_cast<double>(score));
}

}  // namespace sf
