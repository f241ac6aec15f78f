#include "seqsearch/alignment.hpp"

#include <gtest/gtest.h>

#include "bio/amino_acid.hpp"

namespace sf {
namespace {

TEST(SmithWaterman, IdenticalSequences) {
  const std::string s = "MKTAYIAKQRQISFVKSHFSRQLEERLGLIEVQ";
  const AlignmentResult r = smith_waterman(s, s);
  EXPECT_DOUBLE_EQ(r.identity, 1.0);
  EXPECT_DOUBLE_EQ(r.query_coverage, 1.0);
  EXPECT_EQ(r.pairs.size(), s.size());
  // Score equals the sum of diagonal BLOSUM62 entries.
  int expected = 0;
  for (char c : s) expected += blosum62(c, c);
  EXPECT_EQ(r.score, expected);
}

TEST(SmithWaterman, FindsLocalCore) {
  // Shared core flanked by unrelated tails.
  const std::string core = "WWDDKKLLMMNNQQRRSS";
  const std::string q = "AAAAAAAA" + core + "GGGGGGGG";
  const std::string s = "TTTTTTTTTTTT" + core + "PPPP";
  const AlignmentResult r = smith_waterman(q, s);
  EXPECT_GE(r.pairs.size(), core.size());
  EXPECT_GT(r.identity, 0.8);
  // The aligned query region covers the core.
  EXPECT_LE(r.query_begin, 8);
  EXPECT_GE(r.query_end, static_cast<int>(8 + core.size()));
}

TEST(SmithWaterman, GapHandling) {
  const std::string q = "MKTAYIAKQRQISFVKSHFSRQ";
  std::string s = q;
  s.erase(10, 3);  // deletion of 3 residues
  const AlignmentResult r = smith_waterman(q, s);
  EXPECT_GT(r.identity, 0.95);  // aligned columns still identical
  EXPECT_EQ(r.pairs.size(), s.size());
}

TEST(SmithWaterman, UnrelatedSequencesScoreLow) {
  const std::string q(40, 'W');
  const std::string s(40, 'D');
  const AlignmentResult r = smith_waterman(q, s);
  EXPECT_LE(r.score, 4);  // W/D = -4; nothing positive to chain
}

TEST(SmithWaterman, EmptyInput) {
  EXPECT_EQ(smith_waterman("", "AA").pairs.size(), 0u);
  EXPECT_EQ(smith_waterman("AA", "").pairs.size(), 0u);
}

TEST(BandedSW, MatchesFullWhenBandCovers) {
  const std::string q = "MKTAYIAKQRQISFVKSHFSRQLEERLGLI";
  std::string s = q;
  s[5] = 'W';
  s[20] = 'D';
  const AlignmentResult full = smith_waterman(q, s);
  const AlignmentResult banded = banded_smith_waterman(q, s, 0, 16);
  EXPECT_EQ(full.score, banded.score);
  EXPECT_EQ(full.pairs, banded.pairs);
}

TEST(BandedSW, RespectsDiagonalOffset) {
  const std::string core = "MKTAYIAKQRQISFVKSH";
  const std::string q = core;
  const std::string s = std::string(30, 'G') + core;
  // True diagonal is q_pos - s_pos = -30.
  const AlignmentResult hit = banded_smith_waterman(q, s, -30, 8);
  EXPECT_GT(hit.identity, 0.9);
  EXPECT_EQ(hit.pairs.size(), core.size());
  // A far-off band misses the alignment entirely.
  const AlignmentResult miss = banded_smith_waterman(q, s, 30, 4);
  EXPECT_LT(miss.score, hit.score);
}

TEST(Evalue, MonotoneInScoreAndLibrarySize) {
  EXPECT_LT(evalue(100, 200, 1000000), evalue(50, 200, 1000000));
  EXPECT_LT(evalue(100, 200, 1000000), evalue(100, 200, 100000000));
}

// Property: SW score is symmetric in its arguments for BLOSUM scoring.
class SwSymmetry : public ::testing::TestWithParam<int> {};

TEST_P(SwSymmetry, ScoreSymmetric) {
  const char* seqs[] = {"MKTAYIAKQR", "WWDDKKLLMM", "GGGGAAAAVV", "QISFVKSHFS", "MKWVTFISLL"};
  const std::string a = seqs[GetParam() % 5];
  const std::string b = seqs[(GetParam() + 1) % 5];
  EXPECT_EQ(smith_waterman(a, b).score, smith_waterman(b, a).score);
}

INSTANTIATE_TEST_SUITE_P(Pairs, SwSymmetry, ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace sf
