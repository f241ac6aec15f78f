#include "bio/fold_grammar.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "bio/sequence.hpp"
#include "native/render.hpp"
#include "score/tm_score.hpp"
#include "sequence_identity.hpp"

namespace sf {
namespace {

TEST(FoldGrammar, SampleFoldCoversTargetLength) {
  Rng rng(1);
  const FoldSpec fold = sample_fold(rng, 200);
  EXPECT_EQ(fold.base_length(), 200);
  EXPECT_FALSE(fold.elements.empty());
}

TEST(FoldGrammar, RenderSsExactLength) {
  Rng rng(2);
  const FoldSpec fold = sample_fold(rng, 100);
  for (int len : {1, 37, 100, 163, 400}) {
    const std::string ss = render_ss(fold, len);
    EXPECT_EQ(static_cast<int>(ss.size()), len);
    for (char c : ss) EXPECT_TRUE(c == 'H' || c == 'E' || c == 'C');
  }
}

TEST(FoldGrammar, RenderPreservesElementOrder) {
  FoldSpec fold;
  fold.elements = {{'H', 10}, {'C', 5}, {'E', 10}};
  const std::string ss = render_ss(fold, 50);
  // First H run, then C, then E; no interleaving.
  const auto first_c = ss.find('C');
  const auto first_e = ss.find('E');
  EXPECT_LT(ss.find('H'), first_c);
  EXPECT_LT(first_c, first_e);
}

TEST(FoldGrammar, SequenceMatchesPropensities) {
  Rng rng(3);
  // Helix-heavy sequences should be enriched in helix formers vs strand.
  const std::string helix_seq = sample_sequence_for_ss(std::string(3000, 'H'), rng);
  const std::string strand_seq = sample_sequence_for_ss(std::string(3000, 'E'), rng);
  auto count = [](const std::string& s, char aa) {
    return static_cast<double>(std::count(s.begin(), s.end(), aa)) / s.size();
  };
  EXPECT_GT(count(helix_seq, 'A') + count(helix_seq, 'E') + count(helix_seq, 'L'),
            count(strand_seq, 'A') + count(strand_seq, 'E') + count(strand_seq, 'L'));
  EXPECT_GT(count(strand_seq, 'V') + count(strand_seq, 'I'),
            count(helix_seq, 'V') + count(helix_seq, 'I'));
}

TEST(FoldGrammar, HomologIdentityControl) {
  Rng rng(4);
  const FoldSpec fold = sample_fold(rng, 150);
  const std::string parent = sample_sequence_for_ss(render_ss(fold, 150), rng);
  for (double target : {0.9, 0.5, 0.2}) {
    Rng hrng(42);
    const std::string hom = homolog_sequence(fold, parent, 150, 150, target, hrng);
    const double id = positional_identity(parent, hom);
    EXPECT_NEAR(id, target, 0.12);
  }
}

TEST(FoldGrammar, HomologLengthChange) {
  Rng rng(5);
  const FoldSpec fold = sample_fold(rng, 100);
  const std::string parent = sample_sequence_for_ss(render_ss(fold, 100), rng);
  const std::string hom = homolog_sequence(fold, parent, 100, 140, 0.6, rng);
  EXPECT_EQ(hom.size(), 140u);
}

TEST(FoldGrammar, StructureIsDeterministicPerFold) {
  Rng rng(6);
  const FoldSpec fold = sample_fold(rng, 80);
  const std::string seq = sample_sequence_for_ss(render_ss(fold, 80), rng);
  const Structure a = build_fold_structure("a", fold, seq);
  const Structure b = build_fold_structure("b", fold, seq);
  EXPECT_NEAR(tm_score(a, b).tm_score, 1.0, 1e-9);
}

TEST(FoldGrammar, HomologsShareTheFold) {
  Rng rng(7);
  const FoldSpec fold = sample_fold(rng, 120);
  const std::string seq1 = sample_sequence_for_ss(render_ss(fold, 120), rng);
  Rng hrng(1);
  const std::string seq2 = homolog_sequence(fold, seq1, 120, 120, 0.3, hrng);
  const Structure a = build_fold_structure("a", fold, seq1);
  const Structure b = build_fold_structure("b", fold, seq2);
  // Same fold at same length: near-identical backbones even at 30%
  // sequence identity (structure outlasts sequence).
  EXPECT_GT(tm_score(a, b).tm_score, 0.9);
}

TEST(FoldGrammar, DifferentFoldsDiffer) {
  Rng rng(8);
  const FoldSpec f1 = sample_fold(rng, 120);
  const FoldSpec f2 = sample_fold(rng, 120);
  const std::string s1 = sample_sequence_for_ss(render_ss(f1, 120), rng);
  const std::string s2 = sample_sequence_for_ss(render_ss(f2, 120), rng);
  const Structure a = build_fold_structure("a", f1, s1);
  const Structure b = build_fold_structure("b", f2, s2);
  EXPECT_LT(tm_score(a, b).tm_score, 0.6);
}

TEST(FoldGrammar, NoiseParameterPerturbs) {
  Rng rng(9);
  const FoldSpec fold = sample_fold(rng, 100);
  const std::string seq = sample_sequence_for_ss(render_ss(fold, 100), rng);
  const Structure clean = build_fold_structure("c", fold, seq);
  const Structure noisy = build_fold_structure("n", fold, seq, 1.0, 77);
  const double tm = tm_score(noisy, clean).tm_score;
  EXPECT_LT(tm, 0.999);
  EXPECT_GT(tm, 0.6);
}

TEST(FoldUniverseTest, DeterministicAndWeighted) {
  FoldUniverse u1(50, 123), u2(50, 123);
  ASSERT_EQ(u1.size(), 50u);
  EXPECT_EQ(u1.canonical_sequence(7), u2.canonical_sequence(7));
  EXPECT_EQ(u1.annotation(3), u2.annotation(3));
  // Zipf weights decrease.
  EXPECT_GT(u1.family_weight(0), u1.family_weight(10));
  EXPECT_GT(u1.family_weight(10), u1.family_weight(49));
  // Sampling respects weights: fold 0 drawn more often than fold 49.
  Rng rng(5);
  int low = 0, high = 0;
  for (int i = 0; i < 5000; ++i) {
    const std::size_t f = u1.sample_fold_index(rng);
    if (f == 0) ++high;
    if (f == 49) ++low;
  }
  EXPECT_GT(high, low * 3);
}

}  // namespace
}  // namespace sf
