#include "seqsearch/kmer_index.hpp"

#include <gtest/gtest.h>

#include "bio/fold_grammar.hpp"
#include "util/rng.hpp"

namespace sf {
namespace {

TEST(KmerIndex, FindsExactCopy) {
  KmerIndex idx(5);
  idx.add_sequence("MKTAYIAKQRQISFVKSHFSRQ");
  idx.add_sequence("GGGGGGGGGGGGGGGGGG");
  const auto hits = idx.query("MKTAYIAKQRQISFVKSHFSRQ");
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits.front().sequence_index, 0u);
  EXPECT_EQ(hits.front().diagonal / 16, 0);  // dominant diagonal ~0
}

TEST(KmerIndex, DiagonalReflectsOffset) {
  KmerIndex idx(5);
  idx.add_sequence(std::string(25, 'G') + "MKTAYIAKQRQISFVKSH");
  const auto hits = idx.query("MKTAYIAKQRQISFVKSH");
  ASSERT_FALSE(hits.empty());
  // Query position - subject position = -25 (bucketed by 16).
  EXPECT_NEAR(hits.front().diagonal, -25.0, 16.0);
}

TEST(KmerIndex, MinSeedsFilters) {
  KmerIndex idx(5);
  idx.add_sequence("MKTAYWWWWWWWWWWWWWW");  // shares only one 5-mer region
  const auto strict = idx.query("MKTAYGGGGGGGGGGG", /*min_seeds=*/3);
  EXPECT_TRUE(strict.empty());
  const auto loose = idx.query("MKTAYGGGGGGGGGGG", /*min_seeds=*/1);
  EXPECT_FALSE(loose.empty());
}

TEST(KmerIndex, RanksCloserHomologsHigher) {
  Rng rng(3);
  const FoldSpec fold = sample_fold(rng, 120);
  const std::string parent = sample_sequence_for_ss(render_ss(fold, 120), rng);
  KmerIndex idx(5);
  Rng h1(1), h2(2);
  idx.add_sequence(homolog_sequence(fold, parent, 120, 120, 0.95, h1));  // close
  idx.add_sequence(homolog_sequence(fold, parent, 120, 120, 0.35, h2));  // remote
  const auto hits = idx.query(parent, 1);
  ASSERT_GE(hits.size(), 1u);
  EXPECT_EQ(hits.front().sequence_index, 0u);  // close homolog ranks first
}

TEST(KmerIndex, ShortSequencesAreIndexedSafely) {
  KmerIndex idx(5);
  idx.add_sequence("MK");  // shorter than k: no k-mers
  idx.add_sequence("MKTAY");
  const auto hits = idx.query("MK");
  EXPECT_TRUE(hits.empty());
}

TEST(KmerIndex, NonStandardResiduesPoisonKmers) {
  KmerIndex idx(5);
  idx.add_sequence("MKXAYIAKQR");  // X breaks the k-mers spanning it
  const auto hits = idx.query("MKXAYIAKQR", 1);
  // Only k-mers not containing X can match ("YIAKQR" has two).
  for (const auto& h : hits) EXPECT_LE(h.seed_count, 3);
}

TEST(KmerIndex, MaxHitsCap) {
  KmerIndex idx(5);
  const std::string seq = "MKTAYIAKQRQISFVKSHFSRQ";
  for (int i = 0; i < 50; ++i) idx.add_sequence(seq);
  const auto hits = idx.query(seq, 1, 10);
  EXPECT_EQ(hits.size(), 10u);
}

TEST(KmerIndex, KClamping) {
  EXPECT_EQ(KmerIndex(1).k(), 3);
  EXPECT_EQ(KmerIndex(20).k(), 8);
  EXPECT_EQ(KmerIndex(5).k(), 5);
}

}  // namespace
}  // namespace sf
