#include "bio/amino_acid.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

TEST(AminoAcid, IndexRoundTrip) {
  for (int i = 0; i < kNumAminoAcids; ++i) {
    EXPECT_EQ(aa_index(aa_from_index(i)), i);
  }
  EXPECT_EQ(aa_index('X'), -1);
  EXPECT_EQ(aa_index('a'), -1);  // lowercase is not standard
  EXPECT_EQ(aa_from_index(-1), 'X');
  EXPECT_EQ(aa_from_index(20), 'X');
}

TEST(AminoAcid, HeavyAtomTable) {
  EXPECT_EQ(aa_heavy_atoms('G'), 4);
  EXPECT_EQ(aa_heavy_atoms('A'), 5);
  EXPECT_EQ(aa_heavy_atoms('W'), 14);
  EXPECT_EQ(aa_heavy_atoms('R'), 11);
  EXPECT_EQ(aa_heavy_atoms('?'), 5);  // unknown falls back to ALA
  for (int i = 0; i < kNumAminoAcids; ++i) {
    const int h = aa_heavy_atoms(aa_from_index(i));
    EXPECT_GE(h, 4);
    EXPECT_LE(h, 14);
  }
}

TEST(AminoAcid, CbAndScFlags) {
  EXPECT_FALSE(aa_has_cb('G'));
  EXPECT_TRUE(aa_has_cb('A'));
  EXPECT_FALSE(aa_has_sc('G'));
  EXPECT_FALSE(aa_has_sc('A'));
  EXPECT_TRUE(aa_has_sc('W'));
}

TEST(AminoAcid, BackgroundFrequenciesSumToOne) {
  double sum = 0.0;
  for (int i = 0; i < kNumAminoAcids; ++i) sum += aa_background_freq(aa_from_index(i));
  EXPECT_NEAR(sum, 1.0, 0.01);
  EXPECT_EQ(aa_background_freq('X'), 0.0);
}

TEST(AminoAcid, PropensitiesAreSane) {
  // Classic helix formers vs breakers.
  EXPECT_GT(aa_helix_propensity('A'), aa_helix_propensity('P'));
  EXPECT_GT(aa_helix_propensity('E'), aa_helix_propensity('G'));
  // Classic strand formers.
  EXPECT_GT(aa_strand_propensity('V'), aa_strand_propensity('D'));
  EXPECT_GT(aa_strand_propensity('I'), aa_strand_propensity('P'));
}

TEST(AminoAcid, Blosum62Properties) {
  // Symmetry.
  for (int i = 0; i < kNumAminoAcids; ++i) {
    for (int j = 0; j < kNumAminoAcids; ++j) {
      EXPECT_EQ(blosum62(aa_from_index(i), aa_from_index(j)),
                blosum62(aa_from_index(j), aa_from_index(i)));
    }
  }
  // Diagonal dominance: self-substitution beats any other substitution.
  for (int i = 0; i < kNumAminoAcids; ++i) {
    const char a = aa_from_index(i);
    for (int j = 0; j < kNumAminoAcids; ++j) {
      if (i == j) continue;
      EXPECT_GT(blosum62(a, a), blosum62(a, aa_from_index(j)));
    }
  }
  // Known values.
  EXPECT_EQ(blosum62('W', 'W'), 11);
  EXPECT_EQ(blosum62('A', 'A'), 4);
  EXPECT_EQ(blosum62('I', 'L'), 2);
  EXPECT_EQ(blosum62('W', 'G'), -2);
  EXPECT_EQ(blosum62('X', 'A'), -1);  // unknown penalized
}

TEST(AminoAcid, BlosumRowMatchesMatrix) {
  const auto& row = blosum62_row('K');
  for (int j = 0; j < kNumAminoAcids; ++j) {
    EXPECT_EQ(row[static_cast<std::size_t>(j)], blosum62('K', aa_from_index(j)));
  }
}

}  // namespace
}  // namespace sf
