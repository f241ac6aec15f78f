#include "seqsearch/library.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "sequence_identity.hpp"

namespace sf {
namespace {

FoldUniverse small_universe() { return FoldUniverse(20, 99); }

TEST(Library, GenerationIsDeterministic) {
  const FoldUniverse u = small_universe();
  LibraryGenParams params;
  params.members_per_weight = 15.0;
  const SequenceLibrary a = generate_full_library(u, params);
  const SequenceLibrary b = generate_full_library(u, params);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 7) {
    EXPECT_EQ(a.entry(i).sequence.residues(), b.entry(i).sequence.residues());
  }
}

TEST(Library, EveryFoldHasItsCanonical) {
  const FoldUniverse u = small_universe();
  LibraryGenParams params;
  params.members_per_weight = 5.0;
  const SequenceLibrary lib = generate_full_library(u, params);
  std::vector<bool> seen(u.size(), false);
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const auto& e = lib.entry(i);
    if (e.identity_to_canonical == 1.0) seen[e.fold_index] = true;
  }
  for (std::size_t f = 0; f < u.size(); ++f) EXPECT_TRUE(seen[f]) << "fold " << f;
}

TEST(Library, LargerFamiliesContributeMore) {
  const FoldUniverse u = small_universe();
  LibraryGenParams params;
  params.members_per_weight = 40.0;
  const SequenceLibrary lib = generate_full_library(u, params);
  std::size_t fold0 = 0, fold19 = 0;
  for (std::size_t i = 0; i < lib.size(); ++i) {
    if (lib.entry(i).fold_index == 0) ++fold0;
    if (lib.entry(i).fold_index == 19) ++fold19;
  }
  EXPECT_GT(fold0, fold19 * 2);
}

TEST(Library, ReductionRemovesNearDuplicatesOnly) {
  const FoldUniverse u = small_universe();
  LibraryGenParams params;
  params.members_per_weight = 30.0;
  params.near_duplicate_fraction = 0.6;
  const SequenceLibrary full = generate_full_library(u, params);
  const SequenceLibrary reduced = reduce_library(full, 0.90);

  // Substantially smaller (the paper's full->reduced is ~5x by bytes).
  EXPECT_LT(reduced.size(), full.size() * 3 / 4);
  EXPECT_GT(reduced.size(), 0u);
  EXPECT_LT(reduced.estimated_bytes(), full.estimated_bytes());

  // Every fold family survives reduction (homology is preserved).
  std::vector<bool> seen(u.size(), false);
  for (std::size_t i = 0; i < reduced.size(); ++i) seen[reduced.entry(i).fold_index] = true;
  for (std::size_t f = 0; f < u.size(); ++f) EXPECT_TRUE(seen[f]);

  // No two kept same-fold entries are near-identical at same length.
  for (std::size_t i = 0; i < reduced.size(); ++i) {
    for (std::size_t j = i + 1; j < std::min(reduced.size(), i + 40); ++j) {
      const auto& a = reduced.entry(i);
      const auto& b = reduced.entry(j);
      if (a.fold_index != b.fold_index) continue;
      if (a.sequence.length() != b.sequence.length()) continue;
      EXPECT_LT(positional_identity(a.sequence.residues(), b.sequence.residues()), 0.95);
    }
  }
}

TEST(Library, IndelHomologControlsIdentityAndDrift) {
  Rng rng(5);
  const std::string parent(200, 'A');
  const std::string hom = indel_homolog(parent, 0.7, 0.05, rng);
  // Length drifts but stays in the ballpark.
  EXPECT_NEAR(static_cast<double>(hom.size()), 200.0, 40.0);
  EXPECT_FALSE(hom.empty());
  const std::string exact = indel_homolog(parent, 1.0, 0.0, rng);
  EXPECT_EQ(exact, parent);
}

TEST(Library, BytesScaleWithContent) {
  SequenceLibrary lib("x");
  EXPECT_EQ(lib.total_residues(), 0u);
  LibraryEntry e;
  e.sequence = Sequence("a", std::string(100, 'M'));
  lib.add(e);
  EXPECT_EQ(lib.total_residues(), 100u);
  EXPECT_GT(lib.estimated_bytes(), 100.0);
}

}  // namespace
}  // namespace sf
