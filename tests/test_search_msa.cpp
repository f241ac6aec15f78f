#include <gtest/gtest.h>

#include "bio/proteome.hpp"
#include "seqsearch/library.hpp"
#include "seqsearch/msa.hpp"
#include "seqsearch/search.hpp"

namespace sf {
namespace {

struct World {
  FoldUniverse universe{15, 7};
  SequenceLibrary full;
  World() {
    LibraryGenParams params;
    params.members_per_weight = 20.0;
    full = generate_full_library(universe, params);
  }
};

TEST(Search, FindsFamilyMembers) {
  World w;
  SearchEngine engine(w.full);
  // Query with a canonical sequence of a populous family.
  const Sequence query("q0", w.universe.canonical_sequence(0));
  SearchCost cost;
  const Msa msa = engine.search(query, &cost);
  EXPECT_GT(msa.depth(), 3u);
  EXPECT_GT(cost.candidates_aligned, 0u);
  EXPECT_EQ(cost.index_lookups, 1u);
  // The top hit should be (near-)identical: the canonical itself is in
  // the library.
  EXPECT_GT(msa.hits().front().identity, 0.95);
}

TEST(Search, HitsAreSortedByEvalue) {
  World w;
  SearchEngine engine(w.full);
  const Msa msa = engine.search(Sequence("q", w.universe.canonical_sequence(1)));
  for (std::size_t i = 1; i < msa.hits().size(); ++i) {
    EXPECT_LE(msa.hits()[i - 1].evalue, msa.hits()[i].evalue);
  }
}

TEST(Search, ReducedLibraryKeepsDiversityDropsDepth) {
  World w;
  const SequenceLibrary reduced = reduce_library(w.full, 0.90);
  SearchEngine full_engine(w.full);
  SearchEngine red_engine(reduced);
  const Sequence query("q", w.universe.canonical_sequence(0));
  const Msa m_full = full_engine.search(query);
  const Msa m_red = red_engine.search(query);
  EXPECT_LE(m_red.depth(), m_full.depth());
  // Effective depth (diversity) is nearly retained -- DeepMind's
  // observation that the reduced BFD performs virtually identically.
  EXPECT_GT(m_red.effective_depth(), 0.75 * m_full.effective_depth());
}

TEST(Search, UnrelatedQueryFindsNothing) {
  World w;
  SearchEngine engine(w.full);
  // Poly-proline is propensity-starved in the generator; no homologs.
  const Msa msa = engine.search(Sequence("junk", std::string(80, 'P')));
  EXPECT_EQ(msa.depth(), 0u);
}

TEST(Search, MaxHitsRespected) {
  World w;
  SearchParams params;
  params.max_hits = 4;
  SearchEngine engine(w.full, params);
  const Msa msa = engine.search(Sequence("q", w.universe.canonical_sequence(0)));
  EXPECT_LE(msa.depth(), 4u);
}

TEST(Msa, EffectiveDepthClustersRedundancy) {
  Msa msa("q");
  // Five near-identical rows -> one effective cluster.
  for (int i = 0; i < 5; ++i) {
    MsaHit h;
    h.identity = 0.95;
    h.query_coverage = 1.0;
    msa.add_hit(h);
  }
  const double neff_redundant = msa.effective_depth(0.8);
  EXPECT_LT(neff_redundant, 2.0);

  Msa diverse("q");
  // Five diverse rows -> close to five clusters.
  for (int i = 0; i < 5; ++i) {
    MsaHit h;
    h.identity = 0.30 + 0.05 * i;
    h.query_coverage = 1.0;
    diverse.add_hit(h);
  }
  EXPECT_GT(diverse.effective_depth(0.8), 4.0);
}

TEST(Features, TemplateStacksDominateBytes) {
  InputFeatures f;
  f.length = 150;
  f.msa_depth = 3;
  f.has_templates = true;
  InputFeatures f_no = f;
  f_no.has_templates = false;
  EXPECT_GT(f.feature_bytes(), f_no.feature_bytes());
}

}  // namespace
}  // namespace sf
