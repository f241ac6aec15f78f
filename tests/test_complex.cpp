#include "fold/complex.hpp"

#include <gtest/gtest.h>

#include "bio/species.hpp"
#include "fold/memory_model.hpp"
#include "seqsearch/feature_model.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace sf {
namespace {

// All interacting pairs (i < j) of an interactome.
std::vector<std::pair<std::size_t, std::size_t>> interacting_pairs(const Interactome& net) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < net.num_proteins(); ++i) {
    for (std::size_t j = i + 1; j < net.num_proteins(); ++j) {
      if (net.interacts(i, j)) out.emplace_back(i, j);
    }
  }
  return out;
}

// A pair's prediction from reduced-library features of both chains.
ComplexPrediction predict(const ComplexEngine& engine, const ProteinRecord& a,
                          const ProteinRecord& b, const Interactome& net, std::size_t i,
                          std::size_t j, const PresetConfig& preset) {
  return engine.predict_pair(a, b, sample_features(a, LibraryKind::kReduced),
                             sample_features(b, LibraryKind::kReduced), net, i, j, preset);
}

struct ComplexWorld {
  FoldUniverse universe{40, 71};
  std::vector<ProteinRecord> records;
  ComplexWorld() {
    SpeciesProfile profile = species_d_vulgaris();
    profile.length_max = 300;  // keep combined lengths inside memory
    records = ProteomeGenerator(universe, profile, 5).generate(16);
  }
};

TEST(Interactome, SymmetricAndDeterministic) {
  ComplexWorld w;
  const Interactome net(w.records, 0.08, 11);
  for (std::size_t i = 0; i < w.records.size(); ++i) {
    EXPECT_FALSE(net.interacts(i, i));
    for (std::size_t j = 0; j < w.records.size(); ++j) {
      EXPECT_EQ(net.interacts(i, j), net.interacts(j, i));
    }
  }
  const Interactome net2(w.records, 0.08, 11);
  EXPECT_EQ(interacting_pairs(net), interacting_pairs(net2));
}

TEST(Interactome, BaseRateControlsDensity) {
  ComplexWorld w;
  const Interactome sparse(w.records, 0.02, 3);
  const Interactome dense(w.records, 0.4, 3);
  EXPECT_LT(interacting_pairs(sparse).size(), interacting_pairs(dense).size());
}

TEST(Interactome, ParalogEnrichment) {
  // Same-fold pairs interact more often than cross-fold pairs at equal
  // base rate.
  FoldUniverse universe(4, 71);  // few folds -> many paralog pairs
  SpeciesProfile profile = species_d_vulgaris();
  profile.length_max = 250;
  const auto records = ProteomeGenerator(universe, profile, 5).generate(60);
  const Interactome net(records, 0.05, 7);
  int same_pairs = 0, same_hits = 0, diff_pairs = 0, diff_hits = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t j = i + 1; j < records.size(); ++j) {
      const bool same = records[i].fold_index == records[j].fold_index;
      (same ? same_pairs : diff_pairs)++;
      if (net.interacts(i, j)) (same ? same_hits : diff_hits)++;
    }
  }
  ASSERT_GT(same_pairs, 20);
  ASSERT_GT(diff_pairs, 20);
  EXPECT_GT(static_cast<double>(same_hits) / same_pairs,
            2.0 * static_cast<double>(diff_hits) / std::max(1, diff_pairs));
}

TEST(ComplexEngine, PredictionShape) {
  ComplexWorld w;
  const ComplexEngine engine(w.universe);
  const Interactome net(w.records, 0.1, 11);
  const auto pred = predict(engine, w.records[0], w.records[1], net, 0, 1, preset_genome());
  if (!pred.out_of_memory) {
    EXPECT_EQ(pred.structure.size(),
              w.records[0].sequence.length() + w.records[1].sequence.length());
    EXPECT_EQ(pred.chain_a_length, w.records[0].sequence.length());
    EXPECT_GE(pred.interface_score, 0.0);
    EXPECT_LE(pred.interface_score, 1.0);
  }
}

TEST(ComplexEngine, InterfaceScoreSeparatesBindersFromNonBinders) {
  ComplexWorld w;
  const ComplexEngine engine(w.universe);
  const Interactome net(w.records, 0.25, 11);
  SampleSet binder_scores, nonbinder_scores;
  for (std::size_t i = 0; i < w.records.size(); ++i) {
    for (std::size_t j = i + 1; j < w.records.size() && binder_scores.count() < 8; ++j) {
      const auto pred = predict(engine, w.records[i], w.records[j], net, i, j, preset_reduced_db());
      if (pred.out_of_memory) continue;
      (pred.truly_interacting ? binder_scores : nonbinder_scores).add(pred.interface_score);
    }
  }
  ASSERT_GE(binder_scores.count(), 3u);
  ASSERT_GE(nonbinder_scores.count(), 3u);
  EXPECT_GT(binder_scores.mean(), nonbinder_scores.mean() + 0.15);
}

TEST(ComplexEngine, CombinedLengthDrivesOom) {
  FoldUniverse universe(10, 3);
  SpeciesProfile profile = species_d_vulgaris();
  profile.length_min = 1100;
  profile.length_log_mu = 7.1;
  profile.length_max = 1400;
  const auto big = ProteomeGenerator(universe, profile, 1).generate(2);
  // Each monomer fits a standard node; the pair does not.
  ASSERT_TRUE(fits_standard_node(big[0].length(), 1));
  ASSERT_FALSE(fits_standard_node(big[0].length() + big[1].length(), 1));
  const ComplexEngine engine(universe);
  const Interactome net(big, 0.5, 1);
  const auto pred = predict(engine, big[0], big[1], net, 0, 1, preset_genome());
  EXPECT_TRUE(pred.out_of_memory);
}

// Bit-equality of two complex predictions: every atom of the docked
// model and every score.
void expect_same_complex(const ComplexPrediction& a, const ComplexPrediction& b) {
  EXPECT_EQ(a.out_of_memory, b.out_of_memory);
  EXPECT_EQ(a.truly_interacting, b.truly_interacting);
  EXPECT_EQ(a.chain_a_length, b.chain_a_length);
  EXPECT_EQ(a.recycles_run, b.recycles_run);
  EXPECT_EQ(a.interface_score, b.interface_score);
  EXPECT_EQ(a.ptms, b.ptms);
  EXPECT_EQ(a.structure.name(), b.structure.name());
  const auto xa = a.structure.all_atom_coords();
  const auto xb = b.structure.all_atom_coords();
  ASSERT_EQ(xa.size(), xb.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    EXPECT_EQ(xa[i].x, xb[i].x);
    EXPECT_EQ(xa[i].y, xb[i].y);
    EXPECT_EQ(xa[i].z, xb[i].z);
  }
}

TEST(ComplexEngine, AssembleMatchesPredictPair) {
  ComplexWorld w;
  const ComplexEngine engine(w.universe);
  const Interactome net(w.records, 0.25, 11);
  const PresetConfig preset = preset_genome();
  const auto models = ComplexEngine::chain_models();
  EXPECT_EQ(models[0].model_id, 1);
  EXPECT_EQ(models[1].model_id, 2);

  // Both docking branches: binders at touching distance, non-binders
  // apart.
  int binders = 0;
  int nonbinders = 0;
  for (std::size_t i = 0; i < w.records.size() && (binders < 2 || nonbinders < 2); ++i) {
    for (std::size_t j = i + 1; j < w.records.size(); ++j) {
      const bool binds = net.interacts(i, j);
      if ((binds ? binders : nonbinders) >= 2) continue;
      (binds ? binders : nonbinders)++;
      SCOPED_TRACE(format("pair %zu+%zu", i, j));
      const auto& a = w.records[i];
      const auto& b = w.records[j];
      const auto fa = sample_features(a, LibraryKind::kReduced);
      const auto fb = sample_features(b, LibraryKind::kReduced);
      const ComplexPrediction want = engine.predict_pair(a, b, fa, fb, net, i, j, preset);
      ASSERT_FALSE(want.out_of_memory);
      const Prediction pa = engine.monomer_engine().predict(a, fa, models[0], preset);
      const Prediction pb = engine.monomer_engine().predict(b, fb, models[1], preset);
      expect_same_complex(engine.assemble(a, b, pa, pb, net, i, j), want);
    }
  }
  EXPECT_EQ(binders, 2);
  EXPECT_EQ(nonbinders, 2);

  // Over the budget: predict_pair stops at the combined-length check,
  // and assembling the (out-of-memory) monomers reports the same pair.
  ComplexEngineParams tiny;
  tiny.engine.memory_budget_gb = 0.5;
  const ComplexEngine oom_engine(w.universe, tiny);
  const auto& a = w.records[0];
  const auto& b = w.records[1];
  const auto fa = sample_features(a, LibraryKind::kReduced);
  const auto fb = sample_features(b, LibraryKind::kReduced);
  EXPECT_TRUE(oom_engine.combined_out_of_memory(a, b, preset));
  const ComplexPrediction want = oom_engine.predict_pair(a, b, fa, fb, net, 0, 1, preset);
  EXPECT_TRUE(want.out_of_memory);
  expect_same_complex(
      oom_engine.assemble(a, b, oom_engine.monomer_engine().predict(a, fa, models[0], preset),
                          oom_engine.monomer_engine().predict(b, fb, models[1], preset), net, 0,
                          1),
      want);
}

TEST(ComplexScreen, QuadraticTaskCount) {
  EXPECT_EQ(complex_screen_tasks(2), 1u);
  EXPECT_EQ(complex_screen_tasks(100), 4950u);
  // §5: "quadratic (or higher) order dependence".
  EXPECT_GT(complex_screen_tasks(2000) / complex_screen_tasks(1000), 3u);
}

TEST(ComplexEngine, Deterministic) {
  ComplexWorld w;
  const ComplexEngine engine(w.universe);
  const Interactome net(w.records, 0.1, 11);
  const auto p1 = predict(engine, w.records[2], w.records[3], net, 2, 3, preset_genome());
  const auto p2 = predict(engine, w.records[2], w.records[3], net, 2, 3, preset_genome());
  EXPECT_DOUBLE_EQ(p1.interface_score, p2.interface_score);
  EXPECT_DOUBLE_EQ(p1.ptms, p2.ptms);
}

}  // namespace
}  // namespace sf
