#include "fold/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bio/species.hpp"
#include "fold/memory_model.hpp"
#include "geom/distogram.hpp"
#include "geom/violations.hpp"
#include "seqsearch/feature_model.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace sf {
namespace {

struct EngineWorld {
  FoldUniverse universe{60, 17};
  ProteomeGenerator gen{universe, benchmark_559_profile(), 4};
  std::vector<ProteinRecord> records = gen.generate(60);
  FoldingEngine engine{universe};

  InputFeatures feats(const ProteinRecord& r) const {
    return sample_features(r, LibraryKind::kReduced);
  }
};

// Bit-equality of two predictions: every atom, both confidence heads,
// the ground-truth scores and the recycle trace.
void expect_same_prediction(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.model_id, b.model_id);
  EXPECT_EQ(a.ensembles, b.ensembles);
  EXPECT_EQ(a.out_of_memory, b.out_of_memory);
  EXPECT_EQ(a.structure.name(), b.structure.name());
  const auto xa = a.structure.all_atom_coords();
  const auto xb = b.structure.all_atom_coords();
  ASSERT_EQ(xa.size(), xb.size());
  for (std::size_t i = 0; i < xa.size(); ++i) {
    EXPECT_EQ(xa[i].x, xb[i].x);
    EXPECT_EQ(xa[i].y, xb[i].y);
    EXPECT_EQ(xa[i].z, xb[i].z);
  }
  EXPECT_EQ(a.plddt, b.plddt);
  EXPECT_EQ(a.ptms, b.ptms);
  EXPECT_EQ(a.true_tm, b.true_tm);
  EXPECT_EQ(a.true_lddt, b.true_lddt);
  EXPECT_EQ(a.trace.recycles_run, b.trace.recycles_run);
  EXPECT_EQ(a.trace.converged, b.trace.converged);
  EXPECT_EQ(a.trace.distogram_changes, b.trace.distogram_changes);
}

TEST(FoldingEngine, PredictModelsMatchesPredict) {
  EngineWorld w;
  const auto models = five_models();
  const PresetConfig preset = preset_genome();
  for (const std::size_t r : {std::size_t{0}, std::size_t{7}}) {
    SCOPED_TRACE(format("record %zu", r));
    const auto& rec = w.records[r];
    const auto f = w.feats(rec);
    // All five from one native render: each is predict() for its model.
    const auto all = w.engine.predict_all_models(rec, f, preset);
    const auto via = w.engine.predict_models(rec, f, models, preset);
    ASSERT_EQ(all.size(), 5u);
    ASSERT_EQ(via.size(), 5u);
    for (std::size_t m = 0; m < models.size(); ++m) {
      SCOPED_TRACE(format("model %d", models[m].model_id));
      expect_same_prediction(all[m], w.engine.predict(rec, f, models[m], preset));
      expect_same_prediction(all[m], via[m]);
    }
    // A subset comes back in the order asked, each model unchanged.
    const auto subset = w.engine.predict_models(rec, f, {models[3], models[0]}, preset);
    ASSERT_EQ(subset.size(), 2u);
    expect_same_prediction(subset[0], all[3]);
    expect_same_prediction(subset[1], all[0]);
    EXPECT_TRUE(w.engine.predict_models(rec, f, {}, preset).empty());
  }

  // Over the memory budget: every model asked for is an OOM prediction,
  // as predict() reports it.
  EngineParams tiny;
  tiny.memory_budget_gb = 0.5;
  const FoldingEngine oom_engine(w.universe, tiny);
  const auto& rec = w.records[0];
  const auto f = w.feats(rec);
  const auto oom = oom_engine.predict_models(rec, f, {models[1], models[4]}, preset);
  ASSERT_EQ(oom.size(), 2u);
  EXPECT_TRUE(oom[0].out_of_memory);
  EXPECT_TRUE(oom[0].structure.empty());
  expect_same_prediction(oom[0], oom_engine.predict(rec, f, models[1], preset));
  expect_same_prediction(oom[1], oom_engine.predict(rec, f, models[4], preset));
}

// The models of a target run on the caller's SlotComputer: at 1, 2, 3
// and 4 threads, and for the degenerate one- and two-residue targets,
// every prediction equals the inline path's bit for bit. A one-residue
// trace has no residue pair, so its distogram never changes; a
// two-residue trace has one, whose CA-CA distance the continuity pass
// holds near 3.8 A, just under the 3.83 A bin edge, so a recycle may
// move it by whole bins and nothing finer.
TEST(FoldingEngine, ModelsOnAnyThreadCountEqualTheInlinePath) {
  EngineWorld w;
  const PresetConfig preset = preset_genome();
  std::vector<ProteinRecord> targets = {w.records[0], w.records[7]};
  for (const std::size_t length : {1, 2}) {
    ProteinRecord tiny = w.records[3];
    tiny.sequence = Sequence(format("%s_len%zu", tiny.sequence.id().c_str(), length),
                             tiny.sequence.residues().substr(0, length));
    targets.push_back(tiny);
  }
  std::vector<std::vector<Prediction>> inline_preds;
  for (const auto& rec : targets) {
    inline_preds.push_back(w.engine.predict_all_models(rec, w.feats(rec), preset));
    ASSERT_EQ(inline_preds.back().size(), 5u);
    if (rec.length() > 2) continue;
    const double one_bin = w.engine.params().distogram_gain * Distogram::bin_width();
    for (const Prediction& p : inline_preds.back()) {
      EXPECT_FALSE(p.out_of_memory);
      EXPECT_EQ(p.structure.size(), static_cast<std::size_t>(rec.length()));
      ASSERT_FALSE(p.trace.distogram_changes.empty());
      for (const double change : p.trace.distogram_changes) {
        if (rec.length() == 1) {
          EXPECT_EQ(change, 0.0);
        } else {
          EXPECT_EQ(change / one_bin, std::round(change / one_bin));
        }
      }
    }
  }
  for (const std::size_t threads : {1, 2, 3, 4}) {
    SlotComputer compute(threads);
    for (std::size_t t = 0; t < targets.size(); ++t) {
      SCOPED_TRACE(format("%zu threads, %s", threads, targets[t].sequence.id().c_str()));
      const auto preds =
          w.engine.predict_all_models(targets[t], w.feats(targets[t]), preset, &compute);
      ASSERT_EQ(preds.size(), 5u);
      for (std::size_t m = 0; m < preds.size(); ++m) {
        expect_same_prediction(preds[m], inline_preds[t][m]);
      }
    }
  }
}

TEST(Engine, FiveModelsHaveExpectedShape) {
  const auto models = five_models();
  ASSERT_EQ(models.size(), 5u);
  int template_models = 0;
  for (const auto& m : models) {
    if (m.uses_templates) ++template_models;
  }
  EXPECT_EQ(template_models, 2);  // models 1-2 use templates (§3.2.1)
}

TEST(Engine, PredictionIsDeterministic) {
  EngineWorld w;
  const auto& rec = w.records[0];
  const auto p1 = w.engine.predict(rec, w.feats(rec), five_models()[0], preset_genome());
  const auto p2 = w.engine.predict(rec, w.feats(rec), five_models()[0], preset_genome());
  EXPECT_DOUBLE_EQ(p1.ptms, p2.ptms);
  EXPECT_DOUBLE_EQ(p1.true_tm, p2.true_tm);
  EXPECT_EQ(p1.trace.recycles_run, p2.trace.recycles_run);
  const auto ca1 = p1.structure.ca_coords();
  const auto ca2 = p2.structure.ca_coords();
  for (std::size_t i = 0; i < ca1.size(); ++i) {
    EXPECT_NEAR(distance(ca1[i], ca2[i]), 0.0, 1e-12);
  }
}

TEST(Engine, StructureSizedLikeTarget) {
  EngineWorld w;
  const auto& rec = w.records[1];
  const auto p = w.engine.predict(rec, w.feats(rec), five_models()[2], preset_reduced_db());
  EXPECT_EQ(p.structure.size(), rec.sequence.length());
  EXPECT_FALSE(p.out_of_memory);
}

TEST(Engine, ConfidenceTracksTruth) {
  EngineWorld w;
  std::vector<double> plddt, true_lddt, ptms, true_tm;
  for (const auto& rec : w.records) {
    const auto p = w.engine.predict(rec, w.feats(rec), five_models()[0], preset_reduced_db());
    plddt.push_back(p.plddt);
    true_lddt.push_back(p.true_lddt);
    ptms.push_back(p.ptms);
    true_tm.push_back(p.true_tm);
  }
  EXPECT_GT(pearson(plddt, true_lddt), 0.85);
  EXPECT_GT(pearson(ptms, true_tm), 0.85);
}

TEST(Engine, LocalConfidenceExceedsGlobal) {
  // AlphaFold's signature: pLDDT (0-100) relatively higher than pTMS (0-1).
  EngineWorld w;
  SampleSet plddt, ptms;
  for (const auto& rec : w.records) {
    const auto p = w.engine.predict(rec, w.feats(rec), five_models()[0], preset_reduced_db());
    plddt.add(p.plddt / 100.0);
    ptms.add(p.ptms);
  }
  EXPECT_GT(plddt.mean(), ptms.mean());
}

TEST(Engine, MoreRecyclesNeverHurtOnHardTargets) {
  EngineWorld w;
  // Find hard targets and compare reduced_db (3 recycles) vs super.
  int improved = 0, compared = 0;
  for (const auto& rec : w.records) {
    if (rec.hardness < 0.4) continue;
    const auto f = w.feats(rec);
    const auto p3 = w.engine.predict(rec, f, five_models()[0], preset_reduced_db());
    const auto p20 = w.engine.predict(rec, f, five_models()[0], preset_super());
    ++compared;
    if (p20.true_tm >= p3.true_tm - 0.03) ++improved;
  }
  ASSERT_GT(compared, 2);
  // Allowing slack for recycle jitter (hard targets explore between
  // recycles), super should win or tie on ~all hard targets.
  EXPECT_GE(improved * 10, compared * 9);
}

TEST(Engine, EffectiveHardnessRespondsToInputs) {
  EngineWorld w;
  ProteinRecord rec = w.records[0];
  rec.hardness = 0.4;  // mid-range so nothing clamps at the [0,1] edges
  InputFeatures deep = w.feats(rec);
  deep.neff = 100.0;
  deep.has_templates = true;
  InputFeatures shallow = deep;
  shallow.neff = 0.5;
  const ModelWeights tmpl_model = five_models()[0];  // uses templates
  EXPECT_LT(w.engine.effective_hardness(rec, deep, tmpl_model),
            w.engine.effective_hardness(rec, shallow, tmpl_model));
  // Template availability helps template-consuming models only.
  InputFeatures no_tmpl = deep;
  no_tmpl.has_templates = false;
  EXPECT_LT(w.engine.effective_hardness(rec, deep, tmpl_model),
            w.engine.effective_hardness(rec, no_tmpl, tmpl_model));
  const ModelWeights seq_model = five_models()[3];
  EXPECT_DOUBLE_EQ(w.engine.effective_hardness(rec, deep, seq_model),
                   w.engine.effective_hardness(rec, no_tmpl, seq_model));
}

TEST(Engine, DynamicPresetRespectsRecycleCaps) {
  EngineWorld w;
  for (const auto& rec : w.records) {
    const auto p = w.engine.predict(rec, w.feats(rec), five_models()[0], preset_super());
    EXPECT_LE(p.trace.recycles_run, effective_max_recycles(preset_super(), rec.length()));
    EXPECT_GE(p.trace.recycles_run, preset_super().min_dynamic_recycles);
    EXPECT_EQ(p.trace.distogram_changes.size(),
              static_cast<std::size_t>(p.trace.recycles_run));
    if (p.trace.converged) {
      EXPECT_LT(p.trace.distogram_changes.back(), preset_super().convergence_tol_A);
    }
  }
}

TEST(Engine, FixedPresetRunsExactlyMaxRecycles) {
  EngineWorld w;
  const auto p =
      w.engine.predict(w.records[0], w.feats(w.records[0]), five_models()[1], preset_reduced_db());
  EXPECT_EQ(p.trace.recycles_run, 3);
  EXPECT_FALSE(p.trace.converged);
}

TEST(Engine, DistogramChangesDecayOverRecycles) {
  EngineWorld w;
  PresetConfig probe = preset_super();
  probe.convergence_tol_A = 0.0;  // run to the cap
  const auto p = w.engine.predict(w.records[2], w.feats(w.records[2]), five_models()[0], probe);
  ASSERT_GE(p.trace.distogram_changes.size(), 5u);
  EXPECT_GT(p.trace.distogram_changes.front(), p.trace.distogram_changes.back());
}

TEST(Engine, OutOfMemoryEnforcedAndBypassable) {
  FoldUniverse universe(10, 3);
  // A very long protein under the 8-ensemble preset must OOM on 16 GB.
  SpeciesProfile profile = benchmark_559_profile();
  profile.length_min = 1200;
  profile.length_log_mu = 7.2;
  const auto records = ProteomeGenerator(universe, profile, 1).generate(1);
  ASSERT_FALSE(fits_standard_node(records[0].length(), 8));

  FoldingEngine engine(universe);
  const auto feats = sample_features(records[0], LibraryKind::kReduced);
  const auto p = engine.predict(records[0], feats, five_models()[0], preset_casp14());
  EXPECT_TRUE(p.out_of_memory);
  EXPECT_TRUE(p.structure.empty());

  EngineParams highmem;
  highmem.memory_budget_gb = kHighMemNodeTaskBudgetGb;
  FoldingEngine hm_engine(universe, highmem);
  const auto p2 = hm_engine.predict(records[0], feats, five_models()[0], preset_casp14());
  EXPECT_FALSE(p2.out_of_memory);
}

TEST(Engine, TopModelSelection) {
  EngineWorld w;
  const auto preds =
      w.engine.predict_all_models(w.records[3], w.feats(w.records[3]), preset_reduced_db());
  ASSERT_EQ(preds.size(), 5u);
  const int top = top_model_index(preds);
  ASSERT_GE(top, 0);
  for (const auto& p : preds) {
    EXPECT_LE(p.ptms, preds[static_cast<std::size_t>(top)].ptms);
  }
  EXPECT_EQ(top_model_index({}), -1);
}

TEST(Engine, UnrelaxedModelsCarryOccasionalViolations) {
  // §4.4: unrelaxed models average ~0.22 clashes / ~3.8 bumps. Check the
  // engine produces a nonzero but modest violation load.
  EngineWorld w;
  std::size_t bumps = 0;
  for (const auto& rec : w.records) {
    const auto p = w.engine.predict(rec, w.feats(rec), five_models()[0], preset_reduced_db());
    bumps += count_violations(p.structure).bumps;
  }
  EXPECT_GT(bumps, 0u);
  EXPECT_LT(static_cast<double>(bumps) / w.records.size(), 60.0);
}

TEST(Engine, EnsemblesTightenConfidenceHeads) {
  EngineWorld w;
  // Same target/model under 1 vs 8 ensembles: head error shrinks.
  SampleSet err1, err8;
  EngineParams big_mem;
  big_mem.memory_budget_gb = 1e9;
  FoldingEngine engine(w.universe, big_mem);
  PresetConfig one = preset_reduced_db();
  PresetConfig eight = preset_casp14();
  for (const auto& rec : w.records) {
    const auto f = w.feats(rec);
    const auto p1 = engine.predict(rec, f, five_models()[0], one);
    const auto p8 = engine.predict(rec, f, five_models()[0], eight);
    err1.add(std::abs(p1.ptms - p1.true_tm));
    err8.add(std::abs(p8.ptms - p8.true_tm));
  }
  EXPECT_LT(err8.mean(), err1.mean());
}

}  // namespace
}  // namespace sf
