#include "relax/protocol.hpp"

#include <gtest/gtest.h>

#include "bio/proteome.hpp"
#include "bio/species.hpp"
#include "fold/engine.hpp"
#include "native/render.hpp"
#include "score/specs_score.hpp"
#include "score/tm_score.hpp"
#include "seqsearch/feature_model.hpp"

namespace sf {
namespace {

// Unrelaxed predicted models straight from the engine: the honest input
// distribution for relaxation (occasional spikes -> clashes/bumps).
struct RelaxWorld {
  FoldUniverse universe{40, 23};
  ProteomeGenerator gen{universe, casp14_profile(), 8};
  std::vector<ProteinRecord> records = gen.generate(8);
  FoldingEngine engine{universe};

  Prediction predict(const ProteinRecord& rec) const {
    return engine.predict(rec, sample_features(rec, LibraryKind::kReduced), five_models()[0],
                          preset_genome());
  }
};

TEST(Protocol, SinglePassRemovesClashes) {
  RelaxWorld w;
  std::size_t clashes_before = 0, clashes_after = 0;
  for (const auto& rec : w.records) {
    const Prediction p = w.predict(rec);
    if (p.out_of_memory) continue;
    const RelaxOutcome out = relax_single_pass(p.structure);
    clashes_before += out.violations_before.clashes;
    clashes_after += out.violations_after.clashes;
    EXPECT_LE(out.violations_after.bumps, out.violations_before.bumps);
    EXPECT_EQ(out.rounds, 1);
  }
  // §4.4: clash violations are completely removed by minimization.
  EXPECT_EQ(clashes_after, 0u);
}

TEST(Protocol, Af2LoopAlsoRemovesClashes) {
  RelaxWorld w;
  const Prediction p = w.predict(w.records[0]);
  const RelaxOutcome out = relax_af2_loop(p.structure);
  EXPECT_EQ(out.violations_after.clashes, 0u);
  EXPECT_GE(out.rounds, 1);
  EXPECT_LE(out.rounds, 5);
}

TEST(Protocol, RelaxationPreservesStructure) {
  // Fig. 3: TM-score and SPECS of relaxed vs unrelaxed models correlate
  // strongly; no major structural changes.
  RelaxWorld w;
  for (const auto& rec : {w.records[0], w.records[1]}) {
    const Prediction p = w.predict(rec);
    const Structure native = build_native_structure(w.universe, rec);
    const RelaxOutcome out = relax_single_pass(p.structure);
    const double tm_before = tm_score(p.structure, native).tm_score;
    const double tm_after = tm_score(out.relaxed, native).tm_score;
    EXPECT_NEAR(tm_after, tm_before, 0.03);
    const double specs_before = specs_score(p.structure, native).specs;
    const double specs_after = specs_score(out.relaxed, native).specs;
    EXPECT_GT(specs_after, specs_before - 0.03);
  }
}

TEST(Protocol, SinglePassCheaperThanAf2Loop) {
  RelaxWorld w;
  const Prediction p = w.predict(w.records[2]);
  const RelaxOutcome ours = relax_single_pass(p.structure);
  const RelaxOutcome af2 = relax_af2_loop(p.structure);
  // Same or more evaluations for the loop protocol...
  EXPECT_GE(af2.energy_evaluations, ours.energy_evaluations);
  // ...and strictly more simulated wall time on matched hardware because
  // of the violation checks and heavier topology.
  const RelaxCostModel cost;
  EXPECT_GT(af2.simulated_seconds(RelaxPlatform::kAf2Original, cost),
            ours.simulated_seconds(RelaxPlatform::kAndesCpu, cost));
}

TEST(Protocol, GpuPlatformFasterThanCpu) {
  // Fig. 4: the GPU wins for medium-to-large systems; tiny systems are
  // dominated by the GPU's setup latency (the curves cross at the left
  // edge of the plot). Compare on the largest target in the set.
  RelaxWorld w;
  const ProteinRecord* largest = &w.records[0];
  for (const auto& rec : w.records) {
    if (rec.length() > largest->length()) largest = &rec;
  }
  ASSERT_GT(largest->length(), 250);
  const Prediction p = w.predict(*largest);
  const RelaxOutcome out = relax_single_pass(p.structure);
  const RelaxCostModel cost;
  const double gpu = out.simulated_seconds(RelaxPlatform::kSummitGpu, cost);
  const double cpu = out.simulated_seconds(RelaxPlatform::kAndesCpu, cost);
  EXPECT_LT(gpu, cpu);
}

TEST(Protocol, SpeedupGrowsWithSystemSize) {
  // Fig. 4B: GPU speedup over the AF2 method grows with heavy atoms.
  RelaxCostModel cost;
  const std::size_t evals = 400;
  double prev_speedup = 0.0;
  for (std::size_t atoms : {800u, 3000u, 8000u, 16000u}) {
    const double af2 = cost.task_seconds(RelaxPlatform::kAf2Original, atoms, evals, 2);
    const double gpu = cost.task_seconds(RelaxPlatform::kSummitGpu, atoms, evals, 1);
    const double speedup = af2 / gpu;
    EXPECT_GT(speedup, prev_speedup);
    prev_speedup = speedup;
  }
  EXPECT_GT(prev_speedup, 8.0);  // paper: up to ~14x at the large end
}

TEST(Protocol, OutcomeMetadataConsistent) {
  RelaxWorld w;
  const Prediction p = w.predict(w.records[4]);
  const RelaxOutcome out = relax_single_pass(p.structure);
  EXPECT_EQ(out.heavy_atoms, static_cast<std::size_t>(p.structure.heavy_atom_count()));
  EXPECT_EQ(out.relaxed.size(), p.structure.size());
  EXPECT_LE(out.final_energy, out.initial_energy);
}

}  // namespace
}  // namespace sf
