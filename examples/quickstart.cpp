// Quickstart: fold one protein end-to-end through the public API.
//
//   1. build a synthetic world (fold universe) and draw a target protein
//   2. generate input features (the CPU stage the paper runs on Andes)
//   3. run surrogate AlphaFold inference with the paper's `genome` preset
//      (dynamic recycling) across all five models
//   4. relax the top model with the optimized single-pass protocol
//   5. score the result and write PDB files you can open in PyMOL
//
// Build & run:  ./examples/quickstart   (no arguments; --help prints usage)
#include <cstdio>
#include <string_view>

#include "bio/proteome.hpp"
#include "bio/species.hpp"
#include "fold/engine.hpp"
#include "fold/presets.hpp"
#include "geom/pdb_io.hpp"
#include "native/render.hpp"
#include "relax/protocol.hpp"
#include "score/tm_score.hpp"
#include "seqsearch/feature_model.hpp"

using namespace sf;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: quickstart\n"
      "Folds one synthetic protein end to end and writes quickstart_model.pdb\n"
      "and quickstart_native.pdb to the working directory. Takes no arguments.\n";
  if (argc == 2 && std::string_view(argv[1]) == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argc > 1) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  // 1. A world with 200 fold families and one D. vulgaris-like protein.
  FoldUniverse universe(200, /*seed=*/42);
  ProteomeGenerator generator(universe, species_d_vulgaris(), /*seed=*/7);
  const ProteinRecord target = generator.generate(1).front();
  std::printf("target %s: %d residues, %s\n", target.sequence.id().c_str(), target.length(),
              target.hypothetical ? "hypothetical" : target.annotation.c_str());
  std::printf("sequence: %.60s...\n\n", target.sequence.residues().c_str());

  // 2. Input features (MSA depth / Neff drive attainable quality).
  const InputFeatures features = sample_features(target, LibraryKind::kReduced);
  std::printf("features: MSA depth %d, Neff %.1f, templates %s\n\n", features.msa_depth,
              features.neff, features.has_templates ? "yes" : "no");

  // 3. Inference: five models, dynamic recycling, ranked by pTMS.
  FoldingEngine engine(universe);
  const PresetConfig preset = preset_genome();
  const auto predictions = engine.predict_all_models(target, features, preset);
  for (const auto& p : predictions) {
    std::printf("  model %d: pLDDT %.1f, pTMS %.3f, %d recycles%s\n", p.model_id, p.plddt,
                p.ptms, p.trace.recycles_run, p.trace.converged ? " (converged)" : "");
  }
  const int top = top_model_index(predictions);
  const Prediction& best = predictions[static_cast<std::size_t>(top)];
  std::printf("top model by pTMS: model %d\n\n", best.model_id);

  // 4. Geometry optimization (single-pass restrained minimization).
  const RelaxOutcome relaxed = relax_single_pass(best.structure);
  std::printf("relaxation: %d steps, %zu force evaluations, energy %.1f -> %.1f kcal/mol\n",
              relaxed.total_steps, relaxed.energy_evaluations, relaxed.initial_energy,
              relaxed.final_energy);
  std::printf("violations: clashes %zu -> %zu, bumps %zu -> %zu\n\n",
              relaxed.violations_before.clashes, relaxed.violations_after.clashes,
              relaxed.violations_before.bumps, relaxed.violations_after.bumps);

  // 5. Ground truth scoring (the synthetic world knows its native).
  const Structure native = build_native_structure(universe, target);
  std::printf("true TM-score vs native: unrelaxed %.3f, relaxed %.3f\n",
              tm_score(best.structure, native).tm_score,
              tm_score(relaxed.relaxed, native).tm_score);

  write_pdb_file("quickstart_model.pdb", relaxed.relaxed);
  write_pdb_file("quickstart_native.pdb", native);
  std::printf("\nwrote quickstart_model.pdb and quickstart_native.pdb\n");
  return 0;
}
