// Protein-complex screening with the AF2Complex-style extension (§5).
//
// Screens all pairs of a small proteome for physical interactions:
// predict each chain's monomer models once, dock each pair within the
// memory budget as one two-chain model, score the interface, and call
// interactions above an iScore cutoff. Ground truth (the synthetic
// interactome) grades the calls.
//
// Usage: ./examples/complex_screen [num_proteins 2..500, default 14]
//                                   [iscore_cutoff 0..1, default 0.35]
#include <cstdio>
#include <string_view>

#include "bio/proteome.hpp"
#include "bio/species.hpp"
#include "fold/complex.hpp"
#include "geom/pdb_io.hpp"
#include "seqsearch/feature_model.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

using namespace sf;

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "usage: complex_screen [num_proteins 2..500] [iscore_cutoff 0..1]\n";
  int num_proteins = 14;
  double cutoff = 0.35;
  if (argc == 2 && std::string_view(argv[1]) == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argc > 3 || (argc > 1 && !parse_number(argv[1], 2, 500, num_proteins)) ||
      (argc > 2 && !parse_number(argv[2], 0.0, 1.0, cutoff))) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  FoldUniverse universe(60, 29);
  SpeciesProfile profile = species_d_vulgaris();
  profile.length_max = 280;  // keep pair lengths inside one GPU's memory
  const auto records = ProteomeGenerator(universe, profile, 13).generate(num_proteins);
  const Interactome truth(records, 0.10, 41);
  const ComplexEngine engine(universe);

  std::printf("screening %zu pairs of %d proteins (iScore cutoff %.2f)\n\n",
              complex_screen_tasks(records.size()), num_proteins, cutoff);
  std::printf("%-14s %-14s | %7s | %6s | %s\n", "chain A", "chain B", "iScore", "pTMS",
              "call vs truth");

  // Every chain's reduced-library features, once; then each chain's
  // monomer models, once, the first time a pair within the memory budget
  // asks for them (MonomerTable), on one thread per CPU. Over-budget
  // pairs predict nothing.
  const PresetConfig preset = preset_reduced_db();
  std::vector<InputFeatures> features;
  features.reserve(records.size());
  for (const auto& r : records) features.push_back(sample_features(r, LibraryKind::kReduced));
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t j = i + 1; j < records.size(); ++j) pairs.emplace_back(i, j);
  }
  SlotComputer compute;
  MonomerTable monomers(engine, records, features, preset, pairs, compute);

  int tp = 0, fp = 0, fn = 0, tn = 0;
  bool wrote_example = false;
  for (const auto& [i, j] : pairs) {
    if (engine.combined_out_of_memory(records[i], records[j], preset)) continue;
    const ComplexPrediction pred = engine.assemble(records[i], records[j], monomers.get(i, 0),
                                                   monomers.get(j, 1), truth, i, j);
    const bool called = pred.interface_score >= cutoff;
    if (called && pred.truly_interacting) ++tp;
    else if (called) ++fp;
    else if (pred.truly_interacting) ++fn;
    else ++tn;
    if (called || pred.truly_interacting) {
      std::printf("%-14s %-14s | %7.2f | %6.2f | %s\n", records[i].sequence.id().c_str(),
                  records[j].sequence.id().c_str(), pred.interface_score, pred.ptms,
                  called ? (pred.truly_interacting ? "hit (true binder)" : "FALSE POSITIVE")
                         : "missed binder");
    }
    if (called && pred.truly_interacting && !wrote_example) {
      write_pdb_file("complex_example.pdb", pred.structure);
      wrote_example = true;
    }
  }
  std::printf("\nconfusion: %d true hits, %d false positives, %d misses, %d true negatives\n",
              tp, fp, fn, tn);
  if (wrote_example) std::printf("wrote complex_example.pdb (first confident binder)\n");
  return 0;
}
