// Structure-based functional annotation (§4.6) as a library user would
// run it: predict structures for unannotated proteins, search a fold
// library, transfer annotations from confident structural matches, and
// flag novel-fold candidates.
//
// Usage: ./examples/annotate_hypotheticals [num_proteins 1..10000, default 20]
#include <cstdio>
#include <string_view>

#include "analysis/annotation.hpp"
#include "analysis/fold_library.hpp"
#include "bio/proteome.hpp"
#include "bio/species.hpp"
#include "fold/engine.hpp"
#include "util/string_util.hpp"

using namespace sf;

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: annotate_hypotheticals [num_proteins 1..10000]\n";
  int num_proteins = 20;
  if (argc == 2 && std::string_view(argv[1]) == "--help") {
    std::fputs(kUsage, stdout);
    return 0;
  }
  if (argc > 2 || (argc == 2 && !parse_number(argv[1], 1, 10000, num_proteins))) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  FoldUniverse universe(80, 61);

  // The proteome's "hypothetical" proteins: no functional annotation.
  SpeciesProfile profile = species_d_vulgaris();
  profile.hypothetical_fraction = 1.0;
  profile.novel_fold_fraction = 0.10;
  profile.length_max = 500;
  const auto hypotheticals = ProteomeGenerator(universe, profile, 3).generate(num_proteins);

  // A PDB70-like library: every fold that has an experimental structure
  // (novel folds of the study set are, by definition, absent).
  std::vector<bool> excluded(universe.size(), false);
  for (const auto& r : hypotheticals) {
    if (r.novel_fold) excluded[r.fold_index] = true;
  }
  std::vector<std::size_t> library_folds;
  for (std::size_t f = 0; f < universe.size(); ++f) {
    if (!excluded[f]) library_folds.push_back(f);
  }
  const FoldLibrary library(universe, library_folds);
  std::printf("fold library: %zu experimental representatives\n", library.size());
  std::printf("study set: %zu hypothetical proteins\n\n", hypotheticals.size());

  FoldingEngine engine(universe);
  const AnnotationSummary summary = annotate_hypotheticals(engine, library, hypotheticals);

  std::printf("%-16s %5s | %6s | %7s | %s\n", "protein", "pLDDT", "top TM", "seq id", "verdict");
  for (const auto& o : summary.outcomes) {
    const char* verdict =
        o.top_tm >= 0.60
            ? (o.top_seq_identity < 0.20 ? "annotated by structure (sequence would miss it)"
                                         : "annotated (sequence methods would also work)")
            : (o.novel_candidate ? "NOVEL-FOLD CANDIDATE" : "no confident match");
    std::printf("%-16s %5.0f | %6.2f | %6.0f%% | %s\n", o.target_id.c_str(), o.plddt, o.top_tm,
                100.0 * o.top_seq_identity, verdict);
    if (o.top_tm >= 0.60) {
      std::printf("%-16s       ->  transferred: \"%s\"%s\n", "", o.matched_annotation.c_str(),
                  o.match_correct ? "  [ground truth: correct family]" : "");
    }
  }

  std::printf("\nsummary: %d/%d structurally annotated (%d below 20%% identity, %d below 10%%), %d novel-fold candidates\n",
              summary.structural_match, summary.total, summary.match_below_20_identity,
              summary.match_below_10_identity, summary.novel_candidates);
  return 0;
}
