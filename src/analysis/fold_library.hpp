// PDB70-like fold library and structural search (§4.6).
//
// One representative structure per annotated fold family (novel folds are
// excluded by construction -- they have no experimental structure, which
// is the point of §4.6's novelty scan). Search uses a cheap global-shape
// prefilter (length, radius of gyration, contact density) to shortlist
// candidates, then the TM-align-style aligner; this mirrors how APoc runs
// against pdb70 behind a fast prefilter.
#pragma once

#include <string>
#include <vector>

#include "analysis/struct_align.hpp"
#include "bio/fold_grammar.hpp"
#include "geom/structure.hpp"

namespace sf {

struct FoldLibraryEntry {
  std::size_t fold_index = 0;   // into the generating universe
  std::string annotation;
  Structure structure;
  // Prefilter features.
  int length = 0;
  double radius_of_gyration = 0.0;
  double contact_density = 0.0;  // nonlocal contacts per residue
};

struct FoldSearchHit {
  std::size_t library_index = 0;
  std::size_t fold_index = 0;
  std::string annotation;
  double tm_query = 0.0;
  double aligned_seq_identity = 0.0;
  double rmsd = 0.0;
};

class FoldLibrary {
 public:
  // Build from a universe: one representative per fold index in
  // `fold_indices` (rendered at the fold's base length).
  FoldLibrary(const FoldUniverse& universe, const std::vector<std::size_t>& fold_indices);
  // Build from entries made by make_entry(), in library order.
  explicit FoldLibrary(std::vector<FoldLibraryEntry> entries);

  // The representative of fold `fold_index`: its render and prefilter
  // features.
  static FoldLibraryEntry make_entry(const FoldUniverse& universe, std::size_t fold_index);

  std::size_t size() const { return entries_.size(); }
  const FoldLibraryEntry& entry(std::size_t i) const { return entries_[i]; }

  // Align `query` against the `shortlist` most shape-similar entries and
  // return hits sorted by TM-score (best first).
  std::vector<FoldSearchHit> search(const Structure& query, std::size_t shortlist = 20,
                                    const StructAlignParams& params = {}) const;

 private:
  std::vector<FoldLibraryEntry> entries_;
};

// Prefilter feature helpers (exposed for tests).
double structure_contact_density(const Structure& s);

}  // namespace sf
