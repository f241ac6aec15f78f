#include "analysis/fold_library.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "native/render.hpp"

namespace sf {

double structure_contact_density(const Structure& s) {
  const auto ca = s.ca_coords();
  if (ca.size() < 5) return 0.0;
  std::size_t contacts = 0;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    for (std::size_t j = i + 4; j < ca.size(); ++j) {
      if (distance2(ca[i], ca[j]) < 64.0) ++contacts;  // 8 A
    }
  }
  return static_cast<double>(contacts) / static_cast<double>(ca.size());
}

FoldLibrary::FoldLibrary(const FoldUniverse& universe,
                         const std::vector<std::size_t>& fold_indices) {
  entries_.reserve(fold_indices.size());
  for (std::size_t f : fold_indices) entries_.push_back(make_entry(universe, f));
}

FoldLibrary::FoldLibrary(std::vector<FoldLibraryEntry> entries) : entries_(std::move(entries)) {}

FoldLibraryEntry FoldLibrary::make_entry(const FoldUniverse& universe, std::size_t fold_index) {
  FoldLibraryEntry e;
  e.fold_index = fold_index;
  e.annotation = universe.annotation(fold_index);
  e.structure = build_fold_structure("pdb70_" + std::to_string(fold_index),
                                     universe.fold(fold_index),
                                     universe.canonical_sequence(fold_index));
  e.length = static_cast<int>(e.structure.size());
  e.radius_of_gyration = e.structure.radius_of_gyration();
  e.contact_density = structure_contact_density(e.structure);
  return e;
}

std::vector<FoldSearchHit> FoldLibrary::search(const Structure& query, std::size_t shortlist,
                                               const StructAlignParams& params) const {
  // Prefilter: normalized distance in (log length, Rg, contact density).
  const double qlen = std::log(static_cast<double>(std::max<std::size_t>(1, query.size())));
  const double qrg = query.radius_of_gyration();
  const double qcd = structure_contact_density(query);
  std::vector<std::pair<double, std::size_t>> ranked;
  ranked.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const FoldLibraryEntry& e = entries_[i];
    const double dlen = qlen - std::log(static_cast<double>(std::max(1, e.length)));
    const double drg = (qrg - e.radius_of_gyration) / 8.0;
    const double dcd = (qcd - e.contact_density) / 2.0;
    ranked.emplace_back(dlen * dlen + drg * drg + dcd * dcd, i);
  }
  std::sort(ranked.begin(), ranked.end());
  const std::size_t take = std::min(shortlist, ranked.size());

  std::vector<FoldSearchHit> hits;
  hits.reserve(take);
  for (std::size_t k = 0; k < take; ++k) {
    const std::size_t i = ranked[k].second;
    const FoldLibraryEntry& e = entries_[i];
    const StructAlignResult aln = struct_align(query, e.structure, params);
    FoldSearchHit hit;
    hit.library_index = i;
    hit.fold_index = e.fold_index;
    hit.annotation = e.annotation;
    hit.tm_query = aln.tm_query;
    hit.aligned_seq_identity = aln.aligned_seq_identity;
    hit.rmsd = aln.rmsd;
    hits.push_back(std::move(hit));
  }
  std::sort(hits.begin(), hits.end(),
            [](const FoldSearchHit& a, const FoldSearchHit& b) { return a.tm_query > b.tm_query; });
  return hits;
}

}  // namespace sf
