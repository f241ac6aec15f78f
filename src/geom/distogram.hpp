// Contact distograms and the recycle-convergence signal.
//
// The paper's dynamic-recycle controller (§3.2.2, adopted from ColabFold)
// stops iterating when "the change of the protein residue contact
// distogram ... in comparison to the previous recycle" drops below a
// threshold (0.5 for the `genome` preset, 0.1 for `super`). We implement
// the same observable: a binned CA-CA distance histogram per residue
// pair, compared between consecutive recycles by mean absolute bin-index
// difference (equivalently, a soft contact-map L1 distance).
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec3.hpp"

namespace sf {

// The binned distances of the latest recycle's CA trace, one byte per
// pair i < j (the only pairs the change reads), updated in place: one
// n(n-1)/2 buffer per prediction instead of a mirrored n x n matrix per
// recycle.
class Distogram {
 public:
  // AlphaFold bins distances into 64 bins over [2.3125, 21.6875] A; we use
  // the same layout so thresholds carry the same meaning.
  static constexpr int kBins = 64;
  static constexpr double kMinDist = 2.3125;
  static constexpr double kMaxDist = 21.6875;

  // Bins for traces of `n` residues, all 0 until the first update().
  explicit Distogram(std::size_t n);

  // Bins `ca` (n points) over the stored bins and returns the mean
  // absolute difference of pair-bin indices from the previous contents,
  // scaled by bin width so the result is in Angstrom units (comparable
  // to ColabFold's distogram tolerance values); 0 below two residues.
  // The first update compares against the all-0 start, which is no
  // recycle, so its result carries no convergence meaning.
  double update(const std::vector<Vec3>& ca);

  // Distances beyond the range clamp to the edge bins, as in
  // AlphaFold's final catch-all bin.
  static std::uint8_t distance_to_bin(double d);
  static double bin_width() { return (kMaxDist - kMinDist) / kBins; }

 private:
  std::size_t n_;
  std::vector<std::uint8_t> bins_;  // row-major upper triangle, i < j
};

}  // namespace sf
