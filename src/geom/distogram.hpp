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

class Distogram {
 public:
  // AlphaFold bins distances into 64 bins over [2.3125, 21.6875] A; we use
  // the same layout so thresholds carry the same meaning.
  static constexpr int kBins = 64;
  static constexpr double kMinDist = 2.3125;
  static constexpr double kMaxDist = 21.6875;

  Distogram() = default;
  explicit Distogram(const std::vector<Vec3>& ca);

  // Bin index of pair (i, j); distances beyond the range clamp to the
  // edge bins, as in AlphaFold's final catch-all bin.
  std::uint8_t bin(std::size_t i, std::size_t j) const { return bins_[i * n_ + j]; }

  static std::uint8_t distance_to_bin(double d);
  static double bin_width() { return (kMaxDist - kMinDist) / kBins; }

  // Mean absolute difference of pair-bin indices, scaled by bin width so
  // the result is in Angstrom units (comparable to ColabFold's distogram
  // tolerance values). Structures must have equal residue counts.
  double mean_abs_change(const Distogram& other) const;

 private:
  std::size_t n_ = 0;
  std::vector<std::uint8_t> bins_;
};

}  // namespace sf
