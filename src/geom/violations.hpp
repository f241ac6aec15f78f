// Structural violation counting (clashes and bumps).
//
// Definitions follow the paper verbatim (§3.2.3, citing the CASP
// assessment criteria):
//   clash: CA-CA pairwise distance < 1.9 A
//   bump:  CA-CA pairwise distance < 3.6 A
//   a model is "clashed" if it has  > 4 clashes or > 50 bumps.
// Sequence-adjacent pairs are excluded: consecutive CAs sit at ~3.8 A by
// chain geometry and would otherwise be counted as near-bumps.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/structure.hpp"
#include "geom/vec3.hpp"

namespace sf {

struct ViolationReport {
  std::size_t clashes = 0;  // CA-CA < 1.9 A (nonadjacent pairs)
  std::size_t bumps = 0;    // CA-CA < 3.6 A (nonadjacent pairs; includes clashes)
};

inline constexpr double kClashDistance = 1.9;
inline constexpr double kBumpDistance = 3.6;

// Count violations on a CA trace. O(n^2) with a cell-list fast path for
// larger chains. `min_separation` is the smallest |i-j| counted (default
// 2: adjacent residues excluded).
ViolationReport count_violations(const std::vector<Vec3>& ca, std::size_t min_separation = 2);
ViolationReport count_violations(const Structure& s, std::size_t min_separation = 2);

}  // namespace sf
