// Structural alignment of unequal-length structures (APoc/TM-align-style,
// §4.6).
//
// The paper aligns predicted structures against the PDB70 with APoc's
// global TM-score alignment module. We implement the same two-phase
// heuristic the TM-align family uses:
//   1. seed superpositions from gapless fragment pairs (several fragment
//      lengths and offsets in both chains);
//   2. iterate: superpose on the current correspondence -> score matrix
//      S_ij = 1/(1 + d_ij^2/d0^2) over transformed CA pairs -> global DP
//      (NW, gap penalty, monotone correspondence) -> re-superpose, until
//      the correspondence stabilizes; keep the best TM-score over seeds.
// The DP computes each query row's similarities into one m-long buffer
// and keeps two rolling score rows, so a call holds the n*m one-byte
// traceback plus O(n + m) doubles.
// TM-score is normalized by the query length, matching the paper's use.
#pragma once

#include <vector>

#include "geom/structure.hpp"
#include "geom/vec3.hpp"

namespace sf {

struct StructAlignParams {
  int fragment_length = 20;
  int max_seeds = 24;        // fragment seed pairs tried
  int max_iterations = 12;   // DP refinement rounds per seed
  double gap_penalty = 0.6;  // DP gap penalty in score units
};

struct StructAlignResult {
  double tm_query = 0.0;   // TM-score normalized by query length
  double tm_target = 0.0;  // normalized by target length
  std::vector<std::pair<int, int>> pairs;  // aligned (query, target) residues
  double rmsd = 0.0;       // over aligned pairs after superposition
  // Sequence identity over the *structural* alignment columns.
  double aligned_seq_identity = 0.0;
};

StructAlignResult struct_align(const Structure& query, const Structure& target,
                               const StructAlignParams& params = {});
StructAlignResult struct_align_ca(const std::vector<Vec3>& query_ca,
                                  const std::vector<Vec3>& target_ca,
                                  const std::string& query_seq, const std::string& target_seq,
                                  const StructAlignParams& params = {});

}  // namespace sf
