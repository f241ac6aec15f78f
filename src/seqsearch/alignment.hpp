// Pairwise local sequence alignment (Smith-Waterman with affine gaps),
// the workhorse under the homology-search substrate that
// stands in for HMMER/HH-suite.
//
// Full O(nm) dynamic programming plus a banded variant used after k-mer
// seeding (the seed fixes the diagonal, the band bounds the search around
// it) -- the same filter-then-align architecture the real tools use.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace sf {

struct AlignmentParams {
  int gap_open = -11;    // affine gap opening (BLAST defaults for BLOSUM62)
  int gap_extend = -1;   // affine gap extension
};

struct AlignmentResult {
  int score = 0;
  // Aligned index pairs (query_pos, subject_pos), ascending; substitution
  // columns only (gaps are implicit between non-contiguous pairs).
  std::vector<std::pair<int, int>> pairs;
  double identity = 0.0;      // identical / aligned columns
  double query_coverage = 0.0;  // aligned columns / query length
  int query_begin = 0;
  int query_end = 0;   // exclusive
  int subject_begin = 0;
  int subject_end = 0;  // exclusive
};

// Local (Smith-Waterman) alignment with affine gaps and BLOSUM62 scoring.
AlignmentResult smith_waterman(std::string_view query, std::string_view subject,
                               const AlignmentParams& params = {});

// Banded local alignment constrained to |((i - j) - diagonal)| <= band.
// Used downstream of k-mer seeding; equals full SW when the band covers
// the true optimum.
AlignmentResult banded_smith_waterman(std::string_view query, std::string_view subject,
                                      int diagonal, int band,
                                      const AlignmentParams& params = {});

// Karlin-Altschul style E-value for a local alignment score against a
// library of `library_residues` total residues. Parameters are the
// standard BLOSUM62 gapped estimates (lambda ~ 0.267, K ~ 0.041).
double evalue(int score, std::size_t query_length, std::size_t library_residues);

}  // namespace sf
