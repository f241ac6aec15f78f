// Inverted k-mer index for candidate filtering.
//
// Real MSA tools never Smith-Waterman the whole library; they prefilter
// with exact-word matching (BLAST seeds, MMseqs k-mers). This index maps
// every k-mer to its postings (sequence id, position); a query is scanned
// once and candidates are ranked by the count of shared k-mers on a
// consistent diagonal, which also supplies the band center for the
// banded alignment that follows.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace sf {

struct KmerSeedHit {
  std::uint32_t sequence_index = 0;
  int diagonal = 0;       // query_pos - subject_pos of the dominant band
  int seed_count = 0;     // k-mers shared on (or near) that diagonal
};

class KmerIndex {
 public:
  explicit KmerIndex(int k = 5);

  int k() const { return k_; }
  std::size_t indexed_sequences() const { return lengths_.size(); }

  // Add one sequence; ids are assigned densely in insertion order.
  void add_sequence(std::string_view residues);

  // Rank subjects by shared-kmer count on their best diagonal; returns up
  // to `max_hits` candidates with at least `min_seeds` seeds, sorted by
  // seed count descending.
  std::vector<KmerSeedHit> query(std::string_view residues, int min_seeds = 2,
                                 std::size_t max_hits = 200) const;

 private:
  // k-mer -> packed (sequence_index, position) postings.
  struct Posting {
    std::uint32_t seq;
    std::uint32_t pos;
  };
  static std::uint64_t pack_kmer(std::string_view window);

  int k_;
  std::unordered_map<std::uint64_t, std::vector<Posting>> postings_;
  std::vector<std::uint32_t> lengths_;
};

}  // namespace sf
