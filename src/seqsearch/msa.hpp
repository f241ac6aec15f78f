// Multiple sequence alignments and MSA-derived input features.
//
// §3.2.1: "the most important features are the MSAs, which dictate the
// final quality of all predicted structures." Our surrogate model's
// quality ceiling is driven by the effective depth (Neff) computed here,
// with sequence weighting by 80%-identity clustering as in real
// pipelines; depth (raw hit count) and template availability complete
// the feature set consumed by fold::.
#pragma once

#include <string>
#include <vector>

#include "bio/sequence.hpp"

namespace sf {

struct MsaHit {
  std::string subject_id;
  std::string subject_residues;  // the aligned subject segment (row body)
  double identity = 0.0;       // to the query, over aligned columns
  double query_coverage = 0.0; // aligned columns / query length
  double evalue = 0.0;
  int score = 0;
  std::string source_db;
};

class Msa {
 public:
  Msa() = default;
  explicit Msa(std::string query_id) : query_id_(std::move(query_id)) {}

  const std::string& query_id() const { return query_id_; }
  std::size_t depth() const { return hits_.size(); }  // rows excluding query
  const std::vector<MsaHit>& hits() const { return hits_; }
  void add_hit(MsaHit h) { hits_.push_back(std::move(h)); }

  // Effective sequence count: weight each row by 1 / (number of rows in
  // its `cluster_identity` neighborhood). Row-row similarity uses 4-mer
  // Jaccard overlap of the subject segments when available (indel- and
  // alignment-free, the MMseqs-style sketch), falling back to the
  // star-topology identity-to-query approximation for rows without
  // stored residues.
  double effective_depth(double cluster_identity = 0.80) const;

 private:
  std::string query_id_;
  std::vector<MsaHit> hits_;
};

// Input features handed to the folding engine (what the paper
// pre-computes on Andes and ships to Summit).
struct InputFeatures {
  std::string target_id;
  int length = 0;
  int msa_depth = 0;          // raw rows
  double neff = 0.0;          // effective depth
  double mean_identity = 0.0;
  bool has_templates = false; // PDB-derived structural features present
  // Bytes of the serialized feature file (drives I/O accounting).
  double feature_bytes() const;
};

}  // namespace sf
