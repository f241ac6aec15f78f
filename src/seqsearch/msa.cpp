#include "seqsearch/msa.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace sf {

namespace {

// Packed 4-mer set of a sequence (5 bits per residue), as a sorted
// deduplicated vector: order-deterministic and merge-intersectable,
// where an unordered_set would hand downstream code a platform-defined
// iteration order (sfcheck rule D3).
std::vector<std::uint32_t> kmer_sketch(const std::string& s) {
  std::vector<std::uint32_t> keys;
  if (s.size() < 4) return keys;
  keys.reserve(s.size() - 3);
  for (std::size_t i = 0; i + 4 <= s.size(); ++i) {
    std::uint32_t key = 1;
    for (std::size_t j = 0; j < 4; ++j) {
      key = (key << 5) | (static_cast<std::uint32_t>(s[i + j]) & 31u);
    }
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

double jaccard(const std::vector<std::uint32_t>& a, const std::vector<std::uint32_t>& b) {
  if (a.empty() || b.empty()) return 0.0;
  std::size_t inter = 0;
  for (std::size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(inter) /
         static_cast<double>(a.size() + b.size() - inter);
}

}  // namespace

double Msa::effective_depth(double cluster_identity) const {
  if (hits_.empty()) return 0.0;
  bool have_residues = true;
  for (const auto& h : hits_) {
    if (h.subject_residues.empty()) {
      have_residues = false;
      break;
    }
  }
  std::vector<double> cluster_sizes(hits_.size(), 1.0);
  if (have_residues) {
    // Fraction of shared 4-mers falls roughly like identity^4; two
    // sequences at the clustering identity share about that Jaccard.
    const double jaccard_cut = std::pow(cluster_identity, 4.0);
    std::vector<std::vector<std::uint32_t>> sketches;
    sketches.reserve(hits_.size());
    for (const auto& h : hits_) sketches.push_back(kmer_sketch(h.subject_residues));
    for (std::size_t i = 0; i < hits_.size(); ++i) {
      for (std::size_t j = i + 1; j < hits_.size(); ++j) {
        if (jaccard(sketches[i], sketches[j]) >= jaccard_cut) {
          cluster_sizes[i] += 1.0;
          cluster_sizes[j] += 1.0;
        }
      }
    }
  } else {
    // Star-topology approximation through identity-to-query (geometric
    // mean as the mutual-identity point estimate).
    for (std::size_t i = 0; i < hits_.size(); ++i) {
      for (std::size_t j = i + 1; j < hits_.size(); ++j) {
        const double mutual = std::sqrt(hits_[i].identity * hits_[j].identity);
        if (mutual >= cluster_identity) {
          cluster_sizes[i] += 1.0;
          cluster_sizes[j] += 1.0;
        }
      }
    }
  }
  double neff = 0.0;
  for (double cs : cluster_sizes) neff += 1.0 / cs;
  return neff;
}

double InputFeatures::feature_bytes() const {
  // AlphaFold feature pickles scale with MSA rows x length (one byte per
  // cell plus ~30% metadata); template stacks add a length^2 distance map.
  double bytes = static_cast<double>(msa_depth + 1) * static_cast<double>(length) * 1.3;
  if (has_templates) bytes += 4.0 * static_cast<double>(length) * static_cast<double>(length);
  return bytes + 4096.0;
}

}  // namespace sf
