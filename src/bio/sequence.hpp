// Protein sequence value type and FASTA I/O.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace sf {

class Sequence {
 public:
  Sequence() = default;
  Sequence(std::string id, std::string residues, std::string description = "")
      : id_(std::move(id)), description_(std::move(description)), residues_(std::move(residues)) {}

  const std::string& id() const { return id_; }
  const std::string& description() const { return description_; }
  const std::string& residues() const { return residues_; }
  std::size_t length() const { return residues_.size(); }
  bool empty() const { return residues_.empty(); }
  char operator[](std::size_t i) const { return residues_[i]; }

  // True if every residue is one of the 20 standard amino acids.
  bool is_valid() const;

 private:
  std::string id_;
  std::string description_;
  std::string residues_;
};

// Fraction of identical positions over min length (ungapped, positional).
double naive_sequence_identity(const std::string& a, const std::string& b);

// FASTA I/O. Reader accepts wrapped or unwrapped records; ids are the
// first whitespace-delimited token after '>', the rest is description.
std::vector<Sequence> read_fasta(std::istream& in);
std::vector<Sequence> read_fasta_string(const std::string& text);
std::vector<Sequence> read_fasta_file(const std::string& path);
void write_fasta(std::ostream& out, const std::vector<Sequence>& seqs, std::size_t wrap = 60);
std::string to_fasta_string(const std::vector<Sequence>& seqs, std::size_t wrap = 60);
void write_fasta_file(const std::string& path, const std::vector<Sequence>& seqs,
                      std::size_t wrap = 60);

}  // namespace sf
