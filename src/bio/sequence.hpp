// Protein sequence value type.
#pragma once

#include <string>

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

 private:
  std::string id_;
  std::string description_;
  std::string residues_;
};

}  // namespace sf
