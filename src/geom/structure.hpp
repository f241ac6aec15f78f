// Reduced heavy-atom protein structure model.
//
// Each residue carries the backbone heavy atoms (N, CA, C, O), a CB where
// chemically present, and a sidechain-centroid pseudo-atom SC standing in
// for the remaining sidechain heavy atoms. This is the resolution every
// result in the paper needs:
//   * clash/bump violations are defined on CA-CA distances (§3.2.3),
//   * TM-score uses CA only,
//   * SPECS-score adds sidechain position, which SC carries,
//   * relaxation force-field terms act on all modeled heavy atoms,
//   * Fig. 4's x-axis (heavy-atom count) uses the per-residue chemical
//     heavy-atom counts stored by the builder.
//
// geom is deliberately sequence-agnostic: residue identity is an opaque
// one-letter label plus a heavy-atom count filled in by the bio-layer
// builder, so the geometry library has no upward dependencies.
#pragma once

#include <string>
#include <vector>

#include "geom/kabsch.hpp"
#include "geom/vec3.hpp"

namespace sf {

struct Residue {
  char aa = 'A';        // one-letter residue label (opaque to geom)
  int heavy_atoms = 5;  // chemical heavy-atom count for this residue type
  Vec3 n, ca, c, o;
  Vec3 cb;              // valid iff has_cb
  Vec3 sc;              // sidechain centroid; valid iff has_sc
  bool has_cb = false;
  bool has_sc = false;
};

class Structure {
 public:
  Structure() = default;
  explicit Structure(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }

  std::size_t size() const { return residues_.size(); }
  bool empty() const { return residues_.empty(); }
  Residue& residue(std::size_t i) { return residues_[i]; }
  const Residue& residue(std::size_t i) const { return residues_[i]; }
  std::vector<Residue>& residues() { return residues_; }
  const std::vector<Residue>& residues() const { return residues_; }
  void add_residue(const Residue& r) { residues_.push_back(r); }
  void reserve(std::size_t n) { residues_.reserve(n); }

  // One-letter sequence string of the residue labels.
  std::string sequence_string() const;

  // CA trace (used by TM-score, violations, distograms).
  std::vector<Vec3> ca_coords() const;
  void set_ca_coords(const std::vector<Vec3>& ca);

  // All modeled heavy-atom coordinates in a fixed per-residue order
  // (N, CA, C, O, [CB], [SC]); the relaxation topology relies on this
  // ordering being stable.
  std::vector<Vec3> all_atom_coords() const;
  void set_all_atom_coords(const std::vector<Vec3>& coords);

  // Total chemical heavy atoms (sum of per-residue counts) -- the Fig. 4
  // x-axis quantity.
  long heavy_atom_count() const;

  // Rigid-body transform of every atom.
  void transform(const Superposition& sp);
  // Geometric center of the CA trace.
  Vec3 centroid_ca() const;
  // Radius of gyration over CA atoms.
  double radius_of_gyration() const;

 private:
  std::string name_;
  std::vector<Residue> residues_;
};

}  // namespace sf
