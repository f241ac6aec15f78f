// Molecular-mechanics-lite force field for structure relaxation (§3.2.3).
//
// The paper's relaxation is an OpenMM AMBER99 minimization whose job is
// narrow: remove CA-CA clashes/bumps while a strong harmonic restraint
// (k = 10 kcal/mol/A^2 on all heavy atoms) pins the model to the inferred
// coordinates. Any restrained potential with a steep repulsive wall does
// that job identically; ours has four terms on the reduced heavy-atom
// model:
//   * bonds: harmonic on covalent/virtual bonds at builder-ideal lengths
//     (N-CA, CA-C, C-O, C-N(i+1), CA-CA(i+1) virtual, CA-CB, CB/CA-SC)
//   * angles: harmonic on the CA(i-1)-CA(i)-CA(i+1) virtual angle toward
//     its input value (keeps the trace from kinking under repulsion)
//   * repulsion: soft half-harmonic wall on nonlocal CA-CA pairs inside
//     4.5 A -- the term that resolves clashes and bumps
//   * restraints: harmonic to the input position on every modeled atom,
//     k = 10 kcal/mol/A^2 exactly as in the paper.
// Energies in kcal/mol, distances in A.
#pragma once

#include <cstddef>
#include <vector>

#include "geom/structure.hpp"
#include "geom/vec3.hpp"

namespace sf {

struct ForceFieldParams {
  double bond_k = 120.0;         // kcal/mol/A^2
  double angle_k = 25.0;         // kcal/mol/rad^2
  double repulsion_k = 60.0;     // kcal/mol/A^2 (half-harmonic wall)
  double repulsion_cutoff = 4.5; // A; wall engages below this CA-CA distance
  double restraint_k = 10.0;     // kcal/mol/A^2 (paper's value)
  // Sidechain-ideality weight: pulls CA-CB / CB-SC bonds toward the
  // builder's ideal lengths, the term that nudges sidechains toward
  // native-like geometry (the small SPECS gain in Fig. 3).
  double sidechain_ideality_k = 40.0;
};

// Immutable topology + parameters bound to one structure's layout. The
// coordinate vector follows Structure::all_atom_coords() ordering.
class ForceField {
 public:
  ForceField(const Structure& reference, ForceFieldParams params = {});

  const ForceFieldParams& params() const { return params_; }

  // Potential energy (kcal/mol) at `coords` and its gradient (dE/dx, kcal/mol/A); grad resized/overwritten.
  double energy_and_gradient(const std::vector<Vec3>& coords, std::vector<Vec3>& grad) const;

 private:
  struct Bond {
    int a;
    int b;
    double r0;
    double k;
  };
  struct Angle {
    int a;
    int b;
    int c;
    double theta0;
  };

  void add_bond(int a, int b, double r0, double k);

  ForceFieldParams params_;
  std::size_t natoms_ = 0;
  std::vector<Bond> bonds_;
  std::vector<Angle> angles_;
  std::vector<int> ca_atom_index_;      // residue -> atom index of its CA
  std::vector<Vec3> restraint_centers_;
};

}  // namespace sf
