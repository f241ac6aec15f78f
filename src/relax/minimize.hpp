// Energy minimizers: L-BFGS (OpenMM's choice) and FIRE.
//
// The paper's protocol: "a single energy-minimization calculation ...
// with an unlimited number of optimization steps until the energy
// difference between steps reached a convergence criteria
// (2.39 kcal/mol)". Both minimizers implement exactly that stopping rule
// plus a gradient-norm fallback and a step cap as safety nets.
#pragma once

#include <functional>
#include <vector>

#include "geom/vec3.hpp"
#include "relax/forcefield.hpp"

namespace sf {

struct MinimizeOptions {
  double energy_tolerance = 2.39;  // kcal/mol between accepted steps (paper)
  double grad_tolerance = 1e-3;    // kcal/mol/A RMS gradient fallback
  int max_steps = 20000;           // "unlimited" with a safety cap
  int lbfgs_history = 8;
};

struct MinimizeResult {
  double initial_energy = 0.0;
  double final_energy = 0.0;
  int steps = 0;                 // accepted optimizer steps
  int energy_evaluations = 0;    // force/energy calls (the cost driver)
  bool converged = false;        // hit a tolerance (vs the step cap)
};

// Minimize `coords` in place under `ff` with L-BFGS + Armijo backtracking.
MinimizeResult minimize_lbfgs(const ForceField& ff, std::vector<Vec3>& coords,
                              const MinimizeOptions& options = {});

}  // namespace sf
