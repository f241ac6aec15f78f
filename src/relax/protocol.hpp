// Relaxation protocols: the paper's single-pass method vs the original
// AlphaFold2 violation loop (§3.2.3).
//
//   * single-pass (ours): one unconditional minimization to the
//     2.39 kcal/mol convergence criterion. No violation checks, no
//     retries -- "we removed the unnecessary violation calculations and
//     the possibility for repeated energy minimization calculations."
//   * AF2 loop (baseline): minimize, then count violations; while any
//     clash remains (or the bump count is anomalous), stiffen the
//     repulsive wall and minimize again, up to a round cap. This is the
//     behaviour whose removal the paper credits with the >10x speedup on
//     long sequences.
// Both protocols run the same real minimizer; their wall-clock difference
// on Summit/Andes/Phoenix comes from relax::RelaxCostModel applied to the
// measured work.
#pragma once

#include "geom/structure.hpp"
#include "geom/violations.hpp"
#include "relax/forcefield.hpp"
#include "relax/minimize.hpp"
#include "relax/platform.hpp"

namespace sf {

struct RelaxParams {
  ForceFieldParams forcefield;
  MinimizeOptions minimize;
  // AF2 loop controls.
  int af2_max_rounds = 5;
  double af2_repulsion_stiffen = 2.0;  // wall k multiplier per extra round
};

struct RelaxOutcome {
  Structure relaxed;
  ViolationReport violations_before;
  ViolationReport violations_after;
  int rounds = 1;                      // minimization rounds performed
  int total_steps = 0;                 // accepted minimizer steps
  std::size_t energy_evaluations = 0;  // total force evaluations
  double initial_energy = 0.0;
  double final_energy = 0.0;
  bool converged = false;

  // Wall time this task would take on `platform` under `model`.
  double simulated_seconds(RelaxPlatform platform, const RelaxCostModel& model = {}) const;
  std::size_t heavy_atoms = 0;
};

// Our optimized protocol: exactly one restrained minimization.
RelaxOutcome relax_single_pass(const Structure& model, const RelaxParams& params = {});

// The original AlphaFold2 protocol: minimize-check-repeat.
RelaxOutcome relax_af2_loop(const Structure& model, const RelaxParams& params = {});

}  // namespace sf
