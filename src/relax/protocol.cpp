#include "relax/protocol.hpp"

namespace sf {

double RelaxOutcome::simulated_seconds(RelaxPlatform platform,
                                       const RelaxCostModel& model) const {
  return model.task_seconds(platform, heavy_atoms, energy_evaluations, rounds);
}

RelaxOutcome relax_single_pass(const Structure& model, const RelaxParams& params) {
  RelaxOutcome out;
  out.relaxed = model;
  out.heavy_atoms = static_cast<std::size_t>(model.heavy_atom_count());
  out.violations_before = count_violations(model);

  ForceField ff(model, params.forcefield);
  auto coords = model.all_atom_coords();
  const MinimizeResult mr = minimize_lbfgs(ff, coords, params.minimize);
  out.relaxed.set_all_atom_coords(coords);

  out.rounds = 1;
  out.total_steps = mr.steps;
  out.energy_evaluations = mr.energy_evaluations;
  out.initial_energy = mr.initial_energy;
  out.final_energy = mr.final_energy;
  out.converged = mr.converged;
  out.violations_after = count_violations(out.relaxed);
  return out;
}

RelaxOutcome relax_af2_loop(const Structure& model, const RelaxParams& params) {
  RelaxOutcome out;
  out.relaxed = model;
  out.heavy_atoms = static_cast<std::size_t>(model.heavy_atom_count());
  out.violations_before = count_violations(model);

  ForceFieldParams ff_params = params.forcefield;
  auto coords = model.all_atom_coords();
  out.rounds = 0;
  bool first = true;
  for (int round = 0; round < params.af2_max_rounds; ++round) {
    // Each round rebuilds the system the way the AF2 pipeline re-invokes
    // OpenMM: restraints recentered on the current coordinates.
    Structure current = out.relaxed;
    current.set_all_atom_coords(coords);
    ForceField ff(current, ff_params);
    const MinimizeResult mr = minimize_lbfgs(ff, coords, params.minimize);
    ++out.rounds;
    out.total_steps += mr.steps;
    out.energy_evaluations += mr.energy_evaluations;
    if (first) {
      out.initial_energy = mr.initial_energy;
      first = false;
    }
    out.final_energy = mr.final_energy;
    out.converged = mr.converged;

    // Violation check (the step the paper removes). Any remaining clash
    // triggers another round with a stiffer wall.
    Structure check = out.relaxed;
    check.set_all_atom_coords(coords);
    const ViolationReport v = count_violations(check);
    if (v.clashes == 0) break;
    ff_params.repulsion_k *= params.af2_repulsion_stiffen;
  }
  out.relaxed.set_all_atom_coords(coords);
  out.violations_after = count_violations(out.relaxed);
  return out;
}

}  // namespace sf
