#include "fold/presets.hpp"

#include <algorithm>

namespace sf {

PresetConfig preset_reduced_db() {
  PresetConfig p;
  p.name = "reduced_db";
  p.ensembles = 1;
  p.max_recycles = 3;
  p.dynamic_recycling = false;
  return p;
}

PresetConfig preset_casp14() {
  PresetConfig p;
  p.name = "casp14";
  p.ensembles = 8;
  p.max_recycles = 3;
  p.dynamic_recycling = false;
  return p;
}

PresetConfig preset_genome() {
  PresetConfig p;
  p.name = "genome";
  p.ensembles = 1;
  p.max_recycles = 20;
  p.dynamic_recycling = true;
  p.convergence_tol_A = 0.5;
  return p;
}

PresetConfig preset_super() {
  PresetConfig p = preset_genome();
  p.name = "super";
  p.convergence_tol_A = 0.1;
  return p;
}

int effective_max_recycles(const PresetConfig& preset, int length) {
  if (!preset.dynamic_recycling) return preset.max_recycles;
  if (length <= preset.length_decay_start) return preset.max_recycles;
  // Linear decay: one recycle shed per 125 residues past the knee, so the
  // cap reaches the floor of 6 around 2250 AA.
  const int shed = (length - preset.length_decay_start) / 125;
  return std::clamp(preset.max_recycles - shed, preset.min_recycles, preset.max_recycles);
}

}  // namespace sf
