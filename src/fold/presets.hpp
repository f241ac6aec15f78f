// Inference presets (§3.2.2).
//
// Two official AlphaFold presets and the paper's two new ones:
//   reduced_db : 1 ensemble, fixed 3 recycles (DeepMind's proteome preset)
//   casp14     : 8 ensembles, fixed 3 recycles (~8x compute)
//   genome     : dynamic recycling, distogram tolerance 0.5, max 20
//   super      : dynamic recycling, distogram tolerance 0.1, max 20
// The dynamic presets decay the recycle cap with sequence length past
// 500 AA down to a floor of 6, exactly as described in the paper.
#pragma once

#include <string>
#include <vector>

namespace sf {

struct PresetConfig {
  std::string name;
  int ensembles = 1;
  int max_recycles = 3;
  bool dynamic_recycling = false;
  double convergence_tol_A = 0.0;  // distogram mean-abs-change threshold
  int length_decay_start = 500;    // decay begins past this length
  int min_recycles = 6;            // floor of the decayed cap
  // Dynamic presets never stop before this many recycles (the official
  // fixed-recycle baseline), so early convergence cannot undercut the
  // reduced_db preset's quality.
  int min_dynamic_recycles = 3;
};

PresetConfig preset_reduced_db();
PresetConfig preset_casp14();
PresetConfig preset_genome();
PresetConfig preset_super();

// The recycle cap for a sequence of `length` under `preset`: fixed
// presets return max_recycles; dynamic presets decay 20 -> 6 linearly
// past length_decay_start.
int effective_max_recycles(const PresetConfig& preset, int length);

}  // namespace sf
