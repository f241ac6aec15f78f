// Empirical recycle-count model for proteome-scale extrapolation.
//
// The pipeline measures recycling behaviour exactly (surrogate engine,
// real distogram convergence) on a quality-measured subset of targets,
// then needs recycle counts -- hence task durations -- for the remaining
// tens of thousands of (model, target) tasks without paying for their
// geometry. This model is that bridge: it bins the measured subset by
// (hardness, length) and draws recycle counts for unmeasured tasks from
// the matching bin's empirical distribution, deterministically per task.
// Nothing here is calibrated to the paper -- it is calibrated to our own
// measured subset, preserving the measured convergence statistics at
// scale.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace sf {

class RecycleModel {
 public:
  // Observation: a measured task's recycle count.
  void observe(double hardness, int length, int recycles_run, bool converged);

  // Draw a recycle count for an unmeasured task; deterministic in `rng`
  // state. Falls back to neighboring bins, then to the global pool.
  struct Draw {
    int recycles_run = 3;
    bool converged = true;
  };
  Draw sample(double hardness, int length, Rng& rng) const;

 private:
  static constexpr int kHardnessBins = 5;
  static constexpr int kLengthBins = 4;
  static int hardness_bin(double h);
  static int length_bin(int length);

  struct Obs {
    int recycles;
    bool converged;
  };
  std::vector<Obs> bins_[kHardnessBins][kLengthBins];
  std::vector<Obs> all_;
};

}  // namespace sf
