#include "core/recycle_model.hpp"

#include <algorithm>

namespace sf {

int RecycleModel::hardness_bin(double h) {
  const int b = static_cast<int>(h * kHardnessBins);
  return std::clamp(b, 0, kHardnessBins - 1);
}

int RecycleModel::length_bin(int length) {
  if (length < 150) return 0;
  if (length < 350) return 1;
  if (length < 700) return 2;
  return 3;
}

void RecycleModel::observe(double hardness, int length, int recycles_run, bool converged) {
  const Obs obs{recycles_run, converged};
  bins_[hardness_bin(hardness)][length_bin(length)].push_back(obs);
  all_.push_back(obs);
}

RecycleModel::Draw RecycleModel::sample(double hardness, int length, Rng& rng) const {
  const int hb = hardness_bin(hardness);
  const int lb = length_bin(length);
  const std::vector<Obs>* pool = &bins_[hb][lb];
  if (pool->empty()) {
    // Nearest hardness bin at the same length class.
    for (int d = 1; d < kHardnessBins && pool->empty(); ++d) {
      if (hb - d >= 0 && !bins_[hb - d][lb].empty()) pool = &bins_[hb - d][lb];
      else if (hb + d < kHardnessBins && !bins_[hb + d][lb].empty()) pool = &bins_[hb + d][lb];
    }
  }
  if (pool->empty()) pool = &all_;
  if (pool->empty()) return {};
  const auto idx = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(pool->size()) - 1));
  const Obs& obs = (*pool)[idx];
  return {obs.recycles, obs.converged};
}

}  // namespace sf
