#include "geom/distogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sf {

Distogram::Distogram(const std::vector<Vec3>& ca) : n_(ca.size()) {
  bins_.resize(n_ * n_, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    bins_[i * n_ + i] = 0;
    for (std::size_t j = i + 1; j < n_; ++j) {
      const std::uint8_t b = distance_to_bin(distance(ca[i], ca[j]));
      bins_[i * n_ + j] = b;
      bins_[j * n_ + i] = b;
    }
  }
}

std::uint8_t Distogram::distance_to_bin(double d) {
  const double w = bin_width();
  const auto raw = static_cast<long>(std::floor((d - kMinDist) / w));
  return static_cast<std::uint8_t>(std::clamp<long>(raw, 0, kBins - 1));
}

double Distogram::mean_abs_change(const Distogram& other) const {
  if (n_ != other.n_) throw std::invalid_argument("mean_abs_change: residue count mismatch");
  if (n_ < 2) return 0.0;
  double sum = 0.0;
  std::size_t pairs = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      sum += std::abs(static_cast<int>(bins_[i * n_ + j]) -
                      static_cast<int>(other.bins_[i * n_ + j]));
      ++pairs;
    }
  }
  return sum / static_cast<double>(pairs) * bin_width();
}

}  // namespace sf
