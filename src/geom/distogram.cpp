#include "geom/distogram.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sf {

Distogram::Distogram(std::size_t n) : n_(n), bins_(n < 2 ? 0 : n * (n - 1) / 2, 0) {}

std::uint8_t Distogram::distance_to_bin(double d) {
  const double w = bin_width();
  const auto raw = static_cast<long>(std::floor((d - kMinDist) / w));
  return static_cast<std::uint8_t>(std::clamp<long>(raw, 0, kBins - 1));
}

double Distogram::update(const std::vector<Vec3>& ca) {
  if (ca.size() != n_) throw std::invalid_argument("Distogram::update: residue count mismatch");
  if (n_ < 2) return 0.0;
  // Each |delta bin| is at most 63, so the integer sum is exact; as a
  // double it equals a double accumulation of the same terms.
  std::uint64_t sum = 0;
  std::uint8_t* bin = bins_.data();
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j, ++bin) {
      const std::uint8_t b = distance_to_bin(distance(ca[i], ca[j]));
      sum += static_cast<std::uint64_t>(std::abs(static_cast<int>(b) - static_cast<int>(*bin)));
      *bin = b;
    }
  }
  return static_cast<double>(sum) / static_cast<double>(bins_.size()) * bin_width();
}

}  // namespace sf
