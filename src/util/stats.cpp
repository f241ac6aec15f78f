#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/string_util.hpp"

namespace sf {

void RunningStats::add(double x) {
  max_ = n_ == 0 ? x : std::max(max_, x);
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double SampleSet::mean() const {
  if (xs_.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs_) s += x;
  return s / static_cast<double>(xs_.size());
}

double SampleSet::max() const {
  return xs_.empty() ? 0.0 : *std::max_element(xs_.begin(), xs_.end());
}

double SampleSet::quantile(double q) const {
  if (xs_.empty()) return 0.0;
  std::vector<double> sorted = xs_;
  std::sort(sorted.begin(), sorted.end());
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double SampleSet::fraction_at_least(double threshold) const {
  if (xs_.empty()) return 0.0;
  std::size_t n = 0;
  for (double x : xs_) {
    if (x >= threshold) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(xs_.size());
}

double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y) {
  LinearFit fit;
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return fit;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
  }
  fit.slope = sxx > 0.0 ? sxy / sxx : 0.0;
  fit.intercept = my - fit.slope * mx;
  return fit;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins > 0 ? bins : 1, 0) {}

void Histogram::add(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  std::ptrdiff_t bin = width > 0.0 ? static_cast<std::ptrdiff_t>((x - lo_) / width) : 0;
  bin = std::clamp<std::ptrdiff_t>(bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(bin)];
  ++total_;
}

double Histogram::bin_lo(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(bin);
}

double Histogram::bin_hi(std::size_t bin) const { return bin_lo(bin + 1); }

std::string Histogram::ascii(std::size_t width) const {
  std::size_t peak = 1;
  for (std::size_t c : counts_) peak = std::max(peak, c);
  std::ostringstream out;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[b]) / static_cast<double>(peak) * static_cast<double>(width));
    out << format("[%8.2f,%8.2f) %6zu |", bin_lo(b), bin_hi(b), counts_[b])
        << std::string(bar, '#') << '\n';
  }
  return out.str();
}

}  // namespace sf
