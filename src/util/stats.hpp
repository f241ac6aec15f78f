// Streaming statistics, quantiles, histograms, and correlation.
//
// Bench harnesses report paper-style summary rows (means, standard
// deviations, quantiles, high-quality fractions); these accumulators keep
// that reporting O(1) in memory where possible and numerically stable
// (Welford) where it matters.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace sf {

// Welford single-pass mean/variance with max tracking.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 when fewer than two samples.
  double variance() const;
  double stddev() const;
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double max_ = 0.0;
};

// Retains samples; supports exact quantiles and threshold fractions.
class SampleSet {
 public:
  void add(double x) { xs_.push_back(x); }
  void reserve(std::size_t n) { xs_.reserve(n); }
  std::size_t count() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  double mean() const;
  double max() const;
  // Linear-interpolated quantile, q in [0,1].
  double quantile(double q) const;
  double median() const { return quantile(0.5); }
  // Fraction of samples with value >= threshold.
  double fraction_at_least(double threshold) const;
  const std::vector<double>& samples() const { return xs_; }

 private:
  std::vector<double> xs_;
};

// Pearson correlation of two equal-length series; 0 if degenerate.
double pearson(const std::vector<double>& x, const std::vector<double>& y);

// Ordinary least squares y = a + b x; returns {intercept, slope}.
struct LinearFit {
  double intercept = 0.0;
  double slope = 0.0;
};
LinearFit linear_fit(const std::vector<double>& x, const std::vector<double>& y);

// Fixed-width histogram over [lo, hi); out-of-range samples clamp to the
// edge bins so totals are conserved.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);
  void add(double x);
  std::size_t bins() const { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_[bin]; }
  std::size_t total() const { return total_; }
  double bin_lo(std::size_t bin) const;
  double bin_hi(std::size_t bin) const;
  // Render a terminal bar chart, one bin per line.
  std::string ascii(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace sf
