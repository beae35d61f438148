// Lightweight descriptive statistics for the experiment harnesses
// (CDF/CCDF series like figures 5 and 7 of the paper).
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace mlp {

/// One point of an empirical (C)CDF: fraction of samples <= (or >) x.
struct DistPoint {
  double x = 0.0;
  double fraction = 0.0;
};

/// Accumulates samples and renders empirical distributions.
class EmpiricalDistribution {
 public:
  void add(double x) { samples_.push_back(x); }

  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  /// Percentile in [0, 100] by linear interpolation; requires samples.
  double percentile(double p) const;
  /// Fraction of samples <= x.
  double fraction_at_most(double x) const;
  /// Fraction of samples >= x.
  double fraction_at_least(double x) const;

  /// Empirical CDF evaluated at each distinct sample value.
  std::vector<DistPoint> cdf() const;
  /// Complementary CDF: fraction of samples > x, at each distinct value.
  std::vector<DistPoint> ccdf() const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Kept unsorted for O(1) add; sorted copies are made on demand.
  std::vector<double> samples_;
};

/// Integer-keyed histogram (counts per bucket).
class Histogram {
 public:
  void add(long long key, std::size_t n = 1) { counts_[key] += n; }
  std::size_t total() const;
  const std::map<long long, std::size_t>& buckets() const { return counts_; }

 private:
  std::map<long long, std::size_t> counts_;
};

}  // namespace mlp
