#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/errors.hpp"

namespace mlp {

double EmpiricalDistribution::mean() const {
  if (samples_.empty()) throw InvalidArgument("mean of empty distribution");
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double EmpiricalDistribution::min() const {
  if (samples_.empty()) throw InvalidArgument("min of empty distribution");
  return *std::min_element(samples_.begin(), samples_.end());
}

double EmpiricalDistribution::max() const {
  if (samples_.empty()) throw InvalidArgument("max of empty distribution");
  return *std::max_element(samples_.begin(), samples_.end());
}

double EmpiricalDistribution::percentile(double p) const {
  if (samples_.empty())
    throw InvalidArgument("percentile of empty distribution");
  if (p < 0.0 || p > 100.0)
    throw InvalidArgument("percentile must be in [0, 100]");
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted[0];
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const auto hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double EmpiricalDistribution::fraction_at_most(double x) const {
  if (samples_.empty()) return 0.0;
  std::size_t n = 0;
  for (double s : samples_)
    if (s <= x) ++n;
  return static_cast<double>(n) / static_cast<double>(samples_.size());
}

double EmpiricalDistribution::fraction_at_least(double x) const {
  if (samples_.empty()) return 0.0;
  std::size_t n = 0;
  for (double s : samples_)
    if (s >= x) ++n;
  return static_cast<double>(n) / static_cast<double>(samples_.size());
}

std::vector<DistPoint> EmpiricalDistribution::cdf() const {
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  std::vector<DistPoint> out;
  const double n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    // Emit one point per distinct value, at its last occurrence.
    if (i + 1 < sorted.size() && sorted[i + 1] == sorted[i]) continue;
    out.push_back({sorted[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

std::vector<DistPoint> EmpiricalDistribution::ccdf() const {
  std::vector<DistPoint> out = cdf();
  for (auto& p : out) p.fraction = 1.0 - p.fraction;
  return out;
}

std::size_t Histogram::total() const {
  std::size_t t = 0;
  for (const auto& [k, v] : counts_) t += v;
  return t;
}

}  // namespace mlp
