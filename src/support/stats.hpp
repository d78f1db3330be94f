#pragma once

#include <cstddef>
#include <vector>

namespace ucp {

/// Collects samples and answers order statistics. Used for the per-use-case
/// scatter data behind Figure 7 (max/median/quantiles of WCET ratios).
class SampleSet {
 public:
  void add(double x);
  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double min() const;
  double max() const;
  /// Quantile in [0,1] by linear interpolation between closest ranks.
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const;

  std::vector<double> samples_;
  mutable std::vector<double> sorted_;
  mutable bool sorted_valid_ = false;
};

}  // namespace ucp
