#include "support/stats.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace ucp {

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_valid_ = false;
}

void SampleSet::ensure_sorted() const {
  if (sorted_valid_) return;
  sorted_ = samples_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_valid_ = true;
}

double SampleSet::mean() const {
  UCP_REQUIRE(!samples_.empty(), "mean of empty SampleSet");
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  ensure_sorted();
  UCP_REQUIRE(!sorted_.empty(), "min of empty SampleSet");
  return sorted_.front();
}

double SampleSet::max() const {
  ensure_sorted();
  UCP_REQUIRE(!sorted_.empty(), "max of empty SampleSet");
  return sorted_.back();
}

double SampleSet::quantile(double q) const {
  ensure_sorted();
  UCP_REQUIRE(!sorted_.empty(), "quantile of empty SampleSet");
  UCP_REQUIRE(q >= 0.0 && q <= 1.0, "quantile must be in [0,1]");
  if (sorted_.size() == 1) return sorted_.front();
  const double pos = q * static_cast<double>(sorted_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= sorted_.size()) return sorted_.back();
  return sorted_[lo] * (1.0 - frac) + sorted_[lo + 1] * frac;
}

}  // namespace ucp
