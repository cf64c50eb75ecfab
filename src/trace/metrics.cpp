#include "trace/metrics.hpp"

#include <cassert>

namespace fmx::trace {

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min());
  if (q >= 1.0) return static_cast<double>(max());
  const double rank = q * static_cast<double>(count_);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t next = cum + counts_[i];
    if (rank <= static_cast<double>(next)) {
      // Bucket i covers (lower, upper]; interpolate at the rank's position
      // among this bucket's observations. Edges snap to the observed
      // support: the lowest bucket starts at min(), the overflow ends at
      // max(), and no estimate escapes [min, max].
      double lower = i == 0 ? static_cast<double>(min())
                            : static_cast<double>(bounds_[i - 1]);
      double upper = i < bounds_.size() ? static_cast<double>(bounds_[i])
                                        : static_cast<double>(max());
      if (lower < static_cast<double>(min())) lower = static_cast<double>(min());
      if (upper > static_cast<double>(max())) upper = static_cast<double>(max());
      if (upper < lower) upper = lower;
      const double frac = (rank - static_cast<double>(cum)) /
                          static_cast<double>(counts_[i]);
      return lower + (upper - lower) * frac;
    }
    cum = next;
  }
  return static_cast<double>(max());
}

void Histogram::merge(const Histogram& other) noexcept {
  assert(bounds_ == other.bounds_ && "histogram merge needs equal buckets");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
  if (other.count_ != 0) {
    if (other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
  }
}

std::vector<std::uint64_t> latency_bounds_ps() {
  std::vector<std::uint64_t> bounds;
  bounds.reserve(112);
  // 2^(1/4) steps, kept integral (and strictly increasing) by rounding.
  double b = 1e3;  // 1 ns
  while (b < 1.5e11) {  // ~134 ms; slower observations hit the overflow
    const auto v = static_cast<std::uint64_t>(b);
    if (bounds.empty() || v > bounds.back()) bounds.push_back(v);
    b *= 1.189207115002721;
  }
  return bounds;
}

}  // namespace fmx::trace
