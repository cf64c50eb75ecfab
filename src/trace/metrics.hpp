// Fixed-bucket histograms for latency quantiles. Counters live with their
// owners: each layer keeps its counts in its own Stats struct (or
// sim::CostLedger) and callers read them through the owner's accessor.
// A Histogram is a plain value its user owns; observe() never allocates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace fmx::trace {

/// Fixed-bucket histogram: counts per bucket i are observations with
/// v <= bounds[i]; one implicit overflow bucket catches the rest. Bucket
/// layout is fixed at construction so observe() never allocates.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> upper_bounds)
      : bounds_(std::move(upper_bounds)), counts_(bounds_.size() + 1, 0) {}

  void observe(std::uint64_t v) noexcept {
    // First bucket with v <= bounds_[i], else the overflow bucket. Binary
    // search: fine-grained latency layouts run to ~100 buckets, and a
    // linear scan there would tax every data-path observation.
    const std::size_t i = static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), v) -
        bounds_.begin());
    ++counts_[i];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) /
                             static_cast<double>(count_);
  }
  /// Smallest / largest observed value (0 when empty). Tracked exactly so
  /// quantile() can interpolate the open-ended overflow bucket and clamp
  /// the first bucket to the data's real support.
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return count_ == 0 ? 0 : max_; }

  /// q-quantile estimate (q in [0, 1]) with linear interpolation inside
  /// the covering bucket, Prometheus-style: rank q*count is located in the
  /// cumulative counts; the bucket's [lower, upper] range is interpolated
  /// at the rank's fractional position. The first bucket's lower edge is
  /// the observed min, the overflow bucket's upper edge the observed max,
  /// and the result is clamped to [min, max] — so quantiles are exact for
  /// single-bucket data and never invent values outside the support.
  double quantile(double q) const noexcept;

  /// Fold another histogram with identical bounds into this one (per-shard
  /// histograms merge into a cluster-wide view). Bounds must match.
  void merge(const Histogram& other) noexcept;

  /// Zero all counts, keeping the bucket layout (warmup-wave discard).
  void reset() noexcept {
    for (auto& c : counts_) c = 0;
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
  }

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Standard latency bucket layout: log-spaced bounds in picoseconds, four
/// buckets per octave from 1 ns to ~134 ms (~110 buckets). Within-bucket
/// interpolation error is therefore bounded by ~19% of the value — tight
/// enough for p999 reporting while keeping observe() at a 7-compare binary
/// search. Use the same layout everywhere quantiles must merge.
std::vector<std::uint64_t> latency_bounds_ps();

}  // namespace fmx::trace
