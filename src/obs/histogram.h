// Fixed-bucket log-linear histogram for the deterministic metrics plane.
//
// Bucket boundaries are computed ONCE at construction from a plain-data
// Spec — linear buckets of width `linear_width` up to `linear_max`, then
// geometric buckets growing by `growth` up to `max`, then one overflow
// bucket — so the mapping from value to bucket is a pure function of the
// spec, independent of insertion order, engine, shard count, or platform
// (the boundary array is derived by the same IEEE-754 operations
// everywhere). Percentiles are read as bucket upper bounds (clipped to
// the exact running maximum), which keeps them deterministic too: a
// percentile is a property of the bucket counts, never of a sort.
//
// bucket_index() is O(1): a closed-form guess (a division in the linear
// section, a logarithm in the geometric one) followed by an exact fix-up
// against the boundary table, so it returns exactly what std::upper_bound
// over the boundaries would — negatives, NaN and ±inf included. Because
// the mapping is monotone, record_span() can book n samples known to lie
// in [lo, hi] in O(1) whenever both ends share a bucket (the probe
// sampler's per-cluster and per-bundle fills). record() and
// record_span() are allocation-free; clear() resets the counts without
// touching capacity, so a histogram registered at setup samples forever
// without allocating — the ScopedAllocGuard pin in
// tests/test_obs_metrics.cpp holds the subsystem to that.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/assert.h"

namespace ftgcs::obs {

class LogLinearHistogram {
 public:
  struct Spec {
    double linear_width = 1e-4;  ///< bucket width of the linear section
    double linear_max = 1e-2;    ///< last linear boundary (exclusive)
    double growth = 1.5;         ///< geometric factor past linear_max
    double max = 1e3;            ///< first boundary >= max ends the table
  };

  explicit LogLinearHistogram(const Spec& spec) : spec_(spec) {
    FTGCS_EXPECTS(spec.linear_width > 0.0);
    FTGCS_EXPECTS(spec.linear_max > spec.linear_width);
    FTGCS_EXPECTS(spec.growth > 1.0);
    FTGCS_EXPECTS(spec.max > spec.linear_max);
    // boundaries_[i] is the EXCLUSIVE upper bound of bucket i; the last
    // real bucket is followed by one overflow bucket for values >= the
    // final boundary.
    for (double b = spec.linear_width; b < spec.linear_max;
         b += spec.linear_width) {
      boundaries_.push_back(b);
    }
    linear_count_ = boundaries_.size();
    double b = spec.linear_max;
    while (b < spec.max) {
      boundaries_.push_back(b);
      b *= spec.growth;
    }
    boundaries_.push_back(b);  // first boundary >= max
    counts_.assign(boundaries_.size() + 1, 0);
    inv_log_growth_ = 1.0 / std::log(spec.growth);
  }

  /// Bucket index of `value`: the first bucket whose upper bound exceeds
  /// it (values below zero clamp into bucket 0, values at or past the
  /// last boundary — and NaN — land in the overflow bucket). Equal to
  /// std::upper_bound over boundaries() for every double.
  std::size_t bucket_index(double value) const {
    const std::size_t last = boundaries_.size();
    if (value < boundaries_[0]) return 0;
    if (!(value < boundaries_[last - 1])) return last;  // also NaN
    // value is finite in [boundaries_[0], boundaries_.back()): guess from
    // the closed form of the spec, then walk to the exact bucket. The
    // boundaries were accumulated by repeated addition/multiplication, so
    // the guess is off by at most a few rounding steps.
    std::size_t i;
    if (value < spec_.linear_max) {
      i = static_cast<std::size_t>(value / spec_.linear_width);
    } else {
      i = linear_count_ + 1 +
          static_cast<std::size_t>(std::log(value / spec_.linear_max) *
                                   inv_log_growth_);
    }
    if (i > last - 1) i = last - 1;
    while (boundaries_[i] <= value) ++i;  // stops: value < back()
    while (i > 0 && boundaries_[i - 1] > value) --i;
    return i;
  }

  void record(double value) {
    ++counts_[bucket_index(value)];
    ++count_;
    if (value > max_seen_) max_seen_ = value;
  }

  /// Books `n` samples known to lie in [lo, hi], where `hi` is the value
  /// of one of them, in O(1) — if both ends fall in one bucket, which by
  /// monotonicity then holds all n. Returns false and records nothing if
  /// the range straddles a boundary; the caller records each sample.
  bool record_span(double lo, double hi, std::uint64_t n) {
    const std::size_t i = bucket_index(hi);
    if (bucket_index(lo) != i) return false;
    if (n == 0) return true;
    counts_[i] += n;
    count_ += n;
    if (hi > max_seen_) max_seen_ = hi;
    return true;
  }

  /// Resets counts and the running max; capacity (and the boundary table)
  /// stay untouched, so a cleared histogram records without allocating.
  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    count_ = 0;
    max_seen_ = 0.0;
  }

  /// Upper-bound estimate of the p-quantile (0 < p <= 1): the upper
  /// boundary of the bucket holding the ceil(p * count)-th smallest
  /// sample, clipped to the exact running maximum (so percentile(1.0)
  /// is exact and an overflow bucket reads as the max, not infinity).
  /// Returns 0 for an empty histogram.
  double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(
               p * static_cast<double>(count_) + 0.999999999999));
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      cumulative += counts_[i];
      if (cumulative >= rank) {
        const double upper = i < boundaries_.size()
                                 ? boundaries_[i]
                                 : max_seen_;  // overflow bucket
        return std::min(upper, max_seen_);
      }
    }
    return max_seen_;
  }

  std::uint64_t count() const { return count_; }
  double max_seen() const { return max_seen_; }
  std::size_t num_buckets() const { return counts_.size(); }
  const std::vector<double>& boundaries() const { return boundaries_; }
  /// Per-bucket counts, boundaries().size() + 1 long (the last is the
  /// overflow bucket).
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  const Spec& spec() const { return spec_; }

 private:
  Spec spec_;
  std::vector<double> boundaries_;   ///< exclusive upper bounds, ascending
  std::vector<std::uint64_t> counts_;  ///< boundaries_.size() + 1 (overflow)
  std::size_t linear_count_ = 0;  ///< boundaries below linear_max
  double inv_log_growth_ = 0.0;   ///< 1 / ln(growth), for the guess
  std::uint64_t count_ = 0;
  double max_seen_ = 0.0;
};

}  // namespace ftgcs::obs
