// Streaming statistics.
//
// Every metric the paper reports (Figures 3-5) is a mean over per-job or
// per-processor samples, averaged again over three seeds.  OnlineStats is a
// numerically stable (Welford) accumulator for both steps; its Summary
// keeps the cross-seed spread, because §5.2 explicitly checks that
// seed-to-seed variance is negligible.
#pragma once

#include <cstddef>

namespace chicsim::util {

/// Welford online mean/variance accumulator. O(1) memory.
class OnlineStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Summary snapshot of an OnlineStats.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;

  bool operator==(const Summary&) const = default;
};

[[nodiscard]] Summary summarize(const OnlineStats& s);

/// Relative spread (stddev / mean), 0 when the mean is 0. Used by the
/// cross-seed variance check.
[[nodiscard]] double coefficient_of_variation(const Summary& s);

/// Streaming quantile estimator (the P² algorithm, Jain & Chlamtac 1985).
///
/// Tracks one quantile in O(1) memory: five markers whose heights are
/// nudged toward their ideal positions with a piecewise-parabolic update
/// each time a sample arrives. The first five samples are stored exactly,
/// so small runs report the true order statistic.
///
/// Accuracy contract (asserted by test_stats and test_metrics): for
/// unimodal distributions at n >= 100, the p95 estimate stays within ~2%
/// relative error of the exact sample percentile — more than enough for
/// the reporting paths that used to keep an O(jobs) sample vector alive
/// for the entire run just to sort it once at the end.
class P2Quantile {
 public:
  /// `q` in (0, 1), e.g. 0.95 for the p95 response time.
  explicit P2Quantile(double q);

  void add(double x);

  /// Current estimate; exact for fewer than six samples, NaN-free (0 when
  /// empty).
  [[nodiscard]] double value() const;

  [[nodiscard]] std::size_t count() const { return n_; }

 private:
  double q_;
  /// Marker heights (current quantile estimates) and their 1-based sample
  /// positions; `desired_` drifts by `rate_` per observation.
  double height_[5] = {0, 0, 0, 0, 0};
  double pos_[5] = {1, 2, 3, 4, 5};
  double desired_[5] = {1, 2, 3, 4, 5};
  double rate_[5] = {0, 0, 0, 0, 0};
  std::size_t n_ = 0;
};

}  // namespace chicsim::util
