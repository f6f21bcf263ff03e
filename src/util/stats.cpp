#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace chicsim::util {

void OnlineStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double OnlineStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

double OnlineStats::min() const { return n_ == 0 ? 0.0 : min_; }
double OnlineStats::max() const { return n_ == 0 ? 0.0 : max_; }

Summary summarize(const OnlineStats& s) {
  return Summary{s.count(), s.mean(), s.stddev(), s.min(), s.max()};
}

double coefficient_of_variation(const Summary& s) {
  if (s.mean == 0.0) return 0.0;
  return s.stddev / std::abs(s.mean);
}

P2Quantile::P2Quantile(double q) : q_(q) {
  CHICSIM_ASSERT_MSG(q > 0.0 && q < 1.0, "P2Quantile: q must be in (0, 1)");
  rate_[0] = 0.0;
  rate_[1] = q / 2.0;
  rate_[2] = q;
  rate_[3] = (1.0 + q) / 2.0;
  rate_[4] = 1.0;
}

void P2Quantile::add(double x) {
  if (n_ < 5) {
    height_[n_++] = x;
    if (n_ == 5) {
      std::sort(height_, height_ + 5);
      desired_[0] = 1.0;
      desired_[1] = 1.0 + 2.0 * q_;
      desired_[2] = 1.0 + 4.0 * q_;
      desired_[3] = 3.0 + 2.0 * q_;
      desired_[4] = 5.0;
    }
    return;
  }

  // Locate the cell containing x and clamp the extreme markers.
  int k;
  if (x < height_[0]) {
    height_[0] = x;
    k = 0;
  } else if (x < height_[1]) {
    k = 0;
  } else if (x < height_[2]) {
    k = 1;
  } else if (x < height_[3]) {
    k = 2;
  } else if (x <= height_[4]) {
    k = 3;
  } else {
    height_[4] = x;
    k = 3;
  }

  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += rate_[i];
  ++n_;

  // Nudge the three interior markers toward their desired positions with a
  // piecewise-parabolic (P²) height update, falling back to linear when the
  // parabola would cross a neighbour.
  for (int i = 1; i <= 3; ++i) {
    double d = desired_[i] - pos_[i];
    if ((d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0) ||
        (d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0)) {
      double sign = d >= 0.0 ? 1.0 : -1.0;
      double np = pos_[i] + sign;
      double parabolic =
          height_[i] +
          sign / (pos_[i + 1] - pos_[i - 1]) *
              ((pos_[i] - pos_[i - 1] + sign) * (height_[i + 1] - height_[i]) /
                   (pos_[i + 1] - pos_[i]) +
               (pos_[i + 1] - pos_[i] - sign) * (height_[i] - height_[i - 1]) /
                   (pos_[i] - pos_[i - 1]));
      if (height_[i - 1] < parabolic && parabolic < height_[i + 1]) {
        height_[i] = parabolic;
      } else {
        int j = sign > 0.0 ? i + 1 : i - 1;
        height_[i] += sign * (height_[j] - height_[i]) / (pos_[j] - pos_[i]);
      }
      pos_[i] = np;
    }
  }
}

double P2Quantile::value() const {
  if (n_ == 0) return 0.0;
  if (n_ <= 5) {
    // The first five samples are retained, so the exact order statistic
    // is still available: interpolate linearly between the two nearest.
    double sorted[5];
    std::partial_sort_copy(height_, height_ + n_, sorted, sorted + n_);
    double pos = q_ * static_cast<double>(n_ - 1);
    auto lo = static_cast<std::size_t>(pos);
    if (lo + 1 >= n_) return sorted[n_ - 1];
    double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  }
  return height_[2];
}

}  // namespace chicsim::util
