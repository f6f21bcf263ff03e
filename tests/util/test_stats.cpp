#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "support/stats.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::util {
namespace {

using test_support::percentile;
using test_support::summarize;

TEST(OnlineStats, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.sum(), 0.0);
}

TEST(OnlineStats, SingleSample) {
  OnlineStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(OnlineStats, KnownMeanAndVariance) {
  OnlineStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(OnlineStats, NegativeValues) {
  OnlineStats s;
  s.add(-3.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -3.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
}

TEST(Summary, FromSamplesMatchesOnline) {
  std::vector<double> samples{1.0, 2.0, 3.0, 4.0};
  Summary s = summarize(samples);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
}

TEST(Percentile, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  // Sorted: 10, 20, 30, 40. q=0.5 -> position 1.5 -> 25.
  EXPECT_DOUBLE_EQ(percentile({40.0, 10.0, 30.0, 20.0}, 0.5), 25.0);
}

TEST(Percentile, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 9.0);
}

TEST(Percentile, SingleSample) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.95), 7.0);
}

TEST(Percentile, EmptyOrBadQThrows) {
  EXPECT_THROW((void)percentile({}, 0.5), SimError);
  EXPECT_THROW((void)percentile({1.0}, 1.5), SimError);
}

TEST(CoefficientOfVariation, Basics) {
  Summary s;
  s.mean = 100.0;
  s.stddev = 5.0;
  EXPECT_DOUBLE_EQ(coefficient_of_variation(s), 0.05);
  s.mean = 0.0;
  EXPECT_DOUBLE_EQ(coefficient_of_variation(s), 0.0);
}


TEST(P2Quantile, ExactForFiveOrFewerSamples) {
  P2Quantile q(0.95);
  std::vector<double> samples{40.0, 10.0, 50.0, 20.0, 30.0};
  for (std::size_t i = 0; i < samples.size(); ++i) {
    q.add(samples[i]);
    std::vector<double> so_far(samples.begin(), samples.begin() + i + 1);
    EXPECT_DOUBLE_EQ(q.value(), percentile(so_far, 0.95)) << "after " << i + 1;
  }
  EXPECT_EQ(q.count(), 5u);
}

TEST(P2Quantile, EmptyIsZero) {
  P2Quantile q(0.5);
  EXPECT_DOUBLE_EQ(q.value(), 0.0);
  EXPECT_EQ(q.count(), 0u);
}

TEST(P2Quantile, RejectsDegenerateQuantiles) {
  EXPECT_THROW(P2Quantile(0.0), SimError);
  EXPECT_THROW(P2Quantile(1.0), SimError);
  EXPECT_THROW(P2Quantile(-0.5), SimError);
}

TEST(P2Quantile, UniformWithinDocumentedTolerance) {
  // The accuracy contract from stats.hpp: unimodal distribution, n >= 100,
  // p95 within ~2% relative error of the exact sample percentile.
  Rng rng(42);
  P2Quantile q(0.95);
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    double x = rng.uniform(0.0, 1000.0);
    q.add(x);
    samples.push_back(x);
  }
  double exact = percentile(samples, 0.95);
  EXPECT_NEAR(q.value(), exact, exact * 0.02);
}

TEST(P2Quantile, ExponentialWithinDocumentedTolerance) {
  // Heavier tail (the shape of job response times in the simulator).
  Rng rng(7);
  P2Quantile q(0.95);
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    double x = rng.exponential(1.0 / 300.0);
    q.add(x);
    samples.push_back(x);
  }
  double exact = percentile(samples, 0.95);
  EXPECT_NEAR(q.value(), exact, exact * 0.02);
}

TEST(P2Quantile, MedianOfSortedStream) {
  // Monotone input is the worst case for marker drift; the median of
  // 1..1001 must still land near 501.
  P2Quantile q(0.5);
  for (int i = 1; i <= 1001; ++i) q.add(static_cast<double>(i));
  EXPECT_NEAR(q.value(), 501.0, 501.0 * 0.02);
}

}  // namespace
}  // namespace chicsim::util
