#include "util/units.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace chicsim::util {
namespace {

TEST(Units, GbMbConversionsRoundTrip) {
  EXPECT_DOUBLE_EQ(gb_to_mb(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(gb_to_mb(1.25), 1250.0);
  EXPECT_DOUBLE_EQ(mb_to_gb(500.0), 0.5);
  EXPECT_DOUBLE_EQ(mb_to_gb(gb_to_mb(3.7)), 3.7);
}

TEST(Units, Table1RuntimesFromConversions) {
  // 300 s per GB of input: the 500 MB - 2 GB range maps to 150 - 600 s.
  EXPECT_DOUBLE_EQ(300.0 * mb_to_gb(500.0), 150.0);
  EXPECT_DOUBLE_EQ(300.0 * mb_to_gb(2000.0), 600.0);
}

TEST(Units, ApproxEqualBasics) {
  EXPECT_TRUE(approx_equal(1.0, 1.0));
  EXPECT_TRUE(approx_equal(1.0, 1.0 + 1e-9));
  EXPECT_FALSE(approx_equal(1.0, 1.1));
  EXPECT_TRUE(approx_equal(0.0, 0.0));
  EXPECT_TRUE(approx_equal(-5.0, -5.0 - 1e-9));
}

TEST(Units, ApproxEqualScalesWithMagnitude) {
  EXPECT_TRUE(approx_equal(1e9, 1e9 + 100.0));  // relative slack
  EXPECT_FALSE(approx_equal(1e9, 1.01e9));
}

TEST(Units, ConstantsAreSane) {
  EXPECT_DOUBLE_EQ(kTimeZero, 0.0);
  EXPECT_GT(kTimeInfinity, 1e300);
  EXPECT_DOUBLE_EQ(kMbPerGb, 1000.0);
  EXPECT_GT(kEpsilon, 0.0);
  EXPECT_LT(kEpsilon, 1e-6);
}

TEST(Units, CappedBackoffDoublesUpToTheCap) {
  EXPECT_EQ(capped_backoff(30.0, 1, 600.0), 30.0);
  EXPECT_EQ(capped_backoff(30.0, 2, 600.0), 60.0);
  EXPECT_EQ(capped_backoff(30.0, 5, 600.0), 480.0);
  EXPECT_EQ(capped_backoff(30.0, 6, 600.0), 600.0);
  // Attempts far past any 64-bit shift still land on the cap.
  EXPECT_EQ(capped_backoff(30.0, 65, 600.0), 600.0);
  EXPECT_EQ(capped_backoff(30.0, 5000, 600.0), 600.0);
  EXPECT_EQ(capped_backoff(30.0, std::numeric_limits<std::uint64_t>::max(), 600.0), 600.0);
}

}  // namespace
}  // namespace chicsim::util
