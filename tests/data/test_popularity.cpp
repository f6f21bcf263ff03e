#include "data/popularity.hpp"

#include <gtest/gtest.h>

namespace chicsim::data {
namespace {

TEST(Popularity, CountsRequests) {
  PopularityTracker p;
  p.record(0, kNoSite);
  p.record(0, 4);
  p.record(1, kNoSite);
  EXPECT_EQ(p.count(0), 2u);
  EXPECT_EQ(p.count(1), 1u);
  EXPECT_EQ(p.count(9), 0u);
}

TEST(Popularity, OverThresholdSortedByCount) {
  PopularityTracker p;
  for (int i = 0; i < 5; ++i) p.record(0, kNoSite);
  for (int i = 0; i < 9; ++i) p.record(1, kNoSite);
  for (int i = 0; i < 5; ++i) p.record(2, kNoSite);
  p.record(3, kNoSite);
  auto hot = p.over_threshold(5.0);
  ASSERT_EQ(hot.size(), 3u);
  EXPECT_EQ(hot[0], 1u);  // highest count first
  EXPECT_EQ(hot[1], 0u);  // count ties break by ascending id
  EXPECT_EQ(hot[2], 2u);
}

TEST(Popularity, ResetClearsOneDataset) {
  PopularityTracker p;
  p.record(0, kNoSite);
  p.record(1, kNoSite);
  p.reset(0);
  EXPECT_EQ(p.count(0), 0u);
  EXPECT_EQ(p.count(1), 1u);
  p.reset(7);  // never requested: nothing to clear
  EXPECT_EQ(p.count(7), 0u);
}

TEST(Popularity, TopRequesterBreaksTiesByLowestSite) {
  PopularityTracker p;
  EXPECT_EQ(p.top_requester(0), kNoSite);
  p.record(0, kNoSite);  // local demand names no requester
  EXPECT_EQ(p.top_requester(0), kNoSite);
  p.record(0, 5);
  p.record(0, 2);
  EXPECT_EQ(p.top_requester(0), 2u);  // 1 each: lowest index wins
  p.record(0, 5);
  EXPECT_EQ(p.top_requester(0), 5u);
  EXPECT_EQ(p.count(0), 4u);  // every request counts, local or remote
}

TEST(Popularity, RequestersOutliveReset) {
  PopularityTracker p;
  p.record(0, 3);
  p.record(0, 3);
  p.reset(0);
  EXPECT_EQ(p.count(0), 0u);
  EXPECT_EQ(p.top_requester(0), 3u);
  p.record(0, 1);
  EXPECT_EQ(p.count(0), 1u);
  EXPECT_EQ(p.top_requester(0), 3u);  // 2 lifetime requests beat 1
}

TEST(Popularity, ResetDatasetIsNeverOverThreshold) {
  PopularityTracker p;
  p.record(0, 3);  // keeps a requester, so the reset keeps the record
  p.record(1, kNoSite);
  p.reset(0);
  p.reset(1);
  // Even a threshold of zero (or below) reports only requested datasets.
  EXPECT_TRUE(p.over_threshold(0.0).empty());
  EXPECT_TRUE(p.over_threshold(-1.0).empty());
  p.record(0, kNoSite);
  ASSERT_EQ(p.over_threshold(0.0).size(), 1u);
  EXPECT_EQ(p.over_threshold(0.0)[0], 0u);
}

}  // namespace
}  // namespace chicsim::data
