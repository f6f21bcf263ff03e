#include "site/site.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace chicsim::site {
namespace {

TEST(Site, ConstructionWiresComponents) {
  Site s(4, 3, 50000.0);
  EXPECT_EQ(s.index(), 4u);
  EXPECT_EQ(s.compute().size(), 3u);
  EXPECT_DOUBLE_EQ(s.storage().capacity_mb(), 50000.0);
  EXPECT_EQ(s.load(), 0u);
}

TEST(Site, QueuePreservesArrivalOrder) {
  Site s(0, 2, 1000.0);
  s.enqueue(10);
  s.enqueue(20);
  s.enqueue(30);
  ASSERT_EQ(s.queue().size(), 3u);
  EXPECT_EQ(s.queue()[0], 10u);
  EXPECT_EQ(s.queue()[2], 30u);
  EXPECT_EQ(s.load(), 3u);
}

TEST(Site, RemoveFromQueueMiddle) {
  Site s(0, 2, 1000.0);
  s.enqueue(1);
  s.enqueue(2);
  s.enqueue(3);
  s.remove_from_queue(2);
  ASSERT_EQ(s.queue().size(), 2u);
  EXPECT_EQ(s.queue()[0], 1u);
  EXPECT_EQ(s.queue()[1], 3u);
}

TEST(Site, RemoveAbsentJobThrows) {
  Site s(0, 2, 1000.0);
  s.enqueue(1);
  EXPECT_THROW(s.remove_from_queue(9), util::SimError);
}

TEST(Site, EnqueueNullJobThrows) {
  Site s(0, 2, 1000.0);
  EXPECT_THROW(s.enqueue(kNoJob), util::SimError);
}

TEST(Site, RunningCounters) {
  Site s(0, 2, 1000.0);
  s.note_job_finished();
  EXPECT_EQ(s.jobs_completed_here(), 1u);
}

TEST(Site, DispatchCounter) {
  Site s(0, 2, 1000.0);
  s.note_job_dispatched();
  s.note_job_dispatched();
  EXPECT_EQ(s.jobs_dispatched_here(), 2u);
}

TEST(Site, PopularityIsPerSiteState) {
  Site s(0, 2, 1000.0);
  s.popularity().record(7, 1.0);
  EXPECT_DOUBLE_EQ(s.popularity().count(7, 2.0), 1.0);
}

}  // namespace
}  // namespace chicsim::site
