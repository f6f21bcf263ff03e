#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::sim {
namespace {

Event make_event(util::SimTime t, EventId id) {
  return Event{t, id, [] {}};
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(make_event(3.0, 1));
  q.push(make_event(1.0, 2));
  q.push(make_event(2.0, 3));
  EXPECT_DOUBLE_EQ(q.pop().time, 1.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 2.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  q.push(make_event(5.0, 10));
  q.push(make_event(5.0, 11));
  q.push(make_event(5.0, 12));
  EXPECT_EQ(q.pop().id, 10u);
  EXPECT_EQ(q.pop().id, 11u);
  EXPECT_EQ(q.pop().id, 12u);
}

TEST(EventQueue, NextTimePeeksWithoutRemoving) {
  EventQueue q;
  q.push(make_event(4.0, 1));
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelRemovesLogically) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  q.push(make_event(2.0, 2));
  EXPECT_TRUE(q.cancel(1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  EXPECT_FALSE(q.cancel(99));
  EXPECT_FALSE(q.cancel(kNoEvent + 1000));
}

TEST(EventQueue, DoubleCancelReturnsFalse) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  EXPECT_TRUE(q.cancel(1));
  EXPECT_FALSE(q.cancel(1));
}

TEST(EventQueue, CancelOfPoppedEventReturnsFalse) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  (void)q.pop();
  EXPECT_FALSE(q.cancel(1));
}

TEST(EventQueue, CancelledTopIsSkipped) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  q.push(make_event(2.0, 2));
  EXPECT_TRUE(q.cancel(1));
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.pop().id, 2u);
}

TEST(EventQueue, EmptyPopThrows) {
  EventQueue q;
  EXPECT_THROW((void)q.pop(), util::SimError);
  EXPECT_THROW((void)q.next_time(), util::SimError);
}

TEST(EventQueue, DuplicateIdThrows) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  EXPECT_THROW(q.push(make_event(2.0, 1)), util::SimError);
}

TEST(EventQueue, ZeroIdThrows) {
  EventQueue q;
  EXPECT_THROW(q.push(make_event(1.0, kNoEvent)), util::SimError);
}

TEST(EventQueue, ReusingIdAfterPopIsAllowed) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  (void)q.pop();
  q.push(make_event(2.0, 1));
  EXPECT_EQ(q.pop().id, 1u);
}

TEST(EventQueue, ReusingIdAfterCancelIsAllowed) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  q.push(make_event(3.0, 2));
  EXPECT_TRUE(q.cancel(1));
  q.push(make_event(2.0, 1));
  EXPECT_EQ(q.size(), 2u);
  Event e = q.pop();
  EXPECT_EQ(e.id, 1u);
  EXPECT_DOUBLE_EQ(e.time, 2.0);
  EXPECT_EQ(q.pop().id, 2u);
  EXPECT_TRUE(q.empty());
}

// Property: under random interleavings of push/cancel/pop, pops are
// monotone in (time, id), every live event is delivered exactly once, the
// queue's size always equals the model's, and ids that already left (popped
// or cancelled) can no longer be cancelled.
TEST(EventQueue, PropertyRandomWorkloadStaysOrdered) {
  util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue q;
    EventId next_id = 1;
    std::vector<EventId> live;
    std::vector<EventId> gone;
    std::size_t delivered = 0;
    std::size_t pushed = 0;
    std::size_t cancelled = 0;
    util::SimTime last_time = -1.0;
    EventId last_id = 0;
    for (int step = 0; step < 500; ++step) {
      double action = rng.uniform(0.0, 1.0);
      if (action < 0.5) {
        EventId id = next_id++;
        // Like the engine, never schedule before the current (last popped)
        // time — pop order is only monotone under that discipline.
        double t = std::max(last_time, 0.0) + rng.uniform(0.0, 100.0);
        q.push(make_event(t, id));
        live.push_back(id);
        ++pushed;
      } else if (action < 0.7 && !live.empty()) {
        std::size_t pick = rng.index(live.size());
        EXPECT_TRUE(q.cancel(live[pick]));
        gone.push_back(live[pick]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        ++cancelled;
      } else if (!q.empty()) {
        Event e = q.pop();
        EXPECT_TRUE(e.time > last_time || (e.time == last_time && e.id > last_id));
        last_time = e.time;
        last_id = e.id;
        ++delivered;
        auto it = std::find(live.begin(), live.end(), e.id);
        ASSERT_NE(it, live.end());
        live.erase(it);
        gone.push_back(e.id);
      }
      ASSERT_EQ(q.size(), live.size());
      if (!gone.empty()) {
        EXPECT_FALSE(q.cancel(gone[rng.index(gone.size())]));
      }
    }
    while (!q.empty()) {
      Event e = q.pop();
      EXPECT_TRUE(e.time > last_time || (e.time == last_time && e.id > last_id));
      last_time = e.time;
      last_id = e.id;
      ++delivered;
    }
    EXPECT_EQ(delivered + cancelled, pushed);
  }
}

// Cancel-heavy churn: push batches, cancel nearly all of them, and verify
// the heap only ever holds the live events instead of every cancelled one.
TEST(EventQueue, CancelHeavyWorkloadKeepsOnlyLiveEvents) {
  util::Rng rng(1234);
  EventQueue q;
  EventId next_id = 1;
  std::vector<std::pair<util::SimTime, EventId>> survivors;
  for (int round = 0; round < 200; ++round) {
    std::vector<std::pair<util::SimTime, EventId>> batch;
    for (int i = 0; i < 50; ++i) {
      EventId id = next_id++;
      double t = rng.uniform(0.0, 1e6);
      q.push(make_event(t, id));
      batch.emplace_back(t, id);
    }
    for (std::size_t i = 0; i + 1 < batch.size(); ++i) {  // keep 1 of 50
      EXPECT_TRUE(q.cancel(batch[i].second));
    }
    survivors.push_back(batch.back());
    EXPECT_EQ(q.size(), survivors.size());
  }
  EXPECT_EQ(q.total_pushes(), 200u * 50u);
  EXPECT_EQ(q.total_cancels(), 200u * 49u);
  // 10000 events were pushed; the most ever pending at once is the 199
  // earlier survivors plus the last full batch of 50.
  EXPECT_LE(q.peak_heap_size(), 250u);

  // Pops come out in exact (time, id) order over the surviving events.
  std::sort(survivors.begin(), survivors.end());
  for (const auto& [t, id] : survivors) {
    Event e = q.pop();
    EXPECT_EQ(e.id, id);
    EXPECT_DOUBLE_EQ(e.time, t);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CountersTrackSmallWorkload) {
  EventQueue q;
  q.push(make_event(1.0, 1));
  q.push(make_event(2.0, 2));
  q.push(make_event(3.0, 3));
  EXPECT_EQ(q.total_pushes(), 3u);
  EXPECT_EQ(q.peak_heap_size(), 3u);
  EXPECT_TRUE(q.cancel(2));
  EXPECT_EQ(q.total_cancels(), 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().id, 1u);
  EXPECT_EQ(q.pop().id, 3u);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace chicsim::sim
