#include "sim/profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sim/engine.hpp"
#include "support/json.hpp"

namespace chicsim::sim {
namespace {

TEST(Profiler, RecordsTaggedEvents) {
  Engine engine;
  EngineProfiler profiler;
  engine.set_profiler(&profiler);
  int ran = 0;
  engine.schedule_at(1.0, "alpha", [&] { ++ran; });
  engine.schedule_at(2.0, "alpha", [&] { ++ran; });
  engine.schedule_at(3.0, "beta", [&] { ++ran; });
  engine.schedule_at(4.0, [&] { ++ran; });  // untagged
  engine.run();

  EXPECT_EQ(ran, 4);
  EXPECT_EQ(profiler.events_recorded(), 4u);
  EXPECT_GT(profiler.run_wall_s(), 0.0);
  EXPECT_GT(profiler.events_per_sec(), 0.0);

  auto rows = profiler.profiles();
  ASSERT_EQ(rows.size(), 3u);
  std::uint64_t total = 0;
  bool saw_alpha = false;
  bool saw_untagged = false;
  for (const auto& row : rows) {
    total += row.count;
    EXPECT_GE(row.max_s, row.min_s);
    EXPECT_GE(row.total_s, 0.0);
    if (row.tag == "alpha") {
      saw_alpha = true;
      EXPECT_EQ(row.count, 2u);
    }
    if (row.tag == "untagged") saw_untagged = true;
  }
  EXPECT_TRUE(saw_alpha);
  EXPECT_TRUE(saw_untagged);
  EXPECT_EQ(total, 4u);
  EXPECT_NE(profiler.histogram_of("alpha"), nullptr);
  EXPECT_EQ(profiler.histogram_of("alpha")->stats().count(), 2u);
  EXPECT_EQ(profiler.histogram_of("nope"), nullptr);
}

TEST(Profiler, DetachedEngineRecordsNothing) {
  Engine engine;
  engine.schedule_at(1.0, "alpha", [] {});
  engine.run();
  // Nothing to assert on the engine side beyond "it ran" — the profiler
  // pointer is null, so no clock is read. Attach one after the fact and
  // check it stays empty.
  EngineProfiler profiler;
  EXPECT_EQ(profiler.events_recorded(), 0u);
  EXPECT_DOUBLE_EQ(profiler.events_per_sec(), 0.0);
  EXPECT_TRUE(profiler.profiles().empty());
}

TEST(Profiler, TagsNeverAffectSimulationResults) {
  // Identical schedules, one tagged and profiled, one not: virtual time and
  // execution order must match exactly.
  auto run = [](bool tagged) {
    Engine engine;
    EngineProfiler profiler;
    if (tagged) engine.set_profiler(&profiler);
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
      if (tagged) {
        engine.schedule_at(static_cast<double>(i % 3), "t", [&order, i] {
          order.push_back(i);
        });
      } else {
        engine.schedule_at(static_cast<double>(i % 3), [&order, i] {
          order.push_back(i);
        });
      }
    }
    engine.run();
    return std::make_pair(order, engine.now());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Profiler, PeriodicTimerTagPropagates) {
  Engine engine;
  EngineProfiler profiler;
  engine.set_profiler(&profiler);
  int ticks = 0;
  {
    PeriodicTimer timer(engine, 1.0, 1.0, [&] {
      if (++ticks == 5) engine.stop();
    }, "tick");
    engine.run();
  }
  EXPECT_EQ(ticks, 5);
  ASSERT_NE(profiler.histogram_of("tick"), nullptr);
  EXPECT_EQ(profiler.histogram_of("tick")->stats().count(), 5u);
}

TEST(Profiler, JsonReportParses) {
  Engine engine;
  EngineProfiler profiler;
  engine.set_profiler(&profiler);
  engine.schedule_at(1.0, "alpha", [] {});
  engine.schedule_at(2.0, "be\"ta", [] {});  // tag needing JSON escaping
  engine.run();

  std::ostringstream os;
  profiler.write_json(os);
  test_support::JsonValue doc = test_support::parse_json(os.str());
  EXPECT_DOUBLE_EQ(doc.at("events").as_number(), 2.0);
  EXPECT_GT(doc.at("events_per_sec").as_number(), 0.0);
  const test_support::JsonValue& tags = doc.at("tags");
  ASSERT_NE(tags.find("alpha"), nullptr);
  ASSERT_NE(tags.find("be\"ta"), nullptr);
  EXPECT_DOUBLE_EQ(tags.find("alpha")->at("count").as_number(), 1.0);
}

TEST(Profiler, RenderTableMentionsEveryTag) {
  Engine engine;
  EngineProfiler profiler;
  engine.set_profiler(&profiler);
  engine.schedule_at(1.0, "alpha", [] {});
  engine.schedule_at(2.0, "beta", [] {});
  engine.run();
  std::string table = profiler.render_table();
  EXPECT_NE(table.find("alpha"), std::string::npos);
  EXPECT_NE(table.find("beta"), std::string::npos);
  EXPECT_NE(table.find("events/sec"), std::string::npos);
}

}  // namespace
}  // namespace chicsim::sim
