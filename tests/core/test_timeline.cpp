#include "core/timeline.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "core/grid.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"

namespace chicsim::core {
namespace {

SimulationConfig timeline_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  cfg.replication_threshold = 3.0;
  cfg.seed = 3;
  return cfg;
}

TEST(Timeline, SamplesAtConfiguredPeriod) {
  Grid grid(timeline_config());
  TimelineRecorder recorder(grid, 100.0);
  grid.run();
  const auto& samples = recorder.samples();
  ASSERT_GE(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[0].time, 0.0);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_NEAR(samples[i].time - samples[i - 1].time, 100.0, 1e-9);
  }
}

TEST(Timeline, CompletedJobsAreMonotone) {
  // Also with crashes and output return: a job counts when its output has
  // landed, once, even if a crash made it rerun.
  SimulationConfig crashes_with_output = timeline_config();
  crashes_with_output.output_fraction = 0.5;
  crashes_with_output.fault_site_crash_rate_per_hour = 1.0;
  crashes_with_output.fault_site_downtime_s = 600.0;
  for (const SimulationConfig& cfg : {timeline_config(), crashes_with_output}) {
    Grid grid(cfg);
    TimelineRecorder recorder(grid, 200.0);
    grid.run();
    recorder.sample_now();  // capture the final state explicitly
    const auto& samples = recorder.samples();
    for (std::size_t i = 1; i < samples.size(); ++i) {
      EXPECT_GE(samples[i].jobs_completed, samples[i - 1].jobs_completed);
    }
    EXPECT_EQ(samples.back().jobs_completed, 120u) << "output_fraction " << cfg.output_fraction;
  }
}

TEST(Timeline, ReplicaPopulationGrowsUnderActiveReplication) {
  Grid grid(timeline_config());
  TimelineRecorder recorder(grid, 200.0);
  grid.run();
  const auto& samples = recorder.samples();
  EXPECT_EQ(samples.front().total_replicas, 30u);  // one master per dataset
  EXPECT_GT(samples.back().total_replicas, 30u);
}

TEST(Timeline, BusyFractionIsAFraction) {
  Grid grid(timeline_config());
  TimelineRecorder recorder(grid, 150.0);
  grid.run();
  bool ever_busy = false;
  for (const auto& s : recorder.samples()) {
    EXPECT_GE(s.busy_fraction, 0.0);
    EXPECT_LE(s.busy_fraction, 1.0);
    ever_busy = ever_busy || s.busy_fraction > 0.0;
  }
  EXPECT_TRUE(ever_busy);
}

TEST(Timeline, QueueAndRunningCountsAreConsistent) {
  Grid grid(timeline_config());
  TimelineRecorder recorder(grid, 100.0);
  grid.run();
  for (const auto& s : recorder.samples()) {
    EXPECT_LE(s.max_site_queue, s.jobs_queued);
  }
}

TEST(Timeline, CsvRoundTripsThroughParser) {
  Grid grid(timeline_config());
  TimelineRecorder recorder(grid, 300.0);
  grid.run();
  std::ostringstream out;
  recorder.write_csv(out);
  util::CsvTable table = util::parse_csv_string(out.str());
  EXPECT_EQ(table.rows.size(), recorder.samples().size());
  EXPECT_EQ(table.column_index("total_replicas"), 5u);
}

TEST(Timeline, NonPositivePeriodThrows) {
  Grid grid(timeline_config());
  EXPECT_THROW(TimelineRecorder(grid, 0.0), util::SimError);
}

TEST(Timeline, DestructionBeforeRunIsSafe) {
  Grid grid(timeline_config());
  { TimelineRecorder recorder(grid, 100.0); }
  grid.run();  // the cancelled sampler must not fire
  EXPECT_EQ(grid.metrics().jobs_completed, 120u);
}

TEST(Timeline, DestructionMidRunIsSafe) {
  // Tearing the recorder down while its next sampling event is already on
  // the calendar must cancel that event, not leave a closure dangling over
  // freed recorder state.
  Grid grid(timeline_config());
  auto recorder = std::make_unique<TimelineRecorder>(grid, 50.0);
  grid.engine().schedule_at(175.0, [&recorder] { recorder.reset(); });
  grid.run();
  EXPECT_EQ(recorder, nullptr);
  EXPECT_EQ(grid.metrics().jobs_completed, 120u);
}

TEST(Timeline, SamplesStopAtDestruction) {
  Grid grid(timeline_config());
  auto recorder = std::make_unique<TimelineRecorder>(grid, 50.0);
  std::vector<TimelineSample> captured;
  grid.engine().schedule_at(175.0, [&] {
    captured = recorder->samples();
    recorder.reset();
  });
  grid.run();
  // Samples at 0, 50, 100, 150 were taken; nothing after the teardown.
  EXPECT_EQ(captured.size(), 4u);
  EXPECT_DOUBLE_EQ(captured.back().time, 150.0);
}

}  // namespace
}  // namespace chicsim::core
