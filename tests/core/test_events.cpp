// Tests of the structured event trace: per-job causality, cross-checks
// against the run metrics, dataset traces and CSV export.
#include "core/events.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "core/grid.hpp"
#include "util/csv.hpp"

namespace chicsim::core {
namespace {

SimulationConfig traced_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobLeastLoaded;  // mixes local hits and fetches
  cfg.ds = DsAlgorithm::DataRandom;
  cfg.replication_threshold = 3.0;
  cfg.seed = 41;
  return cfg;
}

struct TracedRun {
  explicit TracedRun(const SimulationConfig& cfg) : grid(cfg) {
    grid.add_observer(&log);
    grid.run();
  }
  Grid grid;
  EventLog log;
};

TEST(Events, LifecycleCountsMatchTheWorkload) {
  SimulationConfig cfg = traced_config();
  TracedRun run(cfg);
  EXPECT_EQ(run.log.count(GridEventType::JobSubmitted), cfg.total_jobs);
  EXPECT_EQ(run.log.count(GridEventType::JobDispatched), cfg.total_jobs);
  EXPECT_EQ(run.log.count(GridEventType::JobDataReady), cfg.total_jobs);
  EXPECT_EQ(run.log.count(GridEventType::JobStarted), cfg.total_jobs);
  EXPECT_EQ(run.log.count(GridEventType::JobComputeDone), cfg.total_jobs);
  EXPECT_EQ(run.log.count(GridEventType::JobCompleted), cfg.total_jobs);
}

TEST(Events, NetworkCountsMatchMetrics) {
  SimulationConfig cfg = traced_config();
  TracedRun run(cfg);
  const RunMetrics& m = run.grid.metrics();
  EXPECT_EQ(run.log.count(GridEventType::FetchStarted), m.remote_fetches);
  EXPECT_EQ(run.log.count(GridEventType::ReplicationStarted), m.replications);
  EXPECT_EQ(run.log.count(GridEventType::ReplicaEvicted), m.cache_evictions);
  // Completions cannot exceed starts (in-flight transfers at the end of the
  // run never complete).
  EXPECT_LE(run.log.count(GridEventType::FetchCompleted),
            run.log.count(GridEventType::FetchStarted));
  EXPECT_LE(run.log.count(GridEventType::ReplicationCompleted),
            run.log.count(GridEventType::ReplicationStarted));
}

TEST(Events, PerJobTraceIsCausallyOrdered) {
  SimulationConfig cfg = traced_config();
  TracedRun run(cfg);
  for (site::JobId id = 1; id <= cfg.total_jobs; id += 7) {
    auto trace = run.log.job_trace(id);
    ASSERT_GE(trace.size(), 6u) << "job " << id;
    std::map<GridEventType, double> when;
    double last_time = -1.0;
    for (const GridEvent& e : trace) {
      EXPECT_GE(e.time, last_time);  // emission order is time order
      last_time = e.time;
      when[e.type] = e.time;
    }
    EXPECT_LE(when[GridEventType::JobSubmitted], when[GridEventType::JobDispatched]);
    EXPECT_LE(when[GridEventType::JobDispatched], when[GridEventType::JobDataReady]);
    EXPECT_LE(when[GridEventType::JobDataReady], when[GridEventType::JobStarted]);
    EXPECT_LE(when[GridEventType::JobStarted], when[GridEventType::JobComputeDone]);
    EXPECT_LE(when[GridEventType::JobComputeDone], when[GridEventType::JobCompleted]);
  }
}

TEST(Events, EventTimesMatchJobTimestamps) {
  SimulationConfig cfg = traced_config();
  TracedRun run(cfg);
  for (site::JobId id = 1; id <= cfg.total_jobs; id += 11) {
    const site::Job& job = run.grid.job(id);
    for (const GridEvent& e : run.log.job_trace(id)) {
      switch (e.type) {
        case GridEventType::JobSubmitted: EXPECT_DOUBLE_EQ(e.time, job.submit_time); break;
        case GridEventType::JobDispatched:
          EXPECT_DOUBLE_EQ(e.time, job.dispatch_time);
          break;
        case GridEventType::JobStarted: EXPECT_DOUBLE_EQ(e.time, job.start_time); break;
        case GridEventType::JobCompleted: EXPECT_DOUBLE_EQ(e.time, job.finish_time); break;
        default: break;
      }
    }
  }
}

TEST(Events, FetchPairsBalanceMegabytes) {
  SimulationConfig cfg = traced_config();
  TracedRun run(cfg);
  double started_mb = 0.0;
  double completed_mb = 0.0;
  for (const GridEvent& e : run.log.events()) {
    if (e.type == GridEventType::FetchStarted) started_mb += e.mb;
    if (e.type == GridEventType::FetchCompleted) completed_mb += e.mb;
  }
  EXPECT_NEAR(started_mb, completed_mb, 2000.0 + 1e-6);  // at most one in flight per pair
  EXPECT_NEAR(completed_mb / static_cast<double>(cfg.total_jobs),
              run.grid.metrics().avg_fetch_per_job_mb, 1e-6);
}

TEST(Events, DatasetTraceCoversReplication) {
  SimulationConfig cfg = traced_config();
  TracedRun run(cfg);
  // Find a dataset that was replicated and check its trace tells the story.
  bool found = false;
  for (const GridEvent& e : run.log.events()) {
    if (e.type != GridEventType::ReplicationStarted) continue;
    auto trace = run.log.dataset_trace(e.dataset);
    bool completed = false;
    bool stored = false;
    for (const GridEvent& t : trace) {
      if (t.type == GridEventType::ReplicationCompleted && t.site_b == e.site_b) {
        completed = true;
      }
      if (t.type == GridEventType::ReplicaStored && t.site_a == e.site_b) stored = true;
    }
    if (completed && stored) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Events, CsvRoundTripsThroughParser) {
  SimulationConfig cfg = traced_config();
  cfg.total_jobs = 24;
  TracedRun run(cfg);
  std::ostringstream out;
  run.log.write_csv(out);
  util::CsvTable table = util::parse_csv_string(out.str());
  EXPECT_EQ(table.rows.size(), run.log.size());
  EXPECT_EQ(table.column_index("type"), 1u);
}

TEST(Events, UserObserversDoNotPerturbResults) {
  // A run with only the built-in metrics fold behaves identically to one
  // with a user observer attached (determinism check, same seed).
  SimulationConfig cfg = traced_config();
  Grid plain(cfg);
  plain.run();
  TracedRun traced(cfg);
  EXPECT_DOUBLE_EQ(plain.metrics().avg_response_time_s,
                   traced.grid.metrics().avg_response_time_s);
}

TEST(Events, ClearResets) {
  EventLog log;
  log.on_event(GridEvent{GridEventType::JobSubmitted, 1.0, 1, data::kNoDataset, 0,
                         data::kNoSite, 0.0});
  EXPECT_EQ(log.size(), 1u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.count(GridEventType::JobSubmitted), 0u);
}

TEST(Events, EveryEventTypeHasAName) {
  for (std::size_t i = 0; i < kNumGridEventTypes; ++i) {
    auto type = static_cast<GridEventType>(i);
    EXPECT_STRNE(to_string(type), "?") << i;
  }
  EXPECT_STREQ(to_string(GridEventType::FetchStarted), "fetch_started");
  EXPECT_STREQ(to_string(GridEventType::ReplicaEvicted), "replica_evicted");
}

TEST(Events, NullObserverRejected) {
  Grid grid(traced_config());
  EXPECT_THROW(grid.add_observer(nullptr), util::SimError);
}

}  // namespace
}  // namespace chicsim::core
