// Property-style invariants over whole simulation runs, swept across
// algorithm pairs and seeds with parameterized gtest. These encode the
// model's contracts from §3 and §5.2 of the paper:
//
//  * every job completes exactly once, with monotone timestamps;
//  * response time = max(queue wait, data wait) + compute time;
//  * compute time equals the generated runtime;
//  * jobs only start after their data arrived;
//  * per-user submissions are strictly sequential (closed loop);
//  * replica catalog and site storages stay mutually consistent;
//  * conservation: fetched + replicated megabytes match transfer totals.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "core/grid.hpp"

namespace chicsim::core {
namespace {

using Combo = std::tuple<EsAlgorithm, DsAlgorithm, std::uint64_t>;

class RunInvariants : public ::testing::TestWithParam<Combo> {
 protected:
  static SimulationConfig config_for(const Combo& combo) {
    SimulationConfig cfg;
    cfg.num_users = 12;
    cfg.num_sites = 6;
    cfg.num_regions = 3;
    cfg.num_datasets = 30;
    cfg.total_jobs = 120;
    cfg.storage_capacity_mb = 15000.0;
    cfg.replication_threshold = 3.0;
    cfg.es = std::get<0>(combo);
    cfg.ds = std::get<1>(combo);
    cfg.seed = std::get<2>(combo);
    return cfg;
  }
};

TEST_P(RunInvariants, JobLifecycleTimestampsAreCoherent) {
  SimulationConfig cfg = config_for(GetParam());
  Grid grid(cfg);
  grid.run();

  for (site::JobId id = 1; id <= cfg.total_jobs; ++id) {
    const site::Job& job = grid.job(id);
    ASSERT_EQ(job.state, site::JobState::Completed) << job.describe();
    EXPECT_GE(job.submit_time, 0.0);
    // Dispatch happens at submission (the ES decides instantly).
    EXPECT_DOUBLE_EQ(job.dispatch_time, job.submit_time);
    EXPECT_GE(job.data_ready_time, job.dispatch_time);
    EXPECT_GE(job.start_time, job.data_ready_time);  // no start before data
    EXPECT_GE(job.finish_time, job.start_time);
    // Compute time is exactly the generated runtime.
    EXPECT_NEAR(job.finish_time - job.start_time, job.runtime_s, 1e-6);
    // Completion = max(queue, transfer) + compute (§5.2): since the job
    // starts when both a processor and the data are available and never
    // earlier, start >= max(data_ready, dispatch) and response >= the
    // paper's formula with equality when no processor contention follows
    // data arrival.
    EXPECT_GE(job.response_time() + 1e-9,
              std::max(job.start_time - job.dispatch_time,
                       job.data_ready_time - job.dispatch_time) +
                  job.runtime_s - 1e-6);
  }
}

TEST_P(RunInvariants, UsersSubmitStrictlySequentially) {
  SimulationConfig cfg = config_for(GetParam());
  Grid grid(cfg);
  grid.run();

  // Group jobs by user in id order; each next submission must not precede
  // the previous completion.
  std::vector<std::vector<const site::Job*>> by_user(cfg.num_users);
  for (site::JobId id = 1; id <= cfg.total_jobs; ++id) {
    const site::Job& job = grid.job(id);
    by_user[job.user].push_back(&job);
  }
  for (const auto& jobs : by_user) {
    ASSERT_EQ(jobs.size(), cfg.jobs_per_user());
    for (std::size_t i = 1; i < jobs.size(); ++i) {
      EXPECT_GE(jobs[i]->submit_time, jobs[i - 1]->finish_time - 1e-9);
    }
  }
}

TEST_P(RunInvariants, ReplicaCatalogMatchesStorages) {
  SimulationConfig cfg = config_for(GetParam());
  Grid grid(cfg);
  grid.run();

  const auto& catalog = grid.replicas();
  for (data::DatasetId d = 0; d < grid.datasets().size(); ++d) {
    // Every catalog entry is backed by an actual stored copy.
    for (data::SiteIndex s : catalog.locations(d)) {
      EXPECT_TRUE(grid.site_at(s).storage().contains(d))
          << "dataset " << d << " claimed at site " << s;
    }
    // The original copy never disappears (masters are pinned).
    EXPECT_GE(catalog.replica_count(d), 1u);
  }
}

TEST_P(RunInvariants, ConservationOfTransferredData) {
  SimulationConfig cfg = config_for(GetParam());
  Grid grid(cfg);
  grid.run();
  const RunMetrics& m = grid.metrics();
  double jobs = static_cast<double>(m.jobs_completed);
  EXPECT_NEAR(m.avg_data_per_job_mb * jobs,
              m.avg_fetch_per_job_mb * jobs + m.avg_replication_per_job_mb * jobs, 1e-3);
  // Megabyte-hops are at least the end-to-end megabytes (paths have >= 1
  // link) and at most hops_max times them.
  double delivered = m.avg_data_per_job_mb * jobs;
  EXPECT_GE(m.total_mb_hops + 1e-6, delivered);
  EXPECT_LE(m.total_mb_hops, delivered * 4.0 + 1e-6);
}

TEST_P(RunInvariants, UtilizationIsAProperFraction) {
  SimulationConfig cfg = config_for(GetParam());
  Grid grid(cfg);
  grid.run();
  const RunMetrics& m = grid.metrics();
  EXPECT_GE(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0 + 1e-9);
  EXPECT_NEAR(m.utilization + m.idle_fraction, 1.0, 1e-9);
}

TEST_P(RunInvariants, QueuesAreEmptyAndNothingRunsAfterTheRun) {
  SimulationConfig cfg = config_for(GetParam());
  Grid grid(cfg);
  grid.run();
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(grid.site_at(s).load(), 0u);
    EXPECT_EQ(grid.site_at(s).compute().busy(), 0u);
  }
}

TEST_P(RunInvariants, CompletedJobsPartitionAcrossSites) {
  // Also with crashes and the output extension on: a job whose execution
  // site crashes while its output travels home reruns, and counts once.
  SimulationConfig plain = config_for(GetParam());
  SimulationConfig crashes_with_output = plain;
  crashes_with_output.output_fraction = 0.5;
  crashes_with_output.fault_site_crash_rate_per_hour = 1.0;
  crashes_with_output.fault_site_downtime_s = 600.0;
  for (const SimulationConfig& cfg : {plain, crashes_with_output}) {
    Grid grid(cfg);
    grid.run();
    std::uint64_t total = 0;
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
      total += grid.site_at(s).jobs_completed_here();
    }
    EXPECT_EQ(total, cfg.total_jobs) << "output_fraction " << cfg.output_fraction;
  }
}

TEST_P(RunInvariants, AuditPassesBeforeDuringAndAfterTheRun) {
  SimulationConfig cfg = config_for(GetParam());
  Grid grid(cfg);
  grid.audit();  // freshly built world
  // Audit the live world at several points mid-run: events scheduled before
  // run() interleave with the simulation's own.
  int mid_audits = 0;
  for (double t : {500.0, 2000.0, 8000.0}) {
    grid.engine().schedule_at(t, [&grid, &mid_audits] {
      grid.audit();
      ++mid_audits;
    });
  }
  grid.run();
  grid.audit();  // quiescent world
  EXPECT_GT(mid_audits, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperMatrix, RunInvariants,
    ::testing::Combine(::testing::ValuesIn(paper_es_algorithms()),
                       ::testing::ValuesIn(paper_ds_algorithms()),
                       ::testing::Values(11u, 97u)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

INSTANTIATE_TEST_SUITE_P(
    Extensions, RunInvariants,
    ::testing::Combine(::testing::Values(EsAlgorithm::JobAdaptive),
                       ::testing::Values(DsAlgorithm::DataBestClient,
                                         DsAlgorithm::DataFastSpread),
                       ::testing::Values(11u)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace chicsim::core
