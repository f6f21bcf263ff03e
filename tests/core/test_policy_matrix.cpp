// Parameterized sweep over the secondary policy axes (Local Scheduler x
// replica selection x bandwidth-sharing model): every combination must
// complete the workload, satisfy the audit, and keep the headline metrics
// within sane envelopes. This guards the interactions the figure benches
// never exercise together.
#include <gtest/gtest.h>

#include <tuple>

#include "core/grid.hpp"

namespace chicsim::core {
namespace {

using Combo = std::tuple<LsAlgorithm, ReplicaSelection, net::SharePolicy>;

class PolicyMatrix : public ::testing::TestWithParam<Combo> {};

TEST_P(PolicyMatrix, CompletesAuditsAndStaysSane) {
  auto [ls, rs, share] = GetParam();
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobLeastLoaded;
  cfg.ds = DsAlgorithm::DataRandom;
  cfg.replication_threshold = 3.0;
  cfg.ls = ls;
  cfg.replica_selection = rs;
  cfg.share_policy = share;
  cfg.seed = 71;

  Grid grid(cfg);
  grid.run();
  grid.audit();
  const RunMetrics& m = grid.metrics();
  EXPECT_EQ(m.jobs_completed, 120u);
  EXPECT_GT(m.avg_response_time_s, 0.0);
  EXPECT_LT(m.avg_response_time_s, 50000.0);
  EXPECT_GE(m.utilization, 0.0);
  EXPECT_LE(m.utilization, 1.0 + 1e-9);
  EXPECT_GE(m.avg_data_per_job_mb, 0.0);
  // Average compute time must sit inside the generated runtime range.
  EXPECT_GE(m.avg_compute_s, 150.0);
  EXPECT_LT(m.avg_compute_s, 600.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, PolicyMatrix,
    ::testing::Combine(
        ::testing::Values(LsAlgorithm::Fifo, LsAlgorithm::FifoSkip, LsAlgorithm::Sjf),
        ::testing::Values(ReplicaSelection::Closest, ReplicaSelection::Random,
                          ReplicaSelection::LeastLoadedSource),
        ::testing::Values(net::SharePolicy::EqualShare, net::SharePolicy::MaxMin,
                          net::SharePolicy::NoContention)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             to_string(std::get<1>(info.param)) + "_" + to_string(std::get<2>(info.param));
    });

}  // namespace
}  // namespace chicsim::core
