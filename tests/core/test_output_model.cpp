// Tests of the output-return extension (SimulationConfig::output_fraction).
#include <gtest/gtest.h>

#include "core/grid.hpp"

namespace chicsim::core {
namespace {

SimulationConfig output_config(double fraction) {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.output_fraction = fraction;
  cfg.es = EsAlgorithm::JobDataPresent;  // jobs mostly run away from home
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  cfg.replication_threshold = 3.0;
  cfg.seed = 13;
  return cfg;
}

TEST(OutputModel, DisabledByDefaultMatchesPaperSemantics) {
  SimulationConfig cfg = output_config(0.0);
  Grid grid(cfg);
  grid.run();
  EXPECT_DOUBLE_EQ(grid.metrics().avg_output_per_job_mb, 0.0);
  EXPECT_DOUBLE_EQ(grid.metrics().avg_output_wait_s, 0.0);
  for (site::JobId id = 1; id <= cfg.total_jobs; ++id) {
    EXPECT_DOUBLE_EQ(grid.job(id).finish_time, grid.job(id).compute_done_time);
  }
}

TEST(OutputModel, OutputTrafficIsAccounted) {
  SimulationConfig cfg = output_config(0.1);
  Grid grid(cfg);
  grid.run();
  const RunMetrics& m = grid.metrics();
  EXPECT_GT(m.avg_output_per_job_mb, 0.0);
  EXPECT_GT(m.avg_output_wait_s, 0.0);
  // Output of a job that ran away from home is fraction x input size.
  // Averaged over jobs (some run at the origin and ship nothing), the
  // per-job output is bounded by fraction x max input size.
  EXPECT_LE(m.avg_output_per_job_mb, 0.1 * 2000.0);
}

TEST(OutputModel, FinishFollowsComputeDoneAndTimestampsStayCoherent) {
  SimulationConfig cfg = output_config(0.5);
  Grid grid(cfg);
  grid.run();
  bool some_shipping = false;
  for (site::JobId id = 1; id <= cfg.total_jobs; ++id) {
    const site::Job& job = grid.job(id);
    EXPECT_EQ(job.state, site::JobState::Completed);
    EXPECT_GE(job.compute_done_time, job.start_time);
    EXPECT_GE(job.finish_time, job.compute_done_time);
    EXPECT_NEAR(job.compute_done_time - job.start_time, job.runtime_s, 1e-6);
    if (job.exec_site != job.origin_site) {
      EXPECT_GT(job.finish_time, job.compute_done_time);
      some_shipping = true;
    } else {
      EXPECT_DOUBLE_EQ(job.finish_time, job.compute_done_time);
    }
  }
  EXPECT_TRUE(some_shipping);
}

TEST(OutputModel, JobsAtOriginShipNothing) {
  SimulationConfig cfg = output_config(0.5);
  cfg.es = EsAlgorithm::JobLocal;
  Grid grid(cfg);
  grid.run();
  EXPECT_DOUBLE_EQ(grid.metrics().avg_output_per_job_mb, 0.0);
  EXPECT_DOUBLE_EQ(grid.metrics().avg_output_wait_s, 0.0);
}

TEST(OutputModel, LargerOutputsSlowTheRun) {
  Grid small(output_config(0.05));
  small.run();
  Grid large(output_config(1.0));
  large.run();
  EXPECT_GT(large.metrics().avg_response_time_s, small.metrics().avg_response_time_s);
}

TEST(OutputModel, NegativeFractionRejected) {
  SimulationConfig cfg = output_config(-0.1);
  EXPECT_THROW(cfg.validate(), util::SimError);
}

}  // namespace
}  // namespace chicsim::core
