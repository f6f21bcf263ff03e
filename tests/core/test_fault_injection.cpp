// Failure-injection tests: the grid keeps functioning (all jobs complete,
// invariants hold) when links degrade or fail-soft mid-run, and degraded
// networks measurably hurt data-heavy scheduling.
#include <gtest/gtest.h>

#include "core/grid.hpp"

namespace chicsim::core {
namespace {

SimulationConfig fault_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobRandom;  // lots of network traffic
  cfg.ds = DsAlgorithm::DataDoNothing;
  cfg.seed = 31;
  return cfg;
}

TEST(FaultInjection, GridSurvivesBackboneDegradation) {
  SimulationConfig cfg = fault_config();
  Grid grid(cfg);
  // Links 0..num_regions-1 are the root<->region backbone (added first).
  FaultPlan plan;
  for (net::LinkId l = 0; l < cfg.num_regions; ++l) plan.degrade_link(1000.0, l, 0.05);
  grid.add_fault_plan(plan);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
}

TEST(FaultInjection, DegradedBackboneSlowsDataHeavyScheduling) {
  SimulationConfig cfg = fault_config();
  Grid healthy(cfg);
  healthy.run();

  Grid degraded(cfg);
  FaultPlan plan;
  for (net::LinkId l = 0; l < cfg.num_regions; ++l) plan.degrade_link(0.0, l, 0.1);
  degraded.add_fault_plan(plan);
  degraded.run();
  EXPECT_GT(degraded.metrics().avg_response_time_s,
            healthy.metrics().avg_response_time_s * 1.2);
}

TEST(FaultInjection, RecoveryRestoresThroughput) {
  SimulationConfig cfg = fault_config();
  Grid flapping(cfg);
  // Degrade early, restore shortly after: the run should land far closer
  // to healthy than to permanently-degraded.
  FaultPlan flap_plan;
  for (net::LinkId l = 0; l < cfg.num_regions; ++l) {
    flap_plan.degrade_link(0.0, l, 0.1).degrade_link(2000.0, l, 1.0);
  }
  flapping.add_fault_plan(flap_plan);
  flapping.run();

  Grid healthy(cfg);
  healthy.run();
  Grid degraded(cfg);
  FaultPlan degrade_plan;
  for (net::LinkId l = 0; l < cfg.num_regions; ++l) degrade_plan.degrade_link(0.0, l, 0.1);
  degraded.add_fault_plan(degrade_plan);
  degraded.run();

  double flap = flapping.metrics().avg_response_time_s;
  EXPECT_LT(flap, degraded.metrics().avg_response_time_s);
  EXPECT_GE(flap, healthy.metrics().avg_response_time_s * 0.99);
}

TEST(FaultInjection, JobDataPresentWithReplicationIsResilient) {
  // The paper's winner barely touches the network, so even a badly
  // degraded backbone costs it comparatively little.
  SimulationConfig cfg = fault_config();
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  cfg.replication_threshold = 3.0;

  Grid healthy(cfg);
  healthy.run();
  Grid degraded(cfg);
  FaultPlan plan;
  for (net::LinkId l = 0; l < cfg.num_regions; ++l) plan.degrade_link(0.0, l, 0.2);
  degraded.add_fault_plan(plan);
  degraded.run();
  EXPECT_LT(degraded.metrics().avg_response_time_s,
            healthy.metrics().avg_response_time_s * 2.5);
}

TEST(FaultInjection, SchedulingAfterRunStartsRejected) {
  SimulationConfig cfg = fault_config();
  Grid grid(cfg);
  grid.run();
  EXPECT_THROW(grid.add_fault_plan(FaultPlan{}.degrade_link(1.0, 0, 0.5)), util::SimError);
}

TEST(FaultInjection, InvalidParametersRejected) {
  Grid grid(fault_config());
  EXPECT_THROW(grid.add_fault_plan(FaultPlan{}.degrade_link(1.0, 999, 0.5)), util::SimError);
  EXPECT_THROW(grid.add_fault_plan(FaultPlan{}.degrade_link(1.0, 0, 0.0)), util::SimError);
}

}  // namespace
}  // namespace chicsim::core
