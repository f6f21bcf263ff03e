#include "core/metrics.hpp"

#include <gtest/gtest.h>

#include "support/stats.hpp"
#include "util/error.hpp"

namespace chicsim::core {
namespace {

site::Job completed_job(site::JobId id, double submit, double dispatch, double data_ready,
                        double start, double finish, data::SiteIndex origin = 0,
                        data::SiteIndex exec = 1) {
  site::Job job;
  job.id = id;
  job.state = site::JobState::Completed;
  job.origin_site = origin;
  job.exec_site = exec;
  job.submit_time = submit;
  job.dispatch_time = dispatch;
  job.data_ready_time = data_ready;
  job.start_time = start;
  job.compute_done_time = finish;  // no output-return leg in these fixtures
  job.finish_time = finish;
  return job;
}

TEST(Metrics, RejectsUnfinishedJobs) {
  MetricsCollector collector;
  site::Job job;
  job.state = site::JobState::Running;
  EXPECT_THROW(collector.record_job(job), util::SimError);
}

TEST(Metrics, RejectsInconsistentTimestamps) {
  MetricsCollector collector;
  site::Job job = completed_job(1, 10.0, 10.0, 10.0, 10.0, 5.0);
  EXPECT_THROW(collector.record_job(job), util::SimError);
}

TEST(Metrics, AveragesResponseTimes) {
  MetricsCollector collector;
  collector.record_job(completed_job(1, 0.0, 0.0, 0.0, 0.0, 100.0));
  collector.record_job(completed_job(2, 0.0, 0.0, 0.0, 0.0, 300.0));
  std::vector<site::Site> sites;
  sites.emplace_back(0, 2, 1000.0);
  sim::Engine engine;
  net::Topology topo = net::build_star(2, 10.0);
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  RunMetrics m = collector.finalize(300.0, sites, tm);
  EXPECT_EQ(m.jobs_completed, 2u);
  EXPECT_DOUBLE_EQ(m.avg_response_time_s, 200.0);
  EXPECT_DOUBLE_EQ(m.makespan_s, 300.0);
}

TEST(Metrics, DecomposesWaits) {
  MetricsCollector collector;
  // dispatch 10, data ready 60, start 110, finish 210.
  collector.record_job(completed_job(1, 10.0, 10.0, 60.0, 110.0, 210.0));
  std::vector<site::Site> sites;
  sites.emplace_back(0, 1, 1000.0);
  sim::Engine engine;
  net::Topology topo = net::build_star(2, 10.0);
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  RunMetrics m = collector.finalize(210.0, sites, tm);
  EXPECT_DOUBLE_EQ(m.avg_queue_wait_s, 100.0);
  EXPECT_DOUBLE_EQ(m.avg_data_wait_s, 50.0);
  EXPECT_DOUBLE_EQ(m.avg_compute_s, 100.0);
}

TEST(Metrics, CountsOriginPlacement) {
  MetricsCollector collector;
  collector.record_job(completed_job(1, 0, 0, 0, 0, 10.0, /*origin=*/3, /*exec=*/3));
  collector.record_job(completed_job(2, 0, 0, 0, 0, 10.0, /*origin=*/3, /*exec=*/4));
  EXPECT_EQ(collector.jobs_recorded(), 2u);
  std::vector<site::Site> sites;
  sites.emplace_back(0, 1, 1000.0);
  sim::Engine engine;
  net::Topology topo = net::build_star(2, 10.0);
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  RunMetrics m = collector.finalize(10.0, sites, tm);
  EXPECT_EQ(m.jobs_run_at_origin, 1u);
}

TEST(Metrics, IdleFractionFromPools) {
  MetricsCollector collector;
  collector.record_job(completed_job(1, 0, 0, 0, 0, 100.0));
  std::vector<site::Site> sites;
  sites.emplace_back(0, 2, 1000.0);
  // One element busy for half the run: 100 of 400 element-seconds.
  (void)sites[0].compute().acquire(0.0);
  sites[0].compute().release(100.0);
  sites[0].compute().settle(200.0);
  sim::Engine engine;
  net::Topology topo = net::build_star(2, 10.0);
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  RunMetrics m = collector.finalize(200.0, sites, tm);
  EXPECT_NEAR(m.utilization, 0.25, 1e-12);
  EXPECT_NEAR(m.idle_fraction, 0.75, 1e-12);
}

TEST(Metrics, DataPerJobFromTransferStats) {
  MetricsCollector collector;
  collector.record_job(completed_job(1, 0, 0, 0, 0, 50.0));
  collector.record_job(completed_job(2, 0, 0, 0, 0, 50.0));
  std::vector<site::Site> sites;
  sites.emplace_back(0, 1, 1000.0);
  sim::Engine engine;
  net::Topology topo = net::build_star(3, 10.0);
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  tm.start(0, 1, 600.0, net::TransferPurpose::JobFetch, [](net::TransferId) {});
  tm.start(0, 2, 400.0, net::TransferPurpose::Replication, [](net::TransferId) {});
  engine.run();
  RunMetrics m = collector.finalize(100.0, sites, tm);
  EXPECT_NEAR(m.avg_fetch_per_job_mb, 300.0, 1e-9);
  EXPECT_NEAR(m.avg_replication_per_job_mb, 200.0, 1e-9);
  EXPECT_NEAR(m.avg_data_per_job_mb, 500.0, 1e-9);
}

TEST(Metrics, P95FromSamples) {
  MetricsCollector collector;
  for (int i = 1; i <= 100; ++i) {
    collector.record_job(completed_job(static_cast<site::JobId>(i), 0, 0, 0, 0,
                                       static_cast<double>(i)));
  }
  std::vector<site::Site> sites;
  sites.emplace_back(0, 1, 1000.0);
  sim::Engine engine;
  net::Topology topo = net::build_star(2, 10.0);
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  RunMetrics m = collector.finalize(100.0, sites, tm);
  // The collector streams p95 through a P2Quantile; its accuracy contract
  // (stats.hpp) allows ~2% relative error vs the exact order statistic
  // (95.05 here) at n = 100.
  EXPECT_NEAR(m.p95_response_time_s, 95.05, 95.05 * 0.02);
}

TEST(Metrics, P95ExactForSmallRuns) {
  // Below six samples the streaming estimator stores samples exactly, so a
  // small run's p95 matches the batch percentile bit-for-bit.
  MetricsCollector collector;
  for (int i = 1; i <= 5; ++i) {
    collector.record_job(completed_job(static_cast<site::JobId>(i), 0, 0, 0, 0,
                                       static_cast<double>(10 * i)));
  }
  std::vector<site::Site> sites;
  sites.emplace_back(0, 1, 1000.0);
  sim::Engine engine;
  net::Topology topo = net::build_star(2, 10.0);
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing);
  RunMetrics m = collector.finalize(50.0, sites, tm);
  EXPECT_DOUBLE_EQ(m.p95_response_time_s,
                   test_support::percentile({10.0, 20.0, 30.0, 40.0, 50.0}, 0.95));
}

}  // namespace
}  // namespace chicsim::core
