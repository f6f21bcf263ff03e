// Bit-identity of the parallel experiment harness — and the TSan workload.
//
// These tests are the `tsan` ctest label: a thread-sanitized build
// (-DCHICSIM_SANITIZE=thread) runs exactly this binary plus the
// fault-injection suite, so every assertion here doubles as a race
// detector drive of the work-stealing paths (run_matrix_parallel's shared
// cell index, run_cell's per-seed worker pool, the mutex-serialised
// progress callback).
//
// They are also the regression tests for the determinism fix that ordered
// TransferManager::flows_ by TransferId: before that fix the trajectory
// depended on libstdc++ hash-walk order, which this suite would not have
// caught (same build = same hash walk) but which made the serial/parallel
// equivalence fragile against any container change.
// Bit-identity is asserted with exact (==) comparisons across 2 seeds x
// the paper's full 4x3 ES x DS matrix, both fault-free (fig3/fig4 smoke
// shape) and under a stochastic fault plan, and per seed at 2/3/8/all
// worker threads.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "core/algorithms.hpp"

namespace chicsim::core {
namespace {

/// fig3/fig4 smoke scale: Table 1 shrunk until a full matrix runs in
/// milliseconds.
SimulationConfig smoke_config() {
  SimulationConfig cfg;
  cfg.num_users = 8;
  cfg.num_sites = 4;
  cfg.num_regions = 2;
  cfg.num_datasets = 20;
  cfg.total_jobs = 64;
  cfg.storage_capacity_mb = 15000.0;
  cfg.replication_threshold = 3.0;
  return cfg;
}

/// Same scale with stochastic faults on, so the recovery choreography
/// (resubmission, fetch failover, catalog scrub) runs under TSan too.
SimulationConfig faulty_config() {
  SimulationConfig cfg = smoke_config();
  cfg.fault_site_crash_rate_per_hour = 0.5;
  cfg.fault_site_downtime_s = 600.0;
  cfg.fault_transfer_fail_prob = 0.05;
  cfg.fault_horizon_s = 7200.0;
  return cfg;
}

void expect_bit_identical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.avg_response_time_s, b.avg_response_time_s);
  EXPECT_EQ(a.p95_response_time_s, b.p95_response_time_s);
  EXPECT_EQ(a.avg_placement_wait_s, b.avg_placement_wait_s);
  EXPECT_EQ(a.avg_queue_wait_s, b.avg_queue_wait_s);
  EXPECT_EQ(a.avg_data_wait_s, b.avg_data_wait_s);
  EXPECT_EQ(a.avg_compute_s, b.avg_compute_s);
  EXPECT_EQ(a.avg_output_wait_s, b.avg_output_wait_s);
  EXPECT_EQ(a.avg_data_per_job_mb, b.avg_data_per_job_mb);
  EXPECT_EQ(a.avg_fetch_per_job_mb, b.avg_fetch_per_job_mb);
  EXPECT_EQ(a.avg_replication_per_job_mb, b.avg_replication_per_job_mb);
  EXPECT_EQ(a.avg_output_per_job_mb, b.avg_output_per_job_mb);
  EXPECT_EQ(a.total_mb_hops, b.total_mb_hops);
  EXPECT_EQ(a.idle_fraction, b.idle_fraction);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.avg_link_busy_fraction, b.avg_link_busy_fraction);
  EXPECT_EQ(a.max_link_busy_fraction, b.max_link_busy_fraction);
  EXPECT_EQ(a.remote_fetches, b.remote_fetches);
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.local_data_hits, b.local_data_hits);
  EXPECT_EQ(a.local_data_misses, b.local_data_misses);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.jobs_run_at_origin, b.jobs_run_at_origin);
  // Calendar traffic: identical trajectories execute identical events.
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.event_pushes, b.event_pushes);
  EXPECT_EQ(a.event_cancels, b.event_cancels);
  EXPECT_EQ(a.peak_heap_size, b.peak_heap_size);
  EXPECT_EQ(a.queue_compactions, b.queue_compactions);
  EXPECT_EQ(a.reallocations, b.reallocations);
  EXPECT_EQ(a.flows_rescheduled, b.flows_rescheduled);
}

void expect_cells_bit_identical(const std::vector<CellResult>& serial,
                                const std::vector<CellResult>& parallel) {
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(serial[c].es, parallel[c].es);
    EXPECT_EQ(serial[c].ds, parallel[c].ds);
    // The fold itself must be bit-identical, not just the ingredients: the
    // seed-averaged headline numbers are FP sums whose order must not
    // depend on worker completion order.
    EXPECT_EQ(serial[c].avg_response_time_s, parallel[c].avg_response_time_s);
    EXPECT_EQ(serial[c].makespan_s, parallel[c].makespan_s);
    EXPECT_EQ(serial[c].idle_fraction, parallel[c].idle_fraction);
    EXPECT_EQ(serial[c].response_cv, parallel[c].response_cv);
    ASSERT_EQ(serial[c].per_seed.size(), parallel[c].per_seed.size());
    for (std::size_t s = 0; s < serial[c].per_seed.size(); ++s) {
      expect_bit_identical(serial[c].per_seed[s], parallel[c].per_seed[s]);
    }
  }
}

TEST(ParallelDeterminism, MatrixParallelIsBitIdenticalToSerial) {
  ExperimentRunner runner(smoke_config(), {101, 202});
  auto serial = runner.run_matrix(paper_es_algorithms(), paper_ds_algorithms());
  auto parallel =
      runner.run_matrix_parallel(paper_es_algorithms(), paper_ds_algorithms(), 4);
  expect_cells_bit_identical(serial, parallel);
}

TEST(ParallelDeterminism, MatrixParallelUnderFaultsIsBitIdenticalToSerial) {
  ExperimentRunner runner(faulty_config(), {101, 202});
  auto serial = runner.run_matrix(paper_es_algorithms(), paper_ds_algorithms());
  auto parallel =
      runner.run_matrix_parallel(paper_es_algorithms(), paper_ds_algorithms(), 4);
  expect_cells_bit_identical(serial, parallel);
}

TEST(ParallelDeterminism, PerSeedWorkStealingFoldIsBitIdentical) {
  ExperimentRunner serial(smoke_config(), {101, 202, 303, 404});
  ExperimentRunner threaded(smoke_config(), {101, 202, 303, 404});
  threaded.set_cell_threads(4);
  for (EsAlgorithm es : {EsAlgorithm::JobDataPresent, EsAlgorithm::JobLocal}) {
    auto a = serial.run_cell(es, DsAlgorithm::DataRandom);
    auto b = threaded.run_cell(es, DsAlgorithm::DataRandom);
    EXPECT_EQ(a.avg_response_time_s, b.avg_response_time_s);
    EXPECT_EQ(a.response_cv, b.response_cv);
    ASSERT_EQ(a.per_seed.size(), b.per_seed.size());
    for (std::size_t s = 0; s < a.per_seed.size(); ++s) {
      expect_bit_identical(a.per_seed[s], b.per_seed[s]);
    }
  }
}

TEST(ParallelDeterminism, ParallelRunCellBitIdenticalToSerial) {
  ExperimentRunner serial(smoke_config(), {11, 12, 13, 14});
  CellResult reference = serial.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataRandom);

  for (unsigned threads : {2u, 3u, 8u, 0u}) {
    ExperimentRunner parallel(smoke_config(), {11, 12, 13, 14});
    parallel.set_cell_threads(threads);
    CellResult cell = parallel.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataRandom);
    EXPECT_EQ(cell.seeds_run, reference.seeds_run);
    EXPECT_EQ(cell.avg_response_time_s, reference.avg_response_time_s);
    EXPECT_EQ(cell.avg_data_per_job_mb, reference.avg_data_per_job_mb);
    EXPECT_EQ(cell.idle_fraction, reference.idle_fraction);
    EXPECT_EQ(cell.makespan_s, reference.makespan_s);
    EXPECT_EQ(cell.response_cv, reference.response_cv);
    ASSERT_EQ(cell.per_seed.size(), reference.per_seed.size());
    for (std::size_t s = 0; s < cell.per_seed.size(); ++s) {
      expect_bit_identical(cell.per_seed[s], reference.per_seed[s]);
    }
  }
}

TEST(ParallelDeterminism, ConcurrentProgressReportsEveryRunExactlyOnce) {
  ExperimentRunner runner(smoke_config(), {101, 202});
  std::mutex mu;
  std::vector<std::string> lines;
  runner.set_progress([&](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  });
  auto cells =
      runner.run_matrix_parallel(paper_es_algorithms(), paper_ds_algorithms(), 4);
  ASSERT_EQ(cells.size(), 12u);
  // One progress line per (cell, seed) — none lost, none duplicated.
  EXPECT_EQ(lines.size(), 24u);
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(std::unique(lines.begin(), lines.end()), lines.end());
}

}  // namespace
}  // namespace chicsim::core
