#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <atomic>

#include "util/error.hpp"

namespace chicsim::core {
namespace {

SimulationConfig tiny_config() {
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

TEST(Experiment, RunSingleProducesMetrics) {
  SimulationConfig cfg = tiny_config();
  RunMetrics m = ExperimentRunner::run_single(cfg);
  EXPECT_EQ(m.jobs_completed, 64u);
}

TEST(Experiment, CellAveragesAcrossSeeds) {
  ExperimentRunner runner(tiny_config(), {1, 2, 3});
  CellResult cell = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing);
  EXPECT_EQ(cell.seeds_run, 3u);
  ASSERT_EQ(cell.per_seed.size(), 3u);
  double mean = (cell.per_seed[0].avg_response_time_s + cell.per_seed[1].avg_response_time_s +
                 cell.per_seed[2].avg_response_time_s) /
                3.0;
  EXPECT_NEAR(cell.avg_response_time_s, mean, 1e-9);
  EXPECT_EQ(cell.es, EsAlgorithm::JobLocal);
  EXPECT_EQ(cell.ds, DsAlgorithm::DataDoNothing);
}

TEST(Experiment, CrossSeedVarianceIsModest) {
  // §5.2: "we found no significant variation" across seeds. Our synthetic
  // worlds vary somewhat more at this tiny scale, but the coefficient of
  // variation should stay well below 1.
  ExperimentRunner runner(tiny_config(), {5, 6, 7});
  CellResult cell = runner.run_cell(EsAlgorithm::JobLeastLoaded, DsAlgorithm::DataRandom);
  EXPECT_LT(cell.response_cv, 0.5);
}

TEST(Experiment, MatrixCoversEveryPair) {
  ExperimentRunner runner(tiny_config(), {1});
  auto cells = runner.run_matrix(paper_es_algorithms(), paper_ds_algorithms());
  ASSERT_EQ(cells.size(), 12u);
  // ES-major order.
  EXPECT_EQ(cells[0].es, EsAlgorithm::JobRandom);
  EXPECT_EQ(cells[0].ds, DsAlgorithm::DataDoNothing);
  EXPECT_EQ(cells[1].ds, DsAlgorithm::DataRandom);
  EXPECT_EQ(cells[11].es, EsAlgorithm::JobLocal);
  EXPECT_EQ(cells[11].ds, DsAlgorithm::DataLeastLoaded);
}

TEST(Experiment, ProgressCallbackFiresPerRun) {
  ExperimentRunner runner(tiny_config(), {1, 2});
  int calls = 0;
  runner.set_progress([&](const std::string&) { ++calls; });
  (void)runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing);
  EXPECT_EQ(calls, 2);
}

TEST(Experiment, ParallelMatrixIsBitIdenticalToSerial) {
  ExperimentRunner runner(tiny_config(), {1, 2});
  std::vector<EsAlgorithm> es{EsAlgorithm::JobLocal, EsAlgorithm::JobDataPresent};
  std::vector<DsAlgorithm> ds{DsAlgorithm::DataDoNothing, DsAlgorithm::DataRandom};
  auto serial = runner.run_matrix(es, ds);
  for (unsigned threads : {1u, 2u, 3u, 7u}) {
    auto parallel = runner.run_matrix(es, ds, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].es, serial[i].es);
      EXPECT_EQ(parallel[i].ds, serial[i].ds);
      EXPECT_DOUBLE_EQ(parallel[i].avg_response_time_s, serial[i].avg_response_time_s);
      EXPECT_DOUBLE_EQ(parallel[i].avg_data_per_job_mb, serial[i].avg_data_per_job_mb);
      EXPECT_DOUBLE_EQ(parallel[i].idle_fraction, serial[i].idle_fraction);
      EXPECT_DOUBLE_EQ(parallel[i].makespan_s, serial[i].makespan_s);
    }
  }
}

TEST(Experiment, ParallelMatrixForwardsProgress) {
  // Regression: the threaded matrix once silently dropped the progress
  // callback. It now reports per-seed progress from every worker,
  // serialised through a mutex.
  ExperimentRunner runner(tiny_config(), {1, 2});
  std::atomic<int> calls{0};
  runner.set_progress([&](const std::string& line) {
    EXPECT_FALSE(line.empty());
    ++calls;
  });
  auto cells = runner.run_matrix(
      {EsAlgorithm::JobLocal}, {DsAlgorithm::DataDoNothing, DsAlgorithm::DataRandom}, 2);
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(calls.load(), 4);  // 2 cells x 2 seeds
}

TEST(Experiment, ThreadedCellProgressFiresPerSeed) {
  ExperimentRunner runner(tiny_config(), {1, 2, 3});
  std::atomic<int> calls{0};
  runner.set_progress([&](const std::string&) { ++calls; });
  (void)runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, 3);
  EXPECT_EQ(calls.load(), 3);
}

TEST(Experiment, ParallelZeroThreadsUsesHardwareConcurrency) {
  ExperimentRunner runner(tiny_config(), {1});
  auto cells = runner.run_matrix({EsAlgorithm::JobLocal}, {DsAlgorithm::DataDoNothing}, 0);
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].seeds_run, 1u);
}

TEST(Experiment, ParallelEmptyMatrixIsEmpty) {
  ExperimentRunner runner(tiny_config(), {1});
  EXPECT_TRUE(runner.run_matrix({}, {}, 4).empty());
}

TEST(Experiment, SeedsMustBeNonEmpty) {
  EXPECT_THROW(ExperimentRunner(tiny_config(), {}), util::SimError);
}

TEST(Experiment, DefaultSeedsAreThree) {
  EXPECT_EQ(default_seeds().size(), 3u);
}

TEST(Experiment, InvalidBaseConfigRejected) {
  SimulationConfig cfg = tiny_config();
  cfg.total_jobs = 63;  // not divisible by 8 users
  EXPECT_THROW(ExperimentRunner(cfg, {1}), util::SimError);
}

}  // namespace
}  // namespace chicsim::core
