// Multi-run experiment harness (§5.2).
//
// "We ran a total of 72 simulation experiments. For each of our 4x3=12
//  pairs of scheduling algorithms, we ran six experiments: three with data
//  grid parameters as above and three with network bandwidth increased by a
//  factor of ten. Within each set of three, we ran with different random
//  seeds in order to evaluate variance; in practice, we found no
//  significant variation."
//
// ExperimentRunner executes one (ES, DS) cell over a seed list and averages
// the metrics; run_matrix sweeps the full algorithm grid. The
// coefficient of variation across seeds is reported so the paper's
// "no significant variation" claim can be checked, not just assumed.
#pragma once

#include <functional>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"

namespace chicsim::core {

/// Seed-averaged result of one algorithm pair.
struct CellResult {
  EsAlgorithm es = EsAlgorithm::JobLocal;
  DsAlgorithm ds = DsAlgorithm::DataDoNothing;
  std::size_t seeds_run = 0;

  // Means across seeds of the headline metrics.
  double avg_response_time_s = 0.0;
  double avg_data_per_job_mb = 0.0;
  double avg_fetch_per_job_mb = 0.0;
  double avg_replication_per_job_mb = 0.0;
  double idle_fraction = 0.0;
  double makespan_s = 0.0;
  double avg_queue_wait_s = 0.0;
  double avg_data_wait_s = 0.0;
  double replications = 0.0;
  double remote_fetches = 0.0;

  /// Cross-seed coefficient of variation of the response time (the
  /// variance check of §5.2).
  double response_cv = 0.0;

  /// Per-seed raw metrics, in seed order.
  std::vector<RunMetrics> per_seed;
};

class ExperimentRunner {
 public:
  /// `base` carries everything except es/ds/seed, which are overridden per
  /// run. Progress (if set) is invoked after every completed run, one call
  /// at a time even when runs finish on several threads.
  explicit ExperimentRunner(SimulationConfig base, std::vector<std::uint64_t> seeds);

  void set_progress(std::function<void(const std::string&)> progress);

  /// Run one simulation (seed taken from the config).
  [[nodiscard]] static RunMetrics run_single(const SimulationConfig& config);

  /// Run one algorithm pair over all seeds and average. `threads` worker
  /// threads share the seeds: 1 = serial (the default), 0 = hardware
  /// concurrency.
  [[nodiscard]] CellResult run_cell(EsAlgorithm es, DsAlgorithm ds,
                                    unsigned threads = 1) const;

  /// Full grid: one CellResult per (es, ds), es-major order. Every
  /// (cell, seed) run goes to one pool of `threads` workers, as in run_cell.
  [[nodiscard]] std::vector<CellResult> run_matrix(
      const std::vector<EsAlgorithm>& es_algorithms,
      const std::vector<DsAlgorithm>& ds_algorithms, unsigned threads = 1) const;

  [[nodiscard]] const SimulationConfig& base_config() const { return base_; }
  [[nodiscard]] const std::vector<std::uint64_t>& seeds() const { return seeds_; }

 private:
  /// The one worker pool. Simulations are independent (each Grid owns its
  /// whole world and derives every RNG stream from its own config.seed) and
  /// each run writes its own slot; every cell then folds its slots in seed
  /// order, so results are bit-identical for any thread count.
  [[nodiscard]] std::vector<CellResult> run_cells(
      const std::vector<std::pair<EsAlgorithm, DsAlgorithm>>& cells, unsigned threads) const;

  SimulationConfig base_;
  std::vector<std::uint64_t> seeds_;
  std::function<void(const std::string&)> progress_;
};

/// The paper's default seed triple.
[[nodiscard]] std::vector<std::uint64_t> default_seeds();

}  // namespace chicsim::core
