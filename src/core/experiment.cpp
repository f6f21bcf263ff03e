#include "core/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <span>
#include <thread>

#include "core/grid.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace chicsim::core {

std::vector<std::uint64_t> default_seeds() { return {101, 202, 303}; }

ExperimentRunner::ExperimentRunner(SimulationConfig base, std::vector<std::uint64_t> seeds)
    : base_(std::move(base)), seeds_(std::move(seeds)) {
  CHICSIM_ASSERT_MSG(!seeds_.empty(), "experiment needs at least one seed");
  base_.validate();
}

void ExperimentRunner::set_progress(std::function<void(const std::string&)> progress) {
  progress_ = std::move(progress);
}

RunMetrics ExperimentRunner::run_single(const SimulationConfig& config) {
  Grid grid(config);
  grid.run();
  return grid.metrics();
}

namespace {

/// Average one cell's per-seed runs, walking them in seed order so every
/// floating-point sum is the same whatever order the runs finished in.
CellResult fold_cell(EsAlgorithm es, DsAlgorithm ds, std::span<RunMetrics> per_seed) {
  CellResult cell;
  cell.es = es;
  cell.ds = ds;
  util::OnlineStats response;
  for (RunMetrics& m : per_seed) {
    response.add(m.avg_response_time_s);
    cell.avg_response_time_s += m.avg_response_time_s;
    cell.avg_data_per_job_mb += m.avg_data_per_job_mb;
    cell.avg_fetch_per_job_mb += m.avg_fetch_per_job_mb;
    cell.avg_replication_per_job_mb += m.avg_replication_per_job_mb;
    cell.idle_fraction += m.idle_fraction;
    cell.makespan_s += m.makespan_s;
    cell.avg_queue_wait_s += m.avg_queue_wait_s;
    cell.avg_data_wait_s += m.avg_data_wait_s;
    cell.replications += static_cast<double>(m.replications);
    cell.remote_fetches += static_cast<double>(m.remote_fetches);
    cell.per_seed.push_back(std::move(m));
    ++cell.seeds_run;
  }

  auto n = static_cast<double>(cell.seeds_run);
  cell.avg_response_time_s /= n;
  cell.avg_data_per_job_mb /= n;
  cell.avg_fetch_per_job_mb /= n;
  cell.avg_replication_per_job_mb /= n;
  cell.idle_fraction /= n;
  cell.makespan_s /= n;
  cell.avg_queue_wait_s /= n;
  cell.avg_data_wait_s /= n;
  cell.replications /= n;
  cell.remote_fetches /= n;
  cell.response_cv = util::coefficient_of_variation(util::summarize(response));
  return cell;
}

}  // namespace

CellResult ExperimentRunner::run_cell(EsAlgorithm es, DsAlgorithm ds, unsigned threads) const {
  return run_cells({{es, ds}}, threads).front();
}

std::vector<CellResult> ExperimentRunner::run_matrix(
    const std::vector<EsAlgorithm>& es_algorithms,
    const std::vector<DsAlgorithm>& ds_algorithms, unsigned threads) const {
  std::vector<std::pair<EsAlgorithm, DsAlgorithm>> cells;
  cells.reserve(es_algorithms.size() * ds_algorithms.size());
  for (EsAlgorithm es : es_algorithms) {
    for (DsAlgorithm ds : ds_algorithms) cells.emplace_back(es, ds);
  }
  return run_cells(cells, threads);
}

std::vector<CellResult> ExperimentRunner::run_cells(
    const std::vector<std::pair<EsAlgorithm, DsAlgorithm>>& cells, unsigned threads) const {
  // Run r is cell r / seeds, seed r % seeds. Workers claim the next
  // unstarted run from a shared index and write only its slot; progress
  // lines are serialised through a mutex.
  const std::size_t seeds = seeds_.size();
  const std::size_t runs = cells.size() * seeds;
  std::vector<RunMetrics> results(runs);
  std::atomic<std::size_t> next{0};
  std::mutex progress_mutex;
  auto worker = [&] {
    for (std::size_t r = next.fetch_add(1); r < runs; r = next.fetch_add(1)) {
      const auto [es, ds] = cells[r / seeds];
      SimulationConfig config = base_;
      config.es = es;
      config.ds = ds;
      config.seed = seeds_[r % seeds];
      results[r] = run_single(config);
      if (progress_) {
        std::lock_guard<std::mutex> lock(progress_mutex);
        progress_(std::string(to_string(es)) + "+" + to_string(ds) + " seed " +
                  std::to_string(config.seed) + " done");
      }
    }
  };
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t workers = std::min<std::size_t>(threads, runs);
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  std::vector<CellResult> out;
  out.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    out.push_back(fold_cell(cells[c].first, cells[c].second,
                            std::span(results).subspan(c * seeds, seeds)));
  }
  return out;
}

}  // namespace chicsim::core
