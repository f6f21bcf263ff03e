// Ablation — per-site storage capacity.
//
// Table 1 omits storage capacity; DESIGN.md assumes 50 GB per site. This
// bench sweeps the capacity from barely-fits-the-masters to effectively
// infinite and reports response time, cache behaviour and LRU churn for a
// caching-dependent configuration (JobLocal + DataDoNothing, where hit rate
// is everything) and for the paper's winner. Expected shape: more storage
// monotonically (modulo noise) improves the caching-dependent scheduler and
// eviction counts fall to zero once the working set fits.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_storage", "sweep per-site storage capacity");
  bench::add_standard_options(cli);
  cli.add_option("sweep", "15000,25000,50000,100000,250000",
                 "storage capacities to test (MB per site)");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::vector<double> sweep = bench::doubles_from_cli(cli, "sweep");

  std::printf("=== Ablation: per-site storage capacity (%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  util::TablePrinter table({"capacity (GB)", "JobLocal resp (s)", "hit rate", "evictions",
                            "JobDataPresent+Repl resp (s)"});
  std::vector<double> local_resp;
  std::vector<double> evictions;
  for (double capacity : sweep) {
    core::SimulationConfig cfg = base;
    cfg.storage_capacity_mb = capacity;
    core::ExperimentRunner runner(cfg, seeds);
    auto local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, threads);
    auto dp = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads);
    double hits = 0.0;
    double misses = 0.0;
    double evict = 0.0;
    for (const auto& m : local.per_seed) {
      hits += static_cast<double>(m.local_data_hits);
      misses += static_cast<double>(m.local_data_misses);
      evict += static_cast<double>(m.cache_evictions);
    }
    double hit_rate = hits / std::max(1.0, hits + misses);
    evict /= static_cast<double>(local.per_seed.size());
    table.add_row({util::format_fixed(capacity / 1000.0, 0),
                   util::format_fixed(local.avg_response_time_s, 1),
                   util::format_fixed(hit_rate, 3), util::format_fixed(evict, 0),
                   util::format_fixed(dp.avg_response_time_s, 1)});
    local_resp.push_back(local.avg_response_time_s);
    evictions.push_back(evict);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(local_resp.front() >= local_resp.back(),
               "more storage does not hurt the caching-dependent scheduler");
  checks.check(evictions.front() > evictions.back(),
               "LRU churn falls as capacity grows");
  checks.check(evictions.back() == 0.0,
               "evictions vanish once the working set fits");
  return checks.finish();
}
