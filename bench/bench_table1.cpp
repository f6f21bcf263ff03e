// Table 1 — "Simulation parameters used in study".
//
// Regenerates the parameter table and validates that the defaults used by
// every other bench binary equal the published values, plus a summary of
// the derived world (actual compute-element draw, dataset size statistics,
// topology shape) for one construction of the grid.
#include <cstdio>

#include "common.hpp"
#include "core/grid.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  util::CliParser cli("bench_table1", "reproduce Table 1 (simulation parameters)");
  bench::add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig cfg = bench::config_from_cli(cli);

  std::printf("=== Table 1: Simulation parameters used in study ===\n\n");
  util::TablePrinter table({"parameter", "paper", "this run"});
  table.add_row({"Total number of users", "120", std::to_string(cfg.num_users)});
  table.add_row({"Number of sites", "30", std::to_string(cfg.num_sites)});
  table.add_row({"Compute elements / site", "2-5",
                 std::to_string(cfg.min_compute_elements) + "-" +
                     std::to_string(cfg.max_compute_elements)});
  table.add_row({"Total number of datasets", "200", std::to_string(cfg.num_datasets)});
  table.add_row({"Dataset size", "500 MB - 2 GB",
                 util::format_fixed(cfg.min_dataset_mb, 0) + " MB - " +
                     util::format_fixed(cfg.max_dataset_mb, 0) + " MB"});
  table.add_row({"Connectivity bandwidth", "10 MB/s (s1) / 100 MB/s (s2)",
                 util::format_fixed(cfg.link_bandwidth_mbps, 0) + " MB/s"});
  table.add_row({"Size of workload", "6000 jobs", std::to_string(cfg.total_jobs)});
  std::fputs(table.render().c_str(), stdout);

  // Construct one world and report the realised draws.
  core::Grid grid(cfg);
  util::OnlineStats ce;
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    ce.add(static_cast<double>(grid.site_at(s).compute().size()));
  }
  util::OnlineStats sizes;
  for (data::DatasetId d = 0; d < grid.datasets().size(); ++d) {
    sizes.add(grid.datasets().size_mb(d));
  }
  std::printf("\nrealised world (seed %llu):\n",
              static_cast<unsigned long long>(cfg.seed));
  std::printf("  compute elements/site : min %.0f max %.0f mean %.2f\n", ce.min(), ce.max(),
              ce.mean());
  std::printf("  dataset size (MB)     : min %.1f max %.1f mean %.1f\n", sizes.min(),
              sizes.max(), sizes.mean());
  std::printf("  topology              : %zu nodes, %zu links (30 sites, %zu regions + root)\n",
              grid.topology().node_count(), grid.topology().link_count(), cfg.num_regions);
  std::printf("  initial replicas      : %zu (one per dataset)\n",
              grid.replicas().total_replicas());

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(cfg.num_users == 120, "120 users");
  checks.check(cfg.num_sites == 30, "30 sites");
  checks.check(ce.min() >= 2 && ce.max() <= 5, "compute elements drawn from 2-5");
  checks.check(cfg.num_datasets == 200, "200 datasets");
  checks.check(sizes.min() >= 500.0 && sizes.max() < 2000.0,
               "dataset sizes within 500 MB - 2 GB");
  checks.check(cfg.total_jobs % cfg.num_users == 0, "jobs divide evenly across users");
  checks.check(grid.replicas().total_replicas() == cfg.num_datasets,
               "exactly one initial replica per dataset");
  return checks.finish();
}
