// Ablation — load-information staleness.
//
// DESIGN.md §3 documents the 120 s information-service staleness assumption
// (MDS/NWS-era publication cadence). This bench sweeps the staleness knob
// and shows what it changes: with exact instantaneous load (0 s) a
// load-balancing scheduler becomes an unrealistically perfect round-robin
// and edges out JobLocal in the no-replication study; with minute-scale
// staleness the paper's ordering (JobLocal best without replication)
// emerges. JobDataPresent+replication — the paper's recommendation — is
// insensitive to the knob, so the headline result never depends on it.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_staleness",
                      "sweep the information-service staleness assumption");
  bench::add_standard_options(cli);
  cli.add_option("sweep", "0,30,60,120,300", "staleness values to test (seconds)");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::vector<double> sweep = bench::doubles_from_cli(cli, "sweep");

  std::printf("=== Ablation: load information staleness (%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  util::TablePrinter table({"staleness (s)", "JobLeastLoaded+None", "JobLocal+None",
                            "JobDataPresent+Repl"});
  double ll_exact = 0.0;
  double ll_stale = 0.0;
  double local_any = 0.0;
  double dp_min = 1e18;
  double dp_max = 0.0;
  for (double staleness : sweep) {
    core::SimulationConfig cfg = base;
    cfg.info_staleness_s = staleness;
    core::ExperimentRunner runner(cfg, seeds);
    double ll = runner.run_cell(EsAlgorithm::JobLeastLoaded, DsAlgorithm::DataDoNothing, threads)
                    .avg_response_time_s;
    double local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, threads)
                       .avg_response_time_s;
    double dp = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
                    .avg_response_time_s;
    table.add_row({util::format_fixed(staleness, 0), util::format_fixed(ll, 1),
                   util::format_fixed(local, 1), util::format_fixed(dp, 1)});
    if (staleness == sweep.front()) ll_exact = ll;
    if (staleness == sweep.back()) ll_stale = ll;
    local_any = local;
    dp_min = std::min(dp_min, dp);
    dp_max = std::max(dp_max, dp);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(ll_stale >= ll_exact,
               "staler load information degrades (or leaves unchanged) JobLeastLoaded");
  checks.check(dp_max / dp_min < 1.2,
               "JobDataPresent + replication is insensitive to the staleness knob");
  checks.check(local_any > 0.0, "JobLocal is unaffected by definition (ignores load)");
  return checks.finish();
}
