// Ablation — dataset popularity skew.
//
// The paper fixes the geometric parameter (Figure 2); this bench sweeps it.
// Expected shape: with near-uniform popularity (small p... i.e. large
// effective support) hotspots are weak, so JobDataPresent without
// replication suffers less; as skew grows, the hotspot penalty explodes and
// the value of active replication grows with it — the paper's motivation
// ("the geometric distribution of dataset popularity causes certain sites
// to be overloaded").
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_skew", "sweep the popularity skew (geometric p)");
  bench::add_standard_options(cli);
  cli.add_option("sweep", "0.01,0.03,0.05,0.10,0.20", "geometric p values to test");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::vector<double> sweep = bench::doubles_from_cli(cli, "sweep");

  std::printf("=== Ablation: popularity skew (%zu jobs, %zu seeds) ===\n\n", base.total_jobs,
              seeds.size());
  util::TablePrinter table({"geometric p", "JobDataPresent+None (s)",
                            "JobDataPresent+Repl (s)", "replication benefit"});
  std::vector<double> benefit;
  for (double p : sweep) {
    core::SimulationConfig cfg = base;
    cfg.geometric_p = p;
    core::ExperimentRunner runner(cfg, seeds);
    double none = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataDoNothing, threads)
                      .avg_response_time_s;
    double repl =
        runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
            .avg_response_time_s;
    table.add_row({util::format_fixed(p, 2), util::format_fixed(none, 1),
                   util::format_fixed(repl, 1), util::format_fixed(none / repl, 2)});
    benefit.push_back(none / repl);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf("\n'replication benefit' = no-replication response / with-replication response.\n");

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(benefit.back() > benefit.front(),
               "stronger skew increases the value of active replication");
  checks.check(benefit.back() > 1.5,
               "under heavy skew replication is a big win (hotspot relief)");
  for (double b : benefit) {
    if (b < 0.9) {
      checks.check(false, "replication never substantially hurts");
      return checks.finish();
    }
  }
  checks.check(true, "replication never substantially hurts");
  return checks.finish();
}
