// Figure 4 — "Percentage of time when processors are idle (not in use or
// waiting for data)" for the 12 algorithm pairs.
//
// Prints the idle-time matrix and checks the paper's reading: with
// replication, JobDataPresent's processors are busiest by a wide margin,
// while JobDataPresent without replication wastes the most processor time.
#include <cmath>
#include <cstdio>

#include "common.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_fig4_idle_time", "reproduce Figure 4 (processor idle time)");
  bench::add_standard_options(cli);
  bench::add_matrix_csv_option(cli);
  bench::add_svg_option(cli);
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig cfg = bench::config_from_cli(cli);
  core::ExperimentRunner runner(cfg, bench::seeds_from_cli(cli));
  auto cells = bench::run_matrix_from_cli(cli, runner, core::paper_es_algorithms(),
                                          core::paper_ds_algorithms());

  std::printf("=== Figure 4 (bandwidth %.0f MB/s, %zu jobs, %zu seeds) ===\n\n",
              cfg.link_bandwidth_mbps, cfg.total_jobs, runner.seeds().size());
  std::fputs(bench::render_matrix(cells, core::paper_es_algorithms(),
                                  core::paper_ds_algorithms(),
                                  [](const core::CellResult& c) {
                                    return 100.0 * c.idle_fraction;
                                  },
                                  "Figure 4: average idle time of processors (%)", 1)
                 .c_str(),
             stdout);

  bench::maybe_write_matrix_csv(cli, cells);
  bench::maybe_write_svg(
      cli, "fig4",
      bench::make_matrix_chart(
          cells, core::paper_es_algorithms(), core::paper_ds_algorithms(),
          [](const core::CellResult& c) { return 100.0 * c.idle_fraction; },
          "Figure 4: average idle time of processors", "idle time (%)"));

  auto idle = [&](EsAlgorithm es, DsAlgorithm ds) {
    return bench::cell_of(cells, es, ds).idle_fraction;
  };

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  double dp_none = idle(EsAlgorithm::JobDataPresent, DsAlgorithm::DataDoNothing);
  for (EsAlgorithm es :
       {EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobLocal}) {
    checks.check(dp_none >= idle(es, DsAlgorithm::DataDoNothing),
                 std::string("without replication JobDataPresent idles more than ") +
                     to_string(es));
  }
  for (DsAlgorithm ds : {DsAlgorithm::DataRandom, DsAlgorithm::DataLeastLoaded}) {
    double dp = idle(EsAlgorithm::JobDataPresent, ds);
    for (EsAlgorithm es :
         {EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobLocal}) {
      checks.check(dp < idle(es, ds),
                   std::string("with ") + to_string(ds) +
                       " JobDataPresent idles less than " + to_string(es));
    }
    checks.check(dp_none - dp > 0.25,
                 std::string("replication (") + to_string(ds) +
                     ") slashes JobDataPresent's idle time");
  }
  return checks.finish();
}
