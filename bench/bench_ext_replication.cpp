// Extension — the companion-paper replication strategies.
//
// Ranganathan & Foster's GRID 2001 study ("Identifying Dynamic Replication
// Strategies for a High-Performance Data Grid", cited as [23]) evaluates
// further replication strategies; we implement two of them adapted to this
// framework (DataBestClient and DataFastSpread) and compare all five DS
// algorithms under the paper's winning scheduler, JobDataPresent, and under
// the data-heavy JobLocal.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ext_replication",
                      "compare all five replication strategies (paper + companion paper)");
  bench::add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig cfg = bench::config_from_cli(cli);
  core::ExperimentRunner runner(cfg, bench::seeds_from_cli(cli));

  std::vector<EsAlgorithm> es_list{EsAlgorithm::JobDataPresent, EsAlgorithm::JobLocal};
  auto cells = bench::run_matrix_from_cli(cli, runner, es_list, core::all_ds_algorithms());

  std::printf("=== Extension: replication strategy family (%zu jobs, %zu seeds) ===\n\n",
              cfg.total_jobs, runner.seeds().size());
  std::fputs(bench::render_matrix(cells, es_list, core::all_ds_algorithms(),
                                  [](const core::CellResult& c) {
                                    return c.avg_response_time_s;
                                  },
                                  "average response time per job (s)", 1)
                 .c_str(),
             stdout);
  std::fputc('\n', stdout);
  std::fputs(bench::render_matrix(cells, es_list, core::all_ds_algorithms(),
                                  [](const core::CellResult& c) {
                                    return c.avg_replication_per_job_mb;
                                  },
                                  "replication traffic per job (MB)", 1)
                 .c_str(),
             stdout);

  auto rt = [&](EsAlgorithm es, DsAlgorithm ds) {
    return bench::cell_of(cells, es, ds).avg_response_time_s;
  };

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  double none = rt(EsAlgorithm::JobDataPresent, DsAlgorithm::DataDoNothing);
  for (DsAlgorithm ds : {DsAlgorithm::DataRandom, DsAlgorithm::DataLeastLoaded,
                         DsAlgorithm::DataBestClient}) {
    checks.check(rt(EsAlgorithm::JobDataPresent, ds) < none,
                 std::string("threshold replication (") + to_string(ds) +
                     ") beats no replication under JobDataPresent");
  }
  // DataFastSpread triggers on network fetches; JobDataPresent performs
  // none, so it degenerates to no replication there — its effect (and its
  // bandwidth bill) shows under data-blind schedulers instead.
  checks.check(rt(EsAlgorithm::JobDataPresent, DsAlgorithm::DataFastSpread) >= 0.95 * none,
               "DataFastSpread is inert when jobs already run at the data "
               "(no fetches to piggyback on)");
  double fast_mb = bench::cell_of(cells, EsAlgorithm::JobLocal, DsAlgorithm::DataFastSpread)
                       .avg_replication_per_job_mb;
  double ll_mb = bench::cell_of(cells, EsAlgorithm::JobLocal, DsAlgorithm::DataLeastLoaded)
                     .avg_replication_per_job_mb;
  checks.check(fast_mb > 3.0 * ll_mb,
               "eager spreading pays far more replication bandwidth than "
               "threshold-driven replication (the companion paper's cost finding)");
  checks.check(rt(EsAlgorithm::JobLocal, DsAlgorithm::DataFastSpread) >
                   rt(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing),
               "on a contended 10 MB/s grid that bandwidth bill outweighs the "
               "locality benefit");
  return checks.finish();
}
