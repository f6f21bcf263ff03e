// Figure 3 — "(a) Average response time and (b) average data transferred
// for the various algorithms" (12 ES x DS pairs, 10 MB/s scenario, seed
// means; 5 seeds by default, see EXPERIMENTS.md §5.2).
//
// Prints both panels as tables in the paper's layout and asserts the
// paper's qualitative findings:
//   * no replication: JobLocal best, JobDataPresent worst;
//   * with replication: JobDataPresent best everywhere, and far better
//     than the best no-replication algorithm;
//   * replication does not help the other three ES algorithms;
//   * JobDataPresent moves > 400 MB/job less data than every alternative;
//   * DataRandom and DataLeastLoaded are within a few percent.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "core/report.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_fig3_response_and_data",
                      "reproduce Figure 3a (response time) and 3b (data per job)");
  bench::add_standard_options(cli);
  bench::add_matrix_csv_option(cli);
  bench::add_svg_option(cli);
  core::add_observed_run_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig cfg = bench::config_from_cli(cli);
  core::ExperimentRunner runner(cfg, bench::seeds_from_cli(cli));
  auto cells = bench::run_matrix_from_cli(cli, runner, core::paper_es_algorithms(),
                                          core::paper_ds_algorithms());

  std::printf("=== Figure 3 (bandwidth %.0f MB/s, %zu jobs, %zu seeds) ===\n\n",
              cfg.link_bandwidth_mbps, cfg.total_jobs, runner.seeds().size());
  std::fputs(bench::render_matrix(cells, core::paper_es_algorithms(),
                                  core::paper_ds_algorithms(),
                                  [](const core::CellResult& c) {
                                    return c.avg_response_time_s;
                                  },
                                  "Figure 3a: average response time per job (s)", 1)
                 .c_str(),
             stdout);
  std::fputc('\n', stdout);
  std::fputs(bench::render_matrix(cells, core::paper_es_algorithms(),
                                  core::paper_ds_algorithms(),
                                  [](const core::CellResult& c) {
                                    return c.avg_data_per_job_mb;
                                  },
                                  "Figure 3b: average data transferred per job (MB)", 1)
                 .c_str(),
             stdout);

  bench::maybe_write_matrix_csv(cli, cells);
  bench::maybe_write_svg(
      cli, "fig3a",
      bench::make_matrix_chart(cells, core::paper_es_algorithms(),
                               core::paper_ds_algorithms(),
                               [](const core::CellResult& c) { return c.avg_response_time_s; },
                               "Figure 3a: average response time per job",
                               "response time (s)"));
  bench::maybe_write_svg(
      cli, "fig3b",
      bench::make_matrix_chart(cells, core::paper_es_algorithms(),
                               core::paper_ds_algorithms(),
                               [](const core::CellResult& c) { return c.avg_data_per_job_mb; },
                               "Figure 3b: average data transferred per job",
                               "data transferred (MB)"));

  std::printf("\ncross-seed variance (coefficient of variation of response time):\n");
  double worst_cv = 0.0;
  for (const auto& cell : cells) worst_cv = std::max(worst_cv, cell.response_cv);
  std::printf("  worst cell: %.3f (paper: \"no significant variation\")\n", worst_cv);

  auto rt = [&](EsAlgorithm es, DsAlgorithm ds) {
    return bench::cell_of(cells, es, ds).avg_response_time_s;
  };
  auto mb = [&](EsAlgorithm es, DsAlgorithm ds) {
    return bench::cell_of(cells, es, ds).avg_data_per_job_mb;
  };

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;

  // No-replication column (DataDoNothing).
  double local0 = rt(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing);
  checks.check(local0 <= rt(EsAlgorithm::JobRandom, DsAlgorithm::DataDoNothing) &&
                   local0 <= rt(EsAlgorithm::JobLeastLoaded, DsAlgorithm::DataDoNothing) &&
                   local0 <= rt(EsAlgorithm::JobDataPresent, DsAlgorithm::DataDoNothing),
               "without replication, JobLocal has the best response time");
  double dp0 = rt(EsAlgorithm::JobDataPresent, DsAlgorithm::DataDoNothing);
  checks.check(dp0 >= rt(EsAlgorithm::JobRandom, DsAlgorithm::DataDoNothing) &&
                   dp0 >= rt(EsAlgorithm::JobLeastLoaded, DsAlgorithm::DataDoNothing) &&
                   dp0 >= local0,
               "without replication, JobDataPresent is the worst (hotspot overload)");

  // Replication columns.
  for (DsAlgorithm ds : {DsAlgorithm::DataRandom, DsAlgorithm::DataLeastLoaded}) {
    double dp = rt(EsAlgorithm::JobDataPresent, ds);
    bool best = dp <= rt(EsAlgorithm::JobRandom, ds) &&
                dp <= rt(EsAlgorithm::JobLeastLoaded, ds) && dp <= rt(EsAlgorithm::JobLocal, ds);
    checks.check(best, std::string("with ") + to_string(ds) +
                           ", JobDataPresent is the best ES algorithm");
    checks.check(dp < local0,
                 std::string("JobDataPresent + ") + to_string(ds) +
                     " beats the best no-replication configuration (JobLocal)");
  }

  // Replication does not rescue the other three algorithms (same or worse,
  // within a small tolerance for noise).
  for (EsAlgorithm es :
       {EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobLocal}) {
    double base = rt(es, DsAlgorithm::DataDoNothing);
    double with = std::min(rt(es, DsAlgorithm::DataRandom),
                           rt(es, DsAlgorithm::DataLeastLoaded));
    checks.check(with > 0.9 * base,
                 std::string("replication does not improve ") + to_string(es) +
                     " (response stays the same or worsens)");
  }

  // Figure 3b claims.
  for (DsAlgorithm ds : core::paper_ds_algorithms()) {
    double dp_mb = mb(EsAlgorithm::JobDataPresent, ds);
    for (EsAlgorithm es :
         {EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobLocal}) {
      checks.check(mb(es, ds) - dp_mb > 300.0,
                   std::string("JobDataPresent moves >> less data than ") + to_string(es) +
                       " under " + to_string(ds) + " (paper: > 400 MB/job gap)");
    }
  }

  // DataRandom ~ DataLeastLoaded for the winning scheduler.
  double r = rt(EsAlgorithm::JobDataPresent, DsAlgorithm::DataRandom);
  double l = rt(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded);
  checks.check(std::abs(r - l) / std::max(r, l) < 0.15,
               "no significant difference between DataRandom and DataLeastLoaded");

  checks.check(worst_cv < 0.25, "cross-seed variation is small");

  // Optional deep-dive into the paper's winning cell: Chrome trace,
  // per-site/per-link metrics, per-job spans, wall-clock profile.
  bench::maybe_run_observed_cell(cli, cfg, EsAlgorithm::JobDataPresent,
                                 DsAlgorithm::DataRandom);
  return checks.finish();
}
