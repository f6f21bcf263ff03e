// Ablation — job output costs.
//
// §3's job model generates output files; the paper's experiments ignore
// output costs as "negligible as compared to input". This bench quantifies
// that assumption by sweeping the output-to-input size ratio for the
// paper's winner and for JobLocal (which never ships output — jobs already
// run at home). Expected shape: the paper's choice is safe for genuinely
// small outputs (a few percent), and the crossover where output shipping
// starts to erode JobDataPresent's advantage is visible as the fraction
// grows toward input scale.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_output", "sweep the output/input size ratio");
  bench::add_standard_options(cli);
  cli.add_option("sweep", "0,0.01,0.05,0.2,0.5,1.0", "output fractions to test");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::vector<double> sweep = bench::doubles_from_cli(cli, "sweep");

  std::printf("=== Ablation: output costs (%zu jobs, %zu seeds) ===\n\n", base.total_jobs,
              seeds.size());
  util::TablePrinter table({"output fraction", "JobDataPresent+Repl (s)", "output MB/job",
                            "JobLocal+Repl (s)"});
  std::vector<double> dp_resp;
  std::vector<double> local_resp;
  for (double fraction : sweep) {
    core::SimulationConfig cfg = base;
    cfg.output_fraction = fraction;
    core::ExperimentRunner runner(cfg, seeds);
    auto dp = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads);
    auto local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataLeastLoaded, threads);
    double output_mb = 0.0;
    for (const auto& m : dp.per_seed) output_mb += m.avg_output_per_job_mb;
    output_mb /= static_cast<double>(dp.per_seed.size());
    table.add_row({util::format_fixed(fraction, 2),
                   util::format_fixed(dp.avg_response_time_s, 1),
                   util::format_fixed(output_mb, 1),
                   util::format_fixed(local.avg_response_time_s, 1)});
    dp_resp.push_back(dp.avg_response_time_s);
    local_resp.push_back(local.avg_response_time_s);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(dp_resp[1] < dp_resp[0] * 1.1,
               "negligible output (1%) barely changes the winner — the paper's "
               "simplification is sound");
  checks.check(dp_resp.back() > dp_resp.front(),
               "input-sized outputs cost JobDataPresent real response time");
  checks.check(local_resp.back() < local_resp.front() * 1.1,
               "JobLocal is immune (jobs already run at the origin)");
  return checks.finish();
}
