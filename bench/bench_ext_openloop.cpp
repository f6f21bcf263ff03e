// Extension — open-loop offered-load sweep.
//
// The paper's closed-loop users (next job only after the previous
// completes) self-throttle: the system can never be pushed past
// saturation. The open-loop extension submits jobs as per-user Poisson
// processes, which lets us sweep offered load and locate the saturation
// knee — and show that the paper's winning configuration sustains a higher
// offered load than the naive one before response times blow up.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ext_openloop", "offered-load sweep with Poisson submissions");
  bench::add_standard_options(cli);
  cli.add_option("intervals", "2000,1000,600,400,300",
                 "mean per-user interarrival times to sweep (s)");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  base.submission_mode = core::SubmissionMode::OpenLoop;
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  std::printf("=== Extension: open-loop offered load (%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  std::printf("offered load per user = one job every <interval> seconds (exponential);\n"
              "mean job demand is ~375 s of compute plus data movement.\n\n");
  util::TablePrinter table({"interarrival (s)", "JobDataPresent+Repl (s)",
                            "JobLocal+None (s)"});
  std::vector<double> dp_resp;
  std::vector<double> local_resp;
  for (double interval : bench::doubles_from_cli(cli, "intervals")) {
    core::SimulationConfig cfg = base;
    cfg.arrival_interval_s = interval;
    core::ExperimentRunner runner(cfg, seeds);
    double dp = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
                    .avg_response_time_s;
    double local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, threads)
                       .avg_response_time_s;
    table.add_row({util::format_fixed(interval, 0), util::format_fixed(dp, 1),
                   util::format_fixed(local, 1)});
    dp_resp.push_back(dp);
    local_resp.push_back(local);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(dp_resp.back() > dp_resp.front(),
               "higher offered load raises response times (queueing)");
  checks.check(local_resp.back() > 2.0 * local_resp.front(),
               "the naive configuration saturates hard at high load");
  checks.check(dp_resp.back() < local_resp.back(),
               "the paper's winner sustains high offered load better");
  checks.check(dp_resp.front() < 1.3 * 560.0 + 400.0,
               "at light load response approaches the uncontended service time");
  return checks.finish();
}
