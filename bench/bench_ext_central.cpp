// Extension — centralized vs distributed External Scheduling.
//
// §1 motivates decentralization: "the large number of jobs and resources
// means that centralized algorithms may be ineffective"; the conclusion
// lists "highly decentralized implementations" as a key advantage of the
// decoupled design. This bench makes that concrete: the same JobDataPresent
// + DataLeastLoaded policy runs with one ES per site (decisions
// instantaneous) versus a single central ES that serialises every decision
// at a fixed per-decision overhead. The placement wait a job spends queued
// at the central scheduler is reported separately.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ext_central",
                      "centralized vs distributed scheduling (the decentralization claim)");
  bench::add_standard_options(cli);
  cli.add_option("overheads", "0.1,1,5,15", "central per-decision overheads to test (s)");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  base.es = EsAlgorithm::JobDataPresent;
  base.ds = DsAlgorithm::DataLeastLoaded;
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  core::ExperimentRunner dist_runner(base, seeds);
  auto dist = dist_runner.run_cell(base.es, base.ds, threads);

  std::printf("=== Extension: ES deployment (%zu jobs, %zu seeds, "
              "JobDataPresent+DataLeastLoaded) ===\n\n",
              base.total_jobs, seeds.size());
  util::TablePrinter table(
      {"deployment", "response (s)", "placement wait (s)", "slowdown vs distributed"});
  table.add_row({"distributed (paper)", util::format_fixed(dist.avg_response_time_s, 1),
                 util::format_fixed(dist.avg_queue_wait_s * 0.0, 1), "1.00"});

  std::vector<double> slowdowns;
  for (double overhead : bench::doubles_from_cli(cli, "overheads")) {
    core::SimulationConfig cfg = base;
    cfg.es_mapping = core::EsMapping::Centralized;
    cfg.central_decision_overhead_s = overhead;
    core::ExperimentRunner runner(cfg, seeds);
    auto cell = runner.run_cell(cfg.es, cfg.ds, threads);
    double placement = 0.0;
    for (const auto& m : cell.per_seed) placement += m.avg_placement_wait_s;
    placement /= static_cast<double>(cell.per_seed.size());
    double slowdown = cell.avg_response_time_s / dist.avg_response_time_s;
    table.add_row({"central, " + util::format_fixed(overhead, 1) + " s/decision",
                   util::format_fixed(cell.avg_response_time_s, 1),
                   util::format_fixed(placement, 1), util::format_fixed(slowdown, 2)});
    slowdowns.push_back(slowdown);
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(slowdowns.front() < 1.15,
               "a fast central scheduler is competitive (decisions are not the "
               "bottleneck yet)");
  checks.check(slowdowns.back() > 1.5,
               "a slow central scheduler becomes the bottleneck — the paper's "
               "decentralization argument");
  bool monotone = true;
  for (std::size_t i = 1; i < slowdowns.size(); ++i) {
    monotone = monotone && slowdowns[i] >= slowdowns[i - 1] * 0.95;
  }
  checks.check(monotone, "slowdown grows with per-decision overhead");
  return checks.finish();
}
