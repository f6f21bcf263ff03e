// Ablation — the network contention model.
//
// The paper's model divides link bandwidth among concurrent transfers
// (EqualShare here). This bench compares the paper model against max-min
// fair sharing and against no contention at all, for the data-heavy
// JobLocal scheduler and the data-light JobDataPresent + replication
// combination. Expected shape: the sharing *flavour* (EqualShare vs MaxMin)
// barely matters, modelling contention at all matters a great deal for
// data-heavy schedulers, and the paper's winner is robust to all three.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_contention", "compare bandwidth-sharing models");
  bench::add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  struct Row {
    const char* name;
    net::SharePolicy policy;
    double local = 0.0;
    double dp = 0.0;
  };
  std::vector<Row> rows{{"EqualShare (paper)", net::SharePolicy::EqualShare},
                        {"MaxMin", net::SharePolicy::MaxMin},
                        {"NoContention", net::SharePolicy::NoContention}};

  for (auto& row : rows) {
    core::SimulationConfig cfg = base;
    cfg.share_policy = row.policy;
    core::ExperimentRunner runner(cfg, seeds);
    row.local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, threads)
                    .avg_response_time_s;
    row.dp = runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
                 .avg_response_time_s;
  }

  std::printf("=== Ablation: bandwidth sharing model (%zu jobs, %zu seeds) ===\n\n",
              base.total_jobs, seeds.size());
  util::TablePrinter table({"sharing model", "JobLocal+None (s)", "JobDataPresent+Repl (s)"});
  for (const auto& row : rows) {
    table.add_row({row.name, util::format_fixed(row.local, 1), util::format_fixed(row.dp, 1)});
  }
  std::fputs(table.render().c_str(), stdout);

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  checks.check(std::abs(rows[0].local - rows[1].local) / rows[0].local < 0.15,
               "EqualShare vs MaxMin barely changes the data-heavy scheduler");
  checks.check(rows[0].local > rows[2].local,
               "ignoring contention flatters data-heavy scheduling (JobLocal)");
  // Under either contention model the paper's winner holds; with contention
  // switched off data movement is nearly free and JobLocal catches up — the
  // same effect Figure 5 shows for the 10x-faster network.
  checks.check(rows[0].dp < rows[0].local, "the paper's winner holds under EqualShare");
  checks.check(rows[1].dp < rows[1].local, "the paper's winner holds under MaxMin");
  checks.check(std::abs(rows[2].dp - rows[2].local) / rows[2].local < 0.25,
               "without contention there is no clear winner (Figure 5's fast-network "
               "regime)");
  return checks.finish();
}
