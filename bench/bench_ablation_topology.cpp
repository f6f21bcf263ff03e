// Ablation — network shape and per-user access locality.
//
// Two what-ifs the paper's single scenario cannot answer:
//  (a) does the GriPhyN hierarchy matter, or would a flat star behave the
//      same? (The hierarchy concentrates cross-region traffic on backbone
//      links; the star gives every pair a two-hop path.)
//  (b) what happens when users develop *personal* hot sets instead of one
//      community focus? With 120 users drawing from 120 different
//      permutations, aggregate demand flattens toward uniform: per-site
//      caches stop being shared across a site's users and JobLocal's hit
//      rate collapses, while data-affinity scheduling is indifferent to
//      *whose* demand it follows — the winner's margin widens.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_topology",
                      "network shape + per-user focus what-ifs");
  bench::add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);
  bench::ShapeChecks checks;

  std::printf("=== Ablation: network shape (%zu jobs, %zu seeds) ===\n\n", base.total_jobs,
              seeds.size());
  {
    util::TablePrinter table({"topology", "JobLocal+None (s)", "JobDataPresent+Repl (s)"});
    double star_dp = 0.0;
    double hier_dp = 0.0;
    for (core::TopologyKind kind : {core::TopologyKind::Hierarchy, core::TopologyKind::Star}) {
      core::SimulationConfig cfg = base;
      cfg.topology = kind;
      core::ExperimentRunner runner(cfg, seeds);
      double local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, threads)
                         .avg_response_time_s;
      double dp =
          runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
              .avg_response_time_s;
      table.add_row({core::to_string(kind), util::format_fixed(local, 1),
                     util::format_fixed(dp, 1)});
      (kind == core::TopologyKind::Star ? star_dp : hier_dp) = dp;
    }
    std::fputs(table.render().c_str(), stdout);
    checks.check(std::min(star_dp, hier_dp) > 0.0 &&
                     std::max(star_dp, hier_dp) / std::min(star_dp, hier_dp) < 1.25,
                 "the paper's winner is robust to the network shape");
  }

  std::printf("\n=== Ablation: per-user focus (%zu jobs, %zu seeds) ===\n\n", base.total_jobs,
              seeds.size());
  {
    util::TablePrinter table(
        {"user focus", "JobLocal+None (s)", "JobDataPresent+Repl (s)", "DP advantage"});
    std::vector<double> advantage;
    for (double focus : {0.0, 0.5, 1.0}) {
      core::SimulationConfig cfg = base;
      cfg.user_focus = focus;
      core::ExperimentRunner runner(cfg, seeds);
      double local = runner.run_cell(EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing, threads)
                         .avg_response_time_s;
      double dp =
          runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads)
              .avg_response_time_s;
      table.add_row({util::format_fixed(focus, 1), util::format_fixed(local, 1),
                     util::format_fixed(dp, 1), util::format_fixed(local / dp, 2)});
      advantage.push_back(local / dp);
    }
    std::fputs(table.render().c_str(), stdout);
    checks.check(advantage.front() > 1.2,
                 "under the paper's community focus, data-aware scheduling wins clearly");
    checks.check(advantage.back() > advantage.front(),
                 "personal hot sets widen the winner's margin (cross-user cache "
                 "sharing collapses; data affinity is indifferent)");
  }

  std::printf("\n");
  return checks.finish();
}
