// Figure 5 — "Response times for different bandwidth scenarios (replication
// algorithm DataLeastLoaded)": the four ES algorithms at 10 MB/s vs
// 100 MB/s.
//
// Checks the paper's findings: data-transfer-heavy algorithms improve
// dramatically with a 10x faster network; JobDataPresent is roughly
// bandwidth-insensitive; and at 100 MB/s there is no clear winner between
// JobLocal and JobDataPresent.
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_fig5_bandwidth",
                      "reproduce Figure 5 (response time vs network bandwidth)");
  bench::add_standard_options(cli);
  bench::add_svg_option(cli);
  cli.add_option("fast-bandwidth", "100", "scenario-2 bandwidth in MB/s");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig cfg = bench::config_from_cli(cli);
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  double slow_bw = cfg.link_bandwidth_mbps;
  double fast_bw = cli.get_double("fast-bandwidth");
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);

  auto run_scenario = [&](double bw) {
    core::SimulationConfig scenario = cfg;
    scenario.link_bandwidth_mbps = bw;
    core::ExperimentRunner runner(scenario, seeds);
    std::vector<core::CellResult> cells;
    for (EsAlgorithm es : core::paper_es_algorithms()) {
      cells.push_back(runner.run_cell(es, DsAlgorithm::DataLeastLoaded, threads));
    }
    return cells;
  };
  auto slow = run_scenario(slow_bw);
  auto fast = run_scenario(fast_bw);

  std::printf("=== Figure 5 (DS = DataLeastLoaded, %zu jobs, %zu seeds) ===\n\n",
              cfg.total_jobs, seeds.size());
  util::TablePrinter table({"ES algorithm",
                            util::format_fixed(slow_bw, 0) + " MB/s",
                            util::format_fixed(fast_bw, 0) + " MB/s", "speedup"});
  for (std::size_t i = 0; i < slow.size(); ++i) {
    table.add_row({core::to_string(slow[i].es),
                   util::format_fixed(slow[i].avg_response_time_s, 1),
                   util::format_fixed(fast[i].avg_response_time_s, 1),
                   util::format_fixed(
                       slow[i].avg_response_time_s / fast[i].avg_response_time_s, 2)});
  }
  std::fputs(table.render().c_str(), stdout);

  {
    bench::GroupedBarChart chart("Figure 5: response times for different bandwidth scenarios",
                                "response time (s)");
    std::vector<std::string> groups;
    for (const auto& cell : slow) groups.emplace_back(core::to_string(cell.es));
    chart.set_groups(std::move(groups));
    std::vector<double> slow_values;
    std::vector<double> fast_values;
    for (std::size_t i = 0; i < slow.size(); ++i) {
      slow_values.push_back(slow[i].avg_response_time_s);
      fast_values.push_back(fast[i].avg_response_time_s);
    }
    chart.add_series(util::format_fixed(slow_bw, 0) + " MB/s", std::move(slow_values));
    chart.add_series(util::format_fixed(fast_bw, 0) + " MB/s", std::move(fast_values));
    bench::maybe_write_svg(cli, "fig5", chart);
  }

  auto rt_at = [](const std::vector<core::CellResult>& cells, EsAlgorithm es) {
    for (const auto& c : cells) {
      if (c.es == es) return c.avg_response_time_s;
    }
    return 0.0;
  };

  std::printf("\n=== shape checks ===\n");
  bench::ShapeChecks checks;
  for (EsAlgorithm es :
       {EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobLocal}) {
    double gain = rt_at(slow, es) / rt_at(fast, es);
    checks.check(gain > 1.2, std::string(to_string(es)) +
                                 " improves dramatically with 10x bandwidth");
  }
  double dp_gain = rt_at(slow, EsAlgorithm::JobDataPresent) /
                   rt_at(fast, EsAlgorithm::JobDataPresent);
  checks.check(std::abs(dp_gain - 1.0) < 0.25,
               "JobDataPresent performs consistently across bandwidths");
  double local_fast = rt_at(fast, EsAlgorithm::JobLocal);
  double dp_fast = rt_at(fast, EsAlgorithm::JobDataPresent);
  checks.check(std::abs(local_fast - dp_fast) / std::max(local_fast, dp_fast) < 0.25,
               "at high bandwidth JobLocal is about as good as JobDataPresent "
               "(no clear winner)");
  return checks.finish();
}
