#include "common.hpp"

#include <cstdio>
#include <exception>
#include <fstream>

#include "core/grid.hpp"
#include "core/report.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace chicsim::bench {

void add_standard_options(util::CliParser& cli) {
  cli.add_option("bandwidth", "10", "nominal link bandwidth in MB/s (Table 1: 10 or 100)");
  cli.add_option("jobs", "6000", "total jobs (Table 1: 6000; lower for quick runs)");
  // The paper averages 3 seeds (§5.2); the default here is 5 because the
  // JobLocal-vs-JobLeastLoaded gap without replication is within cross-seed
  // noise at 3 — see EXPERIMENTS.md. --seeds=101,202,303 reproduces the
  // paper's exact protocol.
  cli.add_option("seeds", "101,202,303,404,505", "comma-separated seed list (paper: 3 seeds)");
  cli.add_option("staleness", "120", "load information staleness in seconds");
  cli.add_option("threads", "1",
                 "worker threads for the simulation runs (1 = serial, 0 = all hardware threads)");
  cli.add_option("csv", "", "write raw cell metrics to this CSV file");
  cli.add_option("svg-prefix", "", "write the figure(s) as <prefix><name>.svg");
}

void maybe_run_observed_cell(const util::CliParser& cli, core::SimulationConfig config,
                             core::EsAlgorithm es, core::DsAlgorithm ds) {
  if (!core::observed_run_requested(cli)) return;
  config.es = es;
  config.ds = ds;
  config.seed = seeds_from_cli(cli).front();
  std::printf("\nobserved cell: es=%s ds=%s seed=%llu\n", core::to_string(es),
              core::to_string(ds), static_cast<unsigned long long>(config.seed));
  core::Grid grid(config);
  // The timeline samples every 60 s, with no sample after the run.
  core::run_observed(cli, grid, 60.0, /*final_sample=*/false);
}

GroupedBarChart make_matrix_chart(
    const std::vector<core::CellResult>& cells,
    const std::vector<core::EsAlgorithm>& es_algorithms,
    const std::vector<core::DsAlgorithm>& ds_algorithms,
    const std::function<double(const core::CellResult&)>& metric, const std::string& title,
    const std::string& y_label) {
  GroupedBarChart chart(title, y_label);
  std::vector<std::string> groups;
  for (auto es : es_algorithms) groups.emplace_back(core::to_string(es));
  chart.set_groups(std::move(groups));
  for (auto ds : ds_algorithms) {
    std::vector<double> values;
    for (auto es : es_algorithms) values.push_back(metric(cell_of(cells, es, ds)));
    chart.add_series(core::to_string(ds), std::move(values));
  }
  return chart;
}

void maybe_write_svg(const util::CliParser& cli, const std::string& suffix,
                     const GroupedBarChart& chart) {
  std::string prefix = cli.get("svg-prefix");
  if (prefix.empty()) return;
  std::string path = prefix + suffix + ".svg";
  std::ofstream out(path);
  if (!out) throw util::SimError("cannot write --svg-prefix file: " + path);
  out << chart.render_svg();
  std::printf("figure written to %s\n", path.c_str());
}

void maybe_write_matrix_csv(const util::CliParser& cli,
                            const std::vector<core::CellResult>& cells) {
  std::string path = cli.get("csv");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw util::SimError("cannot write --csv file: " + path);
  core::write_matrix_csv(cells, out);
  std::printf("\nraw cell metrics written to %s\n", path.c_str());
}

core::SimulationConfig config_from_cli(const util::CliParser& cli) {
  core::SimulationConfig cfg;
  cfg.link_bandwidth_mbps = cli.get_double("bandwidth");
  cfg.total_jobs = static_cast<std::size_t>(cli.get_int("jobs"));
  cfg.info_staleness_s = cli.get_double("staleness");
  cfg.validate();
  return cfg;
}

std::vector<std::uint64_t> seeds_from_cli(const util::CliParser& cli) {
  std::vector<std::uint64_t> seeds;
  for (const auto& piece : util::split(cli.get("seeds"), ',')) {
    auto v = util::parse_int(piece);
    if (!v || *v < 0) throw util::SimError("bad --seeds entry: " + piece);
    seeds.push_back(static_cast<std::uint64_t>(*v));
  }
  if (seeds.empty()) throw util::SimError("--seeds must list at least one seed");
  return seeds;
}

std::vector<double> doubles_from_cli(const util::CliParser& cli, const std::string& name) {
  std::vector<double> values;
  for (const auto& piece : util::split(cli.get(name), ',')) {
    auto v = util::parse_double(piece);
    if (!v) throw util::SimError("bad --" + name + " entry: '" + piece + "'");
    values.push_back(*v);
  }
  return values;
}

unsigned threads_from_cli(const util::CliParser& cli) {
  long long threads = cli.get_int("threads");
  if (threads < 0) throw util::SimError("--threads must be >= 0");
  return static_cast<unsigned>(threads);
}

std::vector<core::CellResult> run_matrix_from_cli(
    const util::CliParser& cli, const core::ExperimentRunner& runner,
    const std::vector<core::EsAlgorithm>& es_algorithms,
    const std::vector<core::DsAlgorithm>& ds_algorithms) {
  return runner.run_matrix(es_algorithms, ds_algorithms, threads_from_cli(cli));
}

std::string render_matrix(const std::vector<core::CellResult>& cells,
                          const std::vector<core::EsAlgorithm>& es_algorithms,
                          const std::vector<core::DsAlgorithm>& ds_algorithms,
                          const std::function<double(const core::CellResult&)>& metric,
                          const std::string& title, int precision) {
  std::vector<std::string> columns{"ES \\ DS"};
  for (auto ds : ds_algorithms) columns.emplace_back(core::to_string(ds));
  util::TablePrinter table(columns);
  for (auto es : es_algorithms) {
    std::vector<std::string> row{core::to_string(es)};
    for (auto ds : ds_algorithms) {
      row.push_back(util::format_fixed(metric(cell_of(cells, es, ds)), precision));
    }
    table.add_row(std::move(row));
  }
  return title + "\n" + table.render();
}

const core::CellResult& cell_of(const std::vector<core::CellResult>& cells,
                                core::EsAlgorithm es, core::DsAlgorithm ds) {
  for (const auto& cell : cells) {
    if (cell.es == es && cell.ds == ds) return cell;
  }
  throw util::SimError("no such cell in the run matrix");
}

void ShapeChecks::check(bool ok, const std::string& claim) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", claim.c_str());
  if (ok) {
    ++passed_;
  } else {
    ++failed_;
  }
}

int ShapeChecks::finish() const {
  std::printf("shape checks: %d passed, %d failed\n", passed_, failed_);
  return failed_ == 0 ? 0 : 1;
}

}  // namespace chicsim::bench

int main(int argc, char** argv) {
  try {
    return bench_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
