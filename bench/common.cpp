#include "common.hpp"

#include <cstdio>
#include <exception>
#include <fstream>

#include "core/grid.hpp"
#include "core/report.hpp"
#include "core/site_metrics.hpp"
#include "core/spans.hpp"
#include "core/timeline.hpp"
#include "core/trace_export.hpp"
#include "sim/profiler.hpp"
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
                 "worker threads for the run matrix (1 = serial, 0 = all hardware threads)");
  cli.add_option("csv", "", "write raw cell metrics to this CSV file");
  cli.add_option("svg-prefix", "", "write the figure(s) as <prefix><name>.svg");
}

void add_observability_options(util::CliParser& cli) {
  cli.add_option("trace-out", "",
                 "write a Chrome trace (Perfetto-loadable JSON) of one observed cell");
  cli.add_option("site-metrics-out", "",
                 "write per-site/per-link metrics of one observed cell (.json or CSV)");
  cli.add_option("spans-csv", "", "write the per-job span table of one observed cell");
  cli.add_flag("profile", "print a wall-clock event-loop profile of the observed cell");
}

namespace {
std::ofstream open_output(const std::string& path, const char* flag) {
  std::ofstream out(path);
  if (!out) throw util::SimError(std::string("cannot write ") + flag + " file: " + path);
  return out;
}
}  // namespace

void maybe_run_observed_cell(const util::CliParser& cli, core::SimulationConfig config,
                             core::EsAlgorithm es, core::DsAlgorithm ds) {
  std::string trace_out = cli.get("trace-out");
  std::string metrics_out = cli.get("site-metrics-out");
  std::string spans_csv = cli.get("spans-csv");
  bool profile = cli.get_flag("profile");
  if (trace_out.empty() && metrics_out.empty() && spans_csv.empty() && !profile) return;

  config.es = es;
  config.ds = ds;
  config.seed = seeds_from_cli(cli).front();
  std::printf("\nobserved cell: es=%s ds=%s seed=%llu\n", core::to_string(es),
              core::to_string(ds), static_cast<unsigned long long>(config.seed));

  core::Grid grid(config);
  core::SpanBuilder spans;
  core::SiteMetricsObserver site_metrics(grid.topology(), &grid.routing());
  grid.add_observer(&spans);
  grid.add_observer(&site_metrics);
  core::TimelineRecorder timeline(grid, 60.0);
  sim::EngineProfiler profiler;
  if (profile) grid.engine().set_profiler(&profiler);
  grid.run();

  if (!trace_out.empty()) {
    auto out = open_output(trace_out, "--trace-out");
    core::write_chrome_trace(out, spans, grid.topology(), grid.site_count(),
                             &grid.routing(), timeline.samples());
    std::printf("chrome trace written to %s (load in ui.perfetto.dev)\n",
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    auto out = open_output(metrics_out, "--site-metrics-out");
    if (metrics_out.ends_with(".json")) {
      site_metrics.registry().write_json(out);
    } else {
      site_metrics.registry().write_csv(out);
    }
    std::printf("site/link metrics written to %s\n", metrics_out.c_str());
  }
  if (!spans_csv.empty()) {
    auto out = open_output(spans_csv, "--spans-csv");
    spans.write_csv(out);
    std::printf("per-job spans written to %s\n", spans_csv.c_str());
  }
  if (profile) {
    std::printf("\nwall-clock event-loop profile (observed cell):\n%s",
                profiler.render_table().c_str());
  }
}

util::GroupedBarChart make_matrix_chart(
    const std::vector<core::CellResult>& cells,
    const std::vector<core::EsAlgorithm>& es_algorithms,
    const std::vector<core::DsAlgorithm>& ds_algorithms,
    const std::function<double(const core::CellResult&)>& metric, const std::string& title,
    const std::string& y_label) {
  util::GroupedBarChart chart(title, y_label);
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
                     const util::GroupedBarChart& chart) {
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

std::vector<core::CellResult> run_matrix_from_cli(
    const util::CliParser& cli, const core::ExperimentRunner& runner,
    const std::vector<core::EsAlgorithm>& es_algorithms,
    const std::vector<core::DsAlgorithm>& ds_algorithms) {
  long threads = cli.get_int("threads");
  if (threads < 0) throw util::SimError("--threads must be >= 0");
  return runner.run_matrix(es_algorithms, ds_algorithms, static_cast<unsigned>(threads));
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
