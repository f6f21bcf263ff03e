// Shared plumbing for the figure/table reproduction binaries: matrix
// formatting, shape-check assertions, and the standard CLI.
//
// Every bench prints (a) the configuration in use, (b) the table/series the
// paper reports, and (c) a SHAPE CHECK section asserting the paper's
// qualitative claims. A failed claim makes the binary exit non-zero so the
// suite doubles as a regression harness for the reproduction.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "svg_chart.hpp"
#include "util/cli.hpp"

/// Each bench binary's body. common.cpp holds the one main(): it runs
/// bench_main and turns any std::exception (an unknown option, a malformed
/// number, a config validate() rejects) into an `error: …` line on stderr
/// and exit code 1, as the examples do.
int bench_main(int argc, char** argv);

namespace chicsim::bench {

/// Standard options shared by the experiment benches: bandwidth, seeds,
/// job count (scale-down knob for quick runs), staleness, threads.
void add_standard_options(util::CliParser& cli);

/// --csv, declared only by the benches that call maybe_write_matrix_csv.
void add_matrix_csv_option(util::CliParser& cli);

/// --svg-prefix, declared only by the benches that call maybe_write_svg.
void add_svg_option(util::CliParser& cli);

/// If any observed-run output (core::add_observed_run_options) was asked
/// for, run ONE representative cell (es, ds, the first seed) with the
/// observers attached and write the requested outputs. The matrix runs
/// stay unobserved, so figures are unaffected; this re-run costs one extra
/// simulation only when asked for.
void maybe_run_observed_cell(const util::CliParser& cli, core::SimulationConfig config,
                             core::EsAlgorithm es, core::DsAlgorithm ds);

/// Build the Table 1 base config from parsed standard options.
[[nodiscard]] core::SimulationConfig config_from_cli(const util::CliParser& cli);

/// Seed list from the --seeds=a,b,c option.
[[nodiscard]] std::vector<std::uint64_t> seeds_from_cli(const util::CliParser& cli);

/// Numbers from a comma-separated list option such as --sweep=2,5,10. A
/// malformed or empty entry throws, naming the option and the entry.
[[nodiscard]] std::vector<double> doubles_from_cli(const util::CliParser& cli,
                                                   const std::string& name);

/// Worker threads from --threads, for every run_cell and run_matrix call:
/// 1 runs serially (the default), 0 uses all hardware threads, N uses N
/// workers; negative throws. Results are bit-identical across thread counts
/// (see ExperimentRunner).
[[nodiscard]] unsigned threads_from_cli(const util::CliParser& cli);

/// Run the (es, ds) matrix on threads_from_cli(cli) workers.
[[nodiscard]] std::vector<core::CellResult> run_matrix_from_cli(
    const util::CliParser& cli, const core::ExperimentRunner& runner,
    const std::vector<core::EsAlgorithm>& es_algorithms,
    const std::vector<core::DsAlgorithm>& ds_algorithms);

/// Render one metric of a run matrix as the paper's figure layout: one row
/// per ES algorithm, one column per DS algorithm.
[[nodiscard]] std::string render_matrix(
    const std::vector<core::CellResult>& cells,
    const std::vector<core::EsAlgorithm>& es_algorithms,
    const std::vector<core::DsAlgorithm>& ds_algorithms,
    const std::function<double(const core::CellResult&)>& metric, const std::string& title,
    int precision);

/// Find a cell in a run matrix.
[[nodiscard]] const core::CellResult& cell_of(const std::vector<core::CellResult>& cells,
                                              core::EsAlgorithm es, core::DsAlgorithm ds);

/// If --csv was given, write the run matrix there (core::write_matrix_csv
/// format) and print where it went.
void maybe_write_matrix_csv(const util::CliParser& cli,
                            const std::vector<core::CellResult>& cells);

/// Build a figure-style grouped bar chart (one group per ES, one series per
/// DS) from a run matrix.
[[nodiscard]] GroupedBarChart make_matrix_chart(
    const std::vector<core::CellResult>& cells,
    const std::vector<core::EsAlgorithm>& es_algorithms,
    const std::vector<core::DsAlgorithm>& ds_algorithms,
    const std::function<double(const core::CellResult&)>& metric, const std::string& title,
    const std::string& y_label);

/// If --svg-prefix was given, write `chart` to <prefix><suffix>.svg.
void maybe_write_svg(const util::CliParser& cli, const std::string& suffix,
                     const GroupedBarChart& chart);

/// Shape-check collector: prints PASS/FAIL per claim and remembers failures.
class ShapeChecks {
 public:
  /// Record and print one claim.
  void check(bool ok, const std::string& claim);

  /// Print the summary line; returns the process exit code (0 = all pass).
  [[nodiscard]] int finish() const;

 private:
  int passed_ = 0;
  int failed_ = 0;
};

}  // namespace chicsim::bench
