// Human- and machine-readable reports over completed runs.
//
// Collects the rendering logic shared by the examples and bench binaries:
// a run summary, a per-site breakdown (placement balance, storage hit
// rates, compute utilization), CSV export of run/cell metrics for
// external plotting, and the observed run that writes the trace exports.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/grid.hpp"
#include "util/cli.hpp"

namespace chicsim::core {

/// Multi-line text summary of one run's headline metrics.
[[nodiscard]] std::string render_run_summary(const RunMetrics& metrics);

/// Per-site breakdown table of a finished Grid: jobs dispatched/completed,
/// compute elements, utilization, storage hit rate, evictions.
[[nodiscard]] std::string render_site_table(const Grid& grid);

/// CSV row set for one run (single header + single row).
void write_metrics_csv(const RunMetrics& metrics, std::ostream& out);

/// CSV export of an experiment matrix: one row per (es, ds) cell.
void write_matrix_csv(const std::vector<CellResult>& cells, std::ostream& out);

/// CSV export of every job's record (ids, placement, timestamps, input
/// megabytes) — the raw material for response-time distribution analysis.
void write_jobs_csv(const Grid& grid, std::ostream& out);

/// Declare the observed-run outputs `simulate` and the benches share
/// (--trace-out, --site-metrics-out, --spans-csv, --profile), and tell
/// whether a parsed `cli` asked for any of them.
void add_observed_run_options(util::CliParser& cli);
[[nodiscard]] bool observed_run_requested(const util::CliParser& cli);

/// Run `grid` with only the observers the requested outputs need, call
/// `after_run`, then write each requested file (`timeline_csv` first),
/// saying where it went, and print the profile. The timeline, recorded for
/// --trace-out or `timeline_csv`, samples every `timeline_period_s` and, if
/// `final_sample`, once more after the run. An unwritable file throws.
void run_observed(const util::CliParser& cli, Grid& grid, util::SimTime timeline_period_s,
                  bool final_sample, const std::string& timeline_csv = {},
                  const std::function<void()>& after_run = {});

}  // namespace chicsim::core
