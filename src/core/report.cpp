#include "core/report.hpp"

#include <cstdio>
#include <fstream>
#include <optional>

#include "core/site_metrics.hpp"
#include "core/spans.hpp"
#include "core/timeline.hpp"
#include "core/trace_export.hpp"
#include "sim/profiler.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace chicsim::core {

std::string render_run_summary(const RunMetrics& m) {
  std::string out;
  auto line = [&out](const std::string& k, const std::string& v) {
    out += "  " + k;
    if (k.size() < 28) out.append(28 - k.size(), ' ');
    out += ": " + v + "\n";
  };
  line("jobs completed", std::to_string(m.jobs_completed));
  line("makespan", util::format_fixed(m.makespan_s, 0) + " s");
  line("avg response time / job", util::format_fixed(m.avg_response_time_s, 1) + " s");
  line("p95 response time", util::format_fixed(m.p95_response_time_s, 1) + " s");
  line("avg queue wait", util::format_fixed(m.avg_queue_wait_s, 1) + " s");
  line("avg data wait", util::format_fixed(m.avg_data_wait_s, 1) + " s");
  line("avg compute", util::format_fixed(m.avg_compute_s, 1) + " s");
  line("data transferred / job",
       util::format_fixed(m.avg_data_per_job_mb, 1) + " MB (fetch " +
           util::format_fixed(m.avg_fetch_per_job_mb, 1) + " + replication " +
           util::format_fixed(m.avg_replication_per_job_mb, 1) + ")");
  line("processor idle time", util::format_fixed(100.0 * m.idle_fraction, 1) + " %");
  line("remote fetches", std::to_string(m.remote_fetches));
  line("replications", std::to_string(m.replications));
  line("cache evictions", std::to_string(m.cache_evictions));
  line("jobs run at origin", std::to_string(m.jobs_run_at_origin));
  line("events executed", std::to_string(m.events_executed));
  line("calendar pushes/cancels",
       std::to_string(m.event_pushes) + " / " + std::to_string(m.event_cancels));
  line("peak calendar heap", std::to_string(m.peak_heap_size));
  line("reallocations", std::to_string(m.reallocations) + " (rescheduled " +
                            std::to_string(m.flows_rescheduled) + ")");
  // Fault/recovery block only when something actually went wrong; a
  // fault-free run's summary is byte-identical to pre-fault builds.
  if (m.site_crashes + m.transfer_retries + m.jobs_resubmitted + m.output_retries +
          m.catalog_invalidations + m.transfers_aborted >
      0) {
    line("site crashes / recoveries",
         std::to_string(m.site_crashes) + " / " + std::to_string(m.site_recoveries));
    line("jobs resubmitted", std::to_string(m.jobs_resubmitted));
    line("transfer retries", std::to_string(m.transfer_retries) + " (output " +
                                 std::to_string(m.output_retries) + ", aborted " +
                                 std::to_string(m.transfers_aborted) + ")");
    line("catalog invalidations", std::to_string(m.catalog_invalidations));
  }
  return out;
}

std::string render_site_table(const Grid& grid) {
  util::TablePrinter table({"site", "CEs", "dispatched", "completed", "utilization",
                            "hit rate", "evictions", "stored (GB)"});
  util::SimTime makespan = grid.metrics().makespan_s;
  for (data::SiteIndex s = 0; s < grid.site_count(); ++s) {
    const site::Site& site = grid.site_at(s);
    const auto& st = site.storage().stats();
    double lookups = static_cast<double>(st.hits + st.misses);
    double hit_rate = lookups > 0.0 ? static_cast<double>(st.hits) / lookups : 0.0;
    table.add_row({std::to_string(s), std::to_string(site.compute().size()),
                   std::to_string(site.jobs_dispatched_here()),
                   std::to_string(site.jobs_completed_here()),
                   util::format_fixed(site.compute().utilization(makespan), 3),
                   util::format_fixed(hit_rate, 3), std::to_string(st.evictions),
                   util::format_fixed(site.storage().used_mb() / 1000.0, 1)});
  }
  return table.render();
}

void write_metrics_csv(const RunMetrics& m, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.header({"jobs_completed", "makespan_s", "avg_response_time_s", "p95_response_time_s",
              "avg_queue_wait_s", "avg_data_wait_s", "avg_compute_s", "avg_data_per_job_mb",
              "avg_fetch_per_job_mb", "avg_replication_per_job_mb", "idle_fraction",
              "utilization", "remote_fetches", "replications", "cache_evictions",
              "jobs_run_at_origin"});
  csv.row({std::to_string(m.jobs_completed), util::format_fixed(m.makespan_s, 3),
           util::format_fixed(m.avg_response_time_s, 3),
           util::format_fixed(m.p95_response_time_s, 3),
           util::format_fixed(m.avg_queue_wait_s, 3), util::format_fixed(m.avg_data_wait_s, 3),
           util::format_fixed(m.avg_compute_s, 3), util::format_fixed(m.avg_data_per_job_mb, 3),
           util::format_fixed(m.avg_fetch_per_job_mb, 3),
           util::format_fixed(m.avg_replication_per_job_mb, 3),
           util::format_fixed(m.idle_fraction, 5), util::format_fixed(m.utilization, 5),
           std::to_string(m.remote_fetches), std::to_string(m.replications),
           std::to_string(m.cache_evictions), std::to_string(m.jobs_run_at_origin)});
}

void write_matrix_csv(const std::vector<CellResult>& cells, std::ostream& out) {
  util::CsvWriter csv(out);
  std::vector<std::string> columns{"es", "ds", "seeds",
                                   "avg_response_time_s", "avg_data_per_job_mb",
                                   "avg_fetch_per_job_mb", "avg_replication_per_job_mb",
                                   "idle_fraction", "makespan_s", "response_cv"};
  csv.header(columns);
  for (const CellResult& cell : cells) {
    csv.row({to_string(cell.es), to_string(cell.ds), std::to_string(cell.seeds_run),
             util::format_fixed(cell.avg_response_time_s, 3),
             util::format_fixed(cell.avg_data_per_job_mb, 3),
             util::format_fixed(cell.avg_fetch_per_job_mb, 3),
             util::format_fixed(cell.avg_replication_per_job_mb, 3),
             util::format_fixed(cell.idle_fraction, 5),
             util::format_fixed(cell.makespan_s, 3),
             util::format_fixed(cell.response_cv, 5)});
  }
}

void write_jobs_csv(const Grid& grid, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.header({"job_id", "user", "origin_site", "exec_site", "input_mb", "runtime_s",
              "submit_s", "dispatch_s", "data_ready_s", "start_s", "compute_done_s",
              "finish_s", "response_s"});
  std::size_t total = grid.config().total_jobs;
  for (site::JobId id = 1; id <= total; ++id) {
    const site::Job& job = grid.job(id);
    double input_mb = 0.0;
    for (auto d : job.inputs) input_mb += grid.datasets().size_mb(d);
    csv.row({std::to_string(job.id), std::to_string(job.user),
             std::to_string(job.origin_site), std::to_string(job.exec_site),
             util::format_fixed(input_mb, 1), util::format_fixed(job.runtime_s, 3),
             util::format_fixed(job.submit_time, 3),
             util::format_fixed(job.dispatch_time, 3),
             util::format_fixed(job.data_ready_time, 3),
             util::format_fixed(job.start_time, 3),
             util::format_fixed(job.compute_done_time, 3),
             util::format_fixed(job.finish_time, 3),
             util::format_fixed(job.response_time(), 3)});
  }
}

void add_observed_run_options(util::CliParser& cli) {
  cli.add_option("trace-out", "", "write a Chrome trace (Perfetto-loadable JSON) of the run");
  cli.add_option("site-metrics-out", "",
                 "write per-site/per-link metrics of the run (.json or CSV by extension)");
  cli.add_option("spans-csv", "", "write the per-job span table of the run");
  cli.add_flag("profile", "print a wall-clock event-loop profile after the run");
}

bool observed_run_requested(const util::CliParser& cli) {
  return !cli.get("trace-out").empty() || !cli.get("site-metrics-out").empty() ||
         !cli.get("spans-csv").empty() || cli.get_flag("profile");
}

namespace {
/// Write one output unless `path` is empty, then print `done` with the path.
void write_output(const std::string& path, const char* flag, const char* done,
                  const std::function<void(std::ostream&)>& fill) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw util::SimError(std::string("cannot write ") + flag + " file: " + path);
  fill(out);
  std::printf(done, path.c_str());
}
}  // namespace

void run_observed(const util::CliParser& cli, Grid& grid, util::SimTime timeline_period_s,
                  bool final_sample, const std::string& timeline_csv,
                  const std::function<void()>& after_run) {
  std::string trace_out = cli.get("trace-out");
  std::string metrics_out = cli.get("site-metrics-out");
  std::string spans_csv = cli.get("spans-csv");
  std::optional<TimelineRecorder> timeline;
  if (!trace_out.empty() || !timeline_csv.empty()) timeline.emplace(grid, timeline_period_s);
  std::optional<SpanBuilder> spans;
  if (!trace_out.empty() || !spans_csv.empty()) grid.add_observer(&spans.emplace());
  std::optional<SiteMetricsObserver> metrics;
  if (!metrics_out.empty()) grid.add_observer(&metrics.emplace(grid.topology(), &grid.routing()));
  sim::EngineProfiler profiler;
  if (cli.get_flag("profile")) grid.engine().set_profiler(&profiler);
  grid.run();
  grid.engine().set_profiler(nullptr);
  if (after_run) after_run();

  if (timeline && final_sample) timeline->sample_now();
  write_output(timeline_csv, "--timeline-csv", "timeline written to %s\n",
               [&](std::ostream& out) { timeline->write_csv(out); });
  write_output(trace_out, "--trace-out", "chrome trace written to %s (load in ui.perfetto.dev)\n",
               [&](std::ostream& out) {
                 write_chrome_trace(out, *spans, grid.topology(), grid.site_count(),
                                    &grid.routing(), timeline->samples());
               });
  write_output(metrics_out, "--site-metrics-out", "site/link metrics written to %s\n",
               [&](std::ostream& out) {
                 if (metrics_out.ends_with(".json")) {
                   metrics->registry().write_json(out);
                 } else {
                   metrics->registry().write_csv(out);
                 }
               });
  write_output(spans_csv, "--spans-csv", "per-job spans written to %s\n",
               [&](std::ostream& out) { spans->write_csv(out); });
  if (cli.get_flag("profile")) {
    std::printf("\nwall-clock event-loop profile:\n%s", profiler.render_table().c_str());
  }
}

}  // namespace chicsim::core
