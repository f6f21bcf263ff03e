#include "core/report.hpp"

#include <ostream>

#include "util/csv.hpp"
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
  line("peak calendar heap",
       std::to_string(m.peak_heap_size) + " (" + std::to_string(m.queue_compactions) +
           " compactions)");
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

namespace {

const std::vector<std::string>& metrics_columns() {
  static const std::vector<std::string> columns{
      "jobs_completed",       "makespan_s",           "avg_response_time_s",
      "p95_response_time_s",  "avg_queue_wait_s",     "avg_data_wait_s",
      "avg_compute_s",        "avg_data_per_job_mb",  "avg_fetch_per_job_mb",
      "avg_replication_per_job_mb", "idle_fraction",  "utilization",
      "remote_fetches",       "replications",         "cache_evictions",
      "jobs_run_at_origin"};
  return columns;
}

std::vector<std::string> metrics_cells(const RunMetrics& m) {
  return {std::to_string(m.jobs_completed),
          util::format_fixed(m.makespan_s, 3),
          util::format_fixed(m.avg_response_time_s, 3),
          util::format_fixed(m.p95_response_time_s, 3),
          util::format_fixed(m.avg_queue_wait_s, 3),
          util::format_fixed(m.avg_data_wait_s, 3),
          util::format_fixed(m.avg_compute_s, 3),
          util::format_fixed(m.avg_data_per_job_mb, 3),
          util::format_fixed(m.avg_fetch_per_job_mb, 3),
          util::format_fixed(m.avg_replication_per_job_mb, 3),
          util::format_fixed(m.idle_fraction, 5),
          util::format_fixed(m.utilization, 5),
          std::to_string(m.remote_fetches),
          std::to_string(m.replications),
          std::to_string(m.cache_evictions),
          std::to_string(m.jobs_run_at_origin)};
}

}  // namespace

void write_metrics_csv(const RunMetrics& metrics, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.header(metrics_columns());
  csv.row(metrics_cells(metrics));
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

}  // namespace chicsim::core
