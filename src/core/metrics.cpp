#include "core/metrics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace chicsim::core {

void MetricsCollector::on_event(const GridEvent& e) {
  switch (e.type) {
    case GridEventType::JobCompleted:
      CHICSIM_ASSERT_MSG(job_lookup_, "metrics collector has no job table");
      record_job(job_lookup_(e.job));
      break;
    case GridEventType::FetchStarted: ++counts_.remote_fetches; break;
    case GridEventType::ReplicationStarted: ++counts_.replications; break;
    case GridEventType::SiteFailed: ++counts_.site_crashes; break;
    case GridEventType::SiteRecovered: ++counts_.site_recoveries; break;
    case GridEventType::JobResubmitted: ++counts_.jobs_resubmitted; break;
    case GridEventType::TransferRetried:
      // No dataset marks an output-return retry (see GridEventType).
      if (e.dataset == data::kNoDataset) {
        ++counts_.output_retries;
      } else {
        ++counts_.transfer_retries;
      }
      break;
    case GridEventType::CatalogInvalidated: ++counts_.catalog_invalidations; break;
    default: break;
  }
}

void MetricsCollector::record_job(const site::Job& job) {
  CHICSIM_ASSERT_MSG(job.state == site::JobState::Completed, "recording unfinished job");
  CHICSIM_ASSERT_MSG(job.submit_time >= 0.0 && job.finish_time >= job.submit_time,
                     "job timestamps inconsistent");
  response_.add(job.response_time());
  placement_wait_.add(job.dispatch_time - job.submit_time);
  queue_wait_.add(job.start_time - job.dispatch_time);
  data_wait_.add(job.data_ready_time - job.dispatch_time);
  compute_.add(job.compute_done_time - job.start_time);
  output_wait_.add(job.finish_time - job.compute_done_time);
  response_p95_.add(job.response_time());
  if (job.exec_site == job.origin_site) ++counts_.jobs_run_at_origin;
}

RunMetrics MetricsCollector::finalize(util::SimTime makespan,
                                      const std::vector<site::Site>& sites,
                                      const net::TransferManager& transfers) const {
  RunMetrics m = counts_;
  m.jobs_completed = response_.count();
  m.makespan_s = makespan;
  m.avg_response_time_s = response_.mean();
  m.response_summary = util::summarize(response_);
  m.p95_response_time_s = response_p95_.value();
  m.avg_placement_wait_s = placement_wait_.mean();
  m.avg_queue_wait_s = queue_wait_.mean();
  m.avg_data_wait_s = data_wait_.mean();
  m.avg_compute_s = compute_.mean();
  m.avg_output_wait_s = output_wait_.mean();

  const net::TransferStats& ts = transfers.stats();
  double jobs = m.jobs_completed > 0 ? static_cast<double>(m.jobs_completed) : 1.0;
  double fetch_mb = ts.delivered_mb[static_cast<std::size_t>(net::TransferPurpose::JobFetch)];
  double repl_mb =
      ts.delivered_mb[static_cast<std::size_t>(net::TransferPurpose::Replication)];
  double output_mb =
      ts.delivered_mb[static_cast<std::size_t>(net::TransferPurpose::OutputReturn)];
  m.avg_fetch_per_job_mb = fetch_mb / jobs;
  m.avg_replication_per_job_mb = repl_mb / jobs;
  m.avg_output_per_job_mb = output_mb / jobs;
  m.avg_data_per_job_mb = ts.total_delivered_mb() / jobs;
  m.total_mb_hops = ts.delivered_mb_hops;

  if (makespan > 0.0 && transfers.link_count() > 0) {
    double total_busy = 0.0;
    for (net::LinkId l = 0; l < transfers.link_count(); ++l) {
      double frac = transfers.link_busy_time(l) / makespan;
      total_busy += frac;
      m.max_link_busy_fraction = std::max(m.max_link_busy_fraction, frac);
    }
    m.avg_link_busy_fraction = total_busy / static_cast<double>(transfers.link_count());
  }

  double busy_integral = 0.0;
  double element_seconds = 0.0;
  for (const auto& s : sites) {
    busy_integral += s.compute().busy_element_seconds();
    element_seconds += static_cast<double>(s.compute().size()) * makespan;
    m.local_data_hits += s.storage().stats().hits;
    m.local_data_misses += s.storage().stats().misses;
    m.cache_evictions += s.storage().stats().evictions;
  }
  if (element_seconds > 0.0) {
    m.utilization = busy_integral / element_seconds;
    m.idle_fraction = 1.0 - m.utilization;
  }
  return m;
}

}  // namespace chicsim::core
