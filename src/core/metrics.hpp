// Metrics collection (§5.2).
//
// "For each experiment, we measured: average amount of data transferred
//  (bandwidth consumed) per job; average job completion time
//  (max(queue time, data transfer time) + compute time); average idle time
//  for a processor."
//
// MetricsCollector is the fold over the GridEvent stream that the Grid
// attaches ahead of every user observer: the one place per-job timings and
// run-level event counts are kept. finalize() adds the substrate integrals
// (network totals, processor busy time, storage statistics) once the last
// job completes. docs/metrics.md gives the source of every field.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/events.hpp"
#include "net/transfer_manager.hpp"
#include "site/job.hpp"
#include "site/site.hpp"
#include "util/stats.hpp"
#include "util/units.hpp"

namespace chicsim::core {

/// Everything a single simulation run reports.
struct RunMetrics {
  std::uint64_t jobs_completed = 0;
  util::SimTime makespan_s = 0.0;  ///< completion time of the last job

  // Figure 3a / Figure 5
  double avg_response_time_s = 0.0;
  double p95_response_time_s = 0.0;
  util::Summary response_summary;

  // Decomposition of response time
  double avg_placement_wait_s = 0.0;  ///< dispatch - submit (centralized ES)
  double avg_queue_wait_s = 0.0;   ///< start - dispatch
  double avg_data_wait_s = 0.0;    ///< data_ready - dispatch
  double avg_compute_s = 0.0;      ///< compute_done - start
  double avg_output_wait_s = 0.0;  ///< finish - compute_done (output extension)

  // Figure 3b
  double avg_data_per_job_mb = 0.0;         ///< all network traffic / jobs
  double avg_fetch_per_job_mb = 0.0;        ///< job-driven fetches only
  double avg_replication_per_job_mb = 0.0;  ///< DS pushes only
  double avg_output_per_job_mb = 0.0;       ///< output returns (extension)
  double total_mb_hops = 0.0;

  // Figure 4
  double idle_fraction = 0.0;  ///< aggregate over all compute elements
  double utilization = 0.0;

  // Network occupancy (fraction of the makespan each link carried traffic)
  double avg_link_busy_fraction = 0.0;
  double max_link_busy_fraction = 0.0;

  // Diagnostics
  std::uint64_t remote_fetches = 0;
  std::uint64_t replications = 0;
  std::uint64_t local_data_hits = 0;   ///< inputs already present at dispatch
  std::uint64_t local_data_misses = 0; ///< inputs that had to be fetched
  std::uint64_t cache_evictions = 0;
  std::uint64_t jobs_run_at_origin = 0; ///< placement locality

  // Fault injection / recovery (docs/robustness.md). All zero in a
  // fault-free run.
  std::uint64_t site_crashes = 0;
  std::uint64_t site_recoveries = 0;
  std::uint64_t jobs_resubmitted = 0;      ///< crash kills + dead-site placements
  std::uint64_t transfer_retries = 0;      ///< fetch retry/failover rounds
  std::uint64_t output_retries = 0;        ///< output returns deferred (origin down)
  std::uint64_t transfers_aborted = 0;     ///< flows torn off the wire
  std::uint64_t catalog_invalidations = 0; ///< replica-catalog lies reconciled

  // Engine / network hot-path counters (perf diagnostics, docs/metrics.md).
  // They describe how the simulator did its work, not what it simulated:
  // an optimisation may change them while every field above stays
  // bit-identical.
  std::uint64_t events_executed = 0;
  std::uint64_t event_pushes = 0;       ///< calendar inserts over the run
  std::uint64_t event_cancels = 0;      ///< calendar cancels over the run
  std::uint64_t peak_heap_size = 0;     ///< most events ever pending at once
  std::uint64_t reallocations = 0;          ///< TransferManager::reallocate calls
  std::uint64_t flows_rescheduled = 0;      ///< ETAs re-derived because the rate changed
};

class MetricsCollector final : public GridObserver {
 public:
  using JobLookup = std::function<const site::Job&(site::JobId)>;

  /// Where on_event() finds the job a JobCompleted event names; must be
  /// bound before the first JobCompleted arrives.
  void bind_jobs(JobLookup lookup) { job_lookup_ = std::move(lookup); }

  /// Records the job on JobCompleted; counts the run-level events.
  void on_event(const GridEvent& event) override;

  /// Record one completed job (all timestamps must be final).
  void record_job(const site::Job& job);

  /// The counters folded so far plus run-level state. `sites` supplies
  /// busy integrals (pools must be settled to `makespan`), `transfers` the
  /// network totals.
  [[nodiscard]] RunMetrics finalize(util::SimTime makespan,
                                    const std::vector<site::Site>& sites,
                                    const net::TransferManager& transfers) const;

  [[nodiscard]] std::uint64_t jobs_recorded() const { return response_.count(); }

 private:
  JobLookup job_lookup_;
  RunMetrics counts_;  ///< event counters; finalize() starts from a copy
  util::OnlineStats response_;
  util::OnlineStats placement_wait_;
  util::OnlineStats queue_wait_;
  util::OnlineStats data_wait_;
  util::OnlineStats compute_;
  util::OnlineStats output_wait_;
  /// Streaming p95: O(1) memory instead of the O(jobs) sample vector the
  /// collector used to keep alive just to sort once in finalize(). The
  /// estimate follows the P2Quantile accuracy contract (~2% relative error
  /// at n >= 100; exact below six samples), asserted by test_metrics.
  util::P2Quantile response_p95_{0.95};
};

}  // namespace chicsim::core
