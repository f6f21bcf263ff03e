// The job-lifecycle service: submit → dispatch → run → complete, plus the
// per-user submission loop (§5.1's strict sequence, or open-loop Poisson
// arrivals) and the centralized-ES decision queue.
//
// Event flow for one job (paper semantics):
//
//   user submit        -> External Scheduler picks the execution site
//   dispatch           -> job enters the site queue; the FetchPlanner
//                         starts fetches for missing inputs IMMEDIATELY
//   data ready + CE    -> Local Scheduler starts the job; it runs for
//                         runtime_s on one compute element
//   completion         -> JobCompleted (the metrics fold records it); the
//                         job's user submits its next job (closed loop)
//
// The ES observes the world only through the information service; this
// service owns the job table and drives the machinery. It is the only
// service that starts jobs: the FetchPlanner calls try_start_jobs when a
// fetch lands, and a replication push never does (it frees no processor and
// satisfies no pending input). When the last job finalizes the lifecycle
// stops the engine, and Grid::run finishes the run.
#pragma once

#include <deque>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/events.hpp"
#include "core/scheduler.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace chicsim::core {

class FetchPlanner;

class JobLifecycle final {
 public:
  /// Instantiates the job table from `workload` (ids must be dense in
  /// [1, total]). References are non-owning and must outlive the service.
  /// The ES/LS policies are built from the config; replace them with the
  /// setters.
  JobLifecycle(const SimulationConfig& config, sim::Engine& engine,
               std::vector<site::Site>& sites, const workload::Workload& workload,
               net::TransferManager& transfers, FetchPlanner& fetch, const GridView& view,
               EventBus& events);

  void set_external_scheduler(std::unique_ptr<ExternalScheduler> es);
  void set_local_scheduler(std::unique_ptr<LocalScheduler> ls);

  /// Kick off the submission processes. Closed loop: all users issue their
  /// first submission at t=0 (user order breaks ties). Open loop: per-user
  /// Poisson processes, first arrival after one exponential interval so the
  /// t=0 burst disappears.
  void start();

  // --- job table ---
  [[nodiscard]] const site::Job& job(site::JobId id) const;
  [[nodiscard]] std::size_t job_count() const { return jobs_.size(); }
  [[nodiscard]] std::uint64_t completed_jobs() const { return completed_jobs_; }

  /// Submissions currently queued at the centralized ES (test seam).
  [[nodiscard]] std::size_t central_queue_depth() const { return central_queue_.size(); }

  // --- what the FetchPlanner calls when a fetch lands ---
  [[nodiscard]] site::Job& job_mut(site::JobId id);
  /// Let the site's Local Scheduler start every queued job it can.
  void try_start_jobs(data::SiteIndex s);

  // --- fault recovery (docs/robustness.md) ---
  /// Site-crash recovery: every job stranded on `s` (queued, running, or
  /// returning output) is killed, reset to Submitted, and handed back to
  /// the External Scheduler after a backoff — bounded by
  /// max_job_resubmissions. Runs after the fetch/replication teardown and
  /// the storage wipe, so the ES decides against the post-crash world.
  void on_site_crashed(data::SiteIndex s);

 private:
  struct User {
    site::UserId id = 0;
    std::size_t next_job = 0;  ///< index into its workload job list
  };

  void instantiate_jobs();
  void submit_next_job(site::UserId user);
  /// Centralized mapping: pop and decide the next queued submission.
  void central_process_next();
  /// Run the ES decision for one submitted job and dispatch it.
  void decide_and_dispatch(site::Job& job);
  void dispatch(site::Job& job, data::SiteIndex dest);
  /// Compute finished: free the processor, release inputs, ship output
  /// home when the output extension is active.
  void on_compute_complete(site::JobId id);
  /// Start (or, origin down, defer with backoff) the output-return leg.
  void start_output_return(site::JobId id, util::Megabytes output_mb);
  /// The job is fully done (output landed, if any): announce it and
  /// continue the user's closed loop; after the last job, stop the engine.
  void finalize_job(site::JobId id);
  /// Put a Submitted job back in front of the ES after a capped
  /// exponential backoff; `stranded_site` is the site that failed it.
  /// Throws SimError past max_job_resubmissions.
  void resubmit_with_backoff(site::Job& job, data::SiteIndex stranded_site);

  const SimulationConfig& config_;
  sim::Engine& engine_;
  std::vector<site::Site>& sites_;
  const workload::Workload& workload_;
  net::TransferManager& transfers_;
  FetchPlanner& fetch_;
  const GridView& view_;
  EventBus& events_;

  std::unique_ptr<ExternalScheduler> es_;
  std::unique_ptr<LocalScheduler> ls_;
  util::Rng rng_es_;
  util::Rng rng_arrivals_;

  std::vector<site::Job> jobs_;  ///< by id-1
  std::vector<User> users_;

  /// Per job (by id-1): the pending compute-done calendar event while
  /// Running, and the in-flight output-return transfer while
  /// ReturningOutput — the handles a site crash needs to kill cleanly.
  std::vector<sim::EventId> compute_events_;
  std::vector<net::TransferId> output_transfers_;
  /// Per site: the jobs dispatched there and not yet completed (queued,
  /// running or returning output), in no particular order. A crash walks
  /// only its own site's list instead of the whole job table.
  std::vector<std::vector<site::JobId>> site_jobs_;

  /// Centralized ES mapping: submissions awaiting their scheduling decision.
  std::deque<site::JobId> central_queue_;
  bool central_busy_ = false;

  std::uint64_t completed_jobs_ = 0;
};

}  // namespace chicsim::core
