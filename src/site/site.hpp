// A Grid site: compute elements, storage and a job queue. (The demand
// signals its Dataset Scheduler reads live in core::ReplicationDriver.)
//
// Site is deliberately a passive container — the behaviour (when to start a
// queued job, what to do when a fetch completes, when to replicate) lives
// in core::Grid and the scheduler policies, so that policies can be swapped
// without touching the substrate.  The queue preserves arrival order; the
// Local Scheduler policy chooses which queued job runs next.
#pragma once

#include <deque>
#include <vector>

#include "data/storage.hpp"
#include "site/compute.hpp"
#include "site/job.hpp"

namespace chicsim::site {

class Site {
 public:
  Site(data::SiteIndex index, std::size_t num_compute_elements,
       util::Megabytes storage_capacity_mb, double speed_factor = 1.0);

  [[nodiscard]] data::SiteIndex index() const { return index_; }

  /// Liveness flag for fault injection. A dead site accepts no work; the
  /// crash/recovery choreography (killing jobs, invalidating storage) is
  /// the Grid services' responsibility — this is just the ground truth bit.
  [[nodiscard]] bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }

  /// Empty the job queue (site-crash semantics); returns the queued ids in
  /// arrival order so the caller can resubmit them.
  [[nodiscard]] std::vector<JobId> drain_queue();

  /// Relative processor speed (1.0 = the paper's homogeneous baseline); a
  /// job's compute time here is runtime_s / speed_factor().
  [[nodiscard]] double speed_factor() const { return speed_factor_; }

  [[nodiscard]] ComputePool& compute() { return compute_; }
  [[nodiscard]] const ComputePool& compute() const { return compute_; }

  [[nodiscard]] data::StorageManager& storage() { return storage_; }
  [[nodiscard]] const data::StorageManager& storage() const { return storage_; }

  /// --- job queue (arrival order preserved) ---
  void enqueue(JobId job);
  void remove_from_queue(JobId job);
  [[nodiscard]] const std::deque<JobId>& queue() const { return queue_; }

  /// Load metric used by every "least loaded" policy in the paper: "the
  /// least number of jobs waiting to run" — queued jobs not yet running.
  [[nodiscard]] std::size_t load() const { return queue_.size(); }

  /// Lifetime counters. Jobs running right now are compute().busy(). A job
  /// counts as completed here once, when it is finalized (output landed).
  [[nodiscard]] std::uint64_t jobs_dispatched_here() const { return dispatched_; }
  [[nodiscard]] std::uint64_t jobs_completed_here() const { return completed_; }
  void note_job_dispatched() { ++dispatched_; }
  void note_job_finished() { ++completed_; }

 private:
  data::SiteIndex index_;
  bool alive_ = true;
  double speed_factor_;
  ComputePool compute_;
  data::StorageManager storage_;
  std::deque<JobId> queue_;
  std::uint64_t dispatched_ = 0;
  std::uint64_t completed_ = 0;
};

}  // namespace chicsim::site
