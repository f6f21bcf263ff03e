#include "core/job_lifecycle.hpp"

#include <algorithm>
#include <utility>

#include "core/factory.hpp"
#include "core/fetch_planner.hpp"
#include "util/error.hpp"

namespace chicsim::core {

JobLifecycle::JobLifecycle(const SimulationConfig& config, sim::Engine& engine,
                           std::vector<site::Site>& sites,
                           const workload::Workload& workload,
                           net::TransferManager& transfers, FetchPlanner& fetch,
                           const GridView& view, EventBus& events)
    : config_(config),
      engine_(engine),
      sites_(sites),
      workload_(workload),
      transfers_(transfers),
      fetch_(fetch),
      view_(view),
      events_(events),
      es_(make_external_scheduler(config.es)),
      ls_(make_local_scheduler(config.ls)),
      rng_es_(util::Rng::substream(config.seed, "es")),
      rng_arrivals_(util::Rng::substream(config.seed, "arrivals")) {
  instantiate_jobs();
}

void JobLifecycle::set_external_scheduler(std::unique_ptr<ExternalScheduler> es) {
  CHICSIM_ASSERT_MSG(es != nullptr, "null external scheduler");
  es_ = std::move(es);
}

void JobLifecycle::set_local_scheduler(std::unique_ptr<LocalScheduler> ls) {
  CHICSIM_ASSERT_MSG(ls != nullptr, "null local scheduler");
  ls_ = std::move(ls);
}

void JobLifecycle::instantiate_jobs() {
  jobs_.resize(workload_.total_jobs());
  for (site::UserId u = 0; u < workload_.num_users(); ++u) {
    for (const site::Job& tmpl : workload_.jobs_of(u)) {
      CHICSIM_ASSERT_MSG(tmpl.id >= 1 && tmpl.id <= jobs_.size(),
                         "workload job ids must be dense in [1, total]");
      CHICSIM_ASSERT_MSG(tmpl.origin_site < sites_.size(), "job origin site out of range");
      jobs_[tmpl.id - 1] = tmpl;
    }
  }
  users_.resize(workload_.num_users());
  for (site::UserId u = 0; u < users_.size(); ++u) users_[u] = User{u, 0};
  compute_events_.assign(jobs_.size(), sim::kNoEvent);
  output_transfers_.assign(jobs_.size(), net::kNoTransfer);
  site_jobs_.resize(sites_.size());
}

const site::Job& JobLifecycle::job(site::JobId id) const {
  CHICSIM_ASSERT_MSG(id >= 1 && id <= jobs_.size(), "job id out of range");
  return jobs_[id - 1];
}

site::Job& JobLifecycle::job_mut(site::JobId id) {
  CHICSIM_ASSERT_MSG(id >= 1 && id <= jobs_.size(), "job id out of range");
  return jobs_[id - 1];
}

void JobLifecycle::start() {
  for (const User& user : users_) {
    site::UserId uid = user.id;
    if (config_.submission_mode == SubmissionMode::ClosedLoop) {
      engine_.schedule_at(0.0, "job_submission", [this, uid] { submit_next_job(uid); });
    } else {
      engine_.schedule_at(rng_arrivals_.exponential(1.0 / config_.arrival_interval_s),
                          "job_submission", [this, uid] { submit_next_job(uid); });
    }
  }
}

void JobLifecycle::submit_next_job(site::UserId uid) {
  User& user = users_[uid];
  const auto& list = workload_.jobs_of(uid);
  if (user.next_job >= list.size()) return;  // this user is done
  site::JobId id = list[user.next_job].id;
  ++user.next_job;

  // Open loop: the next arrival is already in the calendar before this
  // job's fate is known.
  if (config_.submission_mode == SubmissionMode::OpenLoop && user.next_job < list.size()) {
    engine_.schedule_in(rng_arrivals_.exponential(1.0 / config_.arrival_interval_s),
                        "job_submission", [this, uid] { submit_next_job(uid); });
  }

  site::Job& job = job_mut(id);
  CHICSIM_ASSERT(job.state == site::JobState::Created);
  job.state = site::JobState::Submitted;
  job.submit_time = engine_.now();
  events_.emit(GridEvent{GridEventType::JobSubmitted, 0.0, id, data::kNoDataset,
                         job.origin_site, data::kNoSite, 0.0});

  if (config_.es_mapping == EsMapping::Centralized) {
    // A single scheduler decides for the whole grid, one submission at a
    // time; each decision costs central_decision_overhead_s, so a burst of
    // submissions queues up at the scheduler itself.
    central_queue_.push_back(id);
    if (!central_busy_) {
      central_busy_ = true;
      engine_.schedule_in(config_.central_decision_overhead_s, "central_decision",
                          [this] { central_process_next(); });
    }
    return;
  }
  decide_and_dispatch(job);
}

void JobLifecycle::central_process_next() {
  CHICSIM_ASSERT(!central_queue_.empty());
  site::JobId id = central_queue_.front();
  central_queue_.pop_front();
  decide_and_dispatch(job_mut(id));
  if (central_queue_.empty()) {
    central_busy_ = false;
  } else {
    engine_.schedule_in(config_.central_decision_overhead_s, "central_decision",
                        [this] { central_process_next(); });
  }
}

void JobLifecycle::decide_and_dispatch(site::Job& job) {
  data::SiteIndex dest = es_->select_site(job, view_, rng_es_);
  CHICSIM_ASSERT_MSG(dest < sites_.size(), "scheduler chose an invalid site");
  if (!sites_[dest].alive()) {
    // The policy routed to a dead site — its view lags reality by up to
    // one staleness epoch, and JobLocal has no choice but its home. Hold
    // the job and re-consult the ES after a backoff.
    resubmit_with_backoff(job, dest);
    return;
  }
  dispatch(job, dest);
}

void JobLifecycle::resubmit_with_backoff(site::Job& job, data::SiteIndex stranded_site) {
  CHICSIM_ASSERT_MSG(job.state == site::JobState::Submitted,
                     "only submitted jobs can be resubmitted");
  ++job.resubmissions;
  ++job.reschedule_generation;
  if (job.resubmissions > config_.max_job_resubmissions) {
    throw util::SimError(job.describe() + " exceeded max_job_resubmissions (" +
                         std::to_string(config_.max_job_resubmissions) +
                         " consecutive); the grid cannot place it");
  }
  events_.emit(GridEvent{GridEventType::JobResubmitted, 0.0, job.id, data::kNoDataset,
                         stranded_site, data::kNoSite, 0.0});
  // Capped exponential backoff: quick first retry (the common transient),
  // but a grid-wide outage does not busy-loop the calendar.
  double delay = util::capped_backoff(config_.resubmit_backoff_s, job.resubmissions,
                                      16.0 * config_.resubmit_backoff_s);
  site::JobId id = job.id;
  engine_.schedule_in(delay, "job_resubmit", [this, id] { decide_and_dispatch(job_mut(id)); });
}

void JobLifecycle::dispatch(site::Job& job, data::SiteIndex dest) {
  // Placement succeeded: the consecutive-failure budget (and with it the
  // backoff escalation) starts over. Without this reset a long faulty run
  // can kill an unlucky job's site 40 separate times across many hours and
  // trip the livelock guard on accumulated bad luck.
  job.resubmissions = 0;
  job.exec_site = dest;
  job.dispatch_time = engine_.now();
  job.state = site::JobState::Queued;
  site::Site& site = sites_[dest];
  site.enqueue(job.id);
  site.note_job_dispatched();
  site_jobs_[dest].push_back(job.id);
  events_.emit(GridEvent{GridEventType::JobDispatched, 0.0, job.id, data::kNoDataset,
                         job.origin_site, dest, 0.0});

  job.inputs_pending = 0;
  for (data::DatasetId input : job.inputs) fetch_.request_input(job, input);
  if (job.data_ready()) {
    job.data_ready_time = engine_.now();
    events_.emit(GridEvent{GridEventType::JobDataReady, 0.0, job.id, data::kNoDataset,
                           dest, data::kNoSite, 0.0});
  }
  try_start_jobs(dest);
}

void JobLifecycle::try_start_jobs(data::SiteIndex s) {
  site::Site& site = sites_[s];
  if (!site.alive()) return;  // a dead site starts nothing
  auto job_of = [this](site::JobId id) -> const site::Job& { return job(id); };
  while (site.compute().idle() > 0) {
    site::JobId next = ls_->pick_next(site.queue(), job_of);
    if (next == site::kNoJob) break;
    bool acquired = site.compute().acquire(engine_.now());
    CHICSIM_ASSERT(acquired);
    site.remove_from_queue(next);
    site::Job& job = job_mut(next);
    CHICSIM_ASSERT(job.state == site::JobState::Queued && job.data_ready());
    job.state = site::JobState::Running;
    job.start_time = engine_.now();
    events_.emit(GridEvent{GridEventType::JobStarted, 0.0, next, data::kNoDataset, s,
                           data::kNoSite, 0.0});
    compute_events_[next - 1] = engine_.schedule_in(
        job.runtime_s / site.speed_factor(), "compute_done",
        [this, next] { on_compute_complete(next); });
  }
}

void JobLifecycle::on_compute_complete(site::JobId id) {
  site::Job& job = job_mut(id);
  CHICSIM_ASSERT(job.state == site::JobState::Running);
  compute_events_[id - 1] = sim::kNoEvent;
  job.compute_done_time = engine_.now();
  events_.emit(GridEvent{GridEventType::JobComputeDone, 0.0, id, data::kNoDataset,
                         job.exec_site, data::kNoSite, 0.0});

  site::Site& site = sites_[job.exec_site];
  site.compute().release(engine_.now());
  for (data::DatasetId input : job.inputs) site.storage().release(input);
  try_start_jobs(job.exec_site);

  // §3: jobs "finally generate a specified set of files". The paper's
  // experiments treat output as negligible (output_fraction = 0); with the
  // extension enabled the output travels home before the job counts as
  // complete (output is archived at the origin, not cached as a replica).
  if (config_.output_fraction > 0.0 && job.exec_site != job.origin_site) {
    util::Megabytes output_mb = 0.0;
    for (data::DatasetId input : job.inputs) output_mb += view_.dataset_size_mb(input);
    output_mb *= config_.output_fraction;
    if (output_mb > 0.0) {
      job.state = site::JobState::ReturningOutput;
      start_output_return(id, output_mb);
      return;
    }
  }
  finalize_job(id);
}

void JobLifecycle::start_output_return(site::JobId id, util::Megabytes output_mb) {
  site::Job& job = job_mut(id);
  CHICSIM_ASSERT(job.state == site::JobState::ReturningOutput);
  if (!sites_[job.origin_site].alive()) {
    // The home archive is down: hold the output at the exec site and try
    // again after a backoff. If the *exec* site crashes meanwhile the job
    // is resubmitted wholesale and the pending retry below goes stale —
    // the resubmission-generation guard drops it.
    ++job.output_retries;
    if (job.output_retries > config_.max_job_resubmissions) {
      throw util::SimError(job.describe() +
                           " could not return its output: origin site down past " +
                           std::to_string(config_.max_job_resubmissions) + " retries");
    }
    events_.emit(GridEvent{GridEventType::TransferRetried, 0.0, id, data::kNoDataset,
                           data::kNoSite, job.origin_site, output_mb});
    std::uint32_t generation = job.reschedule_generation;
    double delay = util::capped_backoff(config_.resubmit_backoff_s, job.output_retries,
                                        16.0 * config_.resubmit_backoff_s);
    engine_.schedule_in(delay, "output_retry",
                        [this, id, output_mb, generation] {
                          site::Job& j = job_mut(id);
                          if (j.state != site::JobState::ReturningOutput ||
                              j.reschedule_generation != generation) {
                            return;
                          }
                          start_output_return(id, output_mb);
                        });
    return;
  }
  output_transfers_[id - 1] = transfers_.start(
      job.exec_site, job.origin_site, output_mb, net::TransferPurpose::OutputReturn,
      [this, id](net::TransferId) {
        output_transfers_[id - 1] = net::kNoTransfer;
        finalize_job(id);
      });
}

void JobLifecycle::on_site_crashed(data::SiteIndex s) {
  // Strand-handle everything executing at s in id order (deterministic,
  // independent of dispatch, queue or map order).
  std::vector<site::JobId> stranded = std::exchange(site_jobs_[s], {});
  std::sort(stranded.begin(), stranded.end());
  for (site::JobId id : stranded) {
    site::Job& job = jobs_[id - 1];
    CHICSIM_ASSERT(job.exec_site == s);
    switch (job.state) {
      case site::JobState::Queued:
        break;  // the site queue itself is drained below
      case site::JobState::Running: {
        sim::EventId event = compute_events_[id - 1];
        CHICSIM_ASSERT_MSG(event != sim::kNoEvent, "running job without a compute event");
        (void)engine_.cancel(event);
        compute_events_[id - 1] = sim::kNoEvent;
        sites_[s].compute().release(engine_.now());
        break;
      }
      case site::JobState::ReturningOutput: {
        net::TransferId transfer = output_transfers_[id - 1];
        if (transfer != net::kNoTransfer) {
          transfers_.abort(transfer);
          output_transfers_[id - 1] = net::kNoTransfer;
        }
        break;
      }
      default:
        CHICSIM_ASSERT_MSG(false, "a site's job list holds a job that is not at the site");
    }
    // Back to freshly-submitted. Input pins died with the storage wipe
    // (which ran before this call), so nothing is released here; every
    // timestamp except submit_time restarts, so the recorded response
    // time includes the crash and the rerun.
    job.state = site::JobState::Submitted;
    job.exec_site = data::kNoSite;
    job.inputs_pending = 0;
    job.dispatch_time = -1.0;
    job.data_ready_time = -1.0;
    job.start_time = -1.0;
    job.compute_done_time = -1.0;
    resubmit_with_backoff(job, s);
  }
  (void)sites_[s].drain_queue();
}

void JobLifecycle::finalize_job(site::JobId id) {
  site::Job& job = job_mut(id);
  CHICSIM_ASSERT(job.state == site::JobState::Running ||
                 job.state == site::JobState::ReturningOutput);
  job.state = site::JobState::Completed;
  job.finish_time = engine_.now();
  std::vector<site::JobId>& at_site = site_jobs_[job.exec_site];
  auto it = std::find(at_site.begin(), at_site.end(), id);
  CHICSIM_ASSERT(it != at_site.end());
  *it = at_site.back();
  at_site.pop_back();
  events_.emit(GridEvent{GridEventType::JobCompleted, 0.0, id, data::kNoDataset,
                         job.exec_site, job.origin_site, 0.0});
  sites_[job.exec_site].note_job_finished();
  ++completed_jobs_;

  // Closed loop: the user submits its next job now.
  if (config_.submission_mode == SubmissionMode::ClosedLoop) {
    site::UserId uid = job.user;
    engine_.schedule_in(0.0, "job_submission", [this, uid] { submit_next_job(uid); });
  }

  // The last job is done: nothing the calendar still holds (DS ticks,
  // observers' timers) belongs to the run. Grid::run finishes it.
  if (completed_jobs_ == jobs_.size()) engine_.stop();
}

}  // namespace chicsim::core
