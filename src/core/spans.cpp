#include "core/spans.hpp"

#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {

const char* to_string(CriticalPath path) {
  switch (path) {
    case CriticalPath::QueueBound: return "queue_bound";
    case CriticalPath::DataBound: return "data_bound";
    case CriticalPath::ComputeBound: return "compute_bound";
  }
  return "?";
}

CriticalPath JobSpans::critical_path() const {
  double queue = queue_wait_s();
  double data = data_wait_s();
  if (queue <= 0.0 && data <= 0.0) return CriticalPath::ComputeBound;
  return data > queue ? CriticalPath::DataBound : CriticalPath::QueueBound;
}

JobSpans& SpanBuilder::job_mut(site::JobId id) {
  CHICSIM_ASSERT_MSG(id != site::kNoJob, "span event without a job id");
  if (id > jobs_.size()) jobs_.resize(id);
  JobSpans& j = jobs_[id - 1];
  j.job = id;
  return j;
}

void SpanBuilder::on_event(const GridEvent& e) {
  switch (e.type) {
    case GridEventType::JobSubmitted: {
      JobSpans& j = job_mut(e.job);
      j.submit = e.time;
      j.origin_site = e.site_a;
      break;
    }
    case GridEventType::JobDispatched: {
      JobSpans& j = job_mut(e.job);
      j.dispatch = e.time;
      j.exec_site = e.site_b;
      break;
    }
    case GridEventType::JobDataReady: job_mut(e.job).data_ready = e.time; break;
    case GridEventType::JobStarted: job_mut(e.job).start = e.time; break;
    case GridEventType::JobComputeDone: job_mut(e.job).compute_done = e.time; break;
    case GridEventType::JobCompleted: {
      JobSpans& j = job_mut(e.job);
      j.finish = e.time;
      j.completed = true;
      ++completed_jobs_;
      break;
    }
    case GridEventType::FetchStarted: {
      TransferSpan t;
      t.kind = TransferSpan::Kind::Fetch;
      t.dataset = e.dataset;
      t.src = e.site_a;
      t.dst = e.site_b;
      t.start = e.time;
      t.mb = e.mb;
      t.initiator = e.job;
      OpenFetch open;
      open.transfer_index = transfers_.size();
      open.members.emplace_back(e.job, e.time);
      transfers_.push_back(t);
      open_fetches_[{e.site_b, e.dataset}] = std::move(open);
      break;
    }
    case GridEventType::FetchJoined: {
      auto it = open_fetches_.find({e.site_b, e.dataset});
      CHICSIM_ASSERT_MSG(it != open_fetches_.end(), "fetch join without open fetch");
      it->second.members.emplace_back(e.job, e.time);
      break;
    }
    case GridEventType::FetchCompleted: {
      auto it = open_fetches_.find({e.site_b, e.dataset});
      CHICSIM_ASSERT_MSG(it != open_fetches_.end(), "fetch completion without open fetch");
      OpenFetch open = std::move(it->second);
      open_fetches_.erase(it);
      TransferSpan& t = transfers_[open.transfer_index];
      t.end = e.time;
      t.completed = true;
      bool first = true;
      for (const auto& [job_id, joined_at] : open.members) {
        FetchSpan span;
        span.dataset = e.dataset;
        span.source = e.site_a;
        span.dest = e.site_b;
        span.start = joined_at;
        span.end = e.time;
        span.mb = e.mb;
        span.joined = !first;
        span.completed = true;
        job_mut(job_id).fetches.push_back(span);
        first = false;
      }
      break;
    }
    case GridEventType::ReplicationStarted: {
      TransferSpan t;
      t.kind = TransferSpan::Kind::Replication;
      t.dataset = e.dataset;
      t.src = e.site_a;
      t.dst = e.site_b;
      t.start = e.time;
      t.mb = e.mb;
      open_replications_[{e.site_a, e.site_b, e.dataset}].push_back(transfers_.size());
      transfers_.push_back(t);
      break;
    }
    case GridEventType::ReplicationCompleted: {
      auto it = open_replications_.find({e.site_a, e.site_b, e.dataset});
      CHICSIM_ASSERT_MSG(it != open_replications_.end() && !it->second.empty(),
                         "replication completion without open replication");
      // FIFO: concurrent identical pushes complete in start order (the
      // fluid-flow model gives equal rates to equal flows).
      std::size_t index = it->second.front();
      it->second.erase(it->second.begin());
      if (it->second.empty()) open_replications_.erase(it);
      transfers_[index].end = e.time;
      transfers_[index].completed = true;
      break;
    }
    case GridEventType::ReplicaStored:
    case GridEventType::ReplicaEvicted:
      break;  // catalog population is tracked by the timeline, not spans
    case GridEventType::SiteFailed: {
      // Close the bookkeeping for every in-flight transfer the crash tears
      // down so later fetches can reopen the same keys cleanly. Fetches
      // toward the dead site die outright (span ends uncompleted); fetches
      // *from* it stay open — the failover updates their source below.
      data::SiteIndex dead = e.site_a;
      for (auto it = open_fetches_.begin(); it != open_fetches_.end();) {
        if (it->first.first == dead) {
          transfers_[it->second.transfer_index].end = e.time;
          it = open_fetches_.erase(it);
        } else {
          ++it;
        }
      }
      for (auto it = open_replications_.begin(); it != open_replications_.end();) {
        const auto& [src, dst, dataset] = it->first;
        if (src == dead || dst == dead) {
          for (std::size_t index : it->second) transfers_[index].end = e.time;
          it = open_replications_.erase(it);
        } else {
          ++it;
        }
      }
      fault_marks_.push_back(e);
      break;
    }
    case GridEventType::SiteRecovered:
    case GridEventType::LinkDegraded:
      fault_marks_.push_back(e);
      break;
    case GridEventType::TransferRetried: {
      // A fetch failed over to a new source (site_a; kNoSite while parked
      // with no live holder). Output-return retries carry no dataset and
      // have no open fetch — the lookup simply misses.
      auto it = open_fetches_.find({e.site_b, e.dataset});
      if (it != open_fetches_.end() && e.site_a != data::kNoSite) {
        transfers_[it->second.transfer_index].src = e.site_a;
      }
      break;
    }
    case GridEventType::JobResubmitted: {
      // The job starts over: the partial phase timestamps describe a run
      // that never finished. Keep submit/origin (and any completed fetch
      // spans — that work really happened) and count the attempt.
      JobSpans& j = job_mut(e.job);
      j.dispatch = 0.0;
      j.data_ready = 0.0;
      j.start = 0.0;
      j.compute_done = 0.0;
      j.exec_site = data::kNoSite;
      ++j.resubmissions;
      break;
    }
    case GridEventType::CatalogInvalidated:
      break;  // catalog truth-keeping is tracked per site, not per job
  }
}

std::array<std::uint64_t, 3> SpanBuilder::critical_path_counts() const {
  std::array<std::uint64_t, 3> counts{};
  for (const JobSpans& j : jobs_) {
    if (!j.completed) continue;
    ++counts[static_cast<std::size_t>(j.critical_path())];
  }
  return counts;
}

void SpanBuilder::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.header({"job", "origin_site", "exec_site", "submit_s", "dispatch_s", "data_ready_s",
              "start_s", "compute_done_s", "finish_s", "placement_wait_s", "queue_wait_s",
              "data_wait_s", "compute_s", "output_wait_s", "fetches", "critical_path"});
  for (const JobSpans& j : jobs_) {
    if (!j.completed) continue;
    csv.row({std::to_string(j.job), std::to_string(j.origin_site),
             std::to_string(j.exec_site), util::format_fixed(j.submit, 3),
             util::format_fixed(j.dispatch, 3), util::format_fixed(j.data_ready, 3),
             util::format_fixed(j.start, 3), util::format_fixed(j.compute_done, 3),
             util::format_fixed(j.finish, 3), util::format_fixed(j.placement_wait_s(), 3),
             util::format_fixed(j.queue_wait_s(), 3), util::format_fixed(j.data_wait_s(), 3),
             util::format_fixed(j.compute_s(), 3), util::format_fixed(j.output_wait_s(), 3),
             std::to_string(j.fetches.size()), to_string(j.critical_path())});
  }
}

}  // namespace chicsim::core
