#include "core/events.hpp"

#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {

const char* to_string(GridEventType type) {
  switch (type) {
    case GridEventType::JobSubmitted: return "job_submitted";
    case GridEventType::JobDispatched: return "job_dispatched";
    case GridEventType::JobDataReady: return "job_data_ready";
    case GridEventType::JobStarted: return "job_started";
    case GridEventType::JobComputeDone: return "job_compute_done";
    case GridEventType::JobCompleted: return "job_completed";
    case GridEventType::FetchStarted: return "fetch_started";
    case GridEventType::FetchJoined: return "fetch_joined";
    case GridEventType::FetchCompleted: return "fetch_completed";
    case GridEventType::ReplicationStarted: return "replication_started";
    case GridEventType::ReplicationCompleted: return "replication_completed";
    case GridEventType::ReplicaStored: return "replica_stored";
    case GridEventType::ReplicaEvicted: return "replica_evicted";
    case GridEventType::SiteFailed: return "site_failed";
    case GridEventType::SiteRecovered: return "site_recovered";
    case GridEventType::TransferRetried: return "transfer_retried";
    case GridEventType::JobResubmitted: return "job_resubmitted";
    case GridEventType::CatalogInvalidated: return "catalog_invalidated";
    case GridEventType::LinkDegraded: return "link_degraded";
  }
  return "?";
}

void EventLog::on_event(const GridEvent& event) {
  events_.push_back(event);
  auto idx = static_cast<std::size_t>(event.type);
  CHICSIM_ASSERT(idx < kNumGridEventTypes);
  ++counts_[idx];
}

std::uint64_t EventLog::count(GridEventType type) const {
  auto idx = static_cast<std::size_t>(type);
  CHICSIM_ASSERT(idx < kNumGridEventTypes);
  return counts_[idx];
}

std::vector<GridEvent> EventLog::job_trace(site::JobId job) const {
  std::vector<GridEvent> out;
  for (const GridEvent& e : events_) {
    if (e.job == job) out.push_back(e);
  }
  return out;
}

std::vector<GridEvent> EventLog::dataset_trace(data::DatasetId dataset) const {
  std::vector<GridEvent> out;
  for (const GridEvent& e : events_) {
    if (e.dataset == dataset) out.push_back(e);
  }
  return out;
}

void EventLog::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.header({"time_s", "type", "job", "dataset", "site_a", "site_b", "mb"});
  for (const GridEvent& e : events_) {
    csv.row({util::format_fixed(e.time, 3), to_string(e.type),
             e.job == site::kNoJob ? "" : std::to_string(e.job),
             e.dataset == data::kNoDataset ? "" : std::to_string(e.dataset),
             e.site_a == data::kNoSite ? "" : std::to_string(e.site_a),
             e.site_b == data::kNoSite ? "" : std::to_string(e.site_b),
             util::format_fixed(e.mb, 1)});
  }
}

void EventLog::clear() {
  events_.clear();
  for (auto& c : counts_) c = 0;
}

void EventBus::set_clock(std::function<util::SimTime()> clock) {
  clock_ = std::move(clock);
}

void EventBus::add_observer(GridObserver* observer) {
  CHICSIM_ASSERT_MSG(observer != nullptr, "null observer");
  observers_.push_back(observer);
}

void EventBus::emit(GridEvent event) {
  CHICSIM_ASSERT_MSG(clock_, "event bus has no clock");
  event.time = clock_();
  for (GridObserver* observer : observers_) observer->on_event(event);
}

}  // namespace chicsim::core
