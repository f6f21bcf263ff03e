#include "core/fetch_planner.hpp"

#include <algorithm>

#include "core/job_lifecycle.hpp"
#include "core/replication_driver.hpp"
#include "util/error.hpp"

namespace chicsim::core {

FetchPlanner::FetchPlanner(const SimulationConfig& config, sim::Engine& engine,
                           std::vector<site::Site>& sites,
                           const data::DatasetCatalog& catalog,
                           const data::ReplicaCatalog& replicas, const net::Routing& routing,
                           net::TransferManager& transfers, ReplicationDriver& replication,
                           EventBus& events)
    : config_(config),
      engine_(engine),
      sites_(sites),
      catalog_(catalog),
      replicas_(replicas),
      routing_(routing),
      transfers_(transfers),
      replication_(replication),
      events_(events),
      rng_fetch_(util::Rng::substream(config.seed, "fetch")),
      rng_faults_(util::Rng::substream(config.seed, "transfer_faults")) {
  pending_fetches_.resize(sites_.size());
}

void FetchPlanner::bind_jobs(JobLifecycle& jobs) { jobs_ = &jobs; }

std::size_t FetchPlanner::pending_fetches(data::SiteIndex dest) const {
  CHICSIM_ASSERT_MSG(dest < pending_fetches_.size(), "site index out of range");
  return pending_fetches_[dest].size();
}

void FetchPlanner::request_input(site::Job& job, data::DatasetId input) {
  data::SiteIndex dest = job.exec_site;
  site::Site& site = sites_[dest];
  if (site.storage().lookup(input)) {
    // Present locally: hold a reference until the job completes so LRU
    // cannot evict an input out from under a queued/running job.
    site.storage().acquire(input);
    replication_.note_access(input, /*source=*/dest, /*client=*/job.origin_site,
                             /*fetch_dest=*/data::kNoSite);
    return;
  }

  ++job.inputs_pending;
  auto [it, inserted] = pending_fetches_[dest].try_emplace(input);
  PendingFetch& fetch = it->second;
  fetch.waiters.push_back(job.id);
  if (!inserted) {
    // A fetch of this dataset toward this site is already in flight; join.
    events_.emit(GridEvent{GridEventType::FetchJoined, 0.0, job.id, input, fetch.source, dest,
                           catalog_.size_mb(input)});
    // A parked fetch (crash recovery) has no source yet; there is no holder
    // whose popularity tracker could record this access, so skip it — the
    // bookkeeping miss lasts only as long as the outage.
    if (fetch.source != data::kNoSite) {
      replication_.note_access(input, fetch.source, job.origin_site, dest);
    }
    return;
  }

  // With no live, truthful holder right now (crash-heavy moment) the fetch
  // is parked and polls with backoff until a replica resurfaces.
  data::SiteIndex source = choose_source(input, dest);
  if (source != data::kNoSite) replication_.note_access(input, source, job.origin_site, dest);
  events_.emit(GridEvent{GridEventType::FetchStarted, 0.0, job.id, input, source, dest,
                         catalog_.size_mb(input)});
  attempt(dest, input, fetch, source);
}

void FetchPlanner::attempt(data::SiteIndex dest, data::DatasetId dataset,
                           PendingFetch& fetch, data::SiteIndex source) {
  if (source == data::kNoSite) {
    schedule_retry(dest, dataset, fetch);  // nobody to serve it yet
    return;
  }
  CHICSIM_ASSERT_MSG(sites_[source].alive(), "fetch source must be alive");
  sites_[source].storage().acquire(dataset);  // keep the source copy alive
  fetch.attempts = 0;  // progress: the no-progress backoff budget resets
  fetch.source = source;
  fetch.transfer = transfers_.start(
      source, dest, catalog_.size_mb(dataset), net::TransferPurpose::JobFetch,
      [this, dest, dataset](net::TransferId) { complete(dest, dataset); });
  arm_transfer_fault(dest, dataset, fetch.transfer, catalog_.size_mb(dataset));
}

void FetchPlanner::arm_transfer_fault(data::SiteIndex dest, data::DatasetId dataset,
                                      net::TransferId transfer, util::Megabytes size_mb) {
  if (config_.fault_transfer_fail_prob <= 0.0) return;
  if (!rng_faults_.chance(config_.fault_transfer_fail_prob)) return;
  // Fail mid-flight: somewhere inside the transfer's nominal uncontended
  // duration. The completion race is harmless — a stale fault event is
  // dropped by the transfer-id guard in on_transfer_fault.
  double frac = rng_faults_.uniform(0.05, 0.95);
  double nominal_s = size_mb / config_.link_bandwidth_mbps;
  engine_.schedule_in(frac * nominal_s, "transfer_fault", [this, dest, dataset, transfer] {
    on_transfer_fault(dest, dataset, transfer);
  });
}

void FetchPlanner::on_transfer_fault(data::SiteIndex dest, data::DatasetId dataset,
                                     net::TransferId transfer) {
  auto& pending = pending_fetches_[dest];
  auto it = pending.find(dataset);
  // The targeted transfer may have completed (faster than its nominal
  // duration) or been torn down by a crash; only the exact in-flight
  // transfer is failable.
  if (it == pending.end() || it->second.transfer != transfer) return;
  cut_wire(dataset, it->second);
  schedule_retry(dest, dataset, it->second);
}

bool FetchPlanner::fail_fetch(data::SiteIndex dest, data::DatasetId dataset) {
  CHICSIM_ASSERT_MSG(dest < pending_fetches_.size(), "site index out of range");
  auto& pending = pending_fetches_[dest];
  auto it = pending.find(dataset);
  if (it == pending.end() || it->second.transfer == net::kNoTransfer) return false;
  cut_wire(dataset, it->second);
  schedule_retry(dest, dataset, it->second);
  return true;
}

void FetchPlanner::cut_wire(data::DatasetId dataset, PendingFetch& fetch) {
  CHICSIM_ASSERT(fetch.transfer != net::kNoTransfer);
  transfers_.abort(fetch.transfer);
  sites_[fetch.source].storage().release(dataset);
  fetch.transfer = net::kNoTransfer;
  fetch.source = data::kNoSite;
}

void FetchPlanner::schedule_retry(data::SiteIndex dest, data::DatasetId dataset,
                                  PendingFetch& fetch) {
  ++fetch.attempts;
  if (fetch.attempts > config_.fetch_max_retries) {
    throw util::SimError("fetch of dataset " + std::to_string(dataset) + " toward site " +
                         std::to_string(dest) + " abandoned after " +
                         std::to_string(config_.fetch_max_retries) +
                         " attempts (fetch_max_retries)");
  }
  double delay = util::capped_backoff(config_.fetch_retry_base_s, fetch.attempts,
                                      config_.fetch_retry_max_s);
  fetch.retry_event = engine_.schedule_in(
      delay, "fetch_retry", [this, dest, dataset] { retry_fetch(dest, dataset); });
}

void FetchPlanner::retry_fetch(data::SiteIndex dest, data::DatasetId dataset) {
  auto& pending = pending_fetches_[dest];
  auto it = pending.find(dataset);
  CHICSIM_ASSERT_MSG(it != pending.end(), "fetch retry without pending record");
  PendingFetch& fetch = it->second;
  fetch.retry_event = sim::kNoEvent;
  CHICSIM_ASSERT_MSG(fetch.transfer == net::kNoTransfer,
                     "fetch retry while a transfer is on the wire");

  if (sites_[dest].storage().contains(dataset)) {
    // A replication push (or recovered master) landed the data here while
    // we were backing off; complete without touching the network.
    complete(dest, dataset);
    return;
  }

  data::SiteIndex source = choose_source(dataset, dest);
  events_.emit(GridEvent{GridEventType::TransferRetried, 0.0,
                         fetch.waiters.empty() ? site::kNoJob : fetch.waiters.front(),
                         dataset, source, dest, catalog_.size_mb(dataset)});
  attempt(dest, dataset, fetch, source);
}

void FetchPlanner::on_site_crashed(data::SiteIndex s) {
  CHICSIM_ASSERT_MSG(s < pending_fetches_.size(), "site index out of range");

  // Fetches toward the dead site die with it: abort the wire, unpin the
  // (still intact) sources, drop the waiters wholesale — the JobLifecycle
  // resets and resubmits those jobs right after this teardown.
  auto& toward = pending_fetches_[s];
  for (auto& [dataset, fetch] : toward) {
    if (fetch.transfer != net::kNoTransfer) cut_wire(dataset, fetch);
    if (fetch.retry_event != sim::kNoEvent) (void)engine_.cancel(fetch.retry_event);
  }
  toward.clear();

  // Fetches *from* the dead site fail over immediately: some other live
  // holder takes over, or the fetch parks until one resurfaces. The
  // release still lands on intact storage — the crash wipe runs after
  // this teardown.
  for (data::SiteIndex dest = 0; dest < pending_fetches_.size(); ++dest) {
    auto& pending = pending_fetches_[dest];
    for (auto it = pending.begin(); it != pending.end();) {
      const data::DatasetId dataset = it->first;
      PendingFetch& fetch = it->second;
      ++it;  // the retry may complete the fetch and erase its entry
      if (fetch.source != s) continue;
      cut_wire(dataset, fetch);
      retry_fetch(dest, dataset);
    }
  }
}

data::SiteIndex FetchPlanner::choose_source(data::DatasetId dataset, data::SiteIndex dest) {
  // Serve only from live holders that really have the file. A catalogued
  // copy that physically vanished (silent corruption) is a lie: it leaves
  // the catalog first, so nobody trips over it again. Dead holders stay
  // catalogued — pinned masters survive the crash and serve again after
  // recovery. The removal is stable, so in a fault-free run `live` is the
  // full holder list in catalog order and selection below draws and ties
  // exactly as it always has.
  replication_.invalidate_lies(dataset);
  const auto& holders = replicas_.locations(dataset);
  CHICSIM_ASSERT_MSG(!holders.empty(), "fetch of a dataset with no replicas");
  std::vector<data::SiteIndex> live;
  live.reserve(holders.size());
  for (data::SiteIndex h : holders) {
    if (sites_[h].alive()) live.push_back(h);
  }
  if (live.empty()) return data::kNoSite;

  switch (config_.replica_selection) {
    case ReplicaSelection::Random: {
      return live[rng_fetch_.index(live.size())];
    }
    case ReplicaSelection::Closest: {
      data::SiteIndex best = live.front();
      std::size_t db = routing_.hops(best, dest);
      for (data::SiteIndex h : live) {
        std::size_t dh = routing_.hops(h, dest);
        if (dh < db || (dh == db && (sites_[h].load() < sites_[best].load() ||
                                     (sites_[h].load() == sites_[best].load() && h < best)))) {
          best = h;
          db = dh;
        }
      }
      return best;
    }
    case ReplicaSelection::LeastLoadedSource: {
      data::SiteIndex best = live.front();
      std::size_t db = routing_.hops(best, dest);
      for (data::SiteIndex h : live) {
        std::size_t lh = sites_[h].load();
        std::size_t lb = sites_[best].load();
        std::size_t dh = routing_.hops(h, dest);
        if (lh < lb || (lh == lb && (dh < db || (dh == db && h < best)))) {
          best = h;
          db = dh;
        }
      }
      return best;
    }
  }
  throw util::SimError("unknown replica selection policy");
}

void FetchPlanner::complete(data::SiteIndex dest, data::DatasetId dataset) {
  CHICSIM_ASSERT_MSG(jobs_ != nullptr, "fetch planner not wired");
  auto& pending = pending_fetches_[dest];
  auto it = pending.find(dataset);
  CHICSIM_ASSERT_MSG(it != pending.end(), "fetch completion without pending record");
  PendingFetch fetch = std::move(it->second);
  pending.erase(it);

  // A fetch whose data a push landed while it backed off has no source.
  const bool wired = fetch.source != data::kNoSite;
  if (wired) sites_[fetch.source].storage().release(dataset);
  events_.emit(GridEvent{GridEventType::FetchCompleted, 0.0,
                         fetch.waiters.empty() ? site::kNoJob : fetch.waiters.front(),
                         dataset, wired ? fetch.source : dest, dest,
                         catalog_.size_mb(dataset)});
  (void)replication_.store_replica(dest, dataset);  // LRU touch when a push landed it

  site::Site& site = sites_[dest];
  for (site::JobId waiter : fetch.waiters) {
    site::Job& job = jobs_->job_mut(waiter);
    CHICSIM_ASSERT(job.inputs_pending > 0);
    site.storage().acquire(dataset);
    --job.inputs_pending;
    if (job.data_ready()) {
      job.data_ready_time = engine_.now();
      events_.emit(GridEvent{GridEventType::JobDataReady, 0.0, waiter, data::kNoDataset,
                             dest, data::kNoSite, 0.0});
    }
  }
  jobs_->try_start_jobs(dest);
}

}  // namespace chicsim::core
