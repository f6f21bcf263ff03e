#include "core/faults.hpp"

#include "core/fetch_planner.hpp"
#include "core/job_lifecycle.hpp"
#include "core/replication_driver.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::core {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::SiteCrash: return "site_crash";
    case FaultKind::SiteRecover: return "site_recover";
    case FaultKind::TransferAbort: return "transfer_abort";
    case FaultKind::LinkDegrade: return "link_degrade";
    case FaultKind::LinkRestore: return "link_restore";
    case FaultKind::CatalogEntryLoss: return "catalog_entry_loss";
  }
  return "unknown";
}

// --- FaultPlan builders ---

FaultPlan& FaultPlan::crash_site(util::SimTime at, data::SiteIndex site) {
  FaultAction a;
  a.kind = FaultKind::SiteCrash;
  a.at = at;
  a.site = site;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::recover_site(util::SimTime at, data::SiteIndex site) {
  FaultAction a;
  a.kind = FaultKind::SiteRecover;
  a.at = at;
  a.site = site;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::degrade_link(util::SimTime at, net::LinkId link, double scale) {
  FaultAction a;
  a.kind = FaultKind::LinkDegrade;
  a.at = at;
  a.link = link;
  a.scale = scale;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::restore_link(util::SimTime at, net::LinkId link) {
  FaultAction a;
  a.kind = FaultKind::LinkRestore;
  a.at = at;
  a.link = link;
  a.scale = 1.0;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::abort_fetch(util::SimTime at, data::SiteIndex dest,
                                  data::DatasetId dataset) {
  FaultAction a;
  a.kind = FaultKind::TransferAbort;
  a.at = at;
  a.dest = dest;
  a.dataset = dataset;
  actions_.push_back(a);
  return *this;
}

FaultPlan& FaultPlan::lose_catalog_entry(util::SimTime at, data::DatasetId dataset) {
  FaultAction a;
  a.kind = FaultKind::CatalogEntryLoss;
  a.at = at;
  a.dataset = dataset;
  actions_.push_back(a);
  return *this;
}

void FaultPlan::append(const FaultPlan& other) {
  actions_.insert(actions_.end(), other.actions_.begin(), other.actions_.end());
}

FaultPlan FaultPlan::generate(const SimulationConfig& config) {
  FaultPlan plan;
  if (config.fault_site_crash_rate_per_hour <= 0.0 &&
      config.fault_catalog_loss_rate_per_hour <= 0.0) {
    return plan;  // no substream is even created: zero RNG footprint
  }
  util::Rng rng = util::Rng::substream(config.seed, "faults");

  // Per-site alternating up/down renewal process. Sites are visited in
  // index order and each consumes its draws before the next site starts,
  // so the schedule is a pure function of (seed, rates, num_sites).
  if (config.fault_site_crash_rate_per_hour > 0.0) {
    double crash_rate_per_s = config.fault_site_crash_rate_per_hour / 3600.0;
    for (data::SiteIndex s = 0; s < config.num_sites; ++s) {
      util::SimTime t = rng.exponential(crash_rate_per_s);
      while (t < config.fault_horizon_s) {
        double downtime = rng.exponential(1.0 / config.fault_site_downtime_s);
        plan.crash_site(t, s);
        plan.recover_site(t + downtime, s);
        t += downtime + rng.exponential(crash_rate_per_s);
      }
    }
  }

  // Grid-wide silent catalog corruption: a Poisson stream of "one physical
  // copy of dataset D quietly vanished" events. The victim copy is chosen
  // at fire time (first eligible holder) so the plan stays replayable even
  // when replica placement differs between runs.
  if (config.fault_catalog_loss_rate_per_hour > 0.0) {
    double loss_rate_per_s = config.fault_catalog_loss_rate_per_hour / 3600.0;
    util::SimTime t = rng.exponential(loss_rate_per_s);
    while (t < config.fault_horizon_s) {
      auto victim = static_cast<data::DatasetId>(rng.index(config.num_datasets));
      plan.lose_catalog_entry(t, victim);
      t += rng.exponential(loss_rate_per_s);
    }
  }
  return plan;
}

// --- FaultInjector ---

FaultInjector::FaultInjector(sim::Engine& engine, std::vector<site::Site>& sites,
                             const data::DatasetCatalog& catalog,
                             const data::ReplicaCatalog& replicas, const net::Topology& topology,
                             net::TransferManager& transfers, FetchPlanner& fetch,
                             ReplicationDriver& replication, JobLifecycle& lifecycle,
                             EventBus& events)
    : engine_(engine),
      sites_(sites),
      catalog_(catalog),
      replicas_(replicas),
      topology_(topology),
      transfers_(transfers),
      fetch_(fetch),
      replication_(replication),
      lifecycle_(lifecycle),
      events_(events) {}

void FaultInjector::schedule(const FaultPlan& plan) {
  for (const FaultAction& action : plan.actions()) {
    CHICSIM_ASSERT_MSG(action.at >= 0.0, "fault action scheduled before t=0");
    FaultAction a = action;  // plan may not outlive scheduling; copy by value
    engine_.schedule_at(a.at, "fault_action", [this, a] { apply(a); });
  }
}

void FaultInjector::apply(const FaultAction& action) {
  switch (action.kind) {
    case FaultKind::SiteCrash:
      apply_site_crash(action.site);
      break;
    case FaultKind::SiteRecover:
      apply_site_recovery(action.site);
      break;
    case FaultKind::TransferAbort:
      if (fetch_.fail_fetch(action.dest, action.dataset)) ++stats_.forced_aborts;
      break;
    case FaultKind::LinkDegrade:
    case FaultKind::LinkRestore:
      apply_link_scale(action.link, action.scale);
      break;
    case FaultKind::CatalogEntryLoss:
      apply_catalog_loss(action.dataset);
      break;
  }
}

void FaultInjector::apply_site_crash(data::SiteIndex s) {
  CHICSIM_ASSERT_MSG(s < sites_.size(), "crash of an unknown site");
  site::Site& site = sites_[s];
  if (!site.alive()) return;  // scripted and stochastic streams may overlap
  events_.emit(GridEvent{GridEventType::SiteFailed, 0.0, site::kNoJob, data::kNoDataset,
                         s, data::kNoSite, 0.0});
  site.set_alive(false);

  // Recovery choreography. The order is load-bearing: transfer teardown
  // (replication, then fetches) releases its pins against still-intact
  // storage; only then is the cache wiped and the wiped copies dropped
  // from the catalog; the lifecycle resubmits stranded jobs last, against
  // the post-crash world.
  replication_.on_site_crashed(s);
  fetch_.on_site_crashed(s);
  replication_.drop_replicas(s, site.storage().invalidate_unpinned());
  lifecycle_.on_site_crashed(s);
}

void FaultInjector::apply_site_recovery(data::SiteIndex s) {
  CHICSIM_ASSERT_MSG(s < sites_.size(), "recovery of an unknown site");
  site::Site& site = sites_[s];
  if (site.alive()) return;
  site.set_alive(true);
  events_.emit(GridEvent{GridEventType::SiteRecovered, 0.0, site::kNoJob, data::kNoDataset,
                         s, data::kNoSite, 0.0});
  // Nothing else to do: pending retries and resubmissions discover the
  // recovered site (and its surviving pinned masters) on their own clocks.
}

void FaultInjector::apply_link_scale(net::LinkId link, double scale) {
  CHICSIM_ASSERT_MSG(link < topology_.link_count(), "link id out of range");
  CHICSIM_ASSERT_MSG(scale > 0.0, "bandwidth scale must be positive");
  const net::Link& l = topology_.link(link);
  events_.emit(GridEvent{GridEventType::LinkDegraded, 0.0, site::kNoJob, data::kNoDataset,
                         l.a, l.b, scale});
  transfers_.set_bandwidth_scale(link, scale);
}

void FaultInjector::apply_catalog_loss(data::DatasetId dataset) {
  CHICSIM_ASSERT_MSG(dataset < catalog_.size(), "catalog loss of an unknown dataset");
  // Silently destroy the first droppable physical copy: unpinned (masters
  // are tape-backed) and unreferenced (no transfer or job is holding it).
  // The replica catalog is NOT told — it now lies, and stays wrong until a
  // source selection trips over the lie or the end-of-run sweep
  // (ReplicationDriver::reconcile_catalog).
  for (data::SiteIndex holder : replicas_.locations(dataset)) {
    site::Site& site = sites_[holder];
    if (!site.alive()) continue;
    if (!site.storage().evict(dataset)) continue;  // pinned or referenced: immune
    ++stats_.catalog_corruptions;
    return;
  }
  // Every copy is pinned, referenced or on a dead site: the fault misses.
}

}  // namespace chicsim::core
