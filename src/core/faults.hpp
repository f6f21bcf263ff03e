// Fault injection (docs/robustness.md): deterministic failure schedules
// and the machinery that applies them to a running grid.
//
// A FaultPlan is a list of timed FaultActions — site crashes/recoveries,
// forced transfer aborts, link degradations, silent replica-catalog
// corruption — assembled from explicit script calls and/or generated
// stochastically from the config's fault_* rates. Generation draws only
// from the dedicated "faults" RNG substream, so enabling faults never
// perturbs workload, placement or scheduling randomness: an empty plan is
// bit-identical to a fault-free build, and the same seed + plan replays
// the same run event for event.
//
// The FaultInjector schedules the plan's actions on the event calendar
// before the first submission and, when one fires, runs the cross-service
// recovery choreography: aborting transfers touching a dead site, wiping
// its cache (pinned master copies survive — a crashed archive comes back
// with its tape store intact), having the ReplicationDriver drop the wiped
// copies from the replica catalog, and handing stranded jobs back to the
// JobLifecycle for resubmission. The injector only reads the catalog: its
// one writer is the ReplicationDriver.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "core/events.hpp"
#include "data/catalog.hpp"
#include "data/replica_catalog.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"

namespace chicsim::core {

class FetchPlanner;
class ReplicationDriver;
class JobLifecycle;

enum class FaultKind : std::uint8_t {
  SiteCrash,         ///< site dies: jobs killed, cache wiped, pushes dropped
  SiteRecover,       ///< site rejoins with empty cache (masters intact)
  TransferAbort,     ///< force-fail one in-flight fetch (dest, dataset)
  LinkDegrade,       ///< scale a link's bandwidth to nominal x scale
  LinkRestore,       ///< scale back to 1.0
  CatalogEntryLoss,  ///< silently drop one physical copy; the catalog lies
};

[[nodiscard]] const char* to_string(FaultKind kind);

/// One scheduled failure. Which fields matter depends on `kind`.
struct FaultAction {
  FaultKind kind = FaultKind::SiteCrash;
  util::SimTime at = 0.0;
  data::SiteIndex site = data::kNoSite;       ///< SiteCrash/SiteRecover
  net::LinkId link = 0;                       ///< LinkDegrade/LinkRestore
  double scale = 1.0;                         ///< LinkDegrade
  data::DatasetId dataset = data::kNoDataset; ///< TransferAbort/CatalogEntryLoss
  data::SiteIndex dest = data::kNoSite;       ///< TransferAbort: fetch destination
};

/// An ordered failure schedule. Builders append; generate() derives the
/// stochastic streams from the config. Plans are plain data — they can be
/// built once and replayed against any number of grids.
class FaultPlan {
 public:
  FaultPlan& crash_site(util::SimTime at, data::SiteIndex site);
  FaultPlan& recover_site(util::SimTime at, data::SiteIndex site);
  FaultPlan& degrade_link(util::SimTime at, net::LinkId link, double scale);
  FaultPlan& restore_link(util::SimTime at, net::LinkId link);
  FaultPlan& abort_fetch(util::SimTime at, data::SiteIndex dest, data::DatasetId dataset);
  FaultPlan& lose_catalog_entry(util::SimTime at, data::DatasetId dataset);

  /// Append every action of `other` (scripted + generated plans compose).
  void append(const FaultPlan& other);

  [[nodiscard]] const std::vector<FaultAction>& actions() const { return actions_; }
  [[nodiscard]] bool empty() const { return actions_.empty(); }
  [[nodiscard]] std::size_t size() const { return actions_.size(); }

  /// Derive the stochastic fault streams from the config's rates, drawing
  /// only from the "faults" substream of config.seed:
  ///   - per-site crash/recover pairs: Poisson arrivals at
  ///     fault_site_crash_rate_per_hour, exponential downtimes with mean
  ///     fault_site_downtime_s, over [0, fault_horizon_s);
  ///   - grid-wide catalog-entry losses at fault_catalog_loss_rate_per_hour.
  /// fault_transfer_fail_prob is not expanded here: per-transfer failures
  /// are drawn online by the FetchPlanner (a plan cannot know transfer
  /// start times in advance). All rates zero => an empty plan.
  [[nodiscard]] static FaultPlan generate(const SimulationConfig& config);

 private:
  std::vector<FaultAction> actions_;
};

/// Injector counters that have no GridEvent of their own. Crashes,
/// recoveries and link changes are events, counted by the metrics fold.
struct FaultStats {
  std::uint64_t catalog_corruptions = 0;
  std::uint64_t forced_aborts = 0;      ///< TransferAbort actions that hit a live fetch
};

/// Applies a FaultPlan to a running grid and coordinates recovery across
/// the four services. Owned by the Grid; references are non-owning.
class FaultInjector {
 public:
  FaultInjector(sim::Engine& engine, std::vector<site::Site>& sites,
                const data::DatasetCatalog& catalog, const data::ReplicaCatalog& replicas,
                const net::Topology& topology, net::TransferManager& transfers,
                FetchPlanner& fetch, ReplicationDriver& replication, JobLifecycle& lifecycle,
                EventBus& events);

  /// Put every action of `plan` on the calendar. Call before the first
  /// submission event so fault/submission ties resolve in schedule order.
  void schedule(const FaultPlan& plan);

  [[nodiscard]] const FaultStats& stats() const { return stats_; }

 private:
  void apply(const FaultAction& action);
  void apply_site_crash(data::SiteIndex s);
  void apply_site_recovery(data::SiteIndex s);
  void apply_link_scale(net::LinkId link, double scale);
  void apply_catalog_loss(data::DatasetId dataset);

  sim::Engine& engine_;
  std::vector<site::Site>& sites_;
  const data::DatasetCatalog& catalog_;
  const data::ReplicaCatalog& replicas_;
  const net::Topology& topology_;
  net::TransferManager& transfers_;
  FetchPlanner& fetch_;
  ReplicationDriver& replication_;
  JobLifecycle& lifecycle_;
  EventBus& events_;

  FaultStats stats_;
};

}  // namespace chicsim::core
