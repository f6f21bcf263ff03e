// The information service: the one GridView implementation.
//
// The paper's policies consume only *external information* — site loads,
// replica locations — obtainable from MDS/NWS-style grid information
// services (§3). This service is that boundary made explicit: every policy
// observation goes through here, never through the execution machinery,
// and the machinery itself (FetchPlanner, ReplicationDriver) acts on ground
// truth, exactly as a real grid executes against reality while its
// schedulers see the last published directory state.
//
// Staleness (SimulationConfig::info_staleness_s): with staleness 0 every
// query answers from live state. With staleness S > 0 the dynamic facts —
// site queue lengths and replica locations — are re-published on a fixed
// S-second cadence, like GRIS cache lifetimes of the era: between
// publications every scheduler sees the same frozen snapshot. Snapshots are
// captured lazily, per information family, at the first query inside each
// epoch [k*S, (k+1)*S); static facts (topology, dataset sizes, neighbour
// lists) and the NWS-style congestion probes stay live. Each family runs
// its epoch check once per virtual instant: later queries at the same
// now() return at once.
#pragma once

#include <vector>

#include "core/config.hpp"
#include "core/scheduler.hpp"
#include "data/catalog.hpp"
#include "data/replica_catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"

namespace chicsim::core {

class InfoService final : public GridView {
 public:
  /// All references are non-owning and must outlive the service.
  InfoService(const SimulationConfig& config, const sim::Engine& engine,
              const std::vector<site::Site>& sites, const data::DatasetCatalog& catalog,
              const data::ReplicaCatalog& replicas, const net::Topology& topology,
              const net::Routing& routing, const net::TransferManager& transfers,
              const std::vector<std::vector<data::SiteIndex>>& neighbors);

  // --- GridView ---
  [[nodiscard]] std::size_t num_sites() const override { return sites_.size(); }
  [[nodiscard]] std::size_t site_load(data::SiteIndex s) const override;
  [[nodiscard]] bool site_alive(data::SiteIndex s) const override;
  [[nodiscard]] std::size_t site_compute_elements(data::SiteIndex s) const override;
  [[nodiscard]] double site_speed_factor(data::SiteIndex s) const override;
  [[nodiscard]] const std::vector<data::SiteIndex>& replica_sites(
      data::DatasetId dataset) const override;
  [[nodiscard]] bool site_has_dataset(data::SiteIndex s,
                                      data::DatasetId dataset) const override;
  [[nodiscard]] util::Megabytes dataset_size_mb(data::DatasetId dataset) const override;
  [[nodiscard]] std::size_t hops(data::SiteIndex a, data::SiteIndex b) const override;
  [[nodiscard]] const std::vector<data::SiteIndex>& neighbors(
      data::SiteIndex s) const override;
  [[nodiscard]] std::size_t path_congestion(data::SiteIndex a,
                                            data::SiteIndex b) const override;
  [[nodiscard]] util::MbPerSec path_bandwidth_mbps(data::SiteIndex a,
                                                   data::SiteIndex b) const override;
  [[nodiscard]] util::SimTime now() const override { return engine_.now(); }

  /// The publication epoch the current time falls in (diagnostics/tests).
  [[nodiscard]] util::SimTime current_epoch() const;

 private:
  /// Re-publish the given snapshot family if a new epoch began. Families
  /// refresh independently, each at its first query inside the epoch.
  void refresh_loads() const;
  void refresh_replicas() const;
  void refresh_alive() const;
  /// Whether a family captured in `epoch` must be re-captured now; checks
  /// the epoch once per virtual instant, and always when `have != want`.
  bool capture_due(util::SimTime& epoch, util::SimTime& checked_at, std::size_t have,
                   std::size_t want) const;

  const SimulationConfig& config_;
  const sim::Engine& engine_;
  const std::vector<site::Site>& sites_;
  const data::DatasetCatalog& catalog_;
  const data::ReplicaCatalog& replicas_;
  const net::Topology& topology_;
  const net::Routing& routing_;
  const net::TransferManager& transfers_;
  const std::vector<std::vector<data::SiteIndex>>& neighbors_;

  mutable std::vector<std::size_t> load_snapshot_;
  mutable util::SimTime load_epoch_ = -1.0;
  mutable util::SimTime load_checked_ = -1.0;
  mutable std::vector<std::vector<data::SiteIndex>> replica_snapshot_;
  mutable util::SimTime replica_epoch_ = -1.0;
  mutable util::SimTime replica_checked_ = -1.0;
  mutable std::vector<std::uint8_t> alive_snapshot_;
  mutable util::SimTime alive_epoch_ = -1.0;
  mutable util::SimTime alive_checked_ = -1.0;
};

}  // namespace chicsim::core
