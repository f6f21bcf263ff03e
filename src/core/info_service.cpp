#include "core/info_service.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace chicsim::core {

InfoService::InfoService(const SimulationConfig& config, const sim::Engine& engine,
                         const std::vector<site::Site>& sites,
                         const data::DatasetCatalog& catalog,
                         const data::ReplicaCatalog& replicas,
                         const net::Topology& topology, const net::Routing& routing,
                         const net::TransferManager& transfers,
                         const std::vector<std::vector<data::SiteIndex>>& neighbors)
    : config_(config),
      engine_(engine),
      sites_(sites),
      catalog_(catalog),
      replicas_(replicas),
      topology_(topology),
      routing_(routing),
      transfers_(transfers),
      neighbors_(neighbors) {}

util::SimTime InfoService::current_epoch() const {
  if (config_.info_staleness_s <= 0.0) return now();
  return std::floor(now() / config_.info_staleness_s) * config_.info_staleness_s;
}

bool InfoService::capture_due(util::SimTime& epoch, util::SimTime& checked_at,
                              std::size_t have, std::size_t want) const {
  if (now() == checked_at && have == want) return false;
  checked_at = now();
  util::SimTime current = current_epoch();
  if (current <= epoch && have == want) return false;
  epoch = current;
  return true;
}

void InfoService::refresh_loads() const {
  if (!capture_due(load_epoch_, load_checked_, load_snapshot_.size(), sites_.size())) return;
  load_snapshot_.resize(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) load_snapshot_[i] = sites_[i].load();
}

void InfoService::refresh_replicas() const {
  if (!capture_due(replica_epoch_, replica_checked_, replica_snapshot_.size(),
                   catalog_.size())) {
    return;
  }
  replica_snapshot_.resize(catalog_.size());
  for (data::DatasetId d = 0; d < catalog_.size(); ++d) {
    replica_snapshot_[d] = replicas_.locations(d);
  }
}

void InfoService::refresh_alive() const {
  if (!capture_due(alive_epoch_, alive_checked_, alive_snapshot_.size(), sites_.size())) return;
  alive_snapshot_.resize(sites_.size());
  for (std::size_t i = 0; i < sites_.size(); ++i) alive_snapshot_[i] = sites_[i].alive() ? 1 : 0;
}

bool InfoService::site_alive(data::SiteIndex s) const {
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  if (config_.info_staleness_s <= 0.0) return sites_[s].alive();
  refresh_alive();
  return alive_snapshot_[s] != 0;
}

std::size_t InfoService::site_load(data::SiteIndex s) const {
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  if (config_.info_staleness_s <= 0.0) return sites_[s].load();
  refresh_loads();
  return load_snapshot_[s];
}

std::size_t InfoService::site_compute_elements(data::SiteIndex s) const {
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  return sites_[s].compute().size();
}

double InfoService::site_speed_factor(data::SiteIndex s) const {
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  return sites_[s].speed_factor();
}

const std::vector<data::SiteIndex>& InfoService::replica_sites(
    data::DatasetId dataset) const {
  if (config_.info_staleness_s <= 0.0) return replicas_.locations(dataset);
  refresh_replicas();
  CHICSIM_ASSERT_MSG(dataset < replica_snapshot_.size(), "dataset id out of range");
  return replica_snapshot_[dataset];
}

bool InfoService::site_has_dataset(data::SiteIndex s, data::DatasetId dataset) const {
  if (config_.info_staleness_s <= 0.0) return replicas_.has(dataset, s);
  const auto& holders = replica_sites(dataset);
  return std::find(holders.begin(), holders.end(), s) != holders.end();
}

util::Megabytes InfoService::dataset_size_mb(data::DatasetId dataset) const {
  return catalog_.size_mb(dataset);
}

std::size_t InfoService::hops(data::SiteIndex a, data::SiteIndex b) const {
  return routing_.hops(a, b);
}

const std::vector<data::SiteIndex>& InfoService::neighbors(data::SiteIndex s) const {
  CHICSIM_ASSERT_MSG(s < neighbors_.size(), "site index out of range");
  return neighbors_[s];
}

std::size_t InfoService::path_congestion(data::SiteIndex a, data::SiteIndex b) const {
  if (a == b) return 0;
  std::size_t worst = 0;
  for (net::LinkId l : routing_.path(a, b)) {
    worst = std::max(worst, transfers_.flows_on_link(l));
  }
  return worst;
}

util::MbPerSec InfoService::path_bandwidth_mbps(data::SiteIndex a, data::SiteIndex b) const {
  if (a == b) return util::kTimeInfinity;
  util::MbPerSec bw = util::kTimeInfinity;
  for (net::LinkId l : routing_.path(a, b)) {
    bw = std::min(bw, topology_.link(l).bandwidth_mbps);
  }
  return bw;
}

}  // namespace chicsim::core
