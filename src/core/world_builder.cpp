#include "core/world_builder.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::core {

net::Topology build_topology(const SimulationConfig& config) {
  if (config.topology == TopologyKind::Star) {
    return net::build_star(config.num_sites, config.link_bandwidth_mbps);
  }
  return net::build_hierarchy({config.num_sites, config.num_regions, config.link_bandwidth_mbps});
}

std::vector<site::Site> build_sites(const SimulationConfig& config) {
  util::Rng rng_sites = util::Rng::substream(config.seed, "sites");
  util::Rng rng_speeds = util::Rng::substream(config.seed, "speeds");
  std::vector<site::Site> sites;
  sites.reserve(config.num_sites);
  for (std::size_t s = 0; s < config.num_sites; ++s) {
    auto elements = static_cast<std::size_t>(rng_sites.uniform_int(
        static_cast<std::int64_t>(config.min_compute_elements),
        static_cast<std::int64_t>(config.max_compute_elements)));
    double speed = 1.0;
    if (config.compute_speed_spread > 0.0) {
      speed = rng_speeds.uniform(1.0 - config.compute_speed_spread,
                                 1.0 + config.compute_speed_spread);
    }
    sites.emplace_back(static_cast<data::SiteIndex>(s), elements,
                       config.storage_capacity_mb, speed);
  }
  return sites;
}

std::vector<std::vector<data::SiteIndex>> build_neighbor_lists(
    const SimulationConfig& config) {
  const std::size_t n = config.num_sites;
  // A star has no regions: every site is everyone's neighbour.
  const bool everyone = config.ds_neighbor_scope == NeighborScope::Grid ||
                        config.topology == TopologyKind::Star;
  // Region scope: the sites t == s (mod num_regions), ascending.
  const std::size_t stride = everyone ? 1 : config.num_regions;
  std::vector<std::vector<data::SiteIndex>> neighbors(n);
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<data::SiteIndex>& list = neighbors[s];
    list.reserve(everyone ? n - 1 : n / stride);
    for (std::size_t t = s % stride; t < n; t += stride) {
      if (t != s) list.push_back(static_cast<data::SiteIndex>(t));
    }
  }
  return neighbors;
}

data::DatasetCatalog build_catalog(const SimulationConfig& config) {
  util::Rng rng_datasets = util::Rng::substream(config.seed, "datasets");
  return data::DatasetCatalog::generate_uniform(config.num_datasets, config.min_dataset_mb,
                                                config.max_dataset_mb, rng_datasets);
}

void place_master_replicas(const SimulationConfig& config,
                           const data::DatasetCatalog& catalog,
                           std::vector<site::Site>& sites,
                           data::ReplicaCatalog& replicas) {
  util::Rng rng_place = util::Rng::substream(config.seed, "placement");
  for (data::DatasetId d = 0; d < catalog.size(); ++d) {
    util::Megabytes size = catalog.size_mb(d);
    auto first = static_cast<data::SiteIndex>(rng_place.index(sites.size()));
    data::SiteIndex chosen = data::kNoSite;
    for (std::size_t offset = 0; offset < sites.size(); ++offset) {
      auto s = static_cast<data::SiteIndex>((first + offset) % sites.size());
      if (sites[s].storage().free_mb() >= size) {
        chosen = s;
        break;
      }
    }
    if (chosen == data::kNoSite) {
      throw util::SimError("grid: total storage too small for the master copies");
    }
    sites[chosen].storage().add_master(d, size);
    replicas.add(d, chosen);
  }
}

}  // namespace chicsim::core
