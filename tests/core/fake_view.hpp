// A scriptable GridView for policy unit tests: loads, liveness, replica
// locations, distances and congestion are plain data members the test sets
// directly.
#pragma once

#include <vector>

#include "core/scheduler.hpp"

namespace chicsim::core::testing {

class FakeGridView final : public GridView {
 public:
  explicit FakeGridView(std::size_t num_sites, std::size_t num_datasets)
      : loads_(num_sites, 0),
        alive_(num_sites, true),
        compute_elements_(num_sites, 2),
        speeds_(num_sites, 1.0),
        replicas_(num_datasets),
        sizes_(num_datasets, 1000.0),
        neighbors_(num_sites) {
    for (std::size_t s = 0; s < num_sites; ++s) {
      for (std::size_t t = 0; t < num_sites; ++t) {
        if (t != s) neighbors_[s].push_back(static_cast<data::SiteIndex>(t));
      }
    }
  }

  // --- test controls ---
  std::vector<std::size_t> loads_;
  std::vector<bool> alive_;
  std::vector<std::size_t> compute_elements_;
  std::vector<double> speeds_;
  std::vector<std::vector<data::SiteIndex>> replicas_;
  std::vector<util::Megabytes> sizes_;
  std::vector<std::vector<data::SiteIndex>> neighbors_;
  std::size_t uniform_hops_ = 4;
  std::size_t congestion_ = 0;
  util::MbPerSec bandwidth_ = 10.0;
  util::SimTime now_ = 0.0;

  void place(data::DatasetId d, data::SiteIndex s) { replicas_[d].push_back(s); }

  // --- GridView ---
  [[nodiscard]] std::size_t num_sites() const override { return loads_.size(); }
  [[nodiscard]] std::size_t site_load(data::SiteIndex s) const override { return loads_[s]; }
  [[nodiscard]] bool site_alive(data::SiteIndex s) const override { return alive_[s]; }
  [[nodiscard]] std::size_t site_compute_elements(data::SiteIndex s) const override {
    return compute_elements_[s];
  }
  [[nodiscard]] double site_speed_factor(data::SiteIndex s) const override {
    return speeds_[s];
  }
  [[nodiscard]] const std::vector<data::SiteIndex>& replica_sites(
      data::DatasetId d) const override {
    return replicas_[d];
  }
  [[nodiscard]] bool site_has_dataset(data::SiteIndex s, data::DatasetId d) const override {
    for (auto h : replicas_[d]) {
      if (h == s) return true;
    }
    return false;
  }
  [[nodiscard]] util::Megabytes dataset_size_mb(data::DatasetId d) const override {
    return sizes_[d];
  }
  [[nodiscard]] std::size_t hops(data::SiteIndex a, data::SiteIndex b) const override {
    return a == b ? 0 : uniform_hops_;
  }
  [[nodiscard]] const std::vector<data::SiteIndex>& neighbors(
      data::SiteIndex s) const override {
    return neighbors_[s];
  }
  [[nodiscard]] std::size_t path_congestion(data::SiteIndex a,
                                            data::SiteIndex b) const override {
    return a == b ? 0 : congestion_;
  }
  [[nodiscard]] util::MbPerSec path_bandwidth_mbps(data::SiteIndex a,
                                                   data::SiteIndex b) const override {
    return a == b ? util::kTimeInfinity : bandwidth_;
  }
  [[nodiscard]] util::SimTime now() const override { return now_; }
};

/// Minimal job factory for policy tests.
inline site::Job make_job(site::JobId id, data::SiteIndex origin,
                          std::vector<data::DatasetId> inputs, double runtime_s = 300.0) {
  site::Job job;
  job.id = id;
  job.origin_site = origin;
  job.inputs = std::move(inputs);
  job.runtime_s = runtime_s;
  return job;
}

}  // namespace chicsim::core::testing
