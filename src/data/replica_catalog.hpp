// Replica catalog: which sites currently hold a copy of each dataset.
//
// This models the Grid-wide replica location service (the Globus Replica
// Catalog of the era). External Schedulers query it for JobDataPresent;
// Dataset Schedulers query it before replicating ("the DS may need external
// information like whether the data already exists at a site"); the data
// mover uses it to choose a source for each fetch. In this reproduction it
// is exact and instantaneously consistent, matching the paper's implicit
// assumption; the ReplicationDriver, its one writer after master placement,
// keeps it in sync with every storage add and eviction, and removes a
// silently lost copy when a fetch or the end-of-run sweep finds it.
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.hpp"

namespace chicsim::data {

/// Site index in the Grid's site table (kept as a plain integer here so
/// that the data library does not depend on the network library).
using SiteIndex = std::uint32_t;
inline constexpr SiteIndex kNoSite = static_cast<SiteIndex>(-1);

class ReplicaCatalog {
 public:
  /// `num_datasets` fixes the id space; sites can be any index.
  explicit ReplicaCatalog(std::size_t num_datasets);

  /// Record that `site` holds `dataset`. Idempotent.
  void add(DatasetId dataset, SiteIndex site);

  /// Record that `site` no longer holds `dataset`. Returns false when it
  /// was not registered.
  bool remove(DatasetId dataset, SiteIndex site);

  [[nodiscard]] bool has(DatasetId dataset, SiteIndex site) const;

  /// Sites holding the dataset, in insertion order (stable for
  /// determinism). May be empty only for never-placed datasets.
  [[nodiscard]] const std::vector<SiteIndex>& locations(DatasetId dataset) const;

  [[nodiscard]] std::size_t replica_count(DatasetId dataset) const;

  /// Total replicas across all datasets.
  [[nodiscard]] std::size_t total_replicas() const { return total_; }

  [[nodiscard]] std::size_t dataset_count() const { return locations_.size(); }

 private:
  std::vector<std::vector<SiteIndex>> locations_;
  std::size_t total_ = 0;
};

}  // namespace chicsim::data
