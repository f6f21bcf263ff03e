// Dataset Scheduler algorithms (§4).
//
// "DataDoNothing: no active replication takes place... Data may be fetched
//  from a remote site for a particular job, in which case it is cached and
//  managed using LRU.
//  DataRandom: ... when the popularity exceeds a threshold those datasets
//  are replicated to a random site on the grid.
//  DataLeastLoaded: ... chooses the least loaded site from its list of
//  known sites (we define this as neighbors) as a new host."
//
// DataBestClient and DataFastSpread are the two dynamic-replication
// strategies from the authors' companion study (Ranganathan & Foster,
// GRID 2001), adapted to a leaf-storage hierarchy: BestClient pushes a hot
// dataset to the site that requests it most; FastSpread pre-positions a
// copy near each remote requester as fetches happen (the storable analogue
// of caching along the transfer path).
#pragma once

#include "core/algorithms.hpp"
#include "core/scheduler.hpp"

namespace chicsim::core {

/// Caching-only baseline: the evaluate step does nothing.
class DataDoNothingDs final : public DatasetScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(DsAlgorithm::DataDoNothing); }
  void evaluate(ReplicationContext& ctx, util::Rng& rng) override;
};

/// Threshold replication to a uniformly random other site.
class DataRandomDs final : public DatasetScheduler {
 public:
  explicit DataRandomDs(double threshold) : threshold_(threshold) {}
  [[nodiscard]] const char* name() const override { return to_string(DsAlgorithm::DataRandom); }
  void evaluate(ReplicationContext& ctx, util::Rng& rng) override;

 private:
  double threshold_;
};

/// Threshold replication to the least-loaded neighbour (same-region site)
/// not yet holding the dataset.
class DataLeastLoadedDs final : public DatasetScheduler {
 public:
  explicit DataLeastLoadedDs(double threshold) : threshold_(threshold) {}
  [[nodiscard]] const char* name() const override {
    return to_string(DsAlgorithm::DataLeastLoaded);
  }
  void evaluate(ReplicationContext& ctx, util::Rng& rng) override;

 private:
  double threshold_;
};

/// Threshold replication to the top remote requester of each hot dataset.
class DataBestClientDs final : public DatasetScheduler {
 public:
  explicit DataBestClientDs(double threshold) : threshold_(threshold) {}
  [[nodiscard]] const char* name() const override { return to_string(DsAlgorithm::DataBestClient); }
  void evaluate(ReplicationContext& ctx, util::Rng& rng) override;

 private:
  double threshold_;
};

/// Eager spread: every remote fetch also pushes a copy to one random
/// neighbour of the requester. The periodic evaluate step is a no-op.
class DataFastSpreadDs final : public DatasetScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(DsAlgorithm::DataFastSpread); }
  void evaluate(ReplicationContext& ctx, util::Rng& rng) override;
  void on_remote_fetch(ReplicationContext& ctx, data::DatasetId dataset,
                       data::SiteIndex requester, util::Rng& rng) override;
};

}  // namespace chicsim::core
