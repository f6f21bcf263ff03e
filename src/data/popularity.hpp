// Dataset demand tracking (per site).
//
// "The DS at each site keeps track of the popularity of each dataset
// locally available" (§3). One record per dataset holds the request count
// since the counter was last reset and each remote requester's lifetime
// request count. The DS periodically asks for the datasets whose count has
// crossed its replication threshold and resets the counter of each dataset
// it replicates, so a dataset must earn another burst of requests before
// being replicated again; requester counts (DataBestClient's signal)
// survive resets. Counts never decay, as in the paper.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "data/replica_catalog.hpp"

namespace chicsim::data {

class PopularityTracker {
 public:
  /// Record one request for `id`; unless `client` is kNoSite (local
  /// demand), it also counts toward that requester's lifetime total.
  void record(DatasetId id, SiteIndex client);

  /// Requests for `id` since its counter was last reset.
  [[nodiscard]] std::uint64_t count(DatasetId id) const;

  /// Datasets whose count is non-zero and >= threshold, sorted by
  /// descending count (ties by ascending id for determinism).
  [[nodiscard]] std::vector<DatasetId> over_threshold(double threshold) const;

  /// Reset the counter of one dataset (after replicating it); its
  /// requester counts are kept.
  void reset(DatasetId id);

  /// The requester with the most recorded requests for `id`, lowest site
  /// index on a tie (kNoSite when demand has only ever been local).
  [[nodiscard]] SiteIndex top_requester(DatasetId id) const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    /// Lifetime requests per remote requester, scanned linearly.
    std::vector<std::pair<SiteIndex, std::uint64_t>> requesters;
  };

  // detlint: order-insensitive: over_threshold() sorts by (count, id) before returning
  std::unordered_map<DatasetId, Cell> cells_;
};

}  // namespace chicsim::data
