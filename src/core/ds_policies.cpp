#include "core/ds_policies.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace chicsim::core {

void DatasetScheduler::on_remote_fetch(ReplicationContext& ctx, data::DatasetId dataset,
                                       data::SiteIndex requester, util::Rng& rng) {
  (void)ctx;
  (void)dataset;
  (void)requester;
  (void)rng;
}

void DataDoNothingDs::evaluate(ReplicationContext& ctx, util::Rng& rng) {
  (void)ctx;
  (void)rng;
}

void DataRandomDs::evaluate(ReplicationContext& ctx, util::Rng& rng) {
  const GridView& view = ctx.view();
  if (view.num_sites() < 2) return;  // nowhere to replicate to
  for (data::DatasetId hot : ctx.popular_datasets(threshold_)) {
    // Pick a random site that does not already hold the dataset. Draw from
    // the site set excluding self so attempts are never wasted on the local
    // site (on a 2-site grid half of all draws used to self-collide and a
    // hot dataset could go un-replicated). Retry a few draws; with most of
    // the grid dataset-free this converges fast, and a fully saturated
    // dataset simply is not replicated again.
    data::SiteIndex dest = data::kNoSite;
    for (int attempt = 0; attempt < 16; ++attempt) {
      auto candidate = static_cast<data::SiteIndex>(rng.index(view.num_sites() - 1));
      if (candidate >= ctx.self()) ++candidate;  // skip over self
      if (view.site_has_dataset(candidate, hot)) continue;
      dest = candidate;
      break;
    }
    if (dest != data::kNoSite) ctx.replicate(hot, dest);
    ctx.reset_popularity(hot);
  }
}

void DataLeastLoadedDs::evaluate(ReplicationContext& ctx, util::Rng& rng) {
  (void)rng;
  const GridView& view = ctx.view();
  const auto& neighbors = view.neighbors(ctx.self());
  for (data::DatasetId hot : ctx.popular_datasets(threshold_)) {
    data::SiteIndex dest = data::kNoSite;
    if (!neighbors.empty()) {
      // One holder-list fetch per hot dataset, not one probe per neighbour
      // (and none without a neighbour to test, as before).
      const auto& holders = view.replica_sites(hot);
      std::size_t best_load = std::numeric_limits<std::size_t>::max();
      for (data::SiteIndex n : neighbors) {
        if (std::find(holders.begin(), holders.end(), n) != holders.end()) continue;
        // Count replicas already heading there: the "least loaded" host for
        // the next hot dataset is not the one every sibling just picked.
        std::size_t load = view.site_load(n) + ctx.inbound_replications(n);
        if (load < best_load) {
          best_load = load;
          dest = n;
        }
      }
    }
    if (dest != data::kNoSite) ctx.replicate(hot, dest);
    ctx.reset_popularity(hot);
  }
}

void DataBestClientDs::evaluate(ReplicationContext& ctx, util::Rng& rng) {
  (void)rng;
  const GridView& view = ctx.view();
  for (data::DatasetId hot : ctx.popular_datasets(threshold_)) {
    data::SiteIndex client = ctx.top_requester(hot);
    if (client != data::kNoSite && client != ctx.self() &&
        !view.site_has_dataset(client, hot)) {
      ctx.replicate(hot, client);
    }
    ctx.reset_popularity(hot);
  }
}

void DataFastSpreadDs::evaluate(ReplicationContext& ctx, util::Rng& rng) {
  (void)ctx;
  (void)rng;
}

void DataFastSpreadDs::on_remote_fetch(ReplicationContext& ctx, data::DatasetId dataset,
                                       data::SiteIndex requester, util::Rng& rng) {
  const GridView& view = ctx.view();
  const auto& neighbors = view.neighbors(requester);
  if (neighbors.empty()) return;
  // One extra copy lands beside the requester, pre-positioning the data in
  // that region for the next consumer.
  std::vector<data::SiteIndex> candidates;
  for (data::SiteIndex n : neighbors) {
    if (n != ctx.self() && !view.site_has_dataset(n, dataset)) candidates.push_back(n);
  }
  if (candidates.empty()) return;
  ctx.replicate(dataset, candidates[rng.index(candidates.size())]);
}

}  // namespace chicsim::core
