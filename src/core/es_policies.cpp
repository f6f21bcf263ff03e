#include "core/es_policies.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace chicsim::core {

namespace {

/// Sites a placement may consider: every site the view believes is alive —
/// or every site when the view believes nothing is (the dispatch guard
/// then holds the job with backoff until something recovers, which beats a
/// policy crash). In a fault-free run this is always the full site list,
/// so the liveness filter perturbs nothing. Fills `out` and returns it.
const std::vector<data::SiteIndex>& placeable_sites(const GridView& view,
                                                    std::vector<data::SiteIndex>& out) {
  out.clear();
  out.reserve(view.num_sites());
  for (std::size_t s = 0; s < view.num_sites(); ++s) {
    auto site = static_cast<data::SiteIndex>(s);
    if (view.site_alive(site)) out.push_back(site);
  }
  if (out.empty()) {
    out.resize(view.num_sites());
    for (std::size_t s = 0; s < out.size(); ++s) out[s] = static_cast<data::SiteIndex>(s);
  }
  return out;
}

/// Among `candidates`, keep those with minimal load (collected in `ties`);
/// return one uniformly at random (deterministic given the rng stream).
data::SiteIndex least_loaded_of(const std::vector<data::SiteIndex>& candidates,
                                const GridView& view, util::Rng& rng,
                                std::vector<data::SiteIndex>& ties) {
  CHICSIM_ASSERT_MSG(!candidates.empty(), "least_loaded_of with no candidates");
  std::size_t best = std::numeric_limits<std::size_t>::max();
  for (auto s : candidates) best = std::min(best, view.site_load(s));
  ties.clear();
  for (auto s : candidates) {
    if (view.site_load(s) == best) ties.push_back(s);
  }
  return ties[rng.index(ties.size())];
}

}  // namespace

data::SiteIndex JobRandomEs::select_site(const site::Job& job, const GridView& view,
                                         util::Rng& rng) {
  (void)job;
  std::vector<data::SiteIndex> sites;
  placeable_sites(view, sites);
  return sites[rng.index(sites.size())];
}

data::SiteIndex JobLeastLoadedEs::select_site(const site::Job& job, const GridView& view,
                                              util::Rng& rng) {
  (void)job;
  std::vector<data::SiteIndex> sites;
  std::vector<data::SiteIndex> ties;
  return least_loaded_of(placeable_sites(view, sites), view, rng, ties);
}

data::SiteIndex JobDataPresentEs::select_site(const site::Job& job, const GridView& view,
                                              util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  // Score each site by locally present input megabytes, walking each
  // input's holders (each site's sum accumulates in input order); the best
  // placeable scorers qualify, the least loaded of them wins.
  mb_.assign(view.num_sites(), 0.0);
  for (auto input : job.inputs) {
    util::Megabytes size = view.dataset_size_mb(input);
    for (data::SiteIndex h : view.replica_sites(input)) mb_[h] += size;
  }
  qualifying_.clear();
  double best_mb = -1.0;
  for (data::SiteIndex site : placeable_sites(view, placeable_)) {
    double mb = mb_[site];
    if (mb > best_mb + util::kEpsilon) {
      best_mb = mb;
      qualifying_.clear();
      qualifying_.push_back(site);
    } else if (mb >= best_mb - util::kEpsilon) {
      qualifying_.push_back(site);
    }
  }
  CHICSIM_ASSERT(!qualifying_.empty());
  return least_loaded_of(qualifying_, view, rng, ties_);
}

data::SiteIndex JobLocalEs::select_site(const site::Job& job, const GridView& view,
                                        util::Rng& rng) {
  (void)view;
  (void)rng;
  return job.origin_site;
}

double JobAdaptiveEs::estimate_completion_s(const site::Job& job, data::SiteIndex candidate,
                                            const GridView& view) {
  // Queue estimate: waiting jobs share the site's processors; use this
  // job's own (speed-adjusted) runtime as the per-job service-time proxy
  // (the policy has no oracle for other jobs' runtimes).
  double service_s = job.runtime_s / view.site_speed_factor(candidate);
  double per_element_backlog = static_cast<double>(view.site_load(candidate)) /
                               static_cast<double>(view.site_compute_elements(candidate));
  double queue_est = per_element_backlog * service_s;

  // Transfer estimate: each missing input streams from its closest replica
  // at the bottleneck bandwidth degraded by current congestion.
  double transfer_est = 0.0;
  for (auto input : job.inputs) {
    if (view.site_has_dataset(candidate, input)) continue;
    const auto& holders = view.replica_sites(input);
    CHICSIM_ASSERT_MSG(!holders.empty(), "dataset with no replicas");
    data::SiteIndex source = holders.front();
    std::size_t best_hops = view.hops(source, candidate);
    for (auto h : holders) {
      std::size_t d = view.hops(h, candidate);
      if (d < best_hops) {
        best_hops = d;
        source = h;
      }
    }
    double bw = view.path_bandwidth_mbps(source, candidate);
    double flows = 1.0 + static_cast<double>(view.path_congestion(source, candidate));
    transfer_est += view.dataset_size_mb(input) / (bw / flows);
  }
  return std::max(queue_est, transfer_est) + service_s;
}

data::SiteIndex JobAdaptiveEs::select_site(const site::Job& job, const GridView& view,
                                           util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  // Candidates: run at home, run at the data, or run where it is quiet.
  // A home the view believes is down is not nominated (the two other
  // strategies already filter internally).
  std::vector<data::SiteIndex> candidates;
  if (view.site_alive(job.origin_site)) candidates.push_back(job.origin_site);
  candidates.push_back(data_present_.select_site(job, view, rng));
  JobLeastLoadedEs least_loaded;
  candidates.push_back(least_loaded.select_site(job, view, rng));

  // The three strategies may nominate the same site (e.g. the data already
  // lives at the origin); dedupe so a duplicate nomination does not get a
  // double weight in the random tie-break below.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());

  double best_est = std::numeric_limits<double>::infinity();
  std::vector<data::SiteIndex> ties;
  for (auto c : candidates) {
    double est = estimate_completion_s(job, c, view);
    if (est < best_est - util::kEpsilon) {
      best_est = est;
      ties.clear();
      ties.push_back(c);
    } else if (est <= best_est + util::kEpsilon) {
      ties.push_back(c);
    }
  }
  CHICSIM_ASSERT(!ties.empty());
  return ties[rng.index(ties.size())];
}

data::SiteIndex JobBestEstimateEs::select_site(const site::Job& job, const GridView& view,
                                               util::Rng& rng) {
  CHICSIM_ASSERT_MSG(!job.inputs.empty(), "job without inputs");
  // Collect the epsilon tie-set and break it through the rng (same shape as
  // least_loaded_of): the previous first-wins scan silently funnelled every
  // tie to the lowest site index, skewing load toward site 0.
  double best_est = std::numeric_limits<double>::infinity();
  std::vector<data::SiteIndex> ties;
  std::vector<data::SiteIndex> sites;
  for (data::SiteIndex candidate : placeable_sites(view, sites)) {
    double est = JobAdaptiveEs::estimate_completion_s(job, candidate, view);
    if (est < best_est - util::kEpsilon) {
      best_est = est;
      ties.clear();
      ties.push_back(candidate);
    } else if (est <= best_est + util::kEpsilon) {
      ties.push_back(candidate);
    }
  }
  CHICSIM_ASSERT(!ties.empty());
  return ties[rng.index(ties.size())];
}

}  // namespace chicsim::core
