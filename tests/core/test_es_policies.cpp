#include "core/es_policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "fake_view.hpp"
#include "util/error.hpp"

namespace chicsim::core {
namespace {

using testing::FakeGridView;
using testing::make_job;

TEST(JobLocal, AlwaysPicksOrigin) {
  FakeGridView view(10, 5);
  util::Rng rng(1);
  JobLocalEs es;
  for (data::SiteIndex origin = 0; origin < 10; ++origin) {
    auto job = make_job(1, origin, {0});
    EXPECT_EQ(es.select_site(job, view, rng), origin);
  }
}

TEST(JobRandom, CoversAllSites) {
  FakeGridView view(5, 1);
  util::Rng rng(2);
  JobRandomEs es;
  std::set<data::SiteIndex> seen;
  auto job = make_job(1, 0, {0});
  for (int i = 0; i < 500; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(JobLeastLoaded, PicksUniqueMinimum) {
  FakeGridView view(4, 1);
  view.loads_ = {5, 2, 9, 7};
  util::Rng rng(3);
  JobLeastLoadedEs es;
  auto job = make_job(1, 0, {0});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(es.select_site(job, view, rng), 1u);
}

TEST(JobLeastLoaded, BreaksTiesAmongMinimaOnly) {
  FakeGridView view(4, 1);
  view.loads_ = {3, 0, 0, 5};
  util::Rng rng(4);
  JobLeastLoadedEs es;
  auto job = make_job(1, 0, {0});
  std::set<data::SiteIndex> seen;
  for (int i = 0; i < 200; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_EQ(seen, (std::set<data::SiteIndex>{1, 2}));
}

TEST(JobDataPresent, PicksTheHolder) {
  FakeGridView view(6, 3);
  view.place(2, 4);
  util::Rng rng(5);
  JobDataPresentEs es;
  auto job = make_job(1, 0, {2});
  EXPECT_EQ(es.select_site(job, view, rng), 4u);
}

TEST(JobDataPresent, LeastLoadedAmongMultipleHolders) {
  FakeGridView view(6, 3);
  view.place(2, 1);
  view.place(2, 4);
  view.loads_ = {0, 8, 0, 0, 3, 0};
  util::Rng rng(6);
  JobDataPresentEs es;
  auto job = make_job(1, 0, {2});
  for (int i = 0; i < 20; ++i) EXPECT_EQ(es.select_site(job, view, rng), 4u);
}

TEST(JobDataPresent, MultiInputPrefersSiteWithMostInputMegabytes) {
  FakeGridView view(5, 4);
  view.sizes_ = {1500.0, 600.0, 700.0, 100.0};
  view.place(0, 1);  // site 1 holds 1500 MB of inputs
  view.place(1, 2);  // site 2 holds 600 + 700 = 1300 MB
  view.place(2, 2);
  util::Rng rng(7);
  JobDataPresentEs es;
  auto job = make_job(1, 0, {0, 1, 2});
  EXPECT_EQ(es.select_site(job, view, rng), 1u);
}

TEST(JobDataPresent, NoHolderAnywhereFallsBackToLeastLoadedOverall) {
  // Every site scores zero megabytes -> all qualify -> least loaded wins.
  FakeGridView view(4, 1);
  view.loads_ = {2, 0, 4, 4};
  util::Rng rng(8);
  JobDataPresentEs es;
  auto job = make_job(1, 3, {0});
  EXPECT_EQ(es.select_site(job, view, rng), 1u);
}

/// The per-site scoring JobDataPresentEs used before it walked holder
/// lists: ask site_has_dataset for every placeable site x input. Kept here
/// as the reference the inverted scoring must match bit for bit, draw for
/// draw.
data::SiteIndex reference_data_present(const site::Job& job, const GridView& view,
                                       util::Rng& rng) {
  std::vector<data::SiteIndex> placeable;
  for (data::SiteIndex s = 0; s < view.num_sites(); ++s) {
    if (view.site_alive(s)) placeable.push_back(s);
  }
  if (placeable.empty()) {
    for (data::SiteIndex s = 0; s < view.num_sites(); ++s) placeable.push_back(s);
  }
  std::vector<data::SiteIndex> qualifying;
  double best_mb = -1.0;
  for (data::SiteIndex site : placeable) {
    double mb = 0.0;
    for (auto input : job.inputs) {
      if (view.site_has_dataset(site, input)) mb += view.dataset_size_mb(input);
    }
    if (mb > best_mb + util::kEpsilon) {
      best_mb = mb;
      qualifying.clear();
      qualifying.push_back(site);
    } else if (mb >= best_mb - util::kEpsilon) {
      qualifying.push_back(site);
    }
  }
  std::size_t best_load = std::numeric_limits<std::size_t>::max();
  for (auto s : qualifying) best_load = std::min(best_load, view.site_load(s));
  std::vector<data::SiteIndex> ties;
  for (auto s : qualifying) {
    if (view.site_load(s) == best_load) ties.push_back(s);
  }
  return ties[rng.index(ties.size())];
}

TEST(JobDataPresent, HolderWalkMatchesPerSiteScoringOnRandomViews) {
  // Sizes chosen to stress the epsilon compare: thirds do not sum exactly,
  // 1e-7 sits just above kEpsilon and 1e-10 below it.
  const std::vector<double> sizes = {1.0 / 3.0, 2.0 / 3.0, 1e-7, 1e-10, 500.0, 1999.5};
  util::Rng gen(20);
  JobDataPresentEs es;  // one instance: its buffers must survive resizing views
  int all_dead = 0;
  int repeated = 0;
  int orphan = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    auto num_sites = static_cast<std::size_t>(gen.uniform_int(1, 12));
    auto num_datasets = static_cast<std::size_t>(gen.uniform_int(1, 5));
    FakeGridView view(num_sites, num_datasets);
    for (auto& size : view.sizes_) size = sizes[gen.index(sizes.size())];
    for (data::DatasetId d = 0; d < num_datasets; ++d) {
      // Distinct holders in random order; some datasets have none.
      std::vector<std::size_t> order = gen.permutation(num_sites);
      auto holders = static_cast<std::size_t>(gen.uniform_int(0, 3));
      for (std::size_t i = 0; i < std::min(holders, num_sites); ++i) {
        view.place(d, static_cast<data::SiteIndex>(order[i]));
      }
    }
    for (auto& load : view.loads_) load = static_cast<std::size_t>(gen.uniform_int(0, 2));
    bool kill_all = trial % 10 == 0;
    for (std::size_t s = 0; s < num_sites; ++s) view.alive_[s] = !kill_all && gen.chance(0.7);
    std::vector<data::DatasetId> inputs;
    auto num_inputs = static_cast<std::size_t>(gen.uniform_int(1, 4));
    for (std::size_t i = 0; i < num_inputs; ++i) {
      inputs.push_back(static_cast<data::DatasetId>(gen.index(num_datasets)));
    }
    if (trial % 7 == 0) inputs.push_back(inputs.front());  // a repeated input
    auto job = make_job(1, 0, inputs);

    std::vector<data::DatasetId> sorted = inputs;
    std::sort(sorted.begin(), sorted.end());
    repeated += std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end() ? 1 : 0;
    orphan += std::any_of(inputs.begin(), inputs.end(),
                          [&view](data::DatasetId d) { return view.replicas_[d].empty(); })
                  ? 1
                  : 0;
    all_dead += std::none_of(view.alive_.begin(), view.alive_.end(), [](bool a) { return a; })
                    ? 1
                    : 0;

    auto seed = static_cast<std::uint64_t>(1000 + trial);
    util::Rng ref_rng(seed);
    util::Rng es_rng(seed);
    data::SiteIndex want = reference_data_present(job, view, ref_rng);
    ASSERT_EQ(es.select_site(job, view, es_rng), want) << "trial " << trial;
    // Same number of draws consumed: the next draw of each stream agrees.
    ASSERT_EQ(es_rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()),
              ref_rng.uniform_int(0, std::numeric_limits<std::int64_t>::max()))
        << "trial " << trial;
  }
  // The generator really covered the shapes the inversion must get right.
  EXPECT_GT(all_dead, 100);
  EXPECT_GT(repeated, 200);
  EXPECT_GT(orphan, 200);
}

TEST(JobDataPresent, DeadHolderIsNeverChosenWhileALiveOneExists) {
  FakeGridView view(5, 2);
  view.sizes_ = {1000.0, 400.0};
  view.place(0, 1);  // site 1 holds everything but is down
  view.place(1, 1);
  view.place(0, 3);  // site 3 holds the bigger input and is up
  view.alive_[1] = false;
  view.loads_ = {0, 0, 0, 9, 0};  // not even the busiest live holder loses
  JobDataPresentEs es;
  auto job = make_job(1, 0, {0, 1});
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    util::Rng rng(seed);
    EXPECT_EQ(es.select_site(job, view, rng), 3u);
  }
}

TEST(JobDataPresent, AllDeadFallsBackToEverySiteAndStillPicks) {
  FakeGridView view(4, 1);
  view.place(0, 2);
  view.alive_ = {false, false, false, false};
  util::Rng rng(16);
  JobDataPresentEs es;
  auto job = make_job(1, 0, {0});
  EXPECT_EQ(es.select_site(job, view, rng), 2u);
}

TEST(JobAdaptive, PrefersDataSiteWhenNetworkIsSlow) {
  FakeGridView view(4, 2);
  view.place(0, 2);
  view.bandwidth_ = 1.0;   // 1 MB/s: moving 1 GB costs 1000 s
  view.congestion_ = 3;
  util::Rng rng(9);
  JobAdaptiveEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  EXPECT_EQ(es.select_site(job, view, rng), 2u);
}

TEST(JobAdaptive, RunsLocallyWhenDataIsCheapAndDataSiteIsBusy) {
  FakeGridView view(4, 2);
  view.place(0, 2);
  view.loads_ = {0, 0, 50, 0};  // data site is deeply backlogged
  view.bandwidth_ = 1000.0;     // near-free data movement
  util::Rng rng(10);
  JobAdaptiveEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  data::SiteIndex chosen = es.select_site(job, view, rng);
  EXPECT_NE(chosen, 2u);
}

TEST(JobAdaptive, EstimateMatchesHandComputation) {
  FakeGridView view(3, 1);
  view.loads_ = {4, 0, 0};
  view.compute_elements_ = {2, 2, 2};
  view.place(0, 1);
  view.bandwidth_ = 10.0;
  view.congestion_ = 1;
  auto job = make_job(1, 0, {0}, 300.0);
  // Candidate 0: queue = (4/2)*300 = 600; transfer = 1000/(10/2) = 200;
  // est = max(600, 200) + 300 = 900.
  EXPECT_NEAR(JobAdaptiveEs::estimate_completion_s(job, 0, view), 900.0, 1e-9);
  // Candidate 1 (holds the data): est = max(0, 0) + 300 = 300.
  EXPECT_NEAR(JobAdaptiveEs::estimate_completion_s(job, 1, view), 300.0, 1e-9);
}

TEST(JobBestEstimate, ScansEverySiteAndPicksTheGlobalMinimum) {
  FakeGridView view(5, 1);
  view.place(0, 2);
  view.bandwidth_ = 1.0;  // expensive data movement: data site must win
  util::Rng rng(12);
  JobBestEstimateEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  EXPECT_EQ(es.select_site(job, view, rng), 2u);
}

TEST(JobBestEstimate, ExploitsFasterProcessorsWhenDataIsCheap) {
  FakeGridView view(4, 1);
  view.place(0, 1);
  view.bandwidth_ = 10000.0;  // data movement nearly free
  view.speeds_ = {1.0, 1.0, 3.0, 1.0};  // site 2 is 3x faster
  util::Rng rng(13);
  JobBestEstimateEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  EXPECT_EQ(es.select_site(job, view, rng), 2u);
}

TEST(JobBestEstimate, BreaksTiesUniformlyInsteadOfFavoringSiteZero) {
  // Regression: the scan used to ignore the rng and keep the first site
  // within epsilon of the minimum, funnelling every tied decision to the
  // lowest index. A symmetric grid (no data anywhere, equal loads and
  // speeds) makes every site an exact tie, so all of them must be reachable.
  FakeGridView view(5, 1);
  view.place(0, 0);
  view.place(0, 1);
  view.place(0, 2);
  view.place(0, 3);
  view.place(0, 4);  // data everywhere: transfer estimate is 0 at all sites
  util::Rng rng(14);
  JobBestEstimateEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  std::set<data::SiteIndex> seen;
  for (int i = 0; i < 300; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(JobAdaptive, BreaksTiesBetweenDistinctCandidatesViaRng) {
  // Origin (0) and the least-loaded pick tie on the estimate when data is
  // everywhere and loads are equal; the choice must not always be the
  // first candidate in scan order.
  FakeGridView view(3, 1);
  view.place(0, 0);
  view.place(0, 1);
  view.place(0, 2);
  util::Rng rng(15);
  JobAdaptiveEs es;
  auto job = make_job(1, 0, {0}, 300.0);
  std::set<data::SiteIndex> seen;
  for (int i = 0; i < 300; ++i) seen.insert(es.select_site(job, view, rng));
  EXPECT_GT(seen.size(), 1u);
}

TEST(JobAdaptive, SpeedFactorsScaleTheEstimate) {
  FakeGridView view(2, 1);
  view.place(0, 1);
  view.speeds_ = {2.0, 1.0};
  auto job = make_job(1, 0, {0}, 300.0);
  // Candidate 0 runs at double speed: est = 150 + transfer considerations.
  double est_fast = JobAdaptiveEs::estimate_completion_s(job, 0, view);
  double est_data = JobAdaptiveEs::estimate_completion_s(job, 1, view);
  EXPECT_NEAR(est_data, 300.0, 1e-9);        // data local, nominal speed
  EXPECT_NEAR(est_fast, 150.0 + 100.0, 1e-9);  // 1000 MB at 10 MB/s wait vs run
}

TEST(EsPolicies, NamesMatchAlgorithms) {
  EXPECT_STREQ(JobRandomEs{}.name(), "JobRandom");
  EXPECT_STREQ(JobLeastLoadedEs{}.name(), "JobLeastLoaded");
  EXPECT_STREQ(JobDataPresentEs{}.name(), "JobDataPresent");
  EXPECT_STREQ(JobLocalEs{}.name(), "JobLocal");
  EXPECT_STREQ(JobAdaptiveEs{}.name(), "JobAdaptive");
  EXPECT_STREQ(JobBestEstimateEs{}.name(), "JobBestEstimate");
}

TEST(EsPolicies, JobWithoutInputsIsRejectedByDataAwarePolicies) {
  FakeGridView view(3, 1);
  util::Rng rng(11);
  auto job = make_job(1, 0, {});
  JobDataPresentEs data_present;
  EXPECT_THROW((void)data_present.select_site(job, view, rng), util::SimError);
  JobAdaptiveEs adaptive;
  EXPECT_THROW((void)adaptive.select_site(job, view, rng), util::SimError);
}

}  // namespace
}  // namespace chicsim::core
