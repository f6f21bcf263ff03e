#include "core/ds_policies.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "fake_view.hpp"

namespace chicsim::core {
namespace {

using testing::FakeGridView;

/// Scriptable ReplicationContext recording replicate() calls.
class FakeReplicationContext final : public ReplicationContext {
 public:
  FakeReplicationContext(FakeGridView& view, data::SiteIndex self)
      : view_(view), self_(self) {}

  // --- test controls ---
  std::vector<data::DatasetId> popular_;
  std::map<data::DatasetId, data::SiteIndex> top_requester_;
  std::map<data::SiteIndex, std::size_t> inbound_;
  std::vector<std::pair<data::DatasetId, data::SiteIndex>> replicated_;
  std::vector<data::DatasetId> resets_;

  // --- ReplicationContext ---
  [[nodiscard]] data::SiteIndex self() const override { return self_; }
  [[nodiscard]] const GridView& view() const override { return view_; }
  void replicate(data::DatasetId d, data::SiteIndex to) override {
    replicated_.emplace_back(d, to);
  }
  [[nodiscard]] std::vector<data::DatasetId> popular_datasets(double threshold) const override {
    (void)threshold;
    return popular_;
  }
  void reset_popularity(data::DatasetId d) override { resets_.push_back(d); }
  [[nodiscard]] data::SiteIndex top_requester(data::DatasetId d) const override {
    auto it = top_requester_.find(d);
    return it == top_requester_.end() ? data::kNoSite : it->second;
  }
  [[nodiscard]] std::size_t inbound_replications(data::SiteIndex s) const override {
    auto it = inbound_.find(s);
    return it == inbound_.end() ? 0 : it->second;
  }

 private:
  FakeGridView& view_;
  data::SiteIndex self_;
};

TEST(DataDoNothing, NeverReplicates) {
  FakeGridView view(5, 3);
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = {0, 1, 2};
  util::Rng rng(1);
  DataDoNothingDs ds;
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
  EXPECT_TRUE(ctx.resets_.empty());
}

TEST(DataRandom, ReplicatesEachHotDatasetSomewhereElse) {
  FakeGridView view(6, 3);
  FakeReplicationContext ctx(view, 2);
  ctx.popular_ = {0, 1};
  util::Rng rng(2);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 2u);
  for (const auto& [d, to] : ctx.replicated_) {
    EXPECT_NE(to, 2u);  // never to self
    EXPECT_LT(to, 6u);
  }
  EXPECT_EQ(ctx.resets_, (std::vector<data::DatasetId>{0, 1}));
}

TEST(DataRandom, SkipsSitesAlreadyHolding) {
  FakeGridView view(3, 1);
  // Dataset 0 is held by self (2) and site 1; only site 0 is a valid target.
  view.place(0, 2);
  view.place(0, 1);
  FakeReplicationContext ctx(view, 2);
  ctx.popular_ = {0};
  util::Rng rng(3);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 0u);
}

TEST(DataRandom, TwoSiteGridAlwaysReplicatesToTheOtherSite) {
  // Regression: the draw used to cover all sites and burn retry attempts on
  // self-collisions — on a 2-site grid every attempt failed with p = 1/2,
  // so a hot dataset could (rarely but legitimately) exhaust all 16 draws
  // and not replicate at all. The draw now excludes self, so the only other
  // site is picked with certainty regardless of the rng stream.
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    FakeGridView view(2, 1);
    FakeReplicationContext ctx(view, 0);
    ctx.popular_ = {0};
    util::Rng rng(seed);
    DataRandomDs ds(10.0);
    ds.evaluate(ctx, rng);
    ASSERT_EQ(ctx.replicated_.size(), 1u);
    EXPECT_EQ(ctx.replicated_[0].second, 1u);
  }
}

TEST(DataRandom, SelfIsNeverDrawn) {
  // Larger grid, self in the middle of the index range: the shifted draw
  // must map around self, never onto it, and cover every other site.
  FakeGridView view(5, 1);
  std::vector<bool> seen(5, false);
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    FakeReplicationContext ctx(view, 2);
    ctx.popular_ = {0};
    util::Rng rng(seed);
    DataRandomDs ds(10.0);
    ds.evaluate(ctx, rng);
    ASSERT_EQ(ctx.replicated_.size(), 1u);
    EXPECT_NE(ctx.replicated_[0].second, 2u);
    seen[ctx.replicated_[0].second] = true;
  }
  EXPECT_TRUE(seen[0] && seen[1] && seen[3] && seen[4]);
  EXPECT_FALSE(seen[2]);
}

TEST(DataRandom, SingleSiteGridDoesNothing) {
  FakeGridView view(1, 1);
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = {0};
  util::Rng rng(1);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataRandom, FullySaturatedDatasetIsOnlyReset) {
  FakeGridView view(3, 1);
  view.place(0, 0);
  view.place(0, 1);
  view.place(0, 2);
  FakeReplicationContext ctx(view, 2);
  ctx.popular_ = {0};
  util::Rng rng(4);
  DataRandomDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
  EXPECT_EQ(ctx.resets_, (std::vector<data::DatasetId>{0}));
}

TEST(DataLeastLoaded, PicksLeastLoadedNeighbor) {
  FakeGridView view(4, 2);
  view.loads_ = {9, 3, 0, 6};  // self = 0
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = {1};
  util::Rng rng(5);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 2u);
}

TEST(DataLeastLoaded, CountsInboundReplicationsAsLoad) {
  FakeGridView view(4, 2);
  view.loads_ = {9, 3, 0, 6};
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = {1};
  ctx.inbound_[2] = 5;  // the cold site is already receiving 5 pushes
  util::Rng rng(6);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 1u);  // load 3 beats load 0+5
}

TEST(DataLeastLoaded, SkipsNeighborsAlreadyHolding) {
  FakeGridView view(3, 1);
  view.loads_ = {5, 0, 1};  // self = 0; site 1 is coldest but holds the data
  view.place(0, 1);
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = {0};
  util::Rng rng(7);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0].second, 2u);
}

TEST(DataLeastLoaded, RespectsNeighborList) {
  FakeGridView view(4, 1);
  view.loads_ = {9, 9, 0, 9};
  view.neighbors_[0] = {1, 3};  // site 2 (coldest) is not a known site
  FakeReplicationContext ctx(view, 0);
  ctx.popular_ = {0};
  util::Rng rng(8);
  DataLeastLoadedDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_NE(ctx.replicated_[0].second, 2u);
}

TEST(DataLeastLoaded, SkipsExactlyTheHolders) {
  // Self is 0; its known sites are 1..4. Make each neighbour in turn the
  // coldest: a holder must never be picked, every non-holder must be.
  // Holder lists that include self, and an empty one, both hold.
  const std::vector<std::vector<data::SiteIndex>> holder_lists = {{0, 2, 4}, {3, 0}, {}};
  for (const auto& holders : holder_lists) {
    DataLeastLoadedDs ds(10.0);  // reused across calls: flags must be cleared
    for (data::SiteIndex coldest = 1; coldest <= 4; ++coldest) {
      FakeGridView view(5, 2);
      for (auto h : holders) view.place(0, h);
      view.loads_ = {9, 6, 6, 6, 6};
      view.loads_[coldest] = 0;
      view.neighbors_[0] = {1, 2, 3, 4};
      FakeReplicationContext ctx(view, 0);
      ctx.popular_ = {0, 1};  // dataset 1 has no holders at all
      util::Rng rng(20);
      ds.evaluate(ctx, rng);
      bool held = std::find(holders.begin(), holders.end(), coldest) != holders.end();
      ASSERT_FALSE(ctx.replicated_.empty());
      if (held) {
        EXPECT_NE(ctx.replicated_[0].second, coldest);
        EXPECT_EQ(std::count(holders.begin(), holders.end(), ctx.replicated_[0].second), 0);
      } else {
        EXPECT_EQ(ctx.replicated_[0], (std::pair<data::DatasetId, data::SiteIndex>{0, coldest}));
      }
      // The unheld dataset may go to any neighbour, holders of dataset 0
      // included: the coldest wins.
      ASSERT_EQ(ctx.replicated_.back().first, 1u);
      EXPECT_EQ(ctx.replicated_.back().second, coldest);
    }
  }
}

TEST(DataBestClient, ReplicatesToTopRequester) {
  FakeGridView view(5, 2);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = {0};
  ctx.top_requester_[0] = 4;
  util::Rng rng(9);
  DataBestClientDs ds(10.0);
  ds.evaluate(ctx, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_EQ(ctx.replicated_[0], (std::pair<data::DatasetId, data::SiteIndex>{0, 4}));
}

TEST(DataBestClient, NoRequesterMeansNoPush) {
  FakeGridView view(5, 2);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = {0};
  util::Rng rng(10);
  DataBestClientDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
  EXPECT_EQ(ctx.resets_, (std::vector<data::DatasetId>{0}));
}

TEST(DataBestClient, SkipsRequesterAlreadyHolding) {
  FakeGridView view(5, 2);
  view.place(0, 4);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = {0};
  ctx.top_requester_[0] = 4;
  util::Rng rng(11);
  DataBestClientDs ds(10.0);
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataFastSpread, EvaluateIsANoOp) {
  FakeGridView view(5, 2);
  FakeReplicationContext ctx(view, 1);
  ctx.popular_ = {0};
  util::Rng rng(12);
  DataFastSpreadDs ds;
  ds.evaluate(ctx, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataFastSpread, PushesBesideTheRequesterOnRemoteFetch) {
  FakeGridView view(6, 2);
  view.neighbors_[4] = {3, 5};  // requester 4's region siblings
  FakeReplicationContext ctx(view, 1);
  util::Rng rng(13);
  DataFastSpreadDs ds;
  ds.on_remote_fetch(ctx, 0, /*requester=*/4, rng);
  ASSERT_EQ(ctx.replicated_.size(), 1u);
  EXPECT_TRUE(ctx.replicated_[0].second == 3u || ctx.replicated_[0].second == 5u);
}

TEST(DataFastSpread, NoCandidateMeansNoPush) {
  FakeGridView view(3, 1);
  view.neighbors_[2] = {1};
  view.place(0, 1);  // the only sibling already holds it
  FakeReplicationContext ctx(view, 1);
  util::Rng rng(14);
  DataFastSpreadDs ds;
  ds.on_remote_fetch(ctx, 0, /*requester=*/2, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DataFastSpread, SkipsExactlyTheHolders) {
  // Self (1) sits among requester 3's siblings. The candidates are the
  // siblings other than self that do not hold the dataset, whether or not
  // self is listed as a holder.
  struct Case {
    std::vector<data::SiteIndex> holders;
    std::set<data::SiteIndex> expected;
  };
  const std::vector<Case> cases = {
      {{1, 2}, {0, 4}}, {{4}, {0, 2}}, {{}, {0, 2, 4}}, {{0, 1, 2, 4}, {}}};
  DataFastSpreadDs ds;  // reused across calls: flags must be cleared
  for (const Case& c : cases) {
    FakeGridView view(5, 2);
    for (auto h : c.holders) view.place(0, h);
    view.neighbors_[3] = {0, 1, 2, 4};
    std::set<data::SiteIndex> seen;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      FakeReplicationContext ctx(view, 1);
      util::Rng rng(seed);
      ds.on_remote_fetch(ctx, 0, /*requester=*/3, rng);
      if (c.expected.empty()) {
        EXPECT_TRUE(ctx.replicated_.empty());
        continue;
      }
      ASSERT_EQ(ctx.replicated_.size(), 1u);
      seen.insert(ctx.replicated_[0].second);
      // Dataset 1 has no holders: every sibling but self stays a candidate.
      ds.on_remote_fetch(ctx, 1, /*requester=*/3, rng);
      ASSERT_EQ(ctx.replicated_.size(), 2u);
      EXPECT_NE(ctx.replicated_[1].second, 1u);
    }
    EXPECT_EQ(seen, c.expected);
  }
}

TEST(DataFastSpread, OnlySelfBesideTheRequesterMeansNoPush) {
  FakeGridView view(3, 1);
  view.neighbors_[2] = {1};
  FakeReplicationContext ctx(view, 1);
  util::Rng rng(16);
  DataFastSpreadDs ds;
  ds.on_remote_fetch(ctx, 0, /*requester=*/2, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

TEST(DefaultOnRemoteFetchHook, DoesNothing) {
  FakeGridView view(3, 1);
  FakeReplicationContext ctx(view, 0);
  util::Rng rng(15);
  DataRandomDs ds(10.0);
  ds.on_remote_fetch(ctx, 0, 1, rng);
  EXPECT_TRUE(ctx.replicated_.empty());
}

}  // namespace
}  // namespace chicsim::core
