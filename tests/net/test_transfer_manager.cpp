#include "net/transfer_manager.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace chicsim::net {
namespace {

struct World {
  explicit World(Topology t, SharePolicy policy = SharePolicy::EqualShare)
      : topo(std::move(t)), routing(topo), tm(engine, topo, routing, policy) {}

  sim::Engine engine;
  Topology topo;
  Routing routing;
  TransferManager tm;
};

World star_world(std::size_t sites, double bw, SharePolicy policy = SharePolicy::EqualShare) {
  return World(build_star(sites, bw), policy);
}

TEST(TransferManager, SingleTransferTakesSizeOverBandwidth) {
  World w = star_world(3, 10.0);
  double done_at = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_at = w.engine.now(); });
  w.engine.run();
  // 1000 MB over a 2-hop path whose bottleneck is 10 MB/s -> 100 s.
  EXPECT_NEAR(done_at, 100.0, 1e-6);
}

TEST(TransferManager, LocalTransferIsInstantButAsync) {
  World w = star_world(2, 10.0);
  bool done = false;
  TransferId id =
      w.tm.start(1, 1, 500.0, TransferPurpose::JobFetch, [&](TransferId) { done = true; });
  EXPECT_TRUE(w.tm.active(id));
  EXPECT_FALSE(done);  // completion goes through the calendar
  w.engine.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(w.engine.now(), 0.0);
  EXPECT_EQ(w.tm.stats().local_transfers, 1u);
  EXPECT_DOUBLE_EQ(w.tm.stats().total_delivered_mb(), 0.0);
}

TEST(TransferManager, TwoFlowsOnSharedLinkHalveBandwidth) {
  World w = star_world(3, 10.0);
  // Both flows leave site 0, sharing the site0-hub link.
  std::map<TransferId, double> done;
  TransferId t1 =
      w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
                 [&](TransferId id) { done[id] = w.engine.now(); });
  TransferId t2 =
      w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch,
                 [&](TransferId id) { done[id] = w.engine.now(); });
  EXPECT_NEAR(w.tm.current_rate(t1), 5.0, 1e-9);
  EXPECT_NEAR(w.tm.current_rate(t2), 5.0, 1e-9);
  w.engine.run();
  EXPECT_NEAR(done[t1], 200.0, 1e-6);
  EXPECT_NEAR(done[t2], 200.0, 1e-6);
}

TEST(TransferManager, RatesRecoverWhenAFlowFinishes) {
  World w = star_world(3, 10.0);
  double done_small = -1.0;
  double done_big = -1.0;
  w.tm.start(0, 1, 250.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_small = w.engine.now(); });
  w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_big = w.engine.now(); });
  w.engine.run();
  // Shared phase at 5 MB/s: small done at t=50 with 750 MB left on big;
  // big then runs at 10 MB/s: 50 + 75 = 125 s.
  EXPECT_NEAR(done_small, 50.0, 1e-6);
  EXPECT_NEAR(done_big, 125.0, 1e-6);
}

TEST(TransferManager, LateArrivalSlowsExistingFlow) {
  World w = star_world(3, 10.0);
  double done_first = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done_first = w.engine.now(); });
  w.engine.schedule_at(50.0, [&] {
    w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  });
  w.engine.run();
  // 50 s alone (500 MB), then 500 MB at 5 MB/s = 100 s -> 150 s.
  EXPECT_NEAR(done_first, 150.0, 1e-6);
}

TEST(TransferManager, DisjointPathsDoNotInterfere) {
  World w(build_hierarchy({6, 3, 10.0}));
  // Sites 0 and 3 share region0; sites 1 and 4 share region1. The two
  // transfers use disjoint two-hop paths.
  double d1 = -1.0;
  double d2 = -1.0;
  w.tm.start(0, 3, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.tm.start(1, 4, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d2 = w.engine.now(); });
  w.engine.run();
  EXPECT_NEAR(d1, 100.0, 1e-6);
  EXPECT_NEAR(d2, 100.0, 1e-6);
}

TEST(TransferManager, NoContentionPolicyIgnoresSharing) {
  World w = star_world(3, 10.0, SharePolicy::NoContention);
  double d1 = -1.0;
  double d2 = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d2 = w.engine.now(); });
  w.engine.run();
  EXPECT_NEAR(d1, 100.0, 1e-6);
  EXPECT_NEAR(d2, 100.0, 1e-6);
}

TEST(TransferManager, MaxMinMatchesEqualShareOnSymmetricPattern) {
  // Star with hub; flows: A: 0->1, B: 0->2, C: 3->1 (all links 10 MB/s).
  // Water-filling freezes everything at 5 MB/s (L0 and L1 saturate with
  // two flows each and every flow crosses one of them) — identical to the
  // equal-share allocation on this symmetric pattern.
  World w = star_world(4, 10.0, SharePolicy::MaxMin);
  TransferId a = w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  TransferId b = w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  TransferId c = w.tm.start(3, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  EXPECT_NEAR(w.tm.current_rate(a), 5.0, 1e-9);
  EXPECT_NEAR(w.tm.current_rate(b), 5.0, 1e-9);
  EXPECT_NEAR(w.tm.current_rate(c), 5.0, 1e-9);
  w.engine.run();
}

TEST(TransferManager, MaxMinGivesUnbottleneckedFlowTheSlack) {
  // Flows: A: 0->1, C: 3->1, D: 3->1 duplicate path via second id,
  // B: 0->2. Link 1-hub carries A, C, D; link 0-hub carries A and B.
  // Equal share: B = min(10/2, 10) = 5 MB/s.
  // Max-min: fill to 10/3; L1 saturates freezing A, C, D; B then rises to
  // 10 - 10/3 = 6.67 MB/s on L0.
  World eq = star_world(4, 10.0, SharePolicy::EqualShare);
  World mm = star_world(4, 10.0, SharePolicy::MaxMin);
  auto build = [](World& w) {
    w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
    w.tm.start(3, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
    w.tm.start(3, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
    return w.tm.start(0, 2, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  };
  TransferId f_eq = build(eq);
  TransferId f_mm = build(mm);
  EXPECT_NEAR(eq.tm.current_rate(f_eq), 5.0, 1e-9);
  EXPECT_NEAR(mm.tm.current_rate(f_mm), 10.0 - 10.0 / 3.0, 1e-9);
  eq.engine.run();
  mm.engine.run();
}

// Property: at audit instants under random concurrent load, the sum of
// flow rates crossing each link never exceeds its capacity, and every
// active remote flow has a positive rate (both policies).
TEST(TransferManager, PropertyLinkCapacityNeverExceeded) {
  struct LiveFlow {
    TransferId id;
    NodeId src;
    NodeId dst;
  };
  for (SharePolicy policy : {SharePolicy::EqualShare, SharePolicy::MaxMin}) {
    World w(build_hierarchy({10, 3, 10.0}), policy);
    util::Rng rng(7);
    auto live = std::make_shared<std::vector<LiveFlow>>();
    for (int i = 0; i < 40; ++i) {
      double at = rng.uniform(0.0, 200.0);
      auto src = static_cast<NodeId>(rng.index(10));
      NodeId dst = src;
      while (dst == src) dst = static_cast<NodeId>(rng.index(10));
      double size = rng.uniform(100.0, 2000.0);
      w.engine.schedule_at(at, [&w, live, src, dst, size] {
        TransferId id = w.tm.start(src, dst, size, TransferPurpose::JobFetch,
                                   [live](TransferId done) {
                                     std::erase_if(*live, [done](const LiveFlow& f) {
                                       return f.id == done;
                                     });
                                   });
        live->push_back(LiveFlow{id, src, dst});
      });
    }
    int audits = 0;
    for (double t = 10.0; t < 600.0; t += 10.0) {
      w.engine.schedule_at(t, [&w, live, &audits] {
        std::vector<double> link_rate(w.topo.link_count(), 0.0);
        for (const LiveFlow& f : *live) {
          double rate = w.tm.current_rate(f.id);
          EXPECT_GT(rate, 0.0);
          for (LinkId l : w.routing.path(f.src, f.dst)) link_rate[l] += rate;
        }
        for (LinkId l = 0; l < w.topo.link_count(); ++l) {
          EXPECT_LE(link_rate[l], w.topo.link(l).bandwidth_mbps + 1e-6);
        }
        ++audits;
      });
    }
    w.engine.run();
    EXPECT_GT(audits, 0);
    EXPECT_EQ(w.tm.active_count(), 0u);
    EXPECT_EQ(w.tm.stats().transfers_completed, w.tm.stats().transfers_started);
  }
}

// Property: total delivered megabytes equal the sum of requested sizes for
// remote transfers, under random concurrent load.
TEST(TransferManager, PropertyDeliveredBytesMatchRequests) {
  World w(build_hierarchy({8, 2, 25.0}));
  util::Rng rng(11);
  double expected_mb = 0.0;
  for (int i = 0; i < 60; ++i) {
    double at = rng.uniform(0.0, 100.0);
    auto src = static_cast<NodeId>(rng.index(8));
    NodeId dst = src;
    while (dst == src) dst = static_cast<NodeId>(rng.index(8));
    double size = rng.uniform(10.0, 500.0);
    expected_mb += size;
    w.engine.schedule_at(at, [&w, src, dst, size] {
      w.tm.start(src, dst, size, TransferPurpose::JobFetch, [](TransferId) {});
    });
  }
  w.engine.run();
  EXPECT_NEAR(w.tm.stats().total_delivered_mb(), expected_mb, 1e-3);
  // mb-hops is at least total mb (every remote path has >= 1 link; here 2+).
  EXPECT_GE(w.tm.stats().delivered_mb_hops, expected_mb);
}

TEST(TransferManager, PurposeAccounting) {
  World w = star_world(3, 10.0);
  w.tm.start(0, 1, 100.0, TransferPurpose::JobFetch, [](TransferId) {});
  w.tm.start(0, 2, 300.0, TransferPurpose::Replication, [](TransferId) {});
  w.engine.run();
  const auto& s = w.tm.stats();
  EXPECT_NEAR(s.delivered_mb[static_cast<std::size_t>(TransferPurpose::JobFetch)], 100.0,
              1e-6);
  EXPECT_NEAR(s.delivered_mb[static_cast<std::size_t>(TransferPurpose::Replication)], 300.0,
              1e-6);
}

TEST(TransferManager, LinkBusyTimeAccumulates) {
  World w = star_world(3, 10.0);
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  w.engine.run();
  // Path uses links 0 (site0-hub) and 1 (site1-hub) for 100 s each.
  double busy0 = w.tm.link_busy_time(0);
  double busy1 = w.tm.link_busy_time(1);
  EXPECT_NEAR(busy0, 100.0, 1e-6);
  EXPECT_NEAR(busy1, 100.0, 1e-6);
  EXPECT_NEAR(w.tm.link_busy_time(2), 0.0, 1e-9);
}

TEST(TransferManager, CompletionCallbackCanStartNewTransfer) {
  World w = star_world(3, 10.0);
  double second_done = -1.0;
  w.tm.start(0, 1, 100.0, TransferPurpose::JobFetch, [&](TransferId) {
    w.tm.start(1, 2, 100.0, TransferPurpose::JobFetch,
               [&](TransferId) { second_done = w.engine.now(); });
  });
  w.engine.run();
  EXPECT_NEAR(second_done, 20.0, 1e-6);  // 10 + 10 seconds
}

TEST(TransferManager, ZeroSizeTransferCompletesImmediately) {
  World w = star_world(2, 10.0);
  double done = -1.0;
  w.tm.start(0, 1, 0.0, TransferPurpose::Other, [&](TransferId) { done = w.engine.now(); });
  w.engine.run();
  EXPECT_NEAR(done, 0.0, 1e-9);
}

TEST(TransferManager, NegativeSizeThrows) {
  World w = star_world(2, 10.0);
  EXPECT_THROW(w.tm.start(0, 1, -1.0, TransferPurpose::Other, [](TransferId) {}),
               util::SimError);
}

TEST(TransferManager, MissingCallbackThrows) {
  World w = star_world(2, 10.0);
  EXPECT_THROW(w.tm.start(0, 1, 1.0, TransferPurpose::Other, TransferManager::CompletionFn{}),
               util::SimError);
}

TEST(TransferManager, DegradationSlowsInFlightTransfer) {
  World w = star_world(2, 10.0);
  double done = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done = w.engine.now(); });
  // Halve the first link's bandwidth after 50 s: 500 MB moved, then
  // 500 MB at 5 MB/s -> finish at 150 s.
  w.engine.schedule_at(50.0, [&] { w.tm.set_bandwidth_scale(0, 0.5); });
  w.engine.run();
  EXPECT_NEAR(done, 150.0, 1e-6);
  EXPECT_DOUBLE_EQ(w.tm.bandwidth_scale(0), 0.5);
}

TEST(TransferManager, RestorationSpeedsTransferBackUp) {
  World w = star_world(2, 10.0);
  double done = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { done = w.engine.now(); });
  w.engine.schedule_at(0.0, [&] { w.tm.set_bandwidth_scale(0, 0.1); });
  // 40 s at 1 MB/s = 40 MB, then restored: 960 MB at 10 MB/s = 96 s.
  w.engine.schedule_at(40.0, [&] { w.tm.set_bandwidth_scale(0, 1.0); });
  w.engine.run();
  EXPECT_NEAR(done, 136.0, 1e-6);
}

TEST(TransferManager, DegradationAppliesToAllPolicies) {
  for (SharePolicy policy :
       {SharePolicy::EqualShare, SharePolicy::MaxMin, SharePolicy::NoContention}) {
    World w = star_world(2, 10.0, policy);
    double done = -1.0;
    w.tm.start(0, 1, 100.0, TransferPurpose::JobFetch,
               [&](TransferId) { done = w.engine.now(); });
    w.engine.schedule_at(0.0, [&] { w.tm.set_bandwidth_scale(0, 0.5); });
    w.engine.run();
    EXPECT_NEAR(done, 20.0, 1e-6);  // 100 MB at 5 MB/s
  }
}

TEST(TransferManager, InvalidScaleRejected) {
  World w = star_world(2, 10.0);
  EXPECT_THROW(w.tm.set_bandwidth_scale(0, 0.0), util::SimError);
  EXPECT_THROW(w.tm.set_bandwidth_scale(0, -1.0), util::SimError);
  EXPECT_THROW(w.tm.set_bandwidth_scale(99, 0.5), util::SimError);
}

TEST(TransferManager, RemainingMbTracksProgress) {
  World w = star_world(2, 10.0);
  TransferId id = w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch, [](TransferId) {});
  w.engine.run_until(30.0);
  EXPECT_NEAR(w.tm.remaining_mb(id), 700.0, 1e-6);
  EXPECT_TRUE(w.tm.active(id));
  w.engine.run();
  EXPECT_FALSE(w.tm.active(id));
}

TEST(TransferManager, FlowOnDisjointPathKeepsItsFinishTime) {
  // Sites 0,3 share region 0; sites 1,4 share region 1: the two transfers
  // use disjoint two-hop paths, so neither start nor finish of the second
  // flow may touch the first flow's rate or ETA.
  World w(build_hierarchy({6, 3, 10.0}));
  double d1 = -1.0;
  double d2 = -1.0;
  w.tm.start(0, 3, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.engine.schedule_at(50.0, [&] {
    w.tm.start(1, 4, 1000.0, TransferPurpose::JobFetch,
               [&](TransferId) { d2 = w.engine.now(); });
  });
  w.engine.run();
  EXPECT_EQ(d1, 100.0);
  EXPECT_EQ(d2, 150.0);
  // Each flow's ETA was derived exactly once, at its own start.
  EXPECT_EQ(w.tm.stats().flows_rescheduled, 2u);
}

TEST(TransferManager, KeepsEtaWhenRateIsBitUnchanged) {
  // NoContention: the second start shares a link with the first flow, so
  // its rate is recomputed, but it is unchanged and the ETA is kept.
  World w(build_star(3, 10.0), SharePolicy::NoContention);
  double d1 = -1.0;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  w.engine.schedule_at(10.0, [&] {
    w.tm.start(0, 2, 500.0, TransferPurpose::JobFetch, [](TransferId) {});
  });
  w.engine.run();
  EXPECT_EQ(d1, 100.0);
  EXPECT_EQ(w.tm.stats().flows_rescheduled, 2u);  // one ETA per flow
}

TEST(TransferManager, OneCalendarEventForAllFlows) {
  World w(build_hierarchy({10, 3, 10.0}));
  util::Rng rng(5);
  std::size_t done = 0;
  for (int i = 0; i < 64; ++i) {
    auto src = static_cast<NodeId>(rng.index(10));
    NodeId dst = src;
    while (dst == src) dst = static_cast<NodeId>(rng.index(10));
    w.tm.start(src, dst, rng.uniform(100.0, 2000.0), TransferPurpose::JobFetch,
               [&](TransferId) { ++done; });
  }
  w.tm.start(3, 3, 50.0, TransferPurpose::JobFetch, [&](TransferId) { ++done; });
  EXPECT_EQ(w.tm.active_count(), 65u);
  EXPECT_EQ(w.engine.events_pending(), 1u);
  while (done < 32) {
    ASSERT_TRUE(w.engine.step());
    EXPECT_EQ(w.engine.events_pending(), 1u);
  }
  w.engine.run();
  EXPECT_EQ(done, 65u);
  EXPECT_EQ(w.engine.events_pending(), 0u);
}

TEST(TransferManager, AbortOfEarliestFlowKeepsOtherOnItsAnalyticTime) {
  // Both flows share the hub link of site 0 at 5 MB/s. Aborting the short
  // one at t=20 (before its t=40 finish) leaves the long one 900 MB to
  // move alone at 10 MB/s: done at 20 + 90 = 110.
  World w = star_world(3, 10.0);
  double d1 = -1.0;
  bool aborted_fired = false;
  w.tm.start(0, 1, 1000.0, TransferPurpose::JobFetch,
             [&](TransferId) { d1 = w.engine.now(); });
  TransferId short_id = w.tm.start(0, 2, 200.0, TransferPurpose::JobFetch,
                                   [&](TransferId) { aborted_fired = true; });
  w.engine.schedule_at(20.0, [&] { w.tm.abort(short_id); });
  w.engine.run();
  EXPECT_FALSE(aborted_fired);
  EXPECT_EQ(d1, 110.0);
  EXPECT_EQ(w.tm.stats().transfers_aborted, 1u);
  EXPECT_EQ(w.tm.stats().transfers_completed, 1u);
}

/// Completion order and times of 40 random overlapping transfers on the
/// 10-site hierarchy, pinned bit-for-bit per share policy.
using Completions = std::vector<std::pair<TransferId, double>>;

const Completions kPinnedCompletions[] = {
  // EqualShare
  {
      {33, 0x1.76904ffda2b77p+8}, {15, 0x1.a6d0f91ad0548p+8}, {22, 0x1.b971f536dfa48p+8},
      {3, 0x1.f27aab2cb8866p+8}, {2, 0x1.396f69a5d5f5p+9}, {12, 0x1.4d09870fc6d9cp+9},
      {27, 0x1.5011169506ae9p+9}, {7, 0x1.55ea7a6f71db8p+9}, {4, 0x1.6fb090cf9643dp+9},
      {36, 0x1.a0b31473c2b04p+9}, {32, 0x1.b590925a93ce5p+9}, {6, 0x1.f82e7bd7c3e6ap+9},
      {10, 0x1.fcda6f38fb7c5p+9}, {20, 0x1.05063a3001746p+10}, {9, 0x1.162fd8d5610dcp+10},
      {11, 0x1.1cf3500dd34bfp+10}, {34, 0x1.3e402ec189989p+10}, {5, 0x1.3efb77bd2f5f1p+10},
      {38, 0x1.52629a754b2eap+10}, {1, 0x1.68720b1c7c753p+10}, {26, 0x1.75719b3363ec3p+10},
      {29, 0x1.9e17155c3c4fap+10}, {16, 0x1.9f8ff70b94e71p+10}, {14, 0x1.a357f9cdd7458p+10},
      {19, 0x1.dc077bca900ddp+10}, {13, 0x1.e8fbb45376dcfp+10}, {8, 0x1.f6ef26a9feda6p+10},
      {24, 0x1.fdcbc11f5667fp+10}, {37, 0x1.0bd7f1a1d9502p+11}, {30, 0x1.0ea6bbe255c3bp+11},
      {31, 0x1.10b007afa2743p+11}, {23, 0x1.131bb35cc64dfp+11}, {35, 0x1.139ec1dbcfd24p+11},
      {18, 0x1.15cb960496358p+11}, {28, 0x1.1693e0cc3ef3ep+11}, {17, 0x1.179a36debe8b1p+11},
      {39, 0x1.1e49a10fa7c5dp+11}, {21, 0x1.2560e27509cfep+11}, {25, 0x1.287a22feeb8a2p+11},
      {40, 0x1.2a18ddcb33271p+11},
  },
  // MaxMin
  {
      {33, 0x1.26af16f866ddfp+8}, {22, 0x1.4654a16f9e5ecp+8}, {3, 0x1.5e0e59996a645p+8},
      {20, 0x1.63e99fe785399p+8}, {11, 0x1.8a86a13d27642p+8}, {15, 0x1.a6d0f91ad0548p+8},
      {6, 0x1.b2306b695096cp+8}, {12, 0x1.b7c7c10470082p+8}, {26, 0x1.0273fecbeece4p+9},
      {2, 0x1.1a2b2007f8ebfp+9}, {36, 0x1.279ffd327a753p+9}, {5, 0x1.314fcd158621p+9},
      {27, 0x1.4eb51361a4074p+9}, {7, 0x1.548e773c0f343p+9}, {4, 0x1.6e548d9c339c7p+9},
      {1, 0x1.98407db6d78cep+9}, {32, 0x1.b4348f2731271p+9}, {38, 0x1.b92c82fe9108ep+9},
      {16, 0x1.c5c97fb76e6c6p+9}, {29, 0x1.c7ceaa65cc876p+9}, {10, 0x1.fb7e6c0598d5p+9},
      {9, 0x1.1581d73bafbap+10}, {28, 0x1.3d5f9ad1f7e66p+10}, {34, 0x1.3d922d27d844dp+10},
      {39, 0x1.4a7891deecc19p+10}, {14, 0x1.a2a9f83425f1dp+10}, {19, 0x1.db597a30deba4p+10},
      {13, 0x1.e84db2b9c5896p+10}, {8, 0x1.f64125104d86cp+10}, {24, 0x1.fd1dbf85a5145p+10},
      {37, 0x1.0b80f0d500a65p+11}, {30, 0x1.0e4fbb157d19ep+11}, {31, 0x1.101f1ae86befap+11},
      {23, 0x1.123d511feb4e3p+11}, {35, 0x1.12ada6b1612d5p+11}, {18, 0x1.147dacd35bd56p+11},
      {17, 0x1.16ec407e3d825p+11}, {21, 0x1.2271103436f3fp+11}, {25, 0x1.258a50be18ae3p+11},
      {40, 0x1.27290b8a604b2p+11},
  },
  // NoContention
  {
      {2, 0x1.6ff838877fc79p+5}, {4, 0x1.ba949ef813c2ap+5}, {3, 0x1.bdfb1702beac6p+5},
      {7, 0x1.098607c7f1afdp+6}, {15, 0x1.4f9e3efe5f66fp+6}, {10, 0x1.6cd0de633b2cap+6},
      {9, 0x1.761ff36fb1cc6p+6}, {6, 0x1.805c829ce268dp+6}, {12, 0x1.9cbda856ded7bp+6},
      {22, 0x1.f416c0a815a12p+6}, {27, 0x1.25ab1453ba561p+7}, {14, 0x1.28159223abfe4p+7},
      {8, 0x1.2f810bad00467p+7}, {1, 0x1.3f0af162e1cbdp+7}, {5, 0x1.480ad4d9a9719p+7},
      {13, 0x1.4a4d4cff7607cp+7}, {33, 0x1.5a2e5e6a1bd06p+7}, {32, 0x1.78d50241bab7cp+7},
      {11, 0x1.8196f03e8da7p+7}, {19, 0x1.833704bf9afe4p+7}, {36, 0x1.acf874c1a56b7p+7},
      {17, 0x1.b303be4c62e9ap+7}, {24, 0x1.b7baeab4163eep+7}, {34, 0x1.b9ea58f880c2ep+7},
      {18, 0x1.ba04ed74f4286p+7}, {23, 0x1.cbd64ce92e7ecp+7}, {16, 0x1.df0bfd0d821b1p+7},
      {38, 0x1.0215f64e9dfebp+8}, {20, 0x1.07928f397ac5cp+8}, {30, 0x1.081ce7878d576p+8},
      {21, 0x1.09a11c3a3416ap+8}, {31, 0x1.122482b852dd8p+8}, {26, 0x1.235748c11ab4p+8},
      {25, 0x1.23947be22e509p+8}, {28, 0x1.2c8b7b8c263fep+8}, {29, 0x1.2d6f488b95dd3p+8},
      {37, 0x1.2dd72943fbe7bp+8}, {35, 0x1.2fb2a891c9dfap+8}, {39, 0x1.73c29c65163cep+8},
      {40, 0x1.854d850d74d44p+8},
  },
};

TEST(TransferManager, RandomScenarioCompletionTimesArePinned) {
  const SharePolicy policies[] = {SharePolicy::EqualShare, SharePolicy::MaxMin,
                                  SharePolicy::NoContention};
  for (std::size_t p = 0; p < 3; ++p) {
    World w(build_hierarchy({10, 3, 10.0}), policies[p]);
    util::Rng rng(21);
    auto done = std::make_shared<Completions>();
    for (int i = 0; i < 40; ++i) {
      double at = rng.uniform(0.0, 200.0);
      auto src = static_cast<NodeId>(rng.index(10));
      NodeId dst = src;
      while (dst == src) dst = static_cast<NodeId>(rng.index(10));
      double size = rng.uniform(100.0, 2000.0);
      w.engine.schedule_at(at, [&w, done, src, dst, size] {
        w.tm.start(src, dst, size, TransferPurpose::JobFetch,
                   [&w, done](TransferId id) { done->emplace_back(id, w.engine.now()); });
      });
    }
    w.engine.run();
    const Completions& expected = kPinnedCompletions[p];
    ASSERT_EQ(done->size(), expected.size()) << "policy " << p;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ((*done)[i].first, expected[i].first) << "policy " << p << " #" << i;
      EXPECT_EQ((*done)[i].second, expected[i].second) << "policy " << p << " #" << i;
    }
  }
}

}  // namespace
}  // namespace chicsim::net
