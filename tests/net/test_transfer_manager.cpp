#include "net/transfer_manager.hpp"

#include <gtest/gtest.h>

#include <algorithm>
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

TEST(TransferManager, TransferToItsOwnSourceIsRejected) {
  // Co-located data needs no transfer (all processors at a site reach all
  // storage at that site, §3): src == dst is a caller error, and the
  // rejected start leaves nothing behind.
  World w = star_world(2, 10.0);
  EXPECT_THROW((void)w.tm.start(1, 1, 500.0, TransferPurpose::JobFetch, [](TransferId) {}),
               util::SimError);
  EXPECT_EQ(w.tm.active_count(), 0u);
  EXPECT_EQ(w.tm.stats().transfers_started, 0u);
  EXPECT_EQ(w.engine.events_pending(), 0u);
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
  EXPECT_EQ(w.tm.active_count(), 64u);
  EXPECT_EQ(w.engine.events_pending(), 1u);
  while (done < 32) {
    ASSERT_TRUE(w.engine.step());
    EXPECT_EQ(w.engine.events_pending(), 1u);
  }
  w.engine.run();
  EXPECT_EQ(done, 64u);
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

TEST(TransferManager, EqualEtasCompleteInIdOrderAcrossTableWords) {
  // Flow A (1->2, position 0) and flow B (3->4, position 71) both move at
  // 10 MB/s. At t=10 flow C (3->1) halves both rates; its path dirties the
  // link of site 3 (listing B) before the link of site 1 (listing A), and
  // A and B sit in different 64-slot words of the table. Both re-derive
  // the bit-equal ETA 10 + 900 / 5 = 190; re-derivation in TransferId order
  // gives A the earlier eta_seq, so A completes first.
  World w = star_world(12, 10.0);
  std::vector<std::pair<TransferId, double>> done;
  auto record = [&](TransferId id) { done.emplace_back(id, w.engine.now()); };
  TransferId a = w.tm.start(1, 2, 1000.0, TransferPurpose::JobFetch, record);
  // Long fillers among sites 5..11 share no link with A, B or C.
  for (int i = 0; i < 70; ++i) {
    auto src = static_cast<NodeId>(5 + i % 7);
    auto dst = static_cast<NodeId>(5 + (i + 1) % 7);
    w.tm.start(src, dst, 10000.0, TransferPurpose::JobFetch, [](TransferId) {});
  }
  TransferId b = w.tm.start(3, 4, 1000.0, TransferPurpose::JobFetch, record);
  ASSERT_EQ(a, 1u);
  ASSERT_EQ(b, 72u);
  w.engine.schedule_at(10.0, [&] {
    w.tm.start(3, 1, 5000.0, TransferPurpose::JobFetch, [](TransferId) {});
    EXPECT_EQ(w.tm.current_rate(a), 5.0);
    EXPECT_EQ(w.tm.current_rate(b), 5.0);
  });
  w.engine.run_until(200.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_EQ(done[0], std::make_pair(a, 190.0));
  EXPECT_EQ(done[1], std::make_pair(b, 190.0));
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

/// Everything the large churn scenario below pins, plus the evidence that
/// it exercises the flow table the way the fluid network does under load.
struct ChurnRun {
  Completions completions;
  double delivered_mb_hops = 0.0;
  std::vector<double> link_busy;
  std::size_t aborts = 0;
  std::size_t peak_active = 0;
  /// Times the flow table compacts, counted from the outside through
  /// starts, retirements and active_count(). TransferManager exposes no
  /// compaction count, so this models the rule in TransferManager::retire()
  /// (a retirement leaves more dead slots than live flows in a table of at
  /// least kTableCompactMinSlots slots) and must change when that rule does.
  std::size_t compactions = 0;
};

/// Mirrors kCompactMinSlots in src/net/transfer_manager.cpp.
constexpr std::size_t kTableCompactMinSlots = 64;

/// Up to 320 transfers in two waves on a 32-site hierarchy (the ~10% of
/// draws whose endpoints coincide start nothing: co-located data needs no
/// transfer), >= 20 aborts of in-flight flows, and one backbone link
/// degraded and restored.
ChurnRun run_churn_scenario(SharePolicy policy) {
  World w(build_hierarchy({32, 4, 10.0}), policy);
  util::Rng rng(33);
  ChurnRun run;
  std::vector<TransferId> started;
  std::size_t slots = 0;
  std::size_t dead = 0;
  auto retire = [&] {
    ++dead;
    if (dead > w.tm.active_count() && slots >= kTableCompactMinSlots) {
      ++run.compactions;
      slots -= dead;
      dead = 0;
    }
  };
  for (double wave : {0.0, 3000.0}) {
    for (int i = 0; i < 160; ++i) {
      double at = wave + rng.uniform(0.0, 30.0);
      auto src = static_cast<NodeId>(rng.index(32));
      NodeId dst = src;
      if (!rng.chance(0.1)) {
        while (dst == src) dst = static_cast<NodeId>(rng.index(32));
      }
      double size = rng.uniform(20.0, 400.0);
      if (dst == src) continue;
      w.engine.schedule_at(at, [&, src, dst, size] {
        TransferId id = w.tm.start(src, dst, size, TransferPurpose::JobFetch, [&](TransferId done) {
          run.completions.emplace_back(done, w.engine.now());
          retire();
        });
        started.push_back(id);
        ++slots;
        run.peak_active = std::max(run.peak_active, w.tm.active_count());
      });
    }
    for (int i = 0; i < 15; ++i) {
      double at = wave + rng.uniform(5.0, 60.0);
      std::size_t pick = rng.index(1000);
      w.engine.schedule_at(at, [&, pick] {
        for (std::size_t k = 0; k < started.size(); ++k) {
          TransferId id = started[(pick + k) % started.size()];
          if (!w.tm.active(id)) continue;
          w.tm.abort(id);
          ++run.aborts;
          retire();
          return;
        }
      });
    }
  }
  const LinkId backbone = w.routing.path(0, 1)[1];
  w.engine.schedule_at(100.0, [&] { w.tm.set_bandwidth_scale(backbone, 0.25); });
  w.engine.schedule_at(700.0, [&] { w.tm.set_bandwidth_scale(backbone, 1.0); });
  w.engine.run();
  run.delivered_mb_hops = w.tm.stats().delivered_mb_hops;
  for (LinkId l = 0; l < w.tm.link_count(); ++l) run.link_busy.push_back(w.tm.link_busy_time(l));
  return run;
}

struct PinnedChurn {
  Completions completions;
  double delivered_mb_hops;
  std::vector<double> link_busy;
};

/// run_churn_scenario's results per share policy, captured from a build
/// whose start() still had a co-located (src == dst) branch, running this
/// same remote-only scenario: the per-link index and the remote-only start
/// path must reproduce them bit for bit.
const PinnedChurn kPinnedChurn[] = {
  // EqualShare
  {
      {
          {9, 0x1.c618efd7f7359p+3}, {46, 0x1.108f6062f8532p+4}, {43, 0x1.1a457d2a5aa5dp+5},
          {67, 0x1.6ffa1ebfdca7ap+5}, {82, 0x1.d6d8ecf9fe5ecp+5}, {30, 0x1.1a65cdd26e0c3p+6},
          {149, 0x1.82544158453e5p+6}, {102, 0x1.a40bba5ef42eap+6}, {51, 0x1.b1481aaf707d4p+6},
          {100, 0x1.b29e5e3437b26p+6}, {116, 0x1.144dcde72ecafp+7}, {85, 0x1.271df9c738248p+7},
          {138, 0x1.2c48be1755258p+7}, {45, 0x1.3b787fd14e539p+7}, {44, 0x1.4bd17487be5b5p+7},
          {72, 0x1.516f88d098e2bp+7}, {63, 0x1.56dbe028cc8ep+7}, {88, 0x1.baef6fb13c42ep+7},
          {42, 0x1.d15c306e18066p+7}, {47, 0x1.db59f8fffdd6cp+7}, {99, 0x1.ec7e46f5e4a74p+7},
          {4, 0x1.06e85023ed88dp+8}, {7, 0x1.074b2d1534bd6p+8}, {150, 0x1.0a144805a142ap+8},
          {16, 0x1.0f2b24ba2bfd4p+8}, {73, 0x1.104ee59c41a5p+8}, {15, 0x1.12bbfbe28b13p+8},
          {84, 0x1.1d31fb6dd9476p+8}, {24, 0x1.1ef93f703ffebp+8}, {83, 0x1.31516678cafep+8},
          {114, 0x1.5dd253985a52ap+8}, {90, 0x1.65da2b5f8ee8cp+8}, {19, 0x1.6f4804d923f17p+8},
          {62, 0x1.769dda8f417d2p+8}, {136, 0x1.7a38898971d9ap+8}, {120, 0x1.84f657d1207c4p+8},
          {38, 0x1.8c7301258fe03p+8}, {117, 0x1.91964257ea00ap+8}, {146, 0x1.9a6efcc1f84dp+8},
          {3, 0x1.a1a52ab71e3b1p+8}, {66, 0x1.a9d22c8a5fae2p+8}, {65, 0x1.adabd942afcbp+8},
          {25, 0x1.d4e1633617209p+8}, {35, 0x1.f97f08e31e647p+8}, {135, 0x1.fc959ab9d78bp+8},
          {89, 0x1.03f44dc9c0943p+9}, {34, 0x1.08e080ee1512bp+9}, {81, 0x1.128b144348aa7p+9},
          {101, 0x1.1a219f4c6ec0ap+9}, {78, 0x1.3c39142881672p+9}, {93, 0x1.41d20f0109e89p+9},
          {1, 0x1.4f4857bb78268p+9}, {31, 0x1.523f899d939f8p+9}, {112, 0x1.577e0cf74f004p+9},
          {20, 0x1.59137cdac297p+9}, {129, 0x1.645720eb4c83ap+9}, {105, 0x1.6cf9793f11aa5p+9},
          {18, 0x1.84037d9c47c18p+9}, {6, 0x1.84ec2fd3720dbp+9}, {130, 0x1.8a771901edcc5p+9},
          {58, 0x1.8f54599e2b478p+9}, {28, 0x1.9ab1b8dc85125p+9}, {145, 0x1.a3d7905c02b9ap+9},
          {126, 0x1.aa2c735454dcdp+9}, {56, 0x1.b7f2e6974cecdp+9}, {2, 0x1.bde9ad5af6f8ap+9},
          {17, 0x1.c23ee72909471p+9}, {5, 0x1.cca56fc96c3d6p+9}, {140, 0x1.d0bf835840fffp+9},
          {87, 0x1.e15b78648eb8dp+9}, {103, 0x1.e2177f0c749e3p+9}, {147, 0x1.e630e12d6f014p+9},
          {137, 0x1.f353dd68f0d1bp+9}, {107, 0x1.f5aab8b1f8d27p+9}, {57, 0x1.fb6cd43fd0fe8p+9},
          {68, 0x1.02872bfa05ce1p+10}, {69, 0x1.03fdbee699bddp+10}, {96, 0x1.121c00d536e48p+10},
          {49, 0x1.134ba43d34943p+10}, {71, 0x1.2142b19a7ff5fp+10}, {33, 0x1.21b00ef8f6f32p+10},
          {41, 0x1.227cf7bfa4fbap+10}, {108, 0x1.22a48ab9390a8p+10}, {133, 0x1.22bf9466950ap+10},
          {75, 0x1.230ed021e15cep+10}, {55, 0x1.272d2668004ep+10}, {97, 0x1.284f21c8973c9p+10},
          {12, 0x1.28d5297eb92c9p+10}, {23, 0x1.299db54a39835p+10}, {74, 0x1.2b6c7213982bp+10},
          {134, 0x1.2cb4952f5cc86p+10}, {32, 0x1.2f1668402895dp+10}, {53, 0x1.33af4afe1e809p+10},
          {79, 0x1.37497d5eb23e8p+10}, {36, 0x1.3872950dad35cp+10}, {132, 0x1.3b5e2919894ap+10},
          {14, 0x1.3d9eb222e3ebep+10}, {95, 0x1.44e6c84665de7p+10}, {122, 0x1.476486f5ac13dp+10},
          {77, 0x1.4b17ac31e8d4ep+10}, {106, 0x1.4b98c42570dadp+10}, {104, 0x1.4df3700b9638bp+10},
          {148, 0x1.4ef1d0265b452p+10}, {143, 0x1.4f6cd4c0be2c6p+10}, {119, 0x1.55590761df9e3p+10},
          {118, 0x1.561e6281b8f3ap+10}, {59, 0x1.56d2fc7441ca7p+10}, {10, 0x1.5abeb60bd7221p+10},
          {11, 0x1.5b0eb4e4c76b1p+10}, {123, 0x1.5be920daeb877p+10}, {141, 0x1.5c05b8482dfd1p+10},
          {92, 0x1.5d1fd05952973p+10}, {8, 0x1.5e6984d635b3fp+10}, {98, 0x1.5f8101f3c4b04p+10},
          {21, 0x1.6418afce2b39fp+10}, {13, 0x1.65ae8b919ed7dp+10}, {91, 0x1.663d8abaa2c1cp+10},
          {61, 0x1.694d453d46b0fp+10}, {37, 0x1.6b936cbc4db07p+10}, {110, 0x1.71d28bdffcd98p+10},
          {39, 0x1.728198e5b0ecdp+10}, {60, 0x1.72fc01e662835p+10}, {139, 0x1.73aee0537e112p+10},
          {113, 0x1.769d976f39c43p+10}, {144, 0x1.7b6adb6074e97p+10}, {22, 0x1.7c89e7e123335p+10},
          {70, 0x1.7fe445d798a4bp+10}, {48, 0x1.8056f599f46c2p+10}, {121, 0x1.80c0088b08aefp+10},
          {142, 0x1.8187d42748b68p+10}, {111, 0x1.81b3127734c32p+10}, {54, 0x1.81ee607ac58bbp+10},
          {40, 0x1.83088eb161451p+10}, {94, 0x1.835825c859ad3p+10}, {125, 0x1.83bed3c175653p+10},
          {292, 0x1.7e4f5dca43a0dp+11}, {197, 0x1.81bb668de9675p+11}, {216, 0x1.820e8841f933p+11},
          {208, 0x1.82473d72a3051p+11}, {277, 0x1.87587ab6c8b3cp+11}, {188, 0x1.88405ac5e9573p+11},
          {223, 0x1.89c62e0065974p+11}, {263, 0x1.89efad0ea95ap+11}, {201, 0x1.8ad2b9123bd98p+11},
          {183, 0x1.8b2e32b2fdb9cp+11}, {162, 0x1.8b5e9ab2732b9p+11}, {235, 0x1.8d2733d1cec38p+11},
          {202, 0x1.8d2b064ffa958p+11}, {168, 0x1.8f0f989e382e6p+11}, {220, 0x1.8f67d6ddcf4efp+11},
          {258, 0x1.9040591ba453dp+11}, {172, 0x1.9153aa1e52dcbp+11}, {287, 0x1.92df833f87f7dp+11},
          {251, 0x1.93b693b9de3aep+11}, {284, 0x1.95e458772ee05p+11}, {279, 0x1.95f0b0c61dc35p+11},
          {253, 0x1.9801f87703933p+11}, {247, 0x1.9851ee90989bbp+11}, {281, 0x1.995cf8c9b627bp+11},
          {167, 0x1.999ee9f318167p+11}, {265, 0x1.99bfd44bee4d5p+11}, {215, 0x1.9a3b5c2dbcd72p+11},
          {218, 0x1.9a41dae4c55e2p+11}, {225, 0x1.9bf13aa905421p+11}, {179, 0x1.9dea07086ed39p+11},
          {171, 0x1.9e40fca88024p+11}, {193, 0x1.9e88db1abe048p+11}, {217, 0x1.9ec6b3828dc9cp+11},
          {239, 0x1.a0ef668b8ee21p+11}, {261, 0x1.a12d3e34dd497p+11}, {175, 0x1.a1419252f63efp+11},
          {204, 0x1.a2b298aae97d3p+11}, {161, 0x1.a32bf2129c82bp+11}, {291, 0x1.a4ac3ed1666c5p+11},
          {181, 0x1.a4eebfe08ea1ep+11}, {189, 0x1.a7a5cc3eb4e96p+11}, {231, 0x1.a86be18e4015p+11},
          {234, 0x1.a8c4b68fe7dabp+11}, {272, 0x1.a9c1f80f9d51ep+11}, {245, 0x1.aa5fd4bb9c563p+11},
          {241, 0x1.abc8b8d234a0bp+11}, {198, 0x1.ad9b4f165c6b5p+11}, {243, 0x1.adbdd4c9592dcp+11},
          {276, 0x1.ade3886d12588p+11}, {163, 0x1.af31286c36c44p+11}, {259, 0x1.b1935fde2ab94p+11},
          {278, 0x1.b34fcead1f29ep+11}, {178, 0x1.b798eded1bbe2p+11}, {211, 0x1.b7b78ecb6cbffp+11},
          {170, 0x1.b7b7c9ffaee7cp+11}, {274, 0x1.bac83e0b0a514p+11}, {236, 0x1.bb061e2cc932ap+11},
          {285, 0x1.bfc2dc5cf5f56p+11}, {206, 0x1.c3a56ed2770ffp+11}, {226, 0x1.c46482ca280f7p+11},
          {282, 0x1.c64cfb41868b9p+11}, {213, 0x1.cce68dfde187bp+11}, {264, 0x1.ceec8b42c9a73p+11},
          {185, 0x1.d44cbbdbfd33p+11}, {268, 0x1.d6b425aaba457p+11}, {237, 0x1.da0667ca200ep+11},
          {286, 0x1.da46165262e8cp+11}, {219, 0x1.dd4bd56b27a7ap+11}, {256, 0x1.df54cb57611e1p+11},
          {184, 0x1.df6b00f6e76a3p+11}, {207, 0x1.e02706485b102p+11}, {182, 0x1.e1f1fbde6d356p+11},
          {249, 0x1.e5cb0ca4d4628p+11}, {176, 0x1.e62613ff91c8p+11}, {227, 0x1.e7e39591c6418p+11},
          {248, 0x1.e8829d1043b6ap+11}, {270, 0x1.e8b7fd826bad6p+11}, {242, 0x1.e8c3b3986419p+11},
          {194, 0x1.e9fe7c5dfdb65p+11}, {288, 0x1.eb77f3d0d8e77p+11}, {280, 0x1.ee43c24d38af5p+11},
          {232, 0x1.ef004b74246d5p+11}, {224, 0x1.f1540a90e9c2ep+11}, {209, 0x1.f1fa2e95a918p+11},
          {177, 0x1.f2baaeeba4335p+11}, {187, 0x1.f466f2e84c724p+11}, {192, 0x1.f9d6a7a837eb1p+11},
          {252, 0x1.f9e2f8d1d2069p+11}, {205, 0x1.fad9f3c3d6d27p+11}, {240, 0x1.fdd83caa853b3p+11},
          {273, 0x1.ff8e01f6c854dp+11}, {166, 0x1.00342511c6f14p+12}, {260, 0x1.00583923389c5p+12},
          {210, 0x1.0094ab0a62f7bp+12}, {164, 0x1.00bd5986377c5p+12}, {212, 0x1.01144d790712ap+12},
          {228, 0x1.019d55a8318d1p+12}, {233, 0x1.01d87c3198829p+12}, {191, 0x1.01e6f224dd26bp+12},
          {244, 0x1.027b5b06f8d74p+12}, {180, 0x1.038ae161043a4p+12}, {257, 0x1.041077f94d06cp+12},
          {262, 0x1.04180c2fbd892p+12}, {269, 0x1.045fe5163f7a1p+12}, {200, 0x1.0565c44b1019cp+12},
          {196, 0x1.057697c3afdap+12}, {283, 0x1.057912c28f705p+12}, {190, 0x1.0584116469c8ap+12},
          {275, 0x1.05ca4f97220f9p+12}, {254, 0x1.05d9080e825cfp+12}, {267, 0x1.061a6d2a76986p+12},
          {165, 0x1.06695a86a69aap+12}, {173, 0x1.0676a159bbfe5p+12}, {203, 0x1.069dfafecf2e4p+12},
          {266, 0x1.0731fcc331388p+12}, {271, 0x1.07ac96115feedp+12}, {246, 0x1.07e359c6d7fa2p+12},
          {221, 0x1.0875cd8628a5dp+12}, {229, 0x1.0891efdb740afp+12}, {289, 0x1.0912550b7aaa2p+12},
          {230, 0x1.091ad8d7fe6abp+12}, {195, 0x1.091fc37282c02p+12}, {255, 0x1.098a49968f1edp+12},
          {222, 0x1.09a94cacad90bp+12}, {238, 0x1.09e883ee35254p+12}, {250, 0x1.09f5fc84fdd78p+12},
          {169, 0x1.09f8a83c7482ap+12}, {290, 0x1.09fa3c64221fp+12},
      },
      0x1.86611550e8a92p+17,
      {
          0x1.5ec9a8e1a0609p+11, 0x1.5e8ac8cf577ecp+11, 0x1.5dcc3e8842204p+11,
          0x1.5e755861b5d31p+11, 0x1.263e9f295b23p+11, 0x1.4bf42efd6e998p+11, 0x1.5c9e76aa53303p+11,
          0x1.46dcdd7ca0f39p+11, 0x1.5c3fd386cf637p+11, 0x1.2971e839f2141p+11,
          0x1.3605fefa25812p+11, 0x1.556ee014ad97ep+11, 0x1.58afacfc527e6p+11,
          0x1.5e077196d5dc6p+11, 0x1.4cf3130a1b31fp+11, 0x1.505ddbe1605dep+11,
          0x1.5b7f52742cf4bp+11, 0x1.3c5d98976b02cp+11, 0x1.52d4a728bc27ap+11,
          0x1.558d6878d9ff8p+11, 0x1.5443b03e2bc2dp+11, 0x1.413d4624659acp+11,
          0x1.300e057fa2332p+11, 0x1.5ba6aa5add9b8p+11, 0x1.34d0e79a468dap+11,
          0x1.55bab5bbbc69dp+11, 0x1.2156e0e9ca805p+11, 0x1.19efc69d3e627p+11,
          0x1.59e0220f0664ep+11, 0x1.4bc4ea64d606dp+11, 0x1.50e130938350cp+11,
          0x1.553fa35e0becfp+11, 0x1.5b1ab84846f4ep+11, 0x1.5c6399f4c629fp+11,
          0x1.3dd3f4f3c2cc7p+11, 0x1.421b9ed71bd77p+11,
      },
  },
  // MaxMin
  {
      {
          {9, 0x1.44a94972c2a85p+3}, {46, 0x1.caed6929237bfp+3}, {67, 0x1.5dccf7183c314p+4},
          {43, 0x1.69e84a9ce2e43p+4}, {82, 0x1.8e1ae7d925865p+4}, {45, 0x1.310fa9c8a3c1bp+5},
          {4, 0x1.3f3a5d5284b16p+5}, {30, 0x1.3fabe9c69a00ep+5}, {7, 0x1.401d892f73776p+5},
          {102, 0x1.84e183ab2ea7ap+5}, {51, 0x1.8cfc46431e1dap+5}, {85, 0x1.a4a1af03b8044p+5},
          {138, 0x1.cc795ac2a784ap+5}, {100, 0x1.ccfaaec217fd2p+5}, {47, 0x1.e5bbb33aaf677p+5},
          {99, 0x1.fc8122d76f5e2p+5}, {149, 0x1.0387bdce3ff4bp+6}, {24, 0x1.0e0fb7ad6a082p+6},
          {116, 0x1.229465eac3ed8p+6}, {120, 0x1.238587b2b9777p+6}, {73, 0x1.28e941734879ep+6},
          {42, 0x1.2bb6a378f7f52p+6}, {72, 0x1.2f4778ef1c467p+6}, {63, 0x1.31ecd2a8a3a59p+6},
          {84, 0x1.322db945d43a4p+6}, {16, 0x1.4773af14d1b47p+6}, {83, 0x1.5523831d7d8d9p+6},
          {88, 0x1.735404ab08f3p+6}, {66, 0x1.797ecfd6c18a8p+6}, {150, 0x1.a331a11e12f16p+6},
          {117, 0x1.b792a7f28411dp+6}, {114, 0x1.cabc6825fdb41p+6}, {44, 0x1.0837b17874462p+7},
          {15, 0x1.c81d27cf8ac2ap+7}, {3, 0x1.0dae0960bf222p+8}, {90, 0x1.206ec55e6805bp+8},
          {19, 0x1.273769a003709p+8}, {62, 0x1.2c7259546abf2p+8}, {136, 0x1.2efd5549bd6fdp+8},
          {65, 0x1.52e749ab7da03p+8}, {38, 0x1.6b1ff81832ac8p+8}, {25, 0x1.6dfa7c4ce6c1dp+8},
          {146, 0x1.83249515f73f2p+8}, {35, 0x1.870611db5ec3ap+8}, {89, 0x1.90c79a0066c0ep+8},
          {34, 0x1.975bafcce0fa4p+8}, {78, 0x1.9ed0a196750efp+8}, {81, 0x1.a419a08ea4fc6p+8},
          {31, 0x1.b6045fdaa3545p+8}, {93, 0x1.e18654e055636p+8}, {135, 0x1.e4a0eb39702bep+8},
          {130, 0x1.f6f6f30d5288fp+8}, {58, 0x1.fbd686da54b49p+8}, {20, 0x1.ff578233a26e3p+8},
          {101, 0x1.0d58094c1ae06p+9}, {1, 0x1.182a2f8fadf93p+9}, {18, 0x1.1b206f4ab9f7dp+9},
          {6, 0x1.1b77d1b2cd216p+9}, {147, 0x1.2a597e88b9d7p+9}, {145, 0x1.2f32158488dd6p+9},
          {126, 0x1.332e3fdbaf4fcp+9}, {69, 0x1.3c11f7b66fc79p+9}, {17, 0x1.4208eefba9415p+9},
          {112, 0x1.4982677e39e94p+9}, {49, 0x1.4a81b501b36acp+9}, {140, 0x1.4accb805edef6p+9},
          {103, 0x1.5514aa4c13ba5p+9}, {33, 0x1.558760ba81034p+9}, {23, 0x1.5b1621eadae31p+9},
          {74, 0x1.5c658f33caa99p+9}, {79, 0x1.6002011ac7ecep+9}, {137, 0x1.601a6a1e625bp+9},
          {129, 0x1.61080ef43de9ap+9}, {57, 0x1.67e12d7245623p+9}, {105, 0x1.6bcb254e558d8p+9},
          {96, 0x1.8d9eff7b8d575p+9}, {28, 0x1.98759ca085fb6p+9}, {41, 0x1.aa893637689e6p+9},
          {2, 0x1.b141fa1a3b7cfp+9}, {56, 0x1.b38a11f075577p+9}, {97, 0x1.b4cbfee0df312p+9},
          {12, 0x1.b5b7489a958d6p+9}, {5, 0x1.b5d4a730b531ep+9}, {134, 0x1.bc64595d66654p+9},
          {32, 0x1.c0530b1fbae53p+9}, {53, 0x1.c78c4bf25432cp+9}, {87, 0x1.de52664c0dd57p+9},
          {122, 0x1.e54063fce3694p+9}, {77, 0x1.ea7d94479f0c3p+9}, {106, 0x1.eb27911a35116p+9},
          {104, 0x1.edfe995c8ac79p+9}, {107, 0x1.f2a1a69977efp+9}, {59, 0x1.f864856c0e1b8p+9},
          {123, 0x1.fdcd720b9a2bcp+9}, {92, 0x1.ff1c1777f6d61p+9}, {8, 0x1.001e95057f511p+10},
          {68, 0x1.00435f33f1adep+10}, {13, 0x1.02c34d4b725afp+10}, {91, 0x1.02e37b7819bf6p+10},
          {71, 0x1.1f36fcb394fa1p+10}, {108, 0x1.20a487330738fp+10}, {75, 0x1.20de935b2462cp+10},
          {133, 0x1.212c9f2afc404p+10}, {55, 0x1.24c5f86bd1e0cp+10}, {36, 0x1.361d64a8bdc27p+10},
          {132, 0x1.396241e912797p+10}, {14, 0x1.3bf901e203bcbp+10}, {95, 0x1.42c78e1795309p+10},
          {148, 0x1.4d488657e7075p+10}, {143, 0x1.4dc38af249ee9p+10}, {119, 0x1.536324e11e7eep+10},
          {118, 0x1.54287f8eff93ap+10}, {10, 0x1.590ea9f6e1eep+10}, {11, 0x1.595ea8cfd237p+10},
          {141, 0x1.5a563fb661a4cp+10}, {98, 0x1.5dd18961f857ep+10}, {21, 0x1.6268b1c5b3d1ap+10},
          {61, 0x1.679d4734cf48cp+10}, {37, 0x1.69e36eb3d6483p+10}, {110, 0x1.6fefc4f10703ep+10},
          {39, 0x1.707afe5eea60dp+10}, {60, 0x1.70ef791e32a07p+10}, {139, 0x1.71cc51ecc5143p+10},
          {113, 0x1.74b649410e85fp+10}, {144, 0x1.79a688b4deee2p+10}, {22, 0x1.79e7d809be808p+10},
          {70, 0x1.7e09876f6b1bap+10}, {48, 0x1.7e59ae475ac8bp+10}, {121, 0x1.7ee12a3145ebdp+10},
          {142, 0x1.7f985e44df9e7p+10}, {111, 0x1.7fd1703156473p+10}, {54, 0x1.7ffcb9d7855b2p+10},
          {40, 0x1.80f68ad8650f8p+10}, {94, 0x1.815aaaeeb9f2cp+10}, {125, 0x1.81c5df3c13dcp+10},
          {160, 0x1.793263d5eb5cap+11}, {216, 0x1.79fc4b8c81c7cp+11}, {197, 0x1.7b330fa84876fp+11},
          {292, 0x1.7b5a03d4bacbap+11}, {201, 0x1.7b9939c6ed2f8p+11}, {188, 0x1.7c2da107bd8dcp+11},
          {202, 0x1.7dda959514758p+11}, {172, 0x1.7de1031c97b26p+11}, {208, 0x1.7e41bf38e91b7p+11},
          {277, 0x1.7ebb5c79cdfcbp+11}, {183, 0x1.7ef7fcb628572p+11}, {263, 0x1.7fa49e86ad2cp+11},
          {179, 0x1.7fc70bd5d7d1dp+11}, {258, 0x1.8034ce0905554p+11}, {284, 0x1.80b673a215fb5p+11},
          {281, 0x1.80c7e55aaf4c4p+11}, {272, 0x1.828fd193a68ecp+11}, {247, 0x1.8298c6ab8a0f2p+11},
          {253, 0x1.829e875a4978fp+11}, {168, 0x1.82e036fb4b1a6p+11}, {171, 0x1.83b68709c0a8fp+11},
          {175, 0x1.842e2af50573fp+11}, {231, 0x1.8754a0bf5487ep+11}, {243, 0x1.88e7c828649efp+11},
          {276, 0x1.8923391d869adp+11}, {193, 0x1.8924211295356p+11}, {218, 0x1.896b2efe188cep+11},
          {223, 0x1.89c62e0065974p+11}, {225, 0x1.89da87dfd8f43p+11}, {162, 0x1.8b2027db70876p+11},
          {241, 0x1.8b7b7d1273ea3p+11}, {235, 0x1.8d20f5619870cp+11}, {220, 0x1.8f1a48c93ba2p+11},
          {287, 0x1.92dec8bfe0faap+11}, {251, 0x1.934e2717fa176p+11}, {279, 0x1.9578ef7de50dap+11},
          {291, 0x1.95ed4e75c2199p+11}, {167, 0x1.98f96a47cd097p+11}, {215, 0x1.9993601fc291ap+11},
          {265, 0x1.99bfb451902a8p+11}, {217, 0x1.9ebbb29d2dd1p+11}, {278, 0x1.9fad16011892dp+11},
          {239, 0x1.a0ef1102d32c6p+11}, {261, 0x1.a12ce8ac2193cp+11}, {204, 0x1.a2b243222dc78p+11},
          {236, 0x1.a31bf30824ed9p+11}, {181, 0x1.a4ee6a57d2ec3p+11}, {189, 0x1.a6418f1fa5f74p+11},
          {206, 0x1.a78f1995e3099p+11}, {234, 0x1.a8c461072c251p+11}, {245, 0x1.aa5b68976e985p+11},
          {198, 0x1.abdfbe1063932p+11}, {163, 0x1.ad564054e301ep+11}, {259, 0x1.b18f24ac3289p+11},
          {170, 0x1.b74c04383241ap+11}, {178, 0x1.b796af6f6aa1p+11}, {211, 0x1.b7a4ae821fd45p+11},
          {268, 0x1.b80dc3e2ac529p+11}, {274, 0x1.b81fa607b98fep+11}, {256, 0x1.bd3b067ad7277p+11},
          {285, 0x1.bfbe50a0bc118p+11}, {249, 0x1.c0ee683b24d9fp+11}, {282, 0x1.c2f8639fd2523p+11},
          {226, 0x1.c45af41d37ab8p+11}, {288, 0x1.c4a2ce76d1a29p+11}, {280, 0x1.c5c769b6e0c5cp+11},
          {264, 0x1.cb2d7698ecc53p+11}, {273, 0x1.cb7de567427a8p+11}, {233, 0x1.cc2a313f2588bp+11},
          {213, 0x1.cce307973c552p+11}, {185, 0x1.d42549d188565p+11}, {286, 0x1.d5d19413b0d7dp+11},
          {237, 0x1.d9fe16f161fc1p+11}, {219, 0x1.dd3fecf2cc31dp+11}, {184, 0x1.df42c9c7c0d17p+11},
          {207, 0x1.e0131637570e5p+11}, {176, 0x1.e12ccfcc043d1p+11}, {182, 0x1.e1ebc6ff1983ap+11},
          {227, 0x1.e2e8ffcd11295p+11}, {248, 0x1.e38101f01de71p+11}, {194, 0x1.e4ec38358e809p+11},
          {270, 0x1.e8afb3a3e3c06p+11}, {242, 0x1.e8bd6e1116c56p+11}, {209, 0x1.ec762486ddd3dp+11},
          {232, 0x1.eefa05ecd719cp+11}, {224, 0x1.f148d964f984p+11}, {177, 0x1.f2b43df4bb2fep+11},
          {252, 0x1.f3f773b78385ap+11}, {187, 0x1.f44989bb4e593p+11}, {240, 0x1.f7c229fc7c793p+11},
          {192, 0x1.f9cf5ce831adfp+11}, {260, 0x1.fa6430fe24265p+11}, {205, 0x1.fac78a0e34117p+11},
          {164, 0x1.fb1f5e0fb6e7ap+11}, {228, 0x1.fcc66cefdb456p+11}, {191, 0x1.fd4aed03768d1p+11},
          {166, 0x1.003046c1552c4p+12}, {210, 0x1.0090ccb9f132ap+12}, {257, 0x1.00924a88fa87ap+12},
          {269, 0x1.00d10e3e1f7e6p+12}, {212, 0x1.010ca2c2dd0ddp+12}, {200, 0x1.0193fb5231873p+12},
          {196, 0x1.019f743bb5b8dp+12}, {283, 0x1.01a10659719b3p+12}, {190, 0x1.01a5e91845299p+12},
          {267, 0x1.01e2fe9e1e0c9p+12}, {173, 0x1.01f9f51c3c596p+12}, {244, 0x1.027750835bc98p+12},
          {180, 0x1.0376de70b867bp+12}, {262, 0x1.0412676fe41c1p+12}, {275, 0x1.05c56dd29c952p+12},
          {254, 0x1.05d36e23bbd2bp+12}, {165, 0x1.064c3d74a6927p+12}, {203, 0x1.06978b5db0565p+12},
          {266, 0x1.072b8d221260ap+12}, {271, 0x1.07a5baa8daff7p+12}, {246, 0x1.07dc5957ba614p+12},
          {221, 0x1.086e4101152bap+12}, {229, 0x1.088aabb7dd3e8p+12}, {289, 0x1.090ba6176c942p+12},
          {230, 0x1.09142c44219b3p+12}, {195, 0x1.09166dbcba2c3p+12}, {255, 0x1.0982fab643e27p+12},
          {222, 0x1.09a233f5c0c26p+12}, {238, 0x1.09e16b374856fp+12}, {169, 0x1.09e6b18a2ddd2p+12},
          {250, 0x1.09ec11a181e7cp+12}, {290, 0x1.09ef06f200277p+12},
      },
      0x1.880f67bb40a42p+17,
      {
          0x1.5db6c3baabacep+11, 0x1.5d75a07e43b26p+11, 0x1.5caf7dd214bdp+11, 0x1.5d6aacb12b71ep+11,
          0x1.255e56469781ep+11, 0x1.4ae2b6c3c9939p+11, 0x1.5b81b5f425ccfp+11,
          0x1.2bfb7d6a2491ep+11, 0x1.5b31adb156e84p+11, 0x1.283171f99d2dbp+11, 0x1.2cc3deac67bcp+11,
          0x1.5474a19e59237p+11, 0x1.57b1b5884383fp+11, 0x1.5cfa82bc2c628p+11,
          0x1.4380e8ae06d45p+11, 0x1.4f7883b56b0abp+11, 0x1.5a73bf27553bcp+11,
          0x1.3af75668a8ccfp+11, 0x1.4a27bc6f7b138p+11, 0x1.53f298a636bb1p+11,
          0x1.532db78f3754fp+11, 0x1.163a6a3915044p+11, 0x1.e2c52504649eap+10,
          0x1.5aa909c0229d5p+11, 0x1.286d4c93f4d74p+11, 0x1.545bf6ff0031bp+11,
          0x1.2045bcf6a2284p+11, 0x1.173c244e40cdcp+11, 0x1.58e564f2d3745p+11,
          0x1.1c8b9cb582f5fp+11, 0x1.4fe2164afe874p+11, 0x1.4c86d88311ea4p+11,
          0x1.59b5da959cbbfp+11, 0x1.5b4d3ee08e702p+11, 0x1.00381eebc9bf6p+11,
          0x1.388cc4026764fp+11,
      },
  },
  // NoContention
  {
      {
          {9, 0x1.72b2372b60728p+2}, {1, 0x1.bab67a802468bp+2}, {15, 0x1.125bf4d66ff7ap+3},
          {3, 0x1.5faf1324a583p+3}, {19, 0x1.6995dab58eacp+3}, {2, 0x1.7209b8ca22746p+3},
          {5, 0x1.939da3c7e38fbp+3}, {38, 0x1.a54596dae245cp+3}, {46, 0x1.c6d5d7d30cd5ap+3},
          {43, 0x1.c700769fbe79p+3}, {44, 0x1.d01362603c032p+3}, {25, 0x1.da17cd5efe9dp+3},
          {28, 0x1.f240c598f9af1p+3}, {6, 0x1.15f464fc2641ep+4}, {67, 0x1.1c6023c882017p+4},
          {20, 0x1.1d5904980d8fep+4}, {30, 0x1.27a9d7d3da254p+4}, {35, 0x1.28e1a82f73037p+4},
          {34, 0x1.2bdac999e1493p+4}, {18, 0x1.34cb29e6134dfp+4}, {62, 0x1.51764bd702cp+4},
          {17, 0x1.62ae683dcd15ap+4}, {82, 0x1.6364a9307ffb2p+4}, {65, 0x1.6c6466ad74cd8p+4},
          {56, 0x1.6e9f52d9b3284p+4}, {7, 0x1.712cf22e13546p+4}, {51, 0x1.75c7edb1674e1p+4},
          {14, 0x1.75ee43c33ee88p+4}, {31, 0x1.7893b7ebbaa2cp+4}, {90, 0x1.8a629a32686b4p+4},
          {101, 0x1.8cdc8a7c47236p+4}, {72, 0x1.9d2aa2f558502p+4}, {100, 0x1.a108536fd066ap+4},
          {105, 0x1.a4184ee3e5f9cp+4}, {4, 0x1.a4f9bfc44665ep+4}, {102, 0x1.a5b63556ac94cp+4},
          {45, 0x1.a8e2316e76c89p+4}, {24, 0x1.ac263a5fdc81ep+4}, {81, 0x1.ac6e6a37e39d2p+4},
          {115, 0x1.ae5340a8cc246p+4}, {112, 0x1.b415482d8f87ap+4}, {10, 0x1.b72742727c841p+4},
          {89, 0x1.b8bd1e8418306p+4}, {11, 0x1.b8cca518cfc1fp+4}, {26, 0x1.bbcf90128b441p+4},
          {68, 0x1.ca358bc624faep+4}, {87, 0x1.cfdcd44385004p+4}, {12, 0x1.d27b4ac3f7a8ap+4},
          {36, 0x1.d3d9a778c9218p+4}, {135, 0x1.e73b5174e975ap+4}, {85, 0x1.e80d6737a7752p+4},
          {128, 0x1.e83a240796f26p+4}, {93, 0x1.e9f665344d9c2p+4}, {129, 0x1.eac95574cd5a4p+4},
          {78, 0x1.ed44af226ffd7p+4}, {55, 0x1.efe4788d8a80ep+4}, {116, 0x1.f00d38648c749p+4},
          {88, 0x1.f838eca0fae4p+4}, {146, 0x1.fc649e3a1f965p+4}, {21, 0x1.fec9c94eb5603p+4},
          {76, 0x1.0224d71d69413p+5}, {71, 0x1.03d1b1c376e36p+5}, {58, 0x1.04a94995c8f15p+5},
          {16, 0x1.0640aeeea24efp+5}, {136, 0x1.093e68308ca13p+5}, {75, 0x1.0a618a52616aep+5},
          {107, 0x1.0b5f7e8c66da3p+5}, {57, 0x1.13762e2f96d38p+5}, {63, 0x1.1a6bbf4eaac92p+5},
          {32, 0x1.1bc8729bc8b9cp+5}, {41, 0x1.1e30cecd3dc2cp+5}, {64, 0x1.241fb2208125cp+5},
          {47, 0x1.287798e485f6bp+5}, {37, 0x1.2df00a671dc16p+5}, {42, 0x1.2ed8c05364797p+5},
          {108, 0x1.3285bf41efa9ep+5}, {8, 0x1.37d89a4e7f91bp+5}, {22, 0x1.3e191e0b1c3adp+5},
          {149, 0x1.3e8188f63798ep+5}, {23, 0x1.3eef465bfdb8bp+5}, {103, 0x1.401755cf7b718p+5},
          {39, 0x1.40429d510c726p+5}, {73, 0x1.408c25432c1a8p+5}, {84, 0x1.42d5d8adbcd19p+5},
          {138, 0x1.443f51e03cd74p+5}, {53, 0x1.45770f63c6faap+5}, {95, 0x1.46c4dd94614b6p+5},
          {33, 0x1.4a55efd589b16p+5}, {49, 0x1.4b232c0033318p+5}, {126, 0x1.4dc8ead25977cp+5},
          {61, 0x1.4f0568c89a1bep+5}, {13, 0x1.52cc6529971dap+5}, {133, 0x1.536c33d89db1fp+5},
          {69, 0x1.55b36a184ab3cp+5}, {96, 0x1.56bcd44d6d405p+5}, {86, 0x1.5bc6d84f301ebp+5},
          {145, 0x1.61ebab314a8ep+5}, {60, 0x1.642f6c53d227p+5}, {80, 0x1.64e0473bddc94p+5},
          {150, 0x1.6aa23be87d667p+5}, {140, 0x1.6b5e8a02caff9p+5}, {132, 0x1.6d1437563f855p+5},
          {98, 0x1.6daaad5de522cp+5}, {97, 0x1.6dcea4e5fdc72p+5}, {114, 0x1.712cdd3e0d608p+5},
          {83, 0x1.745a6d4ca7988p+5}, {48, 0x1.775d7ea84761bp+5}, {137, 0x1.77b8750d101ep+5},
          {119, 0x1.7d547074a797ap+5}, {66, 0x1.7de52036f27aap+5}, {118, 0x1.7e58898814b96p+5},
          {40, 0x1.8082540275daep+5}, {59, 0x1.82808f9e391e1p+5}, {120, 0x1.8bb62b4adbcb3p+5},
          {54, 0x1.8f3f373a66e3cp+5}, {143, 0x1.8fb708c9f8a73p+5}, {74, 0x1.93cd5fe742c0cp+5},
          {70, 0x1.95423601b966ep+5}, {148, 0x1.9c58b89d8803p+5}, {141, 0x1.9e167107e529cp+5},
          {110, 0x1.a08b0499095e4p+5}, {104, 0x1.a70cf90bf3a2bp+5}, {106, 0x1.a755d45220964p+5},
          {147, 0x1.a7afbed9549ap+5}, {134, 0x1.a85b8a4877536p+5}, {113, 0x1.ae363a73c9861p+5},
          {92, 0x1.b2ddfe7ca10ap+5}, {122, 0x1.b7ffa920757b8p+5}, {139, 0x1.cb4ca665509p+5},
          {111, 0x1.d129ae4418c3p+5}, {121, 0x1.daafe71d7828ep+5}, {123, 0x1.de50b5cc5c397p+5},
          {144, 0x1.e5220f202424ap+5}, {142, 0x1.f9832c77c5c83p+5}, {125, 0x1.01dc7534ea556p+6},
          {157, 0x1.778c4769309b2p+11}, {160, 0x1.77a9235e6bd4bp+11}, {155, 0x1.77b60d3bf228bp+11},
          {162, 0x1.77c327349650bp+11}, {156, 0x1.77c527e49741ep+11}, {167, 0x1.781b01176d674p+11},
          {163, 0x1.78898dc6a98dcp+11}, {181, 0x1.789a36062c861p+11}, {170, 0x1.78d4bac4c03cbp+11},
          {223, 0x1.78df31d536802p+11}, {220, 0x1.78edd187be0d5p+11}, {197, 0x1.78f3323fe362ap+11},
          {214, 0x1.78f46efa4d6e6p+11}, {189, 0x1.78f7a272cbe5ep+11}, {178, 0x1.78fb156ad61dp+11},
          {204, 0x1.79100e84fb825p+11}, {215, 0x1.7914fcc6500c5p+11}, {208, 0x1.791e081aa6725p+11},
          {217, 0x1.7930bfd318585p+11}, {235, 0x1.79316eaaf0b05p+11}, {198, 0x1.794317a4e2efdp+11},
          {216, 0x1.798579d96a66bp+11}, {183, 0x1.798b48e32659ap+11}, {211, 0x1.79911607d9c7bp+11},
          {158, 0x1.799b1db88326dp+11}, {239, 0x1.79a6c655abb98p+11}, {234, 0x1.79b287125788bp+11},
          {159, 0x1.79caccc0d8f6dp+11}, {168, 0x1.79cbcd11984f8p+11}, {251, 0x1.79d0b391885bp+11},
          {185, 0x1.79d5077ba9362p+11}, {174, 0x1.79f763150a3d7p+11}, {245, 0x1.7a04c41bb1c4ep+11},
          {184, 0x1.7a1e5113df572p+11}, {199, 0x1.7a22b06d065adp+11}, {182, 0x1.7a28b2be2fec9p+11},
          {213, 0x1.7a28eac8eb404p+11}, {226, 0x1.7a32f7597933ap+11}, {206, 0x1.7a371b52d347dp+11},
          {261, 0x1.7a495ba06d35p+11}, {265, 0x1.7a5b44409d0cp+11}, {176, 0x1.7a5f0ee2c686cp+11},
          {201, 0x1.7a5fc3af712e4p+11}, {236, 0x1.7a7dcf56caa0dp+11}, {207, 0x1.7a98ae04a6376p+11},
          {259, 0x1.7a9b364647d72p+11}, {177, 0x1.7a9e52ace3cddp+11}, {188, 0x1.7ab0ad32ba864p+11},
          {219, 0x1.7ab5743b81c95p+11}, {279, 0x1.7ac38af64b8cdp+11}, {187, 0x1.7aeaa5da304bdp+11},
          {166, 0x1.7aedafb988615p+11}, {194, 0x1.7af1b6dddacf2p+11}, {287, 0x1.7afb0eb5d6b5p+11},
          {237, 0x1.7b019bbd06e1fp+11}, {172, 0x1.7b1fd6bf6bf4dp+11}, {193, 0x1.7b40fd185bf41p+11},
          {292, 0x1.7b430c597c3ecp+11}, {192, 0x1.7b4f9c536fee4p+11}, {227, 0x1.7b6355a17294dp+11},
          {209, 0x1.7b68d082c1049p+11}, {224, 0x1.7b6b1859713abp+11}, {179, 0x1.7b7501d4d7562p+11},
          {171, 0x1.7b7a43524ec92p+11}, {205, 0x1.7b80328a509dbp+11}, {180, 0x1.7b88ee9130dccp+11},
          {277, 0x1.7b8ae0b13759ap+11}, {232, 0x1.7b8cb6162e78ep+11}, {218, 0x1.7b9280ac184bdp+11},
          {264, 0x1.7b97cf21bd893p+11}, {274, 0x1.7b9a1a1eeb7bap+11}, {291, 0x1.7b9d4b682c382p+11},
          {242, 0x1.7b9ecddef736fp+11}, {278, 0x1.7b9fb112375a8p+11}, {202, 0x1.7bb5dceb8a4cdp+11},
          {210, 0x1.7bcc5a9952fb9p+11}, {225, 0x1.7bd80af444034p+11}, {285, 0x1.7bdcc5894fe0fp+11},
          {212, 0x1.7bdf0e4898cc6p+11}, {175, 0x1.7be1cc40db4a8p+11}, {248, 0x1.7bed490f26fc8p+11},
          {191, 0x1.7c07ca3e27207p+11}, {282, 0x1.7c16a5253ad05p+11}, {256, 0x1.7c467bd2bb57ap+11},
          {249, 0x1.7c4f65e43dceep+11}, {203, 0x1.7c60142fd17d2p+11}, {268, 0x1.7c6771f1daadbp+11},
          {263, 0x1.7c67a22062dbp+11}, {190, 0x1.7c8c4ba0d6003p+11}, {228, 0x1.7c8d64df75251p+11},
          {270, 0x1.7c91b42aff47ap+11}, {240, 0x1.7c91efbd6c832p+11}, {196, 0x1.7c9f82bc3229cp+11},
          {247, 0x1.7ca42cc53a90cp+11}, {195, 0x1.7cb809f08a5f9p+11}, {244, 0x1.7cbaf31bb1c55p+11},
          {286, 0x1.7cc23ed0f2fdbp+11}, {231, 0x1.7cc384ee3eda2p+11}, {252, 0x1.7cc77185532d7p+11},
          {258, 0x1.7cc7e630dd2a7p+11}, {253, 0x1.7cc972edbe41fp+11}, {186, 0x1.7cdad353c621fp+11},
          {284, 0x1.7ce530df3f2f3p+11}, {281, 0x1.7ceae6d116933p+11}, {229, 0x1.7d2bba4090b08p+11},
          {260, 0x1.7d431c3a59eedp+11}, {230, 0x1.7d4d6f4877939p+11}, {262, 0x1.7d64061e5f9c7p+11},
          {254, 0x1.7d6a0437e3781p+11}, {246, 0x1.7d6ec6dd54331p+11}, {233, 0x1.7d853f953c5d6p+11},
          {241, 0x1.7d87dad4803a2p+11}, {243, 0x1.7d98b0147f6eep+11}, {257, 0x1.7dabd7da98f56p+11},
          {280, 0x1.7dbf3b4dd70f1p+11}, {238, 0x1.7dc4e068bcdafp+11}, {288, 0x1.7dda32114b436p+11},
          {266, 0x1.7dfb5e760d577p+11}, {255, 0x1.7e1d16cb26061p+11}, {269, 0x1.7e2b70d7e3042p+11},
          {275, 0x1.7e33850cc50d8p+11}, {272, 0x1.7e3b39b9273ccp+11}, {271, 0x1.7e47ec5819f76p+11},
          {273, 0x1.7e94d939a32fep+11}, {276, 0x1.7e9ceda8ea069p+11}, {283, 0x1.7ed9a6b1834d8p+11},
          {289, 0x1.7f19654a40931p+11}, {290, 0x1.7f7f39e89c3b6p+11},
      },
      0x1.949ca38dcaafep+17,
      {
          0x1.083e3cae4fdffp+7, 0x1.04f83bd61bca5p+7, 0x1.e6d4eb5562724p+6, 0x1.f5ae1ff76ec4cp+6,
          0x1.67b2ed658a52dp+6, 0x1.59f209c7be6b6p+6, 0x1.822ca4c1c856fp+6, 0x1.9db49d4539cd7p+6,
          0x1.dd96e8ac43955p+6, 0x1.60c762518954ap+6, 0x1.bec61cf1102fep+6, 0x1.6a1863df727e2p+6,
          0x1.78485b9d94448p+6, 0x1.a5aa99d8311f7p+6, 0x1.84744bdd58f28p+6, 0x1.8c60c97aca404p+6,
          0x1.a55464545eda3p+6, 0x1.7e43a51bbee7ep+6, 0x1.67977de1d1c1ep+6, 0x1.d3aa4a5cc3b6ep+6,
          0x1.755d14714e2fcp+6, 0x1.9f465eb2b7823p+6, 0x1.8d82af3b0711ep+6, 0x1.9b77896e4634p+6,
          0x1.997735f38ec04p+6, 0x1.a89014a0d7fb4p+6, 0x1.7da6c4c6ef94bp+6, 0x1.715a67226e712p+6,
          0x1.c9610a3a4a93ep+6, 0x1.70cdd13e68a12p+6, 0x1.ad1add686467ep+6, 0x1.bddaa654a6bbfp+6,
          0x1.a980cca89d0e6p+6, 0x1.e59368dc39f6ap+6, 0x1.64d9c338a8c6bp+6, 0x1.81303b26f0b89p+6,
      },
  },
};

TEST(TransferManager, LargeChurnScenarioIsPinned) {
  const SharePolicy policies[] = {SharePolicy::EqualShare, SharePolicy::MaxMin,
                                  SharePolicy::NoContention};
  for (std::size_t p = 0; p < 3; ++p) {
    const ChurnRun run = run_churn_scenario(policies[p]);
    EXPECT_GE(run.aborts, 20u) << "policy " << p;
    EXPECT_GE(run.peak_active, kTableCompactMinSlots) << "policy " << p;
    EXPECT_GE(run.compactions, 2u) << "policy " << p;
    const PinnedChurn& expected = kPinnedChurn[p];
    ASSERT_EQ(run.completions.size(), expected.completions.size()) << "policy " << p;
    for (std::size_t i = 0; i < expected.completions.size(); ++i) {
      EXPECT_EQ(run.completions[i].first, expected.completions[i].first)
          << "policy " << p << " #" << i;
      EXPECT_EQ(run.completions[i].second, expected.completions[i].second)
          << "policy " << p << " #" << i;
    }
    EXPECT_EQ(run.delivered_mb_hops, expected.delivered_mb_hops) << "policy " << p;
    ASSERT_EQ(run.link_busy.size(), expected.link_busy.size()) << "policy " << p;
    for (std::size_t l = 0; l < expected.link_busy.size(); ++l) {
      EXPECT_EQ(run.link_busy[l], expected.link_busy[l]) << "policy " << p << " link " << l;
    }
  }
}

TEST(TransferManager, LookupsSurviveCompaction) {
  World w(build_hierarchy({32, 4, 10.0}));
  util::Rng rng(9);
  struct Live {
    TransferId id;
    NodeId src;
    NodeId dst;
  };
  std::vector<Live> live;
  std::vector<TransferId> retired;
  std::size_t completed = 0;
  auto start = [&](double size) {
    auto src = static_cast<NodeId>(rng.index(32));
    NodeId dst = src;
    while (dst == src) dst = static_cast<NodeId>(rng.index(32));
    TransferId id = w.tm.start(src, dst, size, TransferPurpose::JobFetch,
                               [&](TransferId) { ++completed; });
    live.push_back(Live{id, src, dst});
  };
  // Every survivor answers each lookup as an independent equal-share
  // computation says it must; every retired id is gone.
  auto check = [&] {
    ASSERT_EQ(w.tm.active_count(), live.size());
    std::vector<std::size_t> on_link(w.topo.link_count(), 0);
    for (const Live& f : live) {
      for (LinkId l : w.routing.path(f.src, f.dst)) ++on_link[l];
    }
    for (LinkId l = 0; l < w.topo.link_count(); ++l) {
      EXPECT_EQ(w.tm.flows_on_link(l), on_link[l]) << "link " << l;
    }
    for (const Live& f : live) {
      double rate = util::kTimeInfinity;
      for (LinkId l : w.routing.path(f.src, f.dst)) {
        rate = std::min(rate, w.topo.link(l).bandwidth_mbps / static_cast<double>(on_link[l]));
      }
      EXPECT_TRUE(w.tm.active(f.id)) << f.id;
      EXPECT_EQ(w.tm.current_rate(f.id), rate) << f.id;
      EXPECT_GT(w.tm.remaining_mb(f.id), 0.0) << f.id;
    }
    for (TransferId id : retired) {
      EXPECT_FALSE(w.tm.active(id)) << id;
      EXPECT_THROW(w.tm.abort(id), util::SimError) << id;
      EXPECT_THROW(static_cast<void>(w.tm.current_rate(id)), util::SimError) << id;
    }
  };
  // Abort two of every three survivors from `first` on (at most `count`),
  // keeping the rest; remaining bytes must not move while no time passes.
  auto abort_some = [&](std::size_t first, std::size_t count) {
    std::vector<std::pair<TransferId, double>> before;
    for (const Live& f : live) before.emplace_back(f.id, w.tm.remaining_mb(f.id));
    std::vector<Live> kept;
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (i >= first && count > 0 && (i - first) % 3 != 2) {
        w.tm.abort(live[i].id);
        retired.push_back(live[i].id);
        --count;
      } else {
        kept.push_back(live[i]);
      }
    }
    live = std::move(kept);
    for (const Live& f : live) {
      auto it = std::find_if(before.begin(), before.end(),
                             [&](const auto& b) { return b.first == f.id; });
      EXPECT_EQ(w.tm.remaining_mb(f.id), it->second) << f.id;
    }
  };

  // 20 tiny flows finish within seconds; 80 long ones keep running.
  for (int i = 0; i < 20; ++i) start(0.5);
  for (int i = 0; i < 80; ++i) start(rng.uniform(5000.0, 9000.0));
  for (std::size_t i = 0; i < 20; ++i) retired.push_back(live[i].id);
  live.erase(live.begin(), live.begin() + 20);
  w.engine.run_until(20.0);
  ASSERT_EQ(completed, 20u);
  check();

  // 20 finished + 50 aborted of 100 slots: the table compacts.
  abort_some(0, 50);
  check();

  // Remaining bytes keep moving at the reported rates after compaction.
  std::vector<double> rem;
  for (const Live& f : live) rem.push_back(w.tm.remaining_mb(f.id));
  w.engine.run_until(25.0);
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_NEAR(w.tm.remaining_mb(live[i].id), rem[i] - 5.0 * w.tm.current_rate(live[i].id),
                1e-9);
  }

  // New flows land after the compacted survivors; a second compaction
  // keeps old and new survivors reachable.
  for (int i = 0; i < 40; ++i) start(rng.uniform(5000.0, 9000.0));
  check();
  abort_some(5, 40);
  check();

  w.engine.run();
  EXPECT_EQ(completed, 20u + live.size());
  EXPECT_EQ(w.tm.active_count(), 0u);
  EXPECT_EQ(w.tm.stats().transfers_aborted, 90u);
}

}  // namespace
}  // namespace chicsim::net
