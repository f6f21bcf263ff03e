#include "net/routing.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace chicsim::net {
namespace {

TEST(Routing, RequiresConnectedTopology) {
  Topology topo;
  topo.add_node(NodeKind::Site, "a");
  topo.add_node(NodeKind::Site, "b");
  EXPECT_THROW(Routing{topo}, util::SimError);
}

TEST(Routing, SelfPathIsEmpty) {
  Topology topo = build_star(3, 10.0);
  Routing routing(topo);
  EXPECT_TRUE(routing.path(1, 1).empty());
  EXPECT_EQ(routing.hops(1, 1), 0u);
}

TEST(Routing, StarPathsGoThroughHub) {
  Topology topo = build_star(4, 10.0);  // hub is node 4
  Routing routing(topo);
  const auto& p = routing.path(0, 3);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(routing.hops(0, 3), 2u);
  // Path links connect 0-hub and hub-3.
  EXPECT_EQ(topo.neighbor_via(p[0], 0), 4u);
  EXPECT_EQ(topo.neighbor_via(p[1], 4u), 3u);
}

TEST(Routing, HierarchyDistances) {
  Topology topo = build_hierarchy({6, 3, 10.0});
  Routing routing(topo);
  // Same region (0 and 3 under region0): site-region-site = 2 hops.
  EXPECT_EQ(routing.hops(0, 3), 2u);
  // Different regions: site-region-root-region-site = 4 hops.
  EXPECT_EQ(routing.hops(0, 1), 4u);
}

TEST(Routing, PathEndpointsAreConsistent) {
  Topology topo = build_hierarchy({30, 6, 10.0});
  Routing routing(topo);
  for (NodeId a = 0; a < 30; a += 7) {
    for (NodeId b = 0; b < 30; b += 5) {
      const auto& p = routing.path(a, b);
      EXPECT_EQ(p.size(), routing.hops(a, b));
      NodeId cur = a;
      for (LinkId l : p) cur = topo.neighbor_via(l, cur);
      EXPECT_EQ(cur, b);
    }
  }
}

TEST(Routing, PathsAreSymmetricInLength) {
  Topology topo = build_hierarchy({30, 6, 10.0});
  Routing routing(topo);
  for (NodeId a = 0; a < 30; a += 3) {
    for (NodeId b = 0; b < 30; b += 4) {
      EXPECT_EQ(routing.hops(a, b), routing.hops(b, a));
    }
  }
}

TEST(Routing, RepeatedPathCallsReturnSameObject) {
  // TransferManager flows hold a pointer into the path memo: filling the
  // memo with every other pair must neither move nor change a held path.
  constexpr NodeId kSites = 480;
  Topology topo = build_hierarchy({kSites, 96, 10.0});
  Routing routing(topo);
  const std::vector<LinkId>* held = &routing.path(3, 200);
  const std::vector<LinkId> copy = *held;
  EXPECT_EQ(&routing.path(3, 200), held);
  for (NodeId a = 0; a < kSites; ++a) {
    for (NodeId b = 0; b < kSites; ++b) (void)routing.path(a, b);
  }
  EXPECT_EQ(&routing.path(3, 200), held);
  EXPECT_EQ(*held, copy);
}

TEST(Routing, TriangleIsRejected) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Site, "a");
  NodeId b = topo.add_node(NodeKind::Site, "b");
  NodeId c = topo.add_node(NodeKind::Site, "c");
  topo.add_link(a, b, 10.0);
  topo.add_link(b, c, 10.0);
  topo.add_link(a, c, 10.0);
  EXPECT_THROW(Routing{topo}, util::SimError);
}

TEST(Routing, ParallelLinkIsRejected) {
  Topology topo = build_star(3, 10.0);  // hub is node 3
  topo.add_link(1, 3, 10.0);
  EXPECT_THROW(Routing{topo}, util::SimError);
}

TEST(Routing, OutOfRangeThrows) {
  Topology topo = build_star(2, 10.0);
  Routing routing(topo);
  EXPECT_THROW((void)routing.hops(0, 99), util::SimError);
}

}  // namespace
}  // namespace chicsim::net
