#include "net/topology.hpp"

#include <gtest/gtest.h>

#include "net/routing.hpp"
#include "util/error.hpp"

namespace chicsim::net {
namespace {

TEST(Topology, AddNodesAndLinks) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Site, "a");
  NodeId b = topo.add_node(NodeKind::Router, "b");
  LinkId l = topo.add_link(a, b, 10.0);
  EXPECT_EQ(topo.node_count(), 2u);
  EXPECT_EQ(topo.link_count(), 1u);
  EXPECT_EQ(topo.node(a).kind, NodeKind::Site);
  EXPECT_EQ(topo.node(b).kind, NodeKind::Router);
  EXPECT_DOUBLE_EQ(topo.link(l).bandwidth_mbps, 10.0);
}

TEST(Topology, NeighborViaReturnsOtherEnd) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Site, "a");
  NodeId b = topo.add_node(NodeKind::Site, "b");
  LinkId l = topo.add_link(a, b, 5.0);
  EXPECT_EQ(topo.neighbor_via(l, a), b);
  EXPECT_EQ(topo.neighbor_via(l, b), a);
}

TEST(Topology, NeighborViaFromNonEndpointThrows) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Site, "a");
  NodeId b = topo.add_node(NodeKind::Site, "b");
  NodeId c = topo.add_node(NodeKind::Site, "c");
  LinkId l = topo.add_link(a, b, 5.0);
  EXPECT_THROW((void)topo.neighbor_via(l, c), util::SimError);
}

TEST(Topology, LinksOfListsIncidentLinks) {
  Topology topo;
  NodeId hub = topo.add_node(NodeKind::Router, "hub");
  NodeId a = topo.add_node(NodeKind::Site, "a");
  NodeId b = topo.add_node(NodeKind::Site, "b");
  topo.add_link(hub, a, 1.0);
  topo.add_link(hub, b, 1.0);
  EXPECT_EQ(topo.links_of(hub).size(), 2u);
  EXPECT_EQ(topo.links_of(a).size(), 1u);
}

TEST(Topology, InvalidLinksThrow) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Site, "a");
  NodeId b = topo.add_node(NodeKind::Site, "b");
  EXPECT_THROW(topo.add_link(a, a, 1.0), util::SimError);
  EXPECT_THROW(topo.add_link(a, 99, 1.0), util::SimError);
  EXPECT_THROW(topo.add_link(a, b, 0.0), util::SimError);
  EXPECT_THROW(topo.add_link(a, b, -1.0), util::SimError);
}

TEST(Topology, OutOfRangeAccessThrows) {
  Topology topo;
  EXPECT_THROW((void)topo.node(0), util::SimError);
  EXPECT_THROW((void)topo.link(0), util::SimError);
  EXPECT_THROW((void)topo.links_of(0), util::SimError);
}

TEST(Topology, ConnectivityDetection) {
  Topology topo;
  NodeId a = topo.add_node(NodeKind::Site, "a");
  NodeId b = topo.add_node(NodeKind::Site, "b");
  NodeId c = topo.add_node(NodeKind::Site, "c");
  topo.add_link(a, b, 1.0);
  EXPECT_THROW(Routing{topo}, util::SimError);
  topo.add_link(b, c, 1.0);
  EXPECT_NO_THROW(Routing{topo});
}

TEST(Topology, EmptyTopologyIsConnected) {
  Topology topo;
  EXPECT_NO_THROW(Routing{topo});
}

TEST(Topology, NodesOfKindFilters) {
  Topology topo = build_hierarchy({30, 6, 10.0});
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::Site).size(), 30u);
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::Router).size(), 7u);  // root + 6 regions
}

TEST(Hierarchy, Table1TopologyShape) {
  Topology topo = build_hierarchy({30, 6, 10.0});
  // 30 sites + 1 root + 6 regions; 6 root-region links + 30 site links.
  EXPECT_EQ(topo.node_count(), 37u);
  EXPECT_EQ(topo.link_count(), 36u);
  EXPECT_NO_THROW(Routing{topo});
  // Site ids coincide with site indices (0..29).
  for (NodeId s = 0; s < 30; ++s) EXPECT_EQ(topo.node(s).kind, NodeKind::Site);
}

TEST(Hierarchy, AllLinksCarryNominalBandwidth) {
  Topology topo = build_hierarchy({12, 3, 100.0});
  for (LinkId l = 0; l < topo.link_count(); ++l) {
    EXPECT_DOUBLE_EQ(topo.link(l).bandwidth_mbps, 100.0);
  }
}

TEST(Hierarchy, SitesSpreadRoundRobinOverRegions) {
  Topology topo = build_hierarchy({6, 3, 10.0});
  // Sites 0 and 3 share region0, 1 and 4 share region1, 2 and 5 region2.
  // Verify via shared adjacent router.
  auto region_of = [&](NodeId site) {
    const auto& links = topo.links_of(site);
    EXPECT_EQ(links.size(), 1u);
    return topo.neighbor_via(links[0], site);
  };
  EXPECT_EQ(region_of(0), region_of(3));
  EXPECT_EQ(region_of(1), region_of(4));
  EXPECT_NE(region_of(0), region_of(1));
}

TEST(Hierarchy, InvalidConfigThrows) {
  EXPECT_THROW((void)build_hierarchy({0, 3, 10.0}), util::SimError);
  EXPECT_THROW((void)build_hierarchy({5, 0, 10.0}), util::SimError);
  EXPECT_THROW((void)build_hierarchy({5, 3, 0.0}), util::SimError);
}

TEST(Star, ShapeAndConnectivity) {
  Topology topo = build_star(8, 10.0);
  EXPECT_EQ(topo.node_count(), 9u);
  EXPECT_EQ(topo.link_count(), 8u);
  EXPECT_NO_THROW(Routing{topo});
  EXPECT_EQ(topo.nodes_of_kind(NodeKind::Router).size(), 1u);
}

}  // namespace
}  // namespace chicsim::net
