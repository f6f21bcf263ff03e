// Property test: Routing against a reference BFS on random trees. For every
// node pair the materialised path must be a valid walk whose length equals
// the reference distance, and the reverse pair must take the same links
// backwards.
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>

#include "net/routing.hpp"
#include "util/rng.hpp"

namespace chicsim::net {
namespace {

Topology random_tree(util::Rng& rng, std::size_t nodes) {
  Topology topo;
  for (std::size_t n = 0; n < nodes; ++n) {
    topo.add_node(n % 3 == 0 ? NodeKind::Router : NodeKind::Site, "n" + std::to_string(n));
  }
  // Each node links to a random earlier one: a random spanning tree, and
  // nothing else.
  for (std::size_t n = 1; n < nodes; ++n) {
    auto parent = static_cast<NodeId>(rng.index(n));
    topo.add_link(static_cast<NodeId>(n), parent, rng.uniform(5.0, 100.0));
  }
  return topo;
}

std::vector<std::uint32_t> bfs_distances(const Topology& topo, NodeId src) {
  std::vector<std::uint32_t> dist(topo.node_count(), static_cast<std::uint32_t>(-1));
  std::queue<NodeId> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (LinkId l : topo.links_of(u)) {
      NodeId v = topo.neighbor_via(l, u);
      if (dist[v] == static_cast<std::uint32_t>(-1)) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

class RoutingProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RoutingProperty, PathsMatchReferenceOnRandomTrees) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    std::size_t nodes = 5 + rng.index(20);
    Topology topo = random_tree(rng, nodes);
    Routing routing(topo);

    for (NodeId src = 0; src < nodes; ++src) {
      auto ref = bfs_distances(topo, src);
      for (NodeId dst = 0; dst < nodes; ++dst) {
        ASSERT_EQ(routing.hops(src, dst), ref[dst])
            << "nodes=" << nodes << " src=" << src << " dst=" << dst;
        const auto& path = routing.path(src, dst);
        ASSERT_EQ(path.size(), ref[dst]);
        NodeId cur = src;
        for (LinkId l : path) cur = topo.neighbor_via(l, cur);
        ASSERT_EQ(cur, dst);
        const auto& back = routing.path(dst, src);
        ASSERT_TRUE(std::equal(path.begin(), path.end(), back.rbegin(), back.rend()))
            << "nodes=" << nodes << " src=" << src << " dst=" << dst;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoutingProperty, ::testing::Values(3u, 17u, 29u, 71u),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace chicsim::net
