// Routing over a tree Topology.
//
// Every topology the simulator builds is a tree (the paper's GriPhyN-like
// hierarchy, or a star), so the path between two nodes is unique. One
// traversal from node 0 records each node's uplink and depth; a route climbs
// from the deeper endpoint until the two meet. `hops` is used both by the
// closest-replica selection policy and by the DataCascading extension.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/topology.hpp"

namespace chicsim::net {

class Routing {
 public:
  /// Roots the topology at node 0. Throws SimError unless the topology is a
  /// tree: connected, with no cycle and no parallel link.
  explicit Routing(const Topology& topo);

  /// Links traversed from src to dst, in order. Empty when src == dst. The
  /// reference stays valid for the Routing's lifetime.
  [[nodiscard]] const std::vector<LinkId>& path(NodeId src, NodeId dst) const;

  /// Number of links between src and dst (0 when equal).
  [[nodiscard]] std::size_t hops(NodeId src, NodeId dst) const;

 private:
  struct Up {
    NodeId parent = kNoNode;
    LinkId link = static_cast<LinkId>(-1);
    std::uint32_t depth = 0;
  };

  void check_range(NodeId src, NodeId dst) const;

  /// up_[v]: v's parent, the link to it, and v's depth below node 0.
  std::vector<Up> up_;
  /// Paths of the pairs requested so far. Node-based, so the references
  /// path() hands out survive rehashing.
  // detlint: order-insensitive: lookup-only memo keyed by (src, dst); never iterated
  mutable std::unordered_map<std::uint64_t, std::vector<LinkId>> paths_;
};

}  // namespace chicsim::net
