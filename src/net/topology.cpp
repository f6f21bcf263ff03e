#include "net/topology.hpp"

#include "util/error.hpp"

namespace chicsim::net {

NodeId Topology::add_node(NodeKind kind, std::string name) {
  auto id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(Node{kind, std::move(name)});
  adjacency_.emplace_back();
  return id;
}

LinkId Topology::add_link(NodeId a, NodeId b, util::MbPerSec bandwidth_mbps) {
  CHICSIM_ASSERT_MSG(a < nodes_.size() && b < nodes_.size(), "link endpoint out of range");
  CHICSIM_ASSERT_MSG(a != b, "self-link not allowed");
  CHICSIM_ASSERT_MSG(bandwidth_mbps > 0.0, "link bandwidth must be positive");
  auto id = static_cast<LinkId>(links_.size());
  links_.push_back(Link{a, b, bandwidth_mbps});
  adjacency_[a].push_back(id);
  adjacency_[b].push_back(id);
  return id;
}

const Node& Topology::node(NodeId id) const {
  CHICSIM_ASSERT_MSG(id < nodes_.size(), "node id out of range");
  return nodes_[id];
}

const Link& Topology::link(LinkId id) const {
  CHICSIM_ASSERT_MSG(id < links_.size(), "link id out of range");
  return links_[id];
}

const std::vector<LinkId>& Topology::links_of(NodeId id) const {
  CHICSIM_ASSERT_MSG(id < nodes_.size(), "node id out of range");
  return adjacency_[id];
}

NodeId Topology::neighbor_via(LinkId link_id, NodeId from) const {
  const Link& l = link(link_id);
  CHICSIM_ASSERT_MSG(l.a == from || l.b == from, "node is not an endpoint of link");
  return l.a == from ? l.b : l.a;
}

std::vector<NodeId> Topology::nodes_of_kind(NodeKind kind) const {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].kind == kind) out.push_back(id);
  }
  return out;
}

Topology build_hierarchy(const HierarchyConfig& config) {
  CHICSIM_ASSERT_MSG(config.num_sites > 0, "hierarchy needs at least one site");
  CHICSIM_ASSERT_MSG(config.num_regions > 0, "hierarchy needs at least one region");
  CHICSIM_ASSERT_MSG(config.link_bandwidth_mbps > 0.0, "bandwidth must be positive");
  CHICSIM_ASSERT_MSG(config.backbone_multiplier > 0.0,
                     "backbone multiplier must be positive");

  Topology topo;
  // Sites first so NodeId == site index for callers.
  for (std::size_t s = 0; s < config.num_sites; ++s) {
    topo.add_node(NodeKind::Site, "site" + std::to_string(s));
  }
  NodeId root = topo.add_node(NodeKind::Router, "root");
  std::vector<NodeId> regions;
  regions.reserve(config.num_regions);
  for (std::size_t r = 0; r < config.num_regions; ++r) {
    NodeId region = topo.add_node(NodeKind::Router, "region" + std::to_string(r));
    topo.add_link(root, region, config.link_bandwidth_mbps * config.backbone_multiplier);
    regions.push_back(region);
  }
  for (std::size_t s = 0; s < config.num_sites; ++s) {
    topo.add_link(static_cast<NodeId>(s), regions[s % config.num_regions],
                  config.link_bandwidth_mbps);
  }
  return topo;
}

Topology build_star(std::size_t num_sites, util::MbPerSec bandwidth_mbps) {
  CHICSIM_ASSERT_MSG(num_sites > 0, "star needs at least one site");
  Topology topo;
  for (std::size_t s = 0; s < num_sites; ++s) {
    topo.add_node(NodeKind::Site, "site" + std::to_string(s));
  }
  NodeId hub = topo.add_node(NodeKind::Router, "hub");
  for (std::size_t s = 0; s < num_sites; ++s) {
    topo.add_link(static_cast<NodeId>(s), hub, bandwidth_mbps);
  }
  return topo;
}

}  // namespace chicsim::net
