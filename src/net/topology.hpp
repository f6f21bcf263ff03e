// Network topology: an undirected graph of sites and routers connected by
// bandwidth-labelled links.
//
// The paper assumes "a hierarchical network topology much like that
// envisioned by the GriPhyN project" (§5.1): storage/compute sites at the
// leaves under regional routers under a root.  `build_hierarchy` constructs
// exactly that and `build_star` a flat one-router variant. Other shapes can
// be assembled link by link, but Routing accepts only trees.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace chicsim::net {

using NodeId = std::uint32_t;
using LinkId = std::uint32_t;

inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

enum class NodeKind : std::uint8_t {
  Site,    ///< Holds storage and compute elements; endpoint of transfers.
  Router,  ///< Pure forwarding node (regional/root tiers).
};

struct Node {
  NodeKind kind = NodeKind::Site;
  std::string name;
};

struct Link {
  NodeId a = kNoNode;
  NodeId b = kNoNode;
  util::MbPerSec bandwidth_mbps = 0.0;
};

class Topology {
 public:
  NodeId add_node(NodeKind kind, std::string name);

  /// Add an undirected link; endpoints must exist and differ, bandwidth > 0.
  LinkId add_link(NodeId a, NodeId b, util::MbPerSec bandwidth_mbps);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  [[nodiscard]] const Node& node(NodeId id) const;
  [[nodiscard]] const Link& link(LinkId id) const;

  /// Links incident to `id`.
  [[nodiscard]] const std::vector<LinkId>& links_of(NodeId id) const;

  /// The opposite endpoint of `link` from `from`.
  [[nodiscard]] NodeId neighbor_via(LinkId link, NodeId from) const;

  /// All node ids of a given kind, in creation order.
  [[nodiscard]] std::vector<NodeId> nodes_of_kind(NodeKind kind) const;

 private:
  std::vector<Node> nodes_;
  std::vector<Link> links_;
  std::vector<std::vector<LinkId>> adjacency_;
};

/// Parameters of the GriPhyN-like tree used in the paper's experiments.
struct HierarchyConfig {
  std::size_t num_sites = 30;
  std::size_t num_regions = 6;  ///< regional routers under the root
  util::MbPerSec link_bandwidth_mbps = 10.0;  ///< Table 1 scenario 1
  /// Root<->region links get link_bandwidth_mbps x this (1.0 = the paper's
  /// uniform links; > 1 models a fatter tier-0 backbone).
  double backbone_multiplier = 1.0;
};

/// Build root -> regional routers -> leaf sites, sites spread round-robin
/// across regions, all links at the nominal bandwidth. Site nodes are
/// created first (NodeId 0..num_sites-1) so that site indices and node ids
/// coincide for callers.
[[nodiscard]] Topology build_hierarchy(const HierarchyConfig& config);

/// Build a flat topology: every site links directly to a single central
/// router (star). Used by ablations to isolate hierarchy effects.
[[nodiscard]] Topology build_star(std::size_t num_sites, util::MbPerSec bandwidth_mbps);

}  // namespace chicsim::net
