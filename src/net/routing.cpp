#include "net/routing.hpp"

#include <string>

#include "util/error.hpp"

namespace chicsim::net {

Routing::Routing(const Topology& topo) : up_(topo.node_count()) {
  if (up_.empty()) return;
  std::vector<bool> seen(up_.size(), false);
  std::vector<NodeId> order{0};
  seen[0] = true;
  for (std::size_t i = 0; i < order.size(); ++i) {
    NodeId u = order[i];
    for (LinkId l : topo.links_of(u)) {
      if (l == up_[u].link) continue;
      NodeId v = topo.neighbor_via(l, u);
      if (seen[v]) {
        throw util::SimError("routing requires a tree topology: link " + std::to_string(l) +
                             " closes a cycle or duplicates a link");
      }
      seen[v] = true;
      up_[v] = Up{u, l, up_[u].depth + 1};
      order.push_back(v);
    }
  }
  if (order.size() != up_.size()) {
    throw util::SimError("routing requires a connected topology");
  }
}

void Routing::check_range(NodeId src, NodeId dst) const {
  CHICSIM_ASSERT_MSG(src < up_.size() && dst < up_.size(), "routing endpoint out of range");
}

const std::vector<LinkId>& Routing::path(NodeId src, NodeId dst) const {
  check_range(src, dst);
  auto [it, inserted] = paths_.try_emplace((static_cast<std::uint64_t>(src) << 32) | dst);
  if (inserted) {
    std::vector<LinkId>& p = it->second;
    std::vector<LinkId> down;  // dst-side links, collected bottom-up
    while (src != dst) {
      if (up_[src].depth >= up_[dst].depth) {
        p.push_back(up_[src].link);
        src = up_[src].parent;
      } else {
        down.push_back(up_[dst].link);
        dst = up_[dst].parent;
      }
    }
    p.insert(p.end(), down.rbegin(), down.rend());
  }
  return it->second;
}

std::size_t Routing::hops(NodeId src, NodeId dst) const {
  check_range(src, dst);
  std::size_t n = 0;
  while (src != dst) {
    if (up_[src].depth >= up_[dst].depth) {
      src = up_[src].parent;
    } else {
      dst = up_[dst].parent;
    }
    ++n;
  }
  return n;
}

}  // namespace chicsim::net
