#include "data/popularity.hpp"

#include <algorithm>

namespace chicsim::data {

void PopularityTracker::record(DatasetId id, SiteIndex client) {
  Cell& cell = cells_[id];
  ++cell.count;
  if (client == kNoSite) return;
  for (auto& [requester, n] : cell.requesters) {
    if (requester == client) {
      ++n;
      return;
    }
  }
  cell.requesters.emplace_back(client, 1);
}

std::uint64_t PopularityTracker::count(DatasetId id) const {
  auto it = cells_.find(id);
  return it == cells_.end() ? 0 : it->second.count;
}

std::vector<DatasetId> PopularityTracker::over_threshold(double threshold) const {
  std::vector<std::pair<std::uint64_t, DatasetId>> hot;
  for (const auto& [id, cell] : cells_) {
    if (cell.count > 0 && static_cast<double>(cell.count) >= threshold) {
      hot.emplace_back(cell.count, id);
    }
  }
  std::sort(hot.begin(), hot.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<DatasetId> out;
  out.reserve(hot.size());
  for (const auto& [c, id] : hot) out.push_back(id);
  return out;
}

void PopularityTracker::reset(DatasetId id) {
  auto it = cells_.find(id);
  if (it == cells_.end()) return;
  it->second.count = 0;
  if (it->second.requesters.empty()) cells_.erase(it);
}

SiteIndex PopularityTracker::top_requester(DatasetId id) const {
  auto it = cells_.find(id);
  if (it == cells_.end()) return kNoSite;
  SiteIndex best = kNoSite;
  std::uint64_t best_count = 0;
  for (const auto& [requester, n] : it->second.requesters) {
    if (n > best_count || (n == best_count && requester < best)) {
      best = requester;
      best_count = n;
    }
  }
  return best;
}

}  // namespace chicsim::data
