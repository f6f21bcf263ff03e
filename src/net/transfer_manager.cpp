#include "net/transfer_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"

namespace chicsim::net {

namespace {
/// Residual bytes below this are considered delivered (floating-point slack
/// accumulated across settle steps; 1 KB on multi-hundred-MB files).
constexpr util::Megabytes kResidualTolMb = 1e-3;
}  // namespace

TransferManager::TransferManager(sim::Engine& engine, const Topology& topo,
                                 const Routing& routing, SharePolicy policy)
    : engine_(engine),
      topo_(topo),
      routing_(routing),
      policy_(policy),
      link_flow_count_(topo.link_count(), 0),
      link_busy_time_(topo.link_count(), 0.0),
      link_scale_(topo.link_count(), 1.0),
      link_dirty_(topo.link_count(), 0),
      last_settle_(engine.now()) {}

void TransferManager::mark_link_dirty(LinkId link) {
  if (link_dirty_[link]) return;
  link_dirty_[link] = 1;
  dirty_links_.push_back(link);
}

bool TransferManager::crosses_dirty_link(const Flow& f) const {
  for (LinkId l : *f.path) {
    if (link_dirty_[l]) return true;
  }
  return false;
}

double TransferManager::capacity(LinkId link) const {
  return topo_.link(link).bandwidth_mbps * link_scale_[link];
}

void TransferManager::set_bandwidth_scale(LinkId link, double scale) {
  CHICSIM_ASSERT_MSG(link < link_scale_.size(), "link id out of range");
  CHICSIM_ASSERT_MSG(scale > 0.0, "bandwidth scale must be positive");
  settle();
  link_scale_[link] = scale;
  mark_link_dirty(link);
  reallocate();
}

double TransferManager::bandwidth_scale(LinkId link) const {
  CHICSIM_ASSERT_MSG(link < link_scale_.size(), "link id out of range");
  return link_scale_[link];
}

TransferId TransferManager::start(NodeId src, NodeId dst, util::Megabytes size_mb,
                                  TransferPurpose purpose, CompletionFn on_complete) {
  CHICSIM_ASSERT_MSG(size_mb >= 0.0, "negative transfer size");
  CHICSIM_ASSERT_MSG(static_cast<bool>(on_complete), "transfer needs a completion callback");
  TransferId id = next_id_++;
  ++stats_.transfers_started;

  if (src == dst) {
    // Local access: all processors at a site reach all storage at that site
    // (§3), so no network time elapses — but completion still goes through
    // the calendar to keep callback ordering uniform.
    ++stats_.local_transfers;
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.size_mb = size_mb;
    flow.remaining_mb = 0.0;
    flow.eta = engine_.now();
    flow.eta_seq = next_eta_seq_++;
    flow.purpose = purpose;
    flow.on_complete = std::move(on_complete);
    flow.path = nullptr;
    CHICSIM_ASSERT(flows_.empty() || flows_.back().first < id);  // keeps the vector sorted
    flows_.emplace_back(id, std::move(flow));
    arm();
    return id;
  }

  settle();
  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.size_mb = size_mb;
  flow.remaining_mb = size_mb;
  flow.purpose = purpose;
  flow.on_complete = std::move(on_complete);
  flow.path = &routing_.path(src, dst);
  CHICSIM_ASSERT_MSG(!flow.path->empty(), "remote transfer with empty path");
  for (LinkId l : *flow.path) {
    ++link_flow_count_[l];
    mark_link_dirty(l);
  }
  CHICSIM_ASSERT(flows_.empty() || flows_.back().first < id);  // keeps the vector sorted
  flows_.emplace_back(id, std::move(flow));
  reallocate();
  return id;
}

TransferManager::FlowVec::iterator TransferManager::find_flow(TransferId id) {
  auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                             [](const auto& entry, TransferId key) { return entry.first < key; });
  return it != flows_.end() && it->first == id ? it : flows_.end();
}

TransferManager::FlowVec::const_iterator TransferManager::find_flow(TransferId id) const {
  auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                             [](const auto& entry, TransferId key) { return entry.first < key; });
  return it != flows_.end() && it->first == id ? it : flows_.end();
}

bool TransferManager::active(TransferId id) const { return find_flow(id) != flows_.end(); }

void TransferManager::abort(TransferId id) {
  auto it = find_flow(id);
  CHICSIM_ASSERT_MSG(it != flows_.end(), "abort of unknown transfer");
  // Bytes moved so far stay in the mb-hop accounting.
  settle();
  Flow flow = std::move(it->second);
  flows_.erase(it);
  if (flow.path != nullptr) {
    for (LinkId l : *flow.path) {
      CHICSIM_ASSERT(link_flow_count_[l] > 0);
      --link_flow_count_[l];
      mark_link_dirty(l);
    }
    reallocate();
  } else {
    arm();
  }
  ++stats_.transfers_aborted;
}

util::MbPerSec TransferManager::current_rate(TransferId id) const {
  auto it = find_flow(id);
  CHICSIM_ASSERT_MSG(it != flows_.end(), "current_rate of unknown transfer");
  return it->second.rate;
}

util::Megabytes TransferManager::remaining_mb(TransferId id) const {
  auto it = find_flow(id);
  CHICSIM_ASSERT_MSG(it != flows_.end(), "remaining_mb of unknown transfer");
  const Flow& f = it->second;
  double dt = engine_.now() - last_settle_;
  return std::max(0.0, f.remaining_mb - f.rate * dt);
}

std::size_t TransferManager::flows_on_link(LinkId link) const {
  CHICSIM_ASSERT_MSG(link < link_flow_count_.size(), "link id out of range");
  return link_flow_count_[link];
}

util::SimTime TransferManager::link_busy_time(LinkId link) const {
  CHICSIM_ASSERT_MSG(link < link_busy_time_.size(), "link id out of range");
  return link_busy_time_[link];
}

void TransferManager::settle() {
  util::SimTime now = engine_.now();
  double dt = now - last_settle_;
  CHICSIM_ASSERT_MSG(dt >= 0.0, "settle backwards in time");
  if (dt > 0.0) {
    for (auto& [id, f] : flows_) {
      if (f.path == nullptr) continue;  // local, already complete
      double delta = std::min(f.remaining_mb, f.rate * dt);
      f.remaining_mb -= delta;
      stats_.delivered_mb_hops += delta * static_cast<double>(f.path->size());
    }
    for (LinkId l = 0; l < link_flow_count_.size(); ++l) {
      if (link_flow_count_[l] > 0) link_busy_time_[l] += dt;
    }
  }
  last_settle_ = now;
}

void TransferManager::reallocate() {
  ++stats_.reallocations;
  const util::SimTime now = engine_.now();

  if (policy_ == SharePolicy::MaxMin) {
    // Progressive filling is inherently global (freezing one flow shifts
    // slack to every other), so all rates are recomputed; only flows whose
    // rate moved get a new ETA.
    old_rate_scratch_.clear();
    for (auto& [id, f] : flows_) {
      if (f.path != nullptr) old_rate_scratch_.push_back(f.rate);
    }
    compute_rates_max_min();
    std::size_t i = 0;
    for (auto& [id, f] : flows_) {
      if (f.path == nullptr) continue;
      update_eta(f, old_rate_scratch_[i++], now);
    }
  } else {
    for (auto& [id, f] : flows_) {
      // No link on this flow's path changed count or capacity, and the
      // rate is a pure function of those: it is bit-identical, skip.
      if (f.path == nullptr || !crosses_dirty_link(f)) continue;
      double old_rate = f.rate;
      f.rate = path_rate(f);
      update_eta(f, old_rate, now);
    }
  }

  for (LinkId l : dirty_links_) link_dirty_[l] = 0;
  dirty_links_.clear();
  arm();
}

void TransferManager::update_eta(Flow& f, double old_rate, util::SimTime now) {
  CHICSIM_ASSERT_MSG(f.rate > 0.0, "active flow allocated zero rate");
  // A bit-equal rate leaves the ETA derived from it exact: keep it.
  if (f.rate == old_rate) return;
  f.eta = now + (f.remaining_mb <= kResidualTolMb ? 0.0 : f.remaining_mb / f.rate);
  f.eta_seq = next_eta_seq_++;
  ++stats_.flows_rescheduled;
}

void TransferManager::arm() {
  util::SimTime next = util::kTimeInfinity;
  for (const auto& [id, f] : flows_) next = std::min(next, f.eta);
  if (armed_ != sim::kNoEvent) {
    if (armed_at_ == next) return;  // ETAs are finite: never true when idle
    (void)engine_.cancel(armed_);
    armed_ = sim::kNoEvent;
  }
  if (flows_.empty()) return;
  armed_at_ = next;
  armed_ = engine_.schedule_at(next, "transfer_completion", [this] { complete_next(); });
}

double TransferManager::path_rate(const Flow& f) const {
  double rate = util::kTimeInfinity;
  if (policy_ == SharePolicy::NoContention) {
    for (LinkId l : *f.path) rate = std::min(rate, capacity(l));
  } else {
    for (LinkId l : *f.path) {
      CHICSIM_ASSERT(link_flow_count_[l] > 0);
      rate = std::min(rate, capacity(l) / static_cast<double>(link_flow_count_[l]));
    }
  }
  return rate;
}

void TransferManager::compute_rates_max_min() {
  // Progressive filling: raise all unfrozen flow rates uniformly; when a
  // link saturates, freeze the flows crossing it; repeat.
  std::vector<Flow*> unfrozen;
  unfrozen.reserve(flows_.size());
  for (auto& [id, f] : flows_) {
    if (f.path == nullptr) continue;
    f.rate = 0.0;
    unfrozen.push_back(&f);
  }
  std::vector<double> cap_rem(topo_.link_count());
  for (LinkId l = 0; l < topo_.link_count(); ++l) cap_rem[l] = capacity(l);
  std::vector<std::size_t> count(link_flow_count_);  // unfrozen flows per link

  while (!unfrozen.empty()) {
    double inc = util::kTimeInfinity;
    for (LinkId l = 0; l < count.size(); ++l) {
      if (count[l] > 0) inc = std::min(inc, cap_rem[l] / static_cast<double>(count[l]));
    }
    CHICSIM_ASSERT_MSG(std::isfinite(inc), "max-min filling found no constraining link");
    for (Flow* f : unfrozen) f->rate += inc;
    for (LinkId l = 0; l < count.size(); ++l) {
      cap_rem[l] -= inc * static_cast<double>(count[l]);
    }
    // Freeze flows crossing any saturated link.
    std::vector<Flow*> still;
    still.reserve(unfrozen.size());
    for (Flow* f : unfrozen) {
      bool saturated = false;
      for (LinkId l : *f->path) {
        if (cap_rem[l] <= 1e-12 * capacity(l) + 1e-15) {
          saturated = true;
          break;
        }
      }
      if (saturated) {
        for (LinkId l : *f->path) --count[l];
      } else {
        still.push_back(f);
      }
    }
    CHICSIM_ASSERT_MSG(still.size() < unfrozen.size(), "max-min filling did not progress");
    unfrozen = std::move(still);
  }
}

void TransferManager::complete_next() {
  armed_ = sim::kNoEvent;
  auto next = std::min_element(flows_.begin(), flows_.end(), [](const auto& a, const auto& b) {
    return std::pair(a.second.eta, a.second.eta_seq) < std::pair(b.second.eta, b.second.eta_seq);
  });
  CHICSIM_ASSERT_MSG(next != flows_.end() && next->second.eta == engine_.now(),
                     "completion event fired away from the earliest ETA");
  if (next->second.path != nullptr) {
    settle();
    CHICSIM_ASSERT_MSG(next->second.remaining_mb <= kResidualTolMb,
                       "completion event fired before delivery finished");
    next->second.remaining_mb = 0.0;
  }
  finish(next);
}

void TransferManager::finish(FlowVec::iterator it) {
  const TransferId id = it->first;
  Flow flow = std::move(it->second);
  flows_.erase(it);
  if (flow.path != nullptr) {
    for (LinkId l : *flow.path) {
      CHICSIM_ASSERT(link_flow_count_[l] > 0);
      --link_flow_count_[l];
      mark_link_dirty(l);
    }
    stats_.delivered_mb[static_cast<std::size_t>(flow.purpose)] += flow.size_mb;
    reallocate();
  } else {
    arm();
  }
  ++stats_.transfers_completed;
  // Invoke last: the callback may start new transfers or run schedulers.
  flow.on_complete(id);
}

}  // namespace chicsim::net
