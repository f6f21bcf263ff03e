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
/// Tables smaller than this never compact. docs/architecture.md gives the
/// measurements against 8 and 512. tests/net/test_transfer_manager.cpp
/// mirrors it.
constexpr std::size_t kCompactMinSlots = 64;
}  // namespace

TransferManager::TransferManager(sim::Engine& engine, const Topology& topo,
                                 const Routing& routing, SharePolicy policy)
    : engine_(engine),
      topo_(topo),
      routing_(routing),
      policy_(policy),
      link_flows_(topo.link_count()),
      link_flow_count_(topo.link_count(), 0),
      link_share_(topo.link_count(), 0.0),
      link_busy_time_(topo.link_count(), 0.0),
      link_scale_(topo.link_count(), 1.0),
      link_dirty_(topo.link_count(), 0),
      last_settle_(engine.now()) {}

void TransferManager::mark_link_dirty(LinkId link) {
  if (link_dirty_[link]) return;
  link_dirty_[link] = 1;
  dirty_links_.push_back(link);
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
  CHICSIM_ASSERT(flows_.empty() || flows_.back().first < id);  // keeps the table sorted
  const std::size_t pos = flows_.size();
  Flow flow;
  flow.size_mb = size_mb;
  flow.purpose = purpose;
  flow.on_complete = std::move(on_complete);

  if (src == dst) {
    // Local access: all processors at a site reach all storage at that site
    // (§3), so no network time elapses — but completion still goes through
    // the calendar to keep callback ordering uniform.
    ++stats_.local_transfers;
    flow.eta_seq = next_eta_seq_++;
    flows_.emplace_back(id, std::move(flow));
    etas_.push_back(engine_.now());
    slot_state_.push_back(kLive);
    arm();
    return id;
  }

  settle();
  flow.remaining_mb = size_mb;
  flow.path = &routing_.path(src, dst);
  CHICSIM_ASSERT_MSG(!flow.path->empty(), "remote transfer with empty path");
  flow.hops = static_cast<double>(flow.path->size());
  for (LinkId l : *flow.path) {
    ++link_flow_count_[l];
    link_flows_[l].push_back(static_cast<std::uint32_t>(pos));
    mark_link_dirty(l);
  }
  flows_.emplace_back(id, std::move(flow));
  etas_.push_back(util::kTimeInfinity);  // derived by reallocate(): the rate moves off 0
  slot_state_.push_back(kLive);
  reallocate();
  return id;
}

std::size_t TransferManager::find_flow(TransferId id) const {
  auto it = std::lower_bound(flows_.begin(), flows_.end(), id,
                             [](const auto& entry, TransferId key) { return entry.first < key; });
  if (it == flows_.end() || it->first != id) return kNoSlot;
  const auto pos = static_cast<std::size_t>(it - flows_.begin());
  return slot_state_[pos] == kDead ? kNoSlot : pos;
}

std::size_t TransferManager::live_slot(TransferId id, const char* what) const {
  std::size_t pos = find_flow(id);
  CHICSIM_ASSERT_MSG(pos != kNoSlot, what);
  return pos;
}

bool TransferManager::active(TransferId id) const { return find_flow(id) != kNoSlot; }

void TransferManager::abort(TransferId id) {
  std::size_t pos = live_slot(id, "abort of unknown transfer");
  // Bytes moved so far stay in the mb-hop accounting.
  settle();
  ++stats_.transfers_aborted;
  retire(pos);  // drops the callback unfired
}

util::MbPerSec TransferManager::current_rate(TransferId id) const {
  return flows_[live_slot(id, "current_rate of unknown transfer")].second.rate;
}

util::Megabytes TransferManager::remaining_mb(TransferId id) const {
  const Flow& f = flows_[live_slot(id, "remaining_mb of unknown transfer")].second;
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
      if (f.path == nullptr) continue;  // local (already complete) or dead
      double delta = std::min(f.remaining_mb, f.rate * dt);
      f.remaining_mb -= delta;
      stats_.delivered_mb_hops += delta * f.hops;
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
    old_rate_scratch_.resize(flows_.size());
    for (std::size_t pos = 0; pos < flows_.size(); ++pos) {
      old_rate_scratch_[pos] = flows_[pos].second.rate;
    }
    compute_rates_max_min();
    for (std::size_t pos = 0; pos < flows_.size(); ++pos) {
      if (flows_[pos].second.path != nullptr) update_eta(pos, old_rate_scratch_[pos], now);
    }
  } else {
    // A rate is the minimum of the per-link shares on the flow's path, and
    // only dirty links' shares can have moved: refresh those, then gather
    // the flows crossing them once each from the per-link index (the state
    // byte dedupes and skips dead slots) ...
    for (LinkId l : dirty_links_) {
      if (link_flow_count_[l] == 0) continue;
      link_share_[l] = policy_ == SharePolicy::NoContention
                           ? capacity(l)
                           : capacity(l) / static_cast<double>(link_flow_count_[l]);
    }
    gathered_.clear();
    for (LinkId l : dirty_links_) {
      for (std::uint32_t pos : link_flows_[l]) {
        if (slot_state_[pos] != kLive) continue;
        slot_state_[pos] = kGathered;
        gathered_.push_back(pos);
      }
    }
    // ... and recompute them in position (= TransferId) order, the order
    // in which re-derived ETAs take their eta_seq.
    std::sort(gathered_.begin(), gathered_.end());
    for (std::uint32_t pos : gathered_) {
      slot_state_[pos] = kLive;
      Flow& f = flows_[pos].second;
      double old_rate = f.rate;
      f.rate = path_rate(f);
      update_eta(pos, old_rate, now);
    }
  }

  for (LinkId l : dirty_links_) link_dirty_[l] = 0;
  dirty_links_.clear();
  arm();
}

void TransferManager::update_eta(std::size_t pos, double old_rate, util::SimTime now) {
  Flow& f = flows_[pos].second;
  CHICSIM_ASSERT_MSG(f.rate > 0.0, "active flow allocated zero rate");
  // A bit-equal rate leaves the ETA derived from it exact: keep it.
  if (f.rate == old_rate) return;
  etas_[pos] = now + (f.remaining_mb <= kResidualTolMb ? 0.0 : f.remaining_mb / f.rate);
  f.eta_seq = next_eta_seq_++;
  ++stats_.flows_rescheduled;
}

void TransferManager::arm() {
  // Four running minima, merged at the end: the scan then waits on four
  // short dependency chains instead of one long one. ETAs are never NaN,
  // so the merge order cannot change the result.
  util::SimTime lanes[4] = {util::kTimeInfinity, util::kTimeInfinity, util::kTimeInfinity,
                            util::kTimeInfinity};
  const std::size_t n = etas_.size();
  std::size_t pos = 0;
  for (; pos + 4 <= n; pos += 4) {
    for (std::size_t k = 0; k < 4; ++k) lanes[k] = std::min(lanes[k], etas_[pos + k]);
  }
  for (; pos < n; ++pos) lanes[0] = std::min(lanes[0], etas_[pos]);
  const util::SimTime next = std::min(std::min(lanes[0], lanes[1]), std::min(lanes[2], lanes[3]));
  if (armed_ != sim::kNoEvent) {
    if (armed_at_ == next) return;  // armed_at_ is finite: never true when idle
    (void)engine_.cancel(armed_);
    armed_ = sim::kNoEvent;
  }
  if (active_count() == 0) return;
  armed_at_ = next;
  armed_ = engine_.schedule_at(next, "transfer_completion", [this] { complete_next(); });
}

double TransferManager::path_rate(const Flow& f) const {
  double rate = util::kTimeInfinity;
  for (LinkId l : *f.path) {
    CHICSIM_ASSERT(link_flow_count_[l] > 0);
    rate = std::min(rate, link_share_[l]);
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
  // The armed time is the earliest ETA; among the slots holding it, the
  // smallest eta_seq completes first.
  std::size_t next = kNoSlot;
  for (auto it = std::find(etas_.begin(), etas_.end(), armed_at_); it != etas_.end();
       it = std::find(it + 1, etas_.end(), armed_at_)) {
    const auto pos = static_cast<std::size_t>(it - etas_.begin());
    if (next == kNoSlot || flows_[pos].second.eta_seq < flows_[next].second.eta_seq) next = pos;
  }
  CHICSIM_ASSERT_MSG(next != kNoSlot && armed_at_ == engine_.now(),
                     "completion event fired away from the earliest ETA");
  Flow& f = flows_[next].second;
  if (f.path != nullptr) {
    settle();
    CHICSIM_ASSERT_MSG(f.remaining_mb <= kResidualTolMb,
                       "completion event fired before delivery finished");
    f.remaining_mb = 0.0;
  }
  finish(next);
}

void TransferManager::finish(std::size_t pos) {
  const TransferId id = flows_[pos].first;
  const Flow& f = flows_[pos].second;
  if (f.path != nullptr) stats_.delivered_mb[static_cast<std::size_t>(f.purpose)] += f.size_mb;
  ++stats_.transfers_completed;
  CompletionFn on_complete = retire(pos);
  // Invoke last: the callback may start new transfers or run schedulers.
  on_complete(id);
}

TransferManager::CompletionFn TransferManager::retire(std::size_t pos) {
  Flow& f = flows_[pos].second;
  CompletionFn on_complete = std::move(f.on_complete);
  f.on_complete = nullptr;
  const bool remote = f.path != nullptr;
  if (remote) {
    for (LinkId l : *f.path) {
      CHICSIM_ASSERT(link_flow_count_[l] > 0);
      --link_flow_count_[l];
      mark_link_dirty(l);
    }
  }
  f.path = nullptr;
  f.rate = 0.0;
  etas_[pos] = util::kTimeInfinity;
  slot_state_[pos] = kDead;
  ++dead_;
  if (dead_ > active_count() && flows_.size() >= kCompactMinSlots) compact();
  if (remote) {
    reallocate();
  } else {
    arm();
  }
  return on_complete;
}

void TransferManager::compact() {
  std::size_t out = 0;
  for (std::size_t pos = 0; pos < flows_.size(); ++pos) {
    if (slot_state_[pos] == kDead) continue;
    if (out != pos) {
      flows_[out] = std::move(flows_[pos]);
      etas_[out] = etas_[pos];
    }
    ++out;
  }
  flows_.resize(out);
  etas_.resize(out);
  slot_state_.assign(out, kLive);
  dead_ = 0;
  for (auto& positions : link_flows_) positions.clear();
  for (std::size_t pos = 0; pos < out; ++pos) {
    const Flow& f = flows_[pos].second;
    if (f.path == nullptr) continue;
    for (LinkId l : *f.path) link_flows_[l].push_back(static_cast<std::uint32_t>(pos));
  }
}

}  // namespace chicsim::net
