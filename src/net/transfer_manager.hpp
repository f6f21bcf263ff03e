// Contention-aware data transfers (the paper's network model, §5.1):
//
//   "The transfer of input files from one site to another incurs a cost
//    corresponding to the size of the file divided by the nominal speed of
//    the link. We model network contention by keeping track of the number
//    of simultaneous data transfers across a link and decreasing the
//    bandwidth available for each transfer accordingly."
//
// We implement this as a fluid flow model.  Every active transfer f has a
// current rate r(f) and a finish time (ETA) derived from it; whenever the
// set of active transfers changes, all flows are settled (remaining bytes
// advanced at the old rates), affected rates are recomputed, and the ETAs
// of flows whose rate actually changed are re-derived (see reallocate()).
// The manager keeps a single calendar event armed at the earliest ETA.
// Two allocation policies are provided:
//
//  * EqualShare (paper-faithful): r(f) = min over links l on f's path of
//    capacity(l) / n(l), where n(l) counts flows crossing l.  This never
//    oversubscribes a link (each flow takes at most its equal share of
//    every link it crosses).
//  * MaxMin: progressive filling to the max-min fair allocation — an
//    ablation showing the results are insensitive to the sharing model.
//
// Every transfer is remote: all processors at a site access all storage at
// that site (§3), so co-located data never needs a transfer, and start()
// rejects src == dst. Completions always go through the event calendar,
// so completion callbacks are never re-entrant.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/engine.hpp"
#include "util/units.hpp"

namespace chicsim::net {

using TransferId = std::uint64_t;
inline constexpr TransferId kNoTransfer = 0;

enum class SharePolicy : std::uint8_t {
  EqualShare,    ///< paper model: bottleneck equal split
  MaxMin,        ///< max-min fairness (water filling)
  NoContention,  ///< ablation: every flow gets the full bottleneck bandwidth
};

/// Why a transfer was initiated; used to split accounting between
/// job-driven fetches, DS-driven replication (Figure 3b counts both) and
/// the optional output-return extension.
enum class TransferPurpose : std::uint8_t {
  JobFetch = 0,
  Replication = 1,
  OutputReturn = 2,
  Other = 3,
};
inline constexpr std::size_t kNumTransferPurposes = 4;

struct TransferStats {
  /// Megabytes delivered end-to-end, per purpose (a 1 GB file moved once
  /// counts 1000 MB regardless of hop count).
  double delivered_mb[kNumTransferPurposes] = {0, 0, 0, 0};
  /// Megabyte-hops: megabytes multiplied by links traversed (bandwidth
  /// actually consumed from the network).
  double delivered_mb_hops = 0.0;
  std::uint64_t transfers_started = 0;
  std::uint64_t transfers_completed = 0;
  std::uint64_t transfers_aborted = 0;

  // Reallocation hot-path counters.
  std::uint64_t reallocations = 0;      ///< reallocate() invocations
  std::uint64_t flows_rescheduled = 0;  ///< ETAs re-derived because the rate changed

  [[nodiscard]] double total_delivered_mb() const {
    double total = 0.0;
    for (double mb : delivered_mb) total += mb;
    return total;
  }
};

class TransferManager {
 public:
  using CompletionFn = std::function<void(TransferId)>;

  TransferManager(sim::Engine& engine, const Topology& topo, const Routing& routing,
                  SharePolicy policy = SharePolicy::EqualShare);

  TransferManager(const TransferManager&) = delete;
  TransferManager& operator=(const TransferManager&) = delete;

  /// Begin moving `size_mb` megabytes from `src` to a different node
  /// `dst`. `on_complete` fires through the event calendar when the last
  /// byte arrives.
  TransferId start(NodeId src, NodeId dst, util::Megabytes size_mb, TransferPurpose purpose,
                   CompletionFn on_complete);

  /// True while the transfer has not completed.
  [[nodiscard]] bool active(TransferId id) const;

  /// Tear down an in-flight transfer without delivering it: the completion
  /// callback never fires, the flow's link shares are returned to the pool
  /// and remaining flows are re-planned. Megabytes already moved stay in
  /// the mb-hop accounting (bandwidth was genuinely consumed); nothing is
  /// added to delivered_mb. The id must be active.
  void abort(TransferId id);

  /// Number of in-flight transfers.
  [[nodiscard]] std::size_t active_count() const { return flows_.size() - dead_; }

  /// Current rate of an active transfer (MB/s).
  [[nodiscard]] util::MbPerSec current_rate(TransferId id) const;

  /// Remaining megabytes of an active transfer, settled to `now`.
  [[nodiscard]] util::Megabytes remaining_mb(TransferId id) const;

  /// Degrade (or restore) a link's effective bandwidth at the current
  /// virtual time: capacity becomes nominal x `scale`. In-flight transfers
  /// are settled at their old rates and re-planned immediately — the
  /// fault-injection hook for degraded-network scenarios. `scale` must be
  /// positive (model a failed link as a severe degradation, e.g. 0.01).
  void set_bandwidth_scale(LinkId link, double scale);

  /// Current bandwidth scale of a link (1.0 = nominal).
  [[nodiscard]] double bandwidth_scale(LinkId link) const;

  /// Number of flows currently crossing `link`.
  [[nodiscard]] std::size_t flows_on_link(LinkId link) const;

  /// Cumulative time-integral of "link has at least one flow", per link.
  [[nodiscard]] util::SimTime link_busy_time(LinkId link) const;

  /// Number of links in the underlying topology.
  [[nodiscard]] std::size_t link_count() const { return link_busy_time_.size(); }

  [[nodiscard]] const TransferStats& stats() const { return stats_; }
  [[nodiscard]] SharePolicy policy() const { return policy_; }

 private:
  /// Cold per-flow data, read only at start, lookup and completion.
  struct Flow {
    /// Order in which ETAs were assigned: equal ETAs complete in this order,
    /// the schedule order in which the calendar breaks equal-time ties.
    std::uint64_t eta_seq = 0;
    util::Megabytes size_mb = 0.0;
    TransferPurpose purpose = TransferPurpose::Other;
    CompletionFn on_complete;
  };

  /// The fields settle() walks on every change (rate 0, hops 0 when dead).
  struct Motion {
    util::Megabytes remaining_mb = 0.0;
    util::MbPerSec rate = 0.0;
    /// Route length as a double, for the mb-hop sum.
    double hops = 0.0;
  };

  /// A flow's links in path order, or empty once the slot is dead.
  using Route = std::span<const LinkId>;

  /// Position of an id's slot in flows_ when it is live, else kNoSlot.
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t find_flow(TransferId id) const;
  [[nodiscard]] std::size_t live_slot(TransferId id, const char* what) const;

  /// Advance every flow's remaining bytes to the current time at the old
  /// rates and accumulate link-busy statistics.
  void settle();

  /// Recompute flow rates under the active policy, re-derive the ETA of
  /// every flow whose rate changed, and re-arm the completion event.
  void reallocate();

  /// Bottleneck rate of one route under EqualShare / NoContention: the
  /// smallest link_share_ on it.
  [[nodiscard]] double path_rate(Route route) const;
  void compute_rates_max_min();

  /// Re-derive slot `pos`'s ETA as `now + remaining / rate` (with the next
  /// eta_seq) unless its recomputed rate is bit-equal to `old_rate`.
  void update_eta(std::size_t pos, double old_rate, util::SimTime now);

  /// Mark a link whose flow count or capacity changed since the last
  /// reallocation.
  void mark_link_dirty(LinkId link);

  /// Keep the completion event armed at the earliest ETA, moving it only
  /// when that earliest ETA moves (none armed while idle).
  void arm();

  /// The armed event: complete the flow with the smallest (eta, eta_seq).
  void complete_next();

  /// Deliver slot `pos`, re-plan the rest and invoke its callback.
  void finish(std::size_t pos);

  /// Take slot `pos` out of the network: return its link shares, mark it
  /// dead (empty route, rate 0, hops 0, ETA +inf), compact the table when dead slots outnumber live ones, and
  /// re-plan. Returns the released completion callback.
  CompletionFn retire(std::size_t pos);

  /// Drop the dead slots (stable, so live flows keep id order) and rebuild
  /// the per-link index over the new positions.
  void compact();

  sim::Engine& engine_;
  const Topology& topo_;
  const Routing& routing_;
  SharePolicy policy_;

  /// Effective capacity of a link right now (nominal x scale).
  [[nodiscard]] double capacity(LinkId link) const;

  /// The flow table, sorted by TransferId: ids come from an increasing
  /// counter, so emplace_back keeps it ordered and position order is
  /// creation order on every platform. That order decides the summation
  /// order of delivered_mb_hops in settle() and the eta_seq order of
  /// re-derived ETAs, so both are independent of library internals.
  /// finish() and abort() do not erase: they tombstone the slot (see
  /// retire()), so positions stay stable and link_flows_ stays valid.
  /// compact() drops the dead slots once they outnumber the live ones in a
  /// table of at least kCompactMinSlots. Lookups binary-search and treat
  /// dead slots as absent.
  std::vector<std::pair<TransferId, Flow>> flows_;
  /// Parallel to flows_: what settle() advances.
  std::vector<Motion> motion_;
  /// Parallel to flows_: each slot's links, a view into Routing's
  /// node-stable path cache; empty marks a dead slot.
  std::vector<Route> routes_;
  /// Parallel to flows_: each slot's finish time (+inf when dead), derived
  /// from its rate and kept while the rate is bit-unchanged. arm() scans it
  /// for the minimum, complete_next() for the armed time.
  std::vector<util::SimTime> etas_;
  std::size_t dead_ = 0;
  /// Per link: positions of the flows crossing it. May still list dead
  /// slots until the next compaction.
  std::vector<std::vector<std::uint32_t>> link_flows_;
  std::vector<std::size_t> link_flow_count_;
  /// Per link under EqualShare / NoContention: the rate it offers each
  /// flow crossing it (capacity / flows, or capacity), refreshed for the
  /// dirty links by reallocate().
  std::vector<double> link_share_;
  std::vector<util::SimTime> link_busy_time_;
  std::vector<double> link_scale_;
  /// Links whose flow count or scale changed since the last reallocate();
  /// the flag vector answers "is dirty?" in O(1), the id list makes
  /// clearing O(dirty) instead of O(links).
  std::vector<std::uint8_t> link_dirty_;
  std::vector<LinkId> dirty_links_;
  /// reallocate()'s gather: one bit per slot on a dirty link, read back in
  /// ascending position (= TransferId) order and left all zero.
  std::vector<std::uint64_t> gather_bits_;
  /// MaxMin's old-rate snapshot (kept to avoid per-call allocations).
  std::vector<double> old_rate_scratch_;
  util::SimTime last_settle_ = 0.0;
  TransferId next_id_ = 1;
  std::uint64_t next_eta_seq_ = 1;
  /// The one pending completion event, and the time it is armed for.
  sim::EventId armed_ = sim::kNoEvent;
  util::SimTime armed_at_ = 0.0;
  TransferStats stats_;
};

}  // namespace chicsim::net
