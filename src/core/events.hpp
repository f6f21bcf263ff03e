// Structured event tracing.
//
// The Grid emits a typed event at every significant state change — the job
// lifecycle, data fetches, replication pushes, cache evictions. The stream
// is the single source of the run-level counters: the Grid's
// MetricsCollector (core/metrics.hpp) is always the first observer. User
// observers subscribe before run(); the bundled EventLog observer retains
// the stream for post-hoc analysis (per-job traces, causality checks in
// tests, CSV export for external tooling).
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "data/dataset.hpp"
#include "data/replica_catalog.hpp"
#include "site/job.hpp"
#include "util/units.hpp"

namespace chicsim::core {

enum class GridEventType : std::uint8_t {
  JobSubmitted,          ///< user handed the job to its External Scheduler
  JobDispatched,         ///< placement decided; queued at the execution site
  JobDataReady,          ///< all inputs locally available
  JobStarted,            ///< occupying a compute element
  JobComputeDone,        ///< runtime elapsed; processor released
  JobCompleted,          ///< fully done (output landed, if any)
  FetchStarted,          ///< job-driven transfer began (site_a -> site_b)
  FetchJoined,           ///< job piggybacked on an in-flight fetch of the
                         ///< same dataset to the same site (no new transfer)
  FetchCompleted,        ///< ...and arrived
  ReplicationStarted,    ///< DS push began (site_a -> site_b)
  ReplicationCompleted,  ///< ...and arrived
  ReplicaStored,         ///< a copy became locally available at site_a
  ReplicaEvicted,        ///< LRU displaced a cached copy at site_a
  SiteFailed,            ///< site_a crashed: compute lost, cache invalidated
  SiteRecovered,         ///< site_a rejoined the grid
  TransferRetried,       ///< fetch of `dataset` to site_b restarted from
                         ///< site_a (kNoSite = backing off, no live source).
                         ///< kNoDataset marks an output-return retry: the
                         ///< origin site_b is down, site_a is kNoSite
  JobResubmitted,        ///< job re-entered the ES queue after losing its
                         ///< site (site_a = the site it was stranded on)
  CatalogInvalidated,    ///< catalog entry for (dataset, site_a) found to be
                         ///< a lie (copy gone) and reconciled away
  LinkDegraded,          ///< link site_a<->site_b bandwidth scaled; `mb`
                         ///< carries the new scale factor (1.0 = restored)
};

[[nodiscard]] const char* to_string(GridEventType type);
inline constexpr std::size_t kNumGridEventTypes = 19;

/// One trace record. Fields not meaningful for the type are left at their
/// sentinel values (kNoJob / kNoDataset / kNoSite / 0).
struct GridEvent {
  GridEventType type = GridEventType::JobSubmitted;
  util::SimTime time = 0.0;
  site::JobId job = site::kNoJob;
  data::DatasetId dataset = data::kNoDataset;
  data::SiteIndex site_a = data::kNoSite;  ///< primary site (source/holder)
  data::SiteIndex site_b = data::kNoSite;  ///< secondary site (destination)
  util::Megabytes mb = 0.0;
};

/// Observer interface; implementations must not mutate the grid.
class GridObserver {
 public:
  virtual ~GridObserver() = default;
  virtual void on_event(const GridEvent& event) = 0;
};

/// The Grid's event bus, where the core services publish: owns the
/// observer list and the clock used to stamp events. Services never talk to
/// observers directly. The Grid attaches its MetricsCollector first, so every
/// emit is stamped and folded into the run metrics; user observers see the
/// same events after it, in attach order.
class EventBus final {
 public:
  /// `clock` supplies the virtual time stamped on every emitted event; it
  /// must be set before the first emit.
  void set_clock(std::function<util::SimTime()> clock);

  /// The observer is non-owning and must outlive every emit.
  void add_observer(GridObserver* observer);

  /// Stamp the current virtual time on `event` and fan it out.
  void emit(GridEvent event);

 private:
  std::function<util::SimTime()> clock_;
  std::vector<GridObserver*> observers_;
};

/// Retaining observer: keeps every event, offers queries and CSV export.
class EventLog final : public GridObserver {
 public:
  void on_event(const GridEvent& event) override;

  [[nodiscard]] const std::vector<GridEvent>& events() const { return events_; }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] std::uint64_t count(GridEventType type) const;

  /// All events touching one job, in emission order.
  [[nodiscard]] std::vector<GridEvent> job_trace(site::JobId job) const;

  /// All events touching one dataset, in emission order.
  [[nodiscard]] std::vector<GridEvent> dataset_trace(data::DatasetId dataset) const;

  void write_csv(std::ostream& out) const;

  void clear();

 private:
  std::vector<GridEvent> events_;
  std::uint64_t counts_[kNumGridEventTypes] = {};
};

}  // namespace chicsim::core
