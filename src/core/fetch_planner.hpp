// The fetch planner: resolves a dispatched job's missing inputs into
// network transfers and keeps the pending-fetch bookkeeping.
//
// "the data transfer needed for a job starts while the job is still in the
// processor queue" (§5.2): dispatch asks this service for every input, it
// pins local copies, coalesces concurrent demand for the same dataset into
// one in-flight fetch (later jobs join as waiters), selects the source
// replica per the replica_selection policy against ground truth, and wakes
// the Local Scheduler when data lands.
//
// Under fault injection (docs/robustness.md) the planner is also the
// transfer-recovery layer: a failed or aborted fetch is retried with
// exponential backoff, failing over to the next-best live replica source;
// the coalesced waiters ride along untouched. Source selection never
// serves from a dead site and first has the ReplicationDriver drop
// catalog entries that turn out to be lies (silent catalog corruption).
// Each pending fetch has one attempt path and one completion path.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "core/config.hpp"
#include "core/events.hpp"
#include "data/catalog.hpp"
#include "data/replica_catalog.hpp"
#include "net/routing.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"
#include "util/rng.hpp"

namespace chicsim::core {

class JobLifecycle;
class ReplicationDriver;

class FetchPlanner final {
 public:
  /// References are non-owning and must outlive the planner.
  FetchPlanner(const SimulationConfig& config, sim::Engine& engine,
               std::vector<site::Site>& sites, const data::DatasetCatalog& catalog,
               const data::ReplicaCatalog& replicas, const net::Routing& routing,
               net::TransferManager& transfers, ReplicationDriver& replication,
               EventBus& events);

  /// Late wiring for the services' one cycle: the lifecycle is built after
  /// the planner (dispatch requests inputs), and a landed fetch updates its
  /// waiters' job records and restarts jobs at the destination.
  void bind_jobs(JobLifecycle& jobs);

  /// Ensure one input of a queued job is (or becomes) locally available at
  /// job.exec_site; increments job.inputs_pending while a fetch is needed.
  void request_input(site::Job& job, data::DatasetId input);

  /// Source-replica selection for a fetch toward `dest` (replica_selection
  /// policy; never returns dest). Selection reads the *ground-truth*
  /// replica catalog — the fetch machinery executes against reality even
  /// when policies observe a stale snapshot. Catalogued-but-vanished
  /// copies are invalidated first, then dead holders are skipped; returns
  /// kNoSite when no live, truthful holder exists right now (the caller
  /// parks the fetch and retries with backoff).
  [[nodiscard]] data::SiteIndex choose_source(data::DatasetId dataset,
                                              data::SiteIndex dest);

  /// Force-fail the in-flight fetch of `dataset` toward `dest` (fault
  /// injection). The transfer is aborted and the fetch rescheduled with
  /// backoff; waiters are untouched. Returns false when no such transfer
  /// is currently on the wire (nothing pending, or already backing off).
  bool fail_fetch(data::SiteIndex dest, data::DatasetId dataset);

  /// Site-crash teardown. Fetches *toward* the dead site are dropped with
  /// their waiters (the JobLifecycle resubmits those jobs); fetches *from*
  /// it immediately fail over to another live source, or back off when
  /// none exists, in (dest, dataset) order — the order of the pending
  /// tables. Must run while the dead site's storage is still intact
  /// (source pins are released against it) and before the JobLifecycle
  /// resets the stranded jobs.
  void on_site_crashed(data::SiteIndex s);

  /// Datasets currently being fetched toward `dest` (test seam).
  [[nodiscard]] std::size_t pending_fetches(data::SiteIndex dest) const;

 private:
  /// A fetch in flight toward one site, shared by all jobs awaiting it.
  /// While backing off between attempts, transfer/source are the sentinels
  /// and retry_event holds the scheduled retry.
  struct PendingFetch {
    net::TransferId transfer = net::kNoTransfer;
    data::SiteIndex source = data::kNoSite;
    std::vector<site::JobId> waiters;
    std::uint32_t attempts = 0;  ///< failed transfers + empty-handed polls
    sim::EventId retry_event = sim::kNoEvent;
  };

  /// Put the fetch on the wire from `source` (pin its copy, arm the
  /// stochastic failure draw when fault_transfer_fail_prob > 0), or back
  /// off when `source` is kNoSite. The first request, every retry and
  /// crash failover come through here.
  void attempt(data::SiteIndex dest, data::DatasetId dataset, PendingFetch& fetch,
               data::SiteIndex source);
  /// Draw this transfer's fate from the dedicated "transfer_faults"
  /// substream; on failure, schedule the mid-flight fault event.
  void arm_transfer_fault(data::SiteIndex dest, data::DatasetId dataset,
                          net::TransferId transfer, util::Megabytes size_mb);
  void on_transfer_fault(data::SiteIndex dest, data::DatasetId dataset,
                         net::TransferId transfer);
  /// Abort the fetch's transfer and release its source pin (against intact
  /// storage: a referenced entry cannot have been evicted, and crash
  /// teardown runs before the wipe); the fetch is left without a source.
  void cut_wire(data::DatasetId dataset, PendingFetch& fetch);
  /// Count the attempt and schedule retry_fetch after the capped
  /// exponential backoff; throws SimError past fetch_max_retries.
  void schedule_retry(data::SiteIndex dest, data::DatasetId dataset, PendingFetch& fetch);
  /// One retry round: complete locally if the data landed meanwhile,
  /// otherwise re-select a source (failover) and attempt again.
  void retry_fetch(data::SiteIndex dest, data::DatasetId dataset);
  /// The data is at `dest`: close the fetch (releasing its source pin when
  /// it came over the wire), land the copy, deliver it to every waiter and
  /// wake the site's LS.
  void complete(data::SiteIndex dest, data::DatasetId dataset);

  const SimulationConfig& config_;
  sim::Engine& engine_;
  std::vector<site::Site>& sites_;
  const data::DatasetCatalog& catalog_;
  const data::ReplicaCatalog& replicas_;
  const net::Routing& routing_;
  net::TransferManager& transfers_;
  ReplicationDriver& replication_;
  EventBus& events_;
  JobLifecycle* jobs_ = nullptr;

  util::Rng rng_fetch_;
  util::Rng rng_faults_;  ///< per-transfer failure draws; untouched otherwise

  /// Per destination site: datasets currently being fetched there, in
  /// dataset order (the crash teardown order).
  std::vector<std::map<data::DatasetId, PendingFetch>> pending_fetches_;
};

}  // namespace chicsim::core
