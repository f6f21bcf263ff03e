// The Dataset Scheduler driver: owns the DS policy, its periodic
// evaluation timer, the demand signals it reads (one PopularityTracker per
// site: request counts since the last reset and lifetime requester
// counts), the replication pushes it starts, and the landing of arrived
// copies into storage + replica catalog.
//
// It is the replica catalog's one writer after master placement: a durable
// copy that left storage leaves the catalog (ReplicaEvicted), and a
// catalogued copy that storage lacks is a lie (CatalogInvalidated).
//
// The DS observes the world only through the information service (its
// ReplicationContext::view()), but *acts* on ground truth: a push toward a
// site that already holds the dataset, or of a dataset this site no longer
// holds, is a no-op regardless of what a stale snapshot claimed.
//
// The driver moves data and never starts jobs (§1's decoupling): a landed
// push satisfies no job's pending inputs (those wait on their own fetches),
// frees no processor and leaves every site queue as it was, so it has
// nothing to tell the JobLifecycle.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/events.hpp"
#include "core/scheduler.hpp"
#include "data/catalog.hpp"
#include "data/popularity.hpp"
#include "data/replica_catalog.hpp"
#include "data/storage.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"
#include "util/rng.hpp"

namespace chicsim::core {

class ReplicationDriver final {
 public:
  /// References are non-owning and must outlive the driver. The DS policy
  /// is built from the config; replace it with set_dataset_scheduler.
  ReplicationDriver(const SimulationConfig& config, sim::Engine& engine,
                    std::vector<site::Site>& sites, const data::DatasetCatalog& catalog,
                    data::ReplicaCatalog& replicas, net::TransferManager& transfers,
                    const GridView& view, EventBus& events);
  ~ReplicationDriver();

  void set_dataset_scheduler(std::unique_ptr<DatasetScheduler> ds);

  /// Arm the periodic sweep: every ds_check_period_s, evaluate every
  /// site's DS in site order — equivalent to per-site DS instances with a
  /// shared phase.
  void start();
  void stop();

  /// One full sweep (the timer body; callable directly from tests).
  void evaluate_all();

  /// Record an access to `dataset` served by `source` in the serving
  /// site's demand record — one request, plus one for `client` when it is
  /// remote (`client` is the job's *origin* site, the community generating
  /// the demand; DataBestClient reads it) — and run the DataFastSpread hook
  /// when an actual network fetch toward `fetch_dest` is involved (kNoSite
  /// for local hits).
  void note_access(data::DatasetId dataset, data::SiteIndex source,
                   data::SiteIndex client, data::SiteIndex fetch_dest);

  /// Asynchronously push `dataset` from `from` to `dest`; no-op when the
  /// destination already holds it, the source lost it, an identical push
  /// is already in flight, or either endpoint is down (a DS acting on a
  /// stale view must not ship bytes to a dead site).
  void start_replication(data::SiteIndex from, data::DatasetId dataset,
                         data::SiteIndex dest);

  /// Site-crash teardown: abort every in-flight push from or toward `s`,
  /// in (dataset, dest) order (source pins are released against
  /// still-intact storage, so this must run before the crash wipes `s`'s
  /// cache).
  void on_site_crashed(data::SiteIndex s);

  /// Register an arrived copy at `s`: storage add (with LRU eviction),
  /// replica-catalog sync. Returns the storage outcome so callers can react
  /// to transient (over-capacity) placement. Shared with the FetchPlanner —
  /// every copy lands through here, however it travelled.
  data::StorageManager::AddOutcome store_replica(data::SiteIndex s,
                                                 data::DatasetId dataset);

  /// Durable copies that left `s`'s storage (`gone`, as storage reports
  /// them) leave the catalog, each with ReplicaEvicted.
  void drop_replicas(data::SiteIndex s, const std::vector<data::DatasetId>& gone);

  /// Remove every catalogued holder of `dataset` whose storage lacks it (a
  /// lie left by silent loss), each with CatalogInvalidated, keeping the
  /// rest in catalog order. Allocates nothing when there is no lie.
  void invalidate_lies(data::DatasetId dataset);

  /// End-of-run sweep: invalidate_lies for every dataset, so whatever no
  /// fetch looked at is scrubbed before the catalog is audited or reported.
  void reconcile_catalog();

  /// Replication pushes currently in flight toward `site` (from anywhere).
  [[nodiscard]] std::size_t inbound_replications(data::SiteIndex site) const;

  /// The remote site whose community demanded `dataset` from `self` most
  /// often (kNoSite when demand has only ever been local).
  [[nodiscard]] data::SiteIndex top_requester(data::SiteIndex self,
                                              data::DatasetId dataset) const;

 private:
  class Ctx;  // per-site ReplicationContext adapter

  const SimulationConfig& config_;
  sim::Engine& engine_;
  std::vector<site::Site>& sites_;
  const data::DatasetCatalog& catalog_;
  data::ReplicaCatalog& replicas_;
  net::TransferManager& transfers_;
  const GridView& view_;
  EventBus& events_;

  std::unique_ptr<DatasetScheduler> ds_;
  std::unique_ptr<sim::PeriodicTimer> timer_;
  util::Rng rng_ds_;

  /// One in-flight push (crash teardown needs the source and the wire).
  struct PushRecord {
    data::SiteIndex from = data::kNoSite;
    data::DatasetId dataset = data::kNoDataset;
    data::SiteIndex dest = data::kNoSite;
    net::TransferId transfer = net::kNoTransfer;
  };

  /// Replication pushes in flight, keyed (dataset, dest) to avoid
  /// duplicates; the key's numeric order is the crash teardown order.
  std::map<std::uint64_t, PushRecord> pending_pushes_;
  /// In-flight replication pushes per destination site.
  std::vector<std::size_t> inbound_pushes_;
  /// Per site: the demand its DS reads (popularity and requesters).
  std::vector<data::PopularityTracker> demand_;
};

}  // namespace chicsim::core
