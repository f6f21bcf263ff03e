// The Data Grid composition root: builds every substrate from a
// SimulationConfig and wires the four services that together execute the
// Data Grid Execution (job submissions, allocations, executions, data
// movements — §3):
//
//   InfoService        the one GridView — the information-service boundary
//                      every policy observes the world through, with
//                      configurable staleness (info_staleness_s)
//   JobLifecycle       submit -> dispatch -> run -> complete, the per-user
//                      submission loop and the centralized-ES queue
//   FetchPlanner       missing-input resolution: transfer initiation and
//                      pending-fetch bookkeeping ("the data transfer needed
//                      for a job starts while the job is still in the
//                      processor queue", §5.2)
//   ReplicationDriver  the Dataset Scheduler timer, demand signals and
//                      replication pushes
//
// Services hold direct references to one another; the only interfaces
// between them are the policy boundary (GridView) and the EventBus they
// publish to. FetchPlanner's JobLifecycle& is the one late binding (a landed
// fetch restarts jobs); a replication push never does, so ReplicationDriver
// has no edge back to the lifecycle. The Grid itself only composes the
// services, routes the public API and attaches the MetricsCollector that
// folds the event stream into RunMetrics.
#pragma once

#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/events.hpp"
#include "core/faults.hpp"
#include "core/fetch_planner.hpp"
#include "core/info_service.hpp"
#include "core/job_lifecycle.hpp"
#include "core/metrics.hpp"
#include "core/replication_driver.hpp"
#include "core/scheduler.hpp"
#include "data/catalog.hpp"
#include "data/replica_catalog.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "site/site.hpp"
#include "workload/generator.hpp"

namespace chicsim::core {

class Grid final {
 public:
  /// Build the whole world (topology, sites, datasets, placement, workload,
  /// policies) deterministically from the config. Throws util::SimError on
  /// invalid configuration.
  explicit Grid(const SimulationConfig& config);

  /// Replay a pre-built workload instead of generating one (trace runs).
  Grid(const SimulationConfig& config, workload::Workload workload);

  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;
  ~Grid();

  /// Replace a scheduler policy with a user-provided implementation (the
  /// framework's extension point). Must be called before run(); the config
  /// enums then only describe the defaults that were replaced.
  void set_external_scheduler(std::unique_ptr<ExternalScheduler> es);
  void set_local_scheduler(std::unique_ptr<LocalScheduler> ls);
  void set_dataset_scheduler(std::unique_ptr<DatasetScheduler> ds);

  /// Subscribe to the structured event trace (see core/events.hpp). The
  /// observer is non-owning and must outlive the run; attach before run()
  /// to see the whole Data Grid Execution.
  void add_observer(GridObserver* observer);

  /// Append a scripted failure schedule (docs/robustness.md). Composes
  /// with any earlier plans and with the stochastic streams the config's
  /// fault_* rates generate; everything is merged and scheduled at run().
  /// Must be called before run().
  void add_fault_plan(const FaultPlan& plan);

  /// Injector counters with no event of their own (valid anytime; zeros
  /// when nothing was injected). Crashes and recoveries are in metrics().
  [[nodiscard]] const FaultStats& fault_stats() const;

  /// Execute until every job has completed. Callable once.
  void run();

  /// Metrics of the completed run. Valid after run().
  [[nodiscard]] const RunMetrics& metrics() const;

  /// Audit the grid's cross-component invariants (see core/audit.hpp).
  void audit() const;

  // --- the services ---
  /// The information service: what the policies see. Queries answer from
  /// the last published snapshot when info_staleness_s > 0 — use the
  /// ground-truth accessors below to read reality.
  [[nodiscard]] const InfoService& info() const { return *info_; }
  [[nodiscard]] JobLifecycle& lifecycle() { return *lifecycle_; }
  [[nodiscard]] const JobLifecycle& lifecycle() const { return *lifecycle_; }
  [[nodiscard]] FetchPlanner& fetch_planner() { return *fetch_; }
  [[nodiscard]] const FetchPlanner& fetch_planner() const { return *fetch_; }
  [[nodiscard]] ReplicationDriver& replication() { return *replication_; }
  [[nodiscard]] const ReplicationDriver& replication() const { return *replication_; }

  // --- ground-truth component access (tests, examples, benches) ---
  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] const net::Topology& topology() const { return topology_; }
  [[nodiscard]] const net::Routing& routing() const { return *routing_; }
  [[nodiscard]] const net::TransferManager& transfers() const { return *transfers_; }
  [[nodiscard]] const data::DatasetCatalog& datasets() const { return catalog_; }
  [[nodiscard]] const data::ReplicaCatalog& replicas() const { return *replica_catalog_; }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }
  [[nodiscard]] const site::Site& site_at(data::SiteIndex s) const;
  [[nodiscard]] std::size_t job_count() const { return lifecycle_->job_count(); }
  [[nodiscard]] const site::Job& job(site::JobId id) const { return lifecycle_->job(id); }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  void build_world();
  void wire_services();
  void finish_run();

  SimulationConfig config_;
  sim::Engine engine_;
  net::Topology topology_;
  std::unique_ptr<net::Routing> routing_;
  std::unique_ptr<net::TransferManager> transfers_;
  data::DatasetCatalog catalog_;
  std::unique_ptr<data::ReplicaCatalog> replica_catalog_;
  std::vector<site::Site> sites_;
  std::vector<std::vector<data::SiteIndex>> neighbors_;
  std::unique_ptr<workload::Workload> workload_;

  EventBus bus_;
  std::unique_ptr<InfoService> info_;
  std::unique_ptr<ReplicationDriver> replication_;
  std::unique_ptr<FetchPlanner> fetch_;
  std::unique_ptr<JobLifecycle> lifecycle_;
  std::unique_ptr<FaultInjector> injector_;
  FaultPlan scripted_faults_;

  MetricsCollector collector_;
  RunMetrics metrics_;
  bool ran_ = false;
  bool finished_ = false;
};

}  // namespace chicsim::core
