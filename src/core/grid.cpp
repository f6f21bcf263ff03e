#include "core/grid.hpp"

#include "core/audit.hpp"
#include "core/world_builder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {

Grid::Grid(const SimulationConfig& config) : config_(config) {
  config_.validate();
  build_world();
  util::Rng rng_workload = util::Rng::substream(config_.seed, "workload");
  workload::WorkloadConfig wcfg;
  wcfg.num_users = config_.num_users;
  wcfg.jobs_per_user = config_.jobs_per_user();
  wcfg.num_sites = config_.num_sites;
  wcfg.inputs_per_job = config_.inputs_per_job;
  wcfg.geometric_p = config_.geometric_p;
  wcfg.compute_seconds_per_gb = config_.compute_seconds_per_gb;
  wcfg.user_focus = config_.user_focus;
  workload_ = std::make_unique<workload::Workload>(wcfg, catalog_, rng_workload);
  wire_services();
}

Grid::Grid(const SimulationConfig& config, workload::Workload workload) : config_(config) {
  config_.validate();
  CHICSIM_ASSERT_MSG(workload.num_users() == config_.num_users,
                     "trace user count does not match config");
  build_world();
  workload_ = std::make_unique<workload::Workload>(std::move(workload));
  wire_services();
}

Grid::~Grid() = default;

void Grid::build_world() {
  logger_.set_clock([this] { return engine_.now(); });
  topology_ = build_topology(config_);
  routing_ = std::make_unique<net::Routing>(topology_);
  transfers_ = std::make_unique<net::TransferManager>(engine_, topology_, *routing_,
                                                      config_.share_policy);
  sites_ = build_sites(config_);
  neighbors_ = build_neighbor_lists(config_);
  catalog_ = build_catalog(config_);
  replica_catalog_ = std::make_unique<data::ReplicaCatalog>(catalog_.size());
  place_master_replicas(config_, catalog_, sites_, *replica_catalog_);
}

void Grid::wire_services() {
  for (site::UserId u = 0; u < workload_->num_users(); ++u) {
    for (const site::Job& tmpl : workload_->jobs_of(u)) {
      for (auto input : tmpl.inputs) {
        CHICSIM_ASSERT_MSG(input < catalog_.size(), "job references unknown dataset");
      }
    }
  }

  bus_.set_clock([this] { return engine_.now(); });
  // The metrics fold observes first: every run-level count comes from the
  // event stream, and user observers attached later see the same events.
  bus_.add_observer(&collector_);
  info_ = std::make_unique<InfoService>(config_, engine_, sites_, catalog_,
                                        *replica_catalog_, topology_, *routing_,
                                        *transfers_, neighbors_);
  replication_ = std::make_unique<ReplicationDriver>(config_, engine_, sites_, catalog_,
                                                     *replica_catalog_, *transfers_,
                                                     *info_, bus_);
  fetch_ = std::make_unique<FetchPlanner>(config_, engine_, sites_, catalog_,
                                          *replica_catalog_, *routing_, *transfers_,
                                          *replication_, bus_);
  lifecycle_ = std::make_unique<JobLifecycle>(config_, engine_, logger_, sites_,
                                              *workload_, *transfers_, *fetch_, *info_,
                                              bus_, [this] { finish_run(); });
  collector_.bind_jobs([this](site::JobId id) -> const site::Job& {
    return lifecycle_->job(id);
  });
  fetch_->bind_jobs(*lifecycle_);
  replication_->bind_jobs(*lifecycle_);
  injector_ = std::make_unique<FaultInjector>(config_, engine_, logger_, sites_, catalog_,
                                              *replica_catalog_, topology_, *transfers_,
                                              *fetch_, *replication_, *lifecycle_, bus_);
}

const site::Site& Grid::site_at(data::SiteIndex s) const {
  CHICSIM_ASSERT_MSG(s < sites_.size(), "site index out of range");
  return sites_[s];
}

// --- policy injection ---

void Grid::set_external_scheduler(std::unique_ptr<ExternalScheduler> es) {
  CHICSIM_ASSERT_MSG(!ran_, "policies must be set before run()");
  lifecycle_->set_external_scheduler(std::move(es));
}

void Grid::set_local_scheduler(std::unique_ptr<LocalScheduler> ls) {
  CHICSIM_ASSERT_MSG(!ran_, "policies must be set before run()");
  lifecycle_->set_local_scheduler(std::move(ls));
}

void Grid::set_dataset_scheduler(std::unique_ptr<DatasetScheduler> ds) {
  CHICSIM_ASSERT_MSG(!ran_, "policies must be set before run()");
  replication_->set_dataset_scheduler(std::move(ds));
}

void Grid::add_observer(GridObserver* observer) {
  CHICSIM_ASSERT_MSG(observer != nullptr, "null observer");
  bus_.add_observer(observer);
}

void Grid::audit() const { audit_grid(*this); }

void Grid::inject_link_degradation(net::LinkId link, util::SimTime at, double scale) {
  CHICSIM_ASSERT_MSG(!ran_, "fault injection must be scheduled before run()");
  CHICSIM_ASSERT_MSG(link < topology_.link_count(), "link id out of range");
  CHICSIM_ASSERT_MSG(scale > 0.0, "bandwidth scale must be positive");
  // One injection mechanism: the action joins the same FaultPlan as every
  // other fault and flows through the FaultInjector (GridEvent emission,
  // counters, observability) instead of a bespoke calendar lambda.
  scripted_faults_.degrade_link(at, link, scale);
}

void Grid::add_fault_plan(const FaultPlan& plan) {
  CHICSIM_ASSERT_MSG(!ran_, "fault plans must be added before run()");
  for (const FaultAction& a : plan.actions()) {
    switch (a.kind) {
      case FaultKind::SiteCrash:
      case FaultKind::SiteRecover:
        CHICSIM_ASSERT_MSG(a.site < sites_.size(), "fault plan names an unknown site");
        break;
      case FaultKind::LinkDegrade:
      case FaultKind::LinkRestore:
        CHICSIM_ASSERT_MSG(a.link < topology_.link_count(), "fault plan names an unknown link");
        CHICSIM_ASSERT_MSG(a.scale > 0.0, "bandwidth scale must be positive");
        break;
      case FaultKind::TransferAbort:
        CHICSIM_ASSERT_MSG(a.dest < sites_.size(), "fault plan names an unknown site");
        CHICSIM_ASSERT_MSG(a.dataset < catalog_.size(), "fault plan names an unknown dataset");
        break;
      case FaultKind::CatalogEntryLoss:
        CHICSIM_ASSERT_MSG(a.dataset < catalog_.size(), "fault plan names an unknown dataset");
        break;
    }
  }
  scripted_faults_.append(plan);
}

const FaultStats& Grid::fault_stats() const { return injector_->stats(); }

// --- run loop ---

void Grid::run() {
  CHICSIM_ASSERT_MSG(!ran_, "Grid::run may be called once");
  ran_ = true;
  // Merge the stochastic streams (config rates) with everything scripted
  // and put the whole schedule on the calendar before the first
  // submission, so fault/submission ties at the same instant resolve in a
  // reproducible order. An empty plan schedules nothing: zero events, zero
  // RNG draws — bit-identical to a fault-free build.
  FaultPlan plan = FaultPlan::generate(config_);
  plan.append(scripted_faults_);
  injector_->schedule(plan);
  lifecycle_->start();
  replication_->start();
  engine_.run();
  CHICSIM_ASSERT_MSG(finished_, "simulation drained without completing all jobs");
}

const RunMetrics& Grid::metrics() const {
  CHICSIM_ASSERT_MSG(finished_, "metrics requested before the run finished");
  return metrics_;
}

void Grid::finish_run() {
  finished_ = true;
  util::SimTime makespan = engine_.now();
  for (auto& site : sites_) site.compute().settle(makespan);
  replication_->stop();
  // Scrub replica-catalog lies the run never tripped over (silent
  // corruption stream) before anything audits or reports the catalog; its
  // CatalogInvalidated events reach the fold before finalize().
  injector_->reconcile_catalog();
  metrics_ = collector_.finalize(makespan, sites_, *transfers_);
  metrics_.events_executed = engine_.events_executed();
  metrics_.event_pushes = engine_.queue().total_pushes();
  metrics_.event_cancels = engine_.queue().total_cancels();
  metrics_.peak_heap_size = engine_.queue().peak_heap_size();
  const net::TransferStats& ts = transfers_->stats();
  metrics_.transfers_aborted = ts.transfers_aborted;
  metrics_.reallocations = ts.reallocations;
  metrics_.flows_rescheduled = ts.flows_rescheduled;
  engine_.stop();
}

}  // namespace chicsim::core
