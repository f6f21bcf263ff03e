// Unit tests for the decomposed service layer: each service is exercised
// through its own seam (Grid only composes them). The A/B anchor in
// test_refactor_equivalence.cpp proves the composition equals the old
// monolith; these tests pin each service's behavior in isolation.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/algorithms.hpp"
#include "core/experiment.hpp"
#include "core/factory.hpp"
#include "core/grid.hpp"

namespace chicsim::core {
namespace {

SimulationConfig service_config() {
  SimulationConfig cfg;
  cfg.num_users = 8;
  cfg.num_sites = 4;
  cfg.num_regions = 2;
  cfg.num_datasets = 20;
  cfg.total_jobs = 64;
  cfg.storage_capacity_mb = 15000.0;
  cfg.seed = 7;
  return cfg;
}

// --- FetchPlanner ---

TEST(FetchPlanner, SingleReplicaForcesTheOnlySource) {
  SimulationConfig cfg = service_config();
  Grid grid(cfg);
  // Masters are the only replicas pre-run: every policy must pick the holder.
  for (data::DatasetId d = 0; d < grid.datasets().size(); ++d) {
    data::SiteIndex holder = grid.replicas().locations(d).front();
    for (data::SiteIndex dest = 0; dest < grid.site_count(); ++dest) {
      EXPECT_EQ(grid.fetch_planner().choose_source(d, dest), holder);
    }
  }
}

TEST(FetchPlanner, PendingFetchesStartEmptyAndDrainByTheEnd) {
  SimulationConfig cfg = service_config();
  cfg.es = EsAlgorithm::JobRandom;  // guarantees remote placement
  Grid grid(cfg);
  EventLog log;
  grid.add_observer(&log);
  for (data::SiteIndex s = 0; s < grid.site_count(); ++s) {
    EXPECT_EQ(grid.fetch_planner().pending_fetches(s), 0u);
  }
  grid.run();
  for (data::SiteIndex s = 0; s < grid.site_count(); ++s) {
    EXPECT_EQ(grid.fetch_planner().pending_fetches(s), 0u);
  }
  EXPECT_GT(log.count(GridEventType::FetchStarted), 0u);
  EXPECT_EQ(log.count(GridEventType::FetchStarted), grid.metrics().remote_fetches);
}

// --- ReplicationDriver ---

TEST(ReplicationDriver, StoreReplicaSyncsTheCatalog) {
  SimulationConfig cfg = service_config();
  Grid grid(cfg);
  data::DatasetId d = 0;
  data::SiteIndex holder = grid.replicas().locations(d).front();
  auto other = static_cast<data::SiteIndex>((holder + 1) % grid.site_count());
  ASSERT_FALSE(grid.replicas().has(d, other));
  auto outcome = grid.replication().store_replica(other, d);
  EXPECT_TRUE(outcome.newly_added);
  EXPECT_TRUE(grid.replicas().has(d, other));
  EXPECT_TRUE(grid.site_at(other).storage().contains(d));
  grid.audit();
}

TEST(ReplicationDriver, StartReplicationSkipsPointlessPushes) {
  SimulationConfig cfg = service_config();
  Grid grid(cfg);
  data::DatasetId d = 0;
  data::SiteIndex holder = grid.replicas().locations(d).front();
  auto other = static_cast<data::SiteIndex>((holder + 1) % grid.site_count());
  EventLog log;
  grid.add_observer(&log);
  // To itself, from a non-holder, and toward an existing holder: all no-ops.
  grid.replication().start_replication(holder, d, holder);
  grid.replication().start_replication(other, d, holder);
  grid.replication().start_replication(holder, d, holder);
  EXPECT_EQ(log.count(GridEventType::ReplicationStarted), 0u);
  // A real push counts once; the duplicate is coalesced while in flight.
  grid.replication().start_replication(holder, d, other);
  grid.replication().start_replication(holder, d, other);
  EXPECT_EQ(log.count(GridEventType::ReplicationStarted), 1u);
  EXPECT_EQ(grid.replication().inbound_replications(other), 1u);
}

TEST(ReplicationDriver, TopRequesterTracksTheDominantCommunity) {
  SimulationConfig cfg = service_config();
  Grid grid(cfg);
  data::DatasetId d = 3;
  data::SiteIndex holder = grid.replicas().locations(d).front();
  auto a = static_cast<data::SiteIndex>((holder + 1) % grid.site_count());
  auto b = static_cast<data::SiteIndex>((holder + 2) % grid.site_count());
  EXPECT_EQ(grid.replication().top_requester(holder, d), data::kNoSite);
  grid.replication().note_access(d, holder, a, data::kNoSite);
  grid.replication().note_access(d, holder, a, data::kNoSite);
  grid.replication().note_access(d, holder, b, data::kNoSite);
  EXPECT_EQ(grid.replication().top_requester(holder, d), a);
  // Purely local demand never registers a requester.
  grid.replication().note_access(d, holder, holder, data::kNoSite);
  EXPECT_EQ(grid.replication().top_requester(holder, d), a);
  // Demand is the serving site's own: no other site saw any.
  EXPECT_EQ(grid.replication().top_requester(a, d), data::kNoSite);
}

/// A DS that, at `holder`, resets `dataset` and records what its context
/// reports before and after; every other site records what it sees.
class ResetProbe final : public DatasetScheduler {
 public:
  ResetProbe(data::SiteIndex holder, data::DatasetId dataset)
      : holder_(holder), dataset_(dataset) {}
  [[nodiscard]] const char* name() const override { return "ResetProbe"; }

  void evaluate(ReplicationContext& ctx, util::Rng& /*rng*/) override {
    if (ctx.self() != holder_) {
      elsewhere_hot += ctx.popular_datasets(0.0).size();
      if (ctx.top_requester(dataset_) != data::kNoSite) ++elsewhere_requesters;
      return;
    }
    hot_before = ctx.popular_datasets(kThreshold);
    if (reset_next) ctx.reset_popularity(dataset_);
    top_after = ctx.top_requester(dataset_);
    hot_after = ctx.popular_datasets(kThreshold);
    any_after = ctx.popular_datasets(0.0);
  }

  static constexpr double kThreshold = 3.0;
  bool reset_next = true;
  std::vector<data::DatasetId> hot_before, hot_after, any_after;
  data::SiteIndex top_after = data::kNoSite;
  std::size_t elsewhere_hot = 0;
  std::size_t elsewhere_requesters = 0;

 private:
  data::SiteIndex holder_;
  data::DatasetId dataset_;
};

bool contains(const std::vector<data::DatasetId>& v, data::DatasetId d) {
  return std::find(v.begin(), v.end(), d) != v.end();
}

TEST(ReplicationDriver, ResetClearsPopularityButKeepsTheTopRequester) {
  SimulationConfig cfg = service_config();
  Grid grid(cfg);
  data::DatasetId d = 3;
  data::SiteIndex holder = grid.replicas().locations(d).front();
  auto a = static_cast<data::SiteIndex>((holder + 1) % grid.site_count());
  auto b = static_cast<data::SiteIndex>((holder + 2) % grid.site_count());
  auto probe_owner = std::make_unique<ResetProbe>(holder, d);
  ResetProbe& probe = *probe_owner;
  grid.replication().set_dataset_scheduler(std::move(probe_owner));
  ReplicationDriver& driver = grid.replication();

  // Remote demand from a (x3) and b (x1), plus two local requests.
  for (data::SiteIndex client : {a, a, b, a, holder, holder}) {
    driver.note_access(d, holder, client, data::kNoSite);
  }
  driver.evaluate_all();
  EXPECT_TRUE(contains(probe.hot_before, d));
  EXPECT_EQ(probe.top_after, a);  // the reset kept the lifetime requesters
  EXPECT_FALSE(contains(probe.hot_after, d));
  EXPECT_FALSE(contains(probe.any_after, d));  // not even at threshold 0
  EXPECT_EQ(probe.elsewhere_hot, 0u);
  EXPECT_EQ(probe.elsewhere_requesters, 0u);

  // No new demand: still not popular, still the same top requester.
  probe.reset_next = false;
  driver.evaluate_all();
  EXPECT_FALSE(contains(probe.hot_before, d));
  EXPECT_FALSE(contains(probe.any_after, d));
  EXPECT_EQ(probe.top_after, a);

  // Requested again, it is popular again, and b now has the most lifetime
  // requests (4 against a's 3).
  for (int i = 0; i < 3; ++i) driver.note_access(d, holder, b, data::kNoSite);
  driver.evaluate_all();
  EXPECT_TRUE(contains(probe.hot_before, d));
  EXPECT_TRUE(contains(probe.any_after, d));
  EXPECT_EQ(probe.top_after, b);
}

// --- JobLifecycle ---

TEST(JobLifecycle, InstantiatesTheJobTableDense) {
  SimulationConfig cfg = service_config();
  Grid grid(cfg);
  EXPECT_EQ(grid.job_count(), cfg.total_jobs);
  EXPECT_EQ(grid.lifecycle().completed_jobs(), 0u);
  for (site::JobId id = 1; id <= grid.job_count(); ++id) {
    EXPECT_EQ(grid.job(id).id, id);
    EXPECT_EQ(grid.job(id).state, site::JobState::Created);
  }
}

TEST(JobLifecycle, CompletesEveryJobAndDrainsTheCentralQueue) {
  SimulationConfig cfg = service_config();
  cfg.es_mapping = EsMapping::Centralized;
  Grid grid(cfg);
  EXPECT_EQ(grid.lifecycle().central_queue_depth(), 0u);
  grid.run();
  EXPECT_EQ(grid.lifecycle().central_queue_depth(), 0u);
  EXPECT_EQ(grid.lifecycle().completed_jobs(), cfg.total_jobs);
  for (site::JobId id = 1; id <= grid.job_count(); ++id) {
    EXPECT_EQ(grid.job(id).state, site::JobState::Completed);
  }
  grid.audit();
}

// Work conservation: at every event boundary the Local Scheduler has
// already started everything it can, so a site with an idle processor holds
// nothing its LS would pick. Jobs are started where readiness changes
// (dispatch, compute done, fetch landed); a landed replication push changes
// no job's pending inputs, frees no processor and leaves every queue alone,
// which is why the ReplicationDriver has no edge back to the lifecycle.
TEST(JobLifecycle, IdleProcessorsNeverWaitBesideAStartableJob) {
  std::size_t checks = 0;
  std::uint64_t pushes_landed = 0;
  for (DsAlgorithm ds : {DsAlgorithm::DataLeastLoaded, DsAlgorithm::DataRandom,
                         DsAlgorithm::DataBestClient, DsAlgorithm::DataFastSpread}) {
    for (LsAlgorithm ls : {LsAlgorithm::Fifo, LsAlgorithm::FifoSkip, LsAlgorithm::Sjf}) {
      for (bool faulty : {false, true}) {
        SimulationConfig cfg = service_config();
        cfg.ds = ds;
        cfg.ls = ls;
        cfg.replication_threshold = 2.0;
        Grid grid(cfg);
        if (faulty) {
          grid.add_fault_plan(FaultPlan{}.crash_site(300.0, 1).recover_site(1500.0, 1));
        }
        EventLog log;
        grid.add_observer(&log);
        auto job_of = [&grid](site::JobId id) -> const site::Job& { return grid.job(id); };
        sim::PeriodicTimer probe(grid.engine(), 50.0, 50.0, [&] {
          for (data::SiteIndex s = 0; s < grid.site_count(); ++s) {
            const site::Site& site = grid.site_at(s);
            if (!site.alive() || site.compute().idle() == 0) continue;
            ++checks;
            EXPECT_EQ(make_local_scheduler(cfg.ls)->pick_next(site.queue(), job_of),
                      site::kNoJob)
                << to_string(ds) << "/" << to_string(ls) << (faulty ? " faulty" : "")
                << ": site " << s << " idles beside a startable job at t="
                << grid.engine().now();
          }
        });
        grid.run();
        EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
        pushes_landed += log.count(GridEventType::ReplicationCompleted);
      }
    }
  }
  EXPECT_GT(checks, 0u);
  EXPECT_GT(pushes_landed, 0u);  // the premise is exercised, not vacuous
}

// --- InfoService staleness across the service seams ---

TEST(InfoService, StaleReplicaViewLagsGroundTruth) {
  SimulationConfig cfg = service_config();
  cfg.info_staleness_s = 300.0;
  Grid grid(cfg);
  data::DatasetId d = 0;
  data::SiteIndex holder = grid.replicas().locations(d).front();
  auto other = static_cast<data::SiteIndex>((holder + 1) % grid.site_count());

  // First query publishes the epoch-0 snapshot: one master per dataset.
  ASSERT_EQ(grid.info().replica_sites(d).size(), 1u);
  // A copy lands (ground truth changes) inside the same epoch...
  grid.replication().store_replica(other, d);
  ASSERT_TRUE(grid.replicas().has(d, other));
  // ...but the policies keep seeing the pre-refresh directory state.
  EXPECT_EQ(grid.info().replica_sites(d).size(), 1u);
  EXPECT_FALSE(grid.info().site_has_dataset(other, d));
  EXPECT_TRUE(grid.info().site_has_dataset(holder, d));
}

TEST(InfoService, ExactReplicaViewTracksGroundTruthLive) {
  SimulationConfig cfg = service_config();
  cfg.info_staleness_s = 0.0;
  Grid grid(cfg);
  data::DatasetId d = 0;
  data::SiteIndex holder = grid.replicas().locations(d).front();
  auto other = static_cast<data::SiteIndex>((holder + 1) % grid.site_count());
  grid.replication().store_replica(other, d);
  EXPECT_EQ(grid.info().replica_sites(d).size(), 2u);
  EXPECT_TRUE(grid.info().site_has_dataset(other, d));
}

TEST(InfoService, StaleMatrixCompletesWithSaneMetrics) {
  SimulationConfig cfg = service_config();
  cfg.info_staleness_s = 240.0;
  ExperimentRunner runner(cfg, {1});
  auto cells = runner.run_matrix(paper_es_algorithms(), paper_ds_algorithms());
  ASSERT_EQ(cells.size(),
            paper_es_algorithms().size() * paper_ds_algorithms().size());
  for (const auto& cell : cells) {
    EXPECT_GT(cell.makespan_s, 0.0);
    EXPECT_GT(cell.avg_response_time_s, 0.0);
    EXPECT_GE(cell.makespan_s, cell.avg_response_time_s);
    for (const RunMetrics& m : cell.per_seed) {
      EXPECT_EQ(m.jobs_completed, cfg.total_jobs);
    }
  }
}

}  // namespace
}  // namespace chicsim::core
