// Tests of the information-service semantics of core::InfoService (reached
// through its grid.info() seam): exact load with staleness 0, epoch-snapshot
// load with staleness > 0, and the network occupancy metrics derived from
// link busy-time integrals. A hand-built rig pins the capture rules the
// once-per-instant epoch check must keep. Replica-location staleness across
// the service seams is covered in test_services.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/grid.hpp"
#include "core/info_service.hpp"

namespace chicsim::core {
namespace {

SimulationConfig info_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.seed = 81;
  return cfg;
}

TEST(InfoService, ExactModeTracksLiveQueues) {
  SimulationConfig cfg = info_config();
  cfg.info_staleness_s = 0.0;
  Grid grid(cfg);
  // Pre-run: loads are zero and the view must agree at all times.
  for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
    EXPECT_EQ(grid.info().site_load(s), grid.site_at(s).load());
  }
  // Probe live agreement mid-run.
  int checks = 0;
  for (double t : {100.0, 1000.0, 3000.0}) {
    grid.engine().schedule_at(t, [&grid, &cfg, &checks] {
      for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) {
        ASSERT_EQ(grid.info().site_load(s), grid.site_at(s).load());
      }
      ++checks;
    });
  }
  grid.run();
  EXPECT_GT(checks, 0);
}

TEST(InfoService, StaleModeFreezesLoadsWithinAnEpoch) {
  SimulationConfig cfg = info_config();
  cfg.info_staleness_s = 500.0;
  Grid grid(cfg);
  // Two probes inside the same publication epoch must see identical
  // snapshots even though real queues moved in between.
  std::vector<std::size_t> first;
  std::vector<std::size_t> second;
  grid.engine().schedule_at(600.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) first.push_back(grid.info().site_load(s));
  });
  grid.engine().schedule_at(990.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) second.push_back(grid.info().site_load(s));
  });
  grid.run();
  ASSERT_EQ(first.size(), second.size());
  EXPECT_EQ(first, second);
}

TEST(InfoService, StaleSnapshotsRefreshAcrossEpochs) {
  SimulationConfig cfg = info_config();
  cfg.info_staleness_s = 200.0;
  cfg.es = EsAlgorithm::JobLeastLoaded;  // keeps querying the view
  Grid grid(cfg);
  // Record the snapshot early and late; the burst at t=0 drains over the
  // run, so a refreshed snapshot must eventually differ.
  std::vector<std::size_t> early;
  std::vector<std::size_t> late;
  grid.engine().schedule_at(250.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) early.push_back(grid.info().site_load(s));
  });
  grid.engine().schedule_at(5000.0, [&] {
    for (data::SiteIndex s = 0; s < cfg.num_sites; ++s) late.push_back(grid.info().site_load(s));
  });
  grid.run();
  ASSERT_FALSE(early.empty());
  ASSERT_FALSE(late.empty());
  EXPECT_NE(early, late);
}

TEST(InfoService, NetworkOccupancyMetricsAreCoherent) {
  SimulationConfig cfg = info_config();
  cfg.es = EsAlgorithm::JobRandom;  // plenty of traffic
  Grid grid(cfg);
  grid.run();
  const RunMetrics& m = grid.metrics();
  EXPECT_GT(m.avg_link_busy_fraction, 0.0);
  EXPECT_GE(m.max_link_busy_fraction, m.avg_link_busy_fraction);
  EXPECT_LE(m.max_link_busy_fraction, 1.0 + 1e-9);
}

TEST(InfoService, NoTrafficMeansIdleLinks) {
  SimulationConfig cfg = info_config();
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataDoNothing;  // jobs at the data, nothing moves
  Grid grid(cfg);
  grid.run();
  EXPECT_DOUBLE_EQ(grid.metrics().avg_link_busy_fraction, 0.0);
  EXPECT_DOUBLE_EQ(grid.metrics().max_link_busy_fraction, 0.0);
}

// --- capture rules, on a hand-built world the test mutates directly ---

/// Four sites, three datasets, a one-router topology: just enough world for
/// an InfoService whose ground truth the test edits between queries.
struct InfoRig {
  explicit InfoRig(double staleness_s) {
    cfg.info_staleness_s = staleness_s;
    topology.add_node(net::NodeKind::Router, "root");
    routing = std::make_unique<net::Routing>(topology);
    transfers = std::make_unique<net::TransferManager>(engine, topology, *routing);
    for (data::SiteIndex s = 0; s < 4; ++s) sites.emplace_back(s, 2, 10000.0);
    for (int d = 0; d < 3; ++d) catalog.add("d" + std::to_string(d), 100.0);
    replicas.add(0, 1);
    replicas.add(1, 3);
    replicas.add(1, 0);
    info = std::make_unique<InfoService>(cfg, engine, sites, catalog, replicas, topology,
                                         *routing, *transfers, neighbors);
  }

  std::vector<std::size_t> loads() const {
    std::vector<std::size_t> out;
    for (data::SiteIndex s = 0; s < sites.size(); ++s) out.push_back(info->site_load(s));
    return out;
  }

  /// site_has_dataset must be exactly membership in replica_sites.
  void expect_has_matches_holders() const {
    for (data::DatasetId d = 0; d < catalog.size(); ++d) {
      const auto& holders = info->replica_sites(d);
      for (data::SiteIndex s = 0; s < sites.size(); ++s) {
        bool listed = std::find(holders.begin(), holders.end(), s) != holders.end();
        EXPECT_EQ(info->site_has_dataset(s, d), listed)
            << "site " << s << " dataset " << d << " at t=" << engine.now();
      }
    }
  }

  SimulationConfig cfg;
  sim::Engine engine;
  net::Topology topology;
  std::unique_ptr<net::Routing> routing;
  std::unique_ptr<net::TransferManager> transfers;
  std::vector<site::Site> sites;
  data::DatasetCatalog catalog;
  data::ReplicaCatalog replicas{3};
  std::vector<std::vector<data::SiteIndex>> neighbors{4};
  std::unique_ptr<InfoService> info;
};

TEST(InfoService, SameInstantQueriesReturnTheFirstSnapshot) {
  InfoRig rig(100.0);
  rig.engine.run_until(150.0);
  std::vector<std::size_t> first = rig.loads();
  std::vector<data::SiteIndex> holders = rig.info->replica_sites(0);
  // Ground truth moves without the clock moving.
  rig.sites[2].enqueue(7);
  rig.replicas.add(0, 2);
  EXPECT_EQ(rig.loads(), first);
  EXPECT_EQ(rig.info->replica_sites(0), holders);
  EXPECT_FALSE(rig.info->site_has_dataset(2, 0));
  // Later in the same epoch: still the snapshot captured at t=150.
  rig.engine.run_until(199.0);
  EXPECT_EQ(rig.loads(), first);
  EXPECT_EQ(rig.info->replica_sites(0), holders);
  // The next epoch publishes the changes.
  rig.engine.run_until(200.0);
  EXPECT_EQ(rig.info->site_load(2), 1u);
  EXPECT_TRUE(rig.info->site_has_dataset(2, 0));
}

TEST(InfoService, FamiliesCaptureIndependentlyWithinAnEpoch) {
  InfoRig rig(100.0);
  rig.engine.run_until(110.0);
  EXPECT_EQ(rig.info->site_load(1), 0u);  // loads captured at t=110
  rig.sites[1].enqueue(3);
  rig.replicas.add(2, 1);
  rig.sites[0].set_alive(false);
  rig.engine.run_until(130.0);
  // Replicas and liveness were first asked for at t=130: they show the
  // state at their own capture, while loads keep the t=110 capture.
  EXPECT_TRUE(rig.info->site_has_dataset(1, 2));
  EXPECT_FALSE(rig.info->site_alive(0));
  EXPECT_EQ(rig.info->site_load(1), 0u);
  rig.sites[1].enqueue(4);
  rig.replicas.add(2, 3);
  rig.sites[0].set_alive(true);
  rig.engine.run_until(170.0);
  EXPECT_FALSE(rig.info->site_has_dataset(3, 2));
  EXPECT_FALSE(rig.info->site_alive(0));
  EXPECT_EQ(rig.info->site_load(1), 0u);
}

TEST(InfoService, SiteHasDatasetAgreesWithReplicaSites) {
  for (double staleness : {0.0, 100.0}) {
    SCOPED_TRACE(staleness);
    InfoRig rig(staleness);
    rig.expect_has_matches_holders();
    rig.replicas.add(2, 0);
    rig.replicas.add(0, 3);
    rig.expect_has_matches_holders();  // same instant as the first capture
    rig.engine.run_until(50.0);
    EXPECT_TRUE(rig.replicas.remove(1, 3));
    rig.expect_has_matches_holders();
    rig.engine.run_until(120.0);
    rig.expect_has_matches_holders();
  }
}

}  // namespace
}  // namespace chicsim::core
