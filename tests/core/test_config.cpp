#include "core/config.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "util/config_file.hpp"
#include "util/error.hpp"

namespace chicsim::core {
namespace {

TEST(Config, DefaultsMatchTable1) {
  SimulationConfig cfg;
  EXPECT_EQ(cfg.num_users, 120u);
  EXPECT_EQ(cfg.num_sites, 30u);
  EXPECT_EQ(cfg.min_compute_elements, 2u);
  EXPECT_EQ(cfg.max_compute_elements, 5u);
  EXPECT_EQ(cfg.num_datasets, 200u);
  EXPECT_DOUBLE_EQ(cfg.min_dataset_mb, 500.0);
  EXPECT_DOUBLE_EQ(cfg.max_dataset_mb, 2000.0);
  EXPECT_DOUBLE_EQ(cfg.link_bandwidth_mbps, 10.0);
  EXPECT_EQ(cfg.total_jobs, 6000u);
  EXPECT_EQ(cfg.jobs_per_user(), 50u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ValidateCatchesInconsistencies) {
  SimulationConfig cfg;
  cfg.num_users = 0;
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.total_jobs = 6001;  // not divisible by 120 users
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.min_compute_elements = 6;
  cfg.max_compute_elements = 5;
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.min_dataset_mb = 3000.0;  // > max
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.geometric_p = 1.0;
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.num_regions = 31;  // more regions than sites
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.storage_capacity_mb = 100.0;  // cannot hold the largest dataset
  EXPECT_THROW(cfg.validate(), util::SimError);

  cfg = SimulationConfig{};
  cfg.inputs_per_job = 500;  // more than datasets exist
  EXPECT_THROW(cfg.validate(), util::SimError);
}

TEST(Config, ApplyOverridesFromFile) {
  SimulationConfig cfg;
  auto file = util::ConfigFile::parse(
      "num_sites = 10\n"
      "num_regions = 2\n"
      "link_bandwidth_mbps = 100\n"
      "es = JobDataPresent\n"
      "ds = DataRandom\n"
      "ls = Sjf\n"
      "replica_selection = Random\n"
      "ds_neighbor_scope = Region\n"
      "share_policy = MaxMin\n"
      "seed = 77\n"
      "total_jobs = 600\n"
      "num_users = 60\n");
  cfg.apply(file);
  EXPECT_EQ(cfg.num_sites, 10u);
  EXPECT_EQ(cfg.num_regions, 2u);
  EXPECT_DOUBLE_EQ(cfg.link_bandwidth_mbps, 100.0);
  EXPECT_EQ(cfg.es, EsAlgorithm::JobDataPresent);
  EXPECT_EQ(cfg.ds, DsAlgorithm::DataRandom);
  EXPECT_EQ(cfg.ls, LsAlgorithm::Sjf);
  EXPECT_EQ(cfg.replica_selection, ReplicaSelection::Random);
  EXPECT_EQ(cfg.ds_neighbor_scope, NeighborScope::Region);
  EXPECT_EQ(cfg.share_policy, net::SharePolicy::MaxMin);
  EXPECT_EQ(cfg.seed, 77u);
  EXPECT_EQ(cfg.jobs_per_user(), 10u);
  EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, ApplyLeavesUnmentionedFieldsAlone) {
  SimulationConfig cfg;
  auto file = util::ConfigFile::parse("num_sites = 10\n");
  cfg.apply(file);
  EXPECT_EQ(cfg.num_users, 120u);
  EXPECT_EQ(cfg.num_datasets, 200u);
}

TEST(Config, ApplyRejectsBadValues) {
  SimulationConfig cfg;
  auto bad_es = util::ConfigFile::parse("es = NotAThing\n");
  EXPECT_THROW(cfg.apply(bad_es), util::SimError);
  auto bad_share = util::ConfigFile::parse("share_policy = FairQueueing\n");
  EXPECT_THROW(cfg.apply(bad_share), util::SimError);
  auto bad_num = util::ConfigFile::parse("num_sites = -3\n");
  EXPECT_THROW(cfg.apply(bad_num), util::SimError);
}

TEST(Config, ApplyRejectsUnknownKeys) {
  SimulationConfig cfg;
  auto typo = util::ConfigFile::parse("num_sites = 10\nshare_polcy = maxmin\n");
  try {
    cfg.apply(typo);
    FAIL() << "a misspelt key was accepted";
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("share_polcy"), std::string::npos) << e.what();
  }
}

TEST(Config, ShippedScenarioFilesLoad) {
  std::size_t loaded = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(CHICSIM_SOURCE_DIR "/examples/scenarios")) {
    if (entry.path().extension() != ".cfg") continue;
    SimulationConfig cfg;
    EXPECT_NO_THROW(cfg.apply(util::ConfigFile::load(entry.path().string()))) << entry.path();
    EXPECT_NO_THROW(cfg.validate()) << entry.path();
    ++loaded;
  }
  EXPECT_GE(loaded, 6u);
}

TEST(Config, DescribeMentionsEveryKnob) {
  SimulationConfig cfg;
  std::string text = cfg.describe();
  for (const char* needle :
       {"num_users", "num_sites", "num_datasets", "link_bandwidth_mbps", "total_jobs",
        "geometric_p", "storage_capacity_mb", "replication_threshold", "es", "ds", "ls",
        "replica_selection", "share_policy", "seed", "info_staleness_s",
        "ds_neighbor_scope"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Config, DescribeShowsPopularityHalfLife) {
  SimulationConfig cfg;
  cfg.apply(util::ConfigFile::parse("popularity_half_life_s = 3600\n"));
  EXPECT_NE(cfg.describe().find("popularity_half_life_s = 3600.0"), std::string::npos)
      << cfg.describe();
}

TEST(Config, StalenessDefaultIsDocumentedValue) {
  SimulationConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.info_staleness_s, 120.0);
}

}  // namespace
}  // namespace chicsim::core
