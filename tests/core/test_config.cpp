#include "core/config.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "core/grid.hpp"
#include "util/config_file.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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
  auto not_num = util::ConfigFile::parse("num_sites = hello\n");
  EXPECT_THROW(cfg.apply(not_num), util::SimError);
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

TEST(Config, StalenessDefaultIsDocumentedValue) {
  SimulationConfig cfg;
  EXPECT_DOUBLE_EQ(cfg.info_staleness_s, 120.0);
}

/// Expects `cfg.validate()` (or `apply(text)` when given) to throw a
/// SimError whose message names `key`.
void expect_rejected_naming(const SimulationConfig& cfg, const std::string& key,
                            const std::string& text = "") {
  try {
    if (text.empty()) {
      cfg.validate();
    } else {
      SimulationConfig(cfg).apply(util::ConfigFile::parse(text));
    }
    ADD_FAILURE() << key << " accepted" << (text.empty() ? "" : ": " + text);
  } catch (const util::SimError& e) {
    EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
  }
}

TEST(Config, RejectsInfiniteFaultHorizon) {
  // An infinite horizon made FaultPlan generation loop until out of memory.
  SimulationConfig cfg;
  cfg.fault_site_crash_rate_per_hour = 1.0;
  expect_rejected_naming(cfg, "fault_horizon_s", "fault_horizon_s = inf\n");
  cfg.fault_horizon_s = std::numeric_limits<double>::infinity();
  expect_rejected_naming(cfg, "fault_horizon_s");
}

TEST(Config, RejectsNanOrNegativeStaleness) {
  // A NaN period froze the information view at its first snapshot.
  SimulationConfig cfg;
  expect_rejected_naming(cfg, "info_staleness_s", "info_staleness_s = nan\n");
  cfg.info_staleness_s = std::numeric_limits<double>::quiet_NaN();
  expect_rejected_naming(cfg, "info_staleness_s");
  cfg.info_staleness_s = -1.0;
  expect_rejected_naming(cfg, "info_staleness_s");
}

TEST(Config, SeedUsesFullUint64Range) {
  SimulationConfig cfg;
  cfg.apply(util::ConfigFile::parse("seed = 13852939945820309002\n"));
  EXPECT_EQ(cfg.seed, 13852939945820309002ULL);
  cfg.apply(util::ConfigFile::parse("seed = 18446744073709551615\n"));
  EXPECT_EQ(cfg.seed, std::numeric_limits<std::uint64_t>::max());
  expect_rejected_naming(cfg, "seed", "seed = 18446744073709551616\n");
}

/// Converts to any field type; counts aggregate members by brace-init.
struct AnyField {
  template <typename T>
  operator T() const;
};

template <typename T, typename... Fields>
constexpr std::size_t field_count() {
  if constexpr (requires { T{Fields{}..., AnyField{}}; }) {
    return field_count<T, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

TEST(Config, KeyTableCoversEveryField) {
  // One row per field, and no two rows share a field.
  SimulationConfig cfg;
  std::vector<std::ptrdiff_t> offsets;
  SimulationConfig::for_each_key([&](const char*, auto member) {
    offsets.push_back(reinterpret_cast<const char*>(&(cfg.*member)) -
                      reinterpret_cast<const char*>(&cfg));
  });
  EXPECT_EQ(offsets.size(), field_count<SimulationConfig>());
  std::sort(offsets.begin(), offsets.end());
  EXPECT_EQ(std::adjacent_find(offsets.begin(), offsets.end()), offsets.end());
}

/// Every field bit for bit (doubles by representation, so -0 and 0 differ).
void expect_same_fields(const SimulationConfig& a, const SimulationConfig& b,
                        const std::string& where) {
  SimulationConfig::for_each_key([&](const char* name, auto member) {
    const auto& x = a.*member;
    const auto& y = b.*member;
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(x)>>) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(x), std::bit_cast<std::uint64_t>(y))
          << name << " " << x << " vs " << y << " in " << where;
    } else {
      EXPECT_TRUE(x == y) << name << " in " << where;
    }
  });
}

SimulationConfig round_trip(const SimulationConfig& cfg) {
  SimulationConfig back;
  back.apply(util::ConfigFile::parse(cfg.describe()));
  return back;
}

TEST(Config, DescribeRoundTripsRandomConfigsBitForBit) {
  const double awkward[] = {0.0,
                            -0.0,
                            0.1,
                            1.0 / 3.0,
                            1e-7,
                            1e300,
                            -2.5,
                            std::numeric_limits<double>::denorm_min(),
                            std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max()};
  util::Rng rng(2024);
  for (std::size_t i = 0; i < 2000; ++i) {
    SimulationConfig cfg;
    SimulationConfig::for_each_key([&](const char*, auto member) {
      auto& field = cfg.*member;
      using T = std::remove_cvref_t<decltype(field)>;
      if constexpr (std::is_enum_v<T>) {
        // Cycling through the table covers every value of every enum.
        auto rows = names<T>();
        field = rows[i % rows.size()].value;
      } else if constexpr (std::is_floating_point_v<T>) {
        switch (rng.index(3)) {
          case 0: field = awkward[rng.index(std::size(awkward))]; break;
          case 1: field = rng.uniform(0.0, 1e4); break;
          default:
            do {
              field = std::bit_cast<double>(rng.next_u64());
            } while (!std::isfinite(field));
        }
      } else {
        field = rng.chance(0.5) ? static_cast<T>(rng.next_u64()) : rng.index(1000);
      }
    });
    expect_same_fields(cfg, round_trip(cfg), "random config " + std::to_string(i));
  }
}

TEST(Config, ShippedScenariosRoundTrip) {
  for (const auto& entry :
       std::filesystem::directory_iterator(CHICSIM_SOURCE_DIR "/examples/scenarios")) {
    if (entry.path().extension() != ".cfg") continue;
    SimulationConfig cfg;
    cfg.apply(util::ConfigFile::load(entry.path().string()));
    expect_same_fields(cfg, round_trip(cfg), entry.path().string());
  }
}

TEST(Config, RoundTrippedConfigRunsIdentically) {
  SimulationConfig cfg;
  cfg.apply(util::ConfigFile::load(CHICSIM_SOURCE_DIR "/examples/scenarios/heterogeneous.cfg"));
  cfg.total_jobs = 240;
  cfg.fault_transfer_fail_prob = 1.0 / 30.0;
  cfg.ds_check_period_s = 3600.0 / 7.0;
  SimulationConfig back = round_trip(cfg);
  Grid a(cfg);
  a.run();
  Grid b(back);
  b.run();
  EXPECT_EQ(a.metrics().jobs_completed, 240u);
  EXPECT_TRUE(a.metrics() == b.metrics());
}

}  // namespace
}  // namespace chicsim::core
