#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "util/error.hpp"

namespace chicsim::workload {
namespace {

Workload small_workload() {
  WorkloadConfig cfg;
  cfg.num_users = 4;
  cfg.jobs_per_user = 5;
  cfg.num_sites = 2;
  cfg.inputs_per_job = 2;
  util::Rng rng(1);
  auto catalog = data::DatasetCatalog::generate_uniform(20, 500.0, 2000.0, rng);
  util::Rng wrng(2);
  return Workload(cfg, catalog, wrng);
}

TEST(Trace, RoundTripPreservesJobs) {
  Workload original = small_workload();
  std::ostringstream out;
  save_trace(original, out);
  std::istringstream in(out.str());
  Workload loaded = load_trace(in);

  ASSERT_EQ(loaded.num_users(), original.num_users());
  ASSERT_EQ(loaded.total_jobs(), original.total_jobs());
  for (site::UserId u = 0; u < original.num_users(); ++u) {
    const auto& a = original.jobs_of(u);
    const auto& b = loaded.jobs_of(u);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].user, b[i].user);
      EXPECT_EQ(a[i].origin_site, b[i].origin_site);
      EXPECT_EQ(a[i].inputs, b[i].inputs);
      EXPECT_EQ(a[i].runtime_s, b[i].runtime_s);
    }
  }
}

TEST(Trace, LoadedWorkloadHasNoPopularityModel) {
  Workload original = small_workload();
  EXPECT_NE(original.popularity(), nullptr);
  std::ostringstream out;
  save_trace(original, out);
  std::istringstream in(out.str());
  Workload loaded = load_trace(in);
  EXPECT_EQ(loaded.popularity(), nullptr);
}

TEST(Trace, HeaderIsStable) {
  Workload original = small_workload();
  std::ostringstream out;
  save_trace(original, out);
  EXPECT_EQ(out.str().substr(0, out.str().find('\n')),
            "job_id,user,origin_site,runtime_s,inputs");
}

TEST(Trace, MalformedRowsThrow) {
  std::istringstream bad1("job_id,user,origin_site,runtime_s,inputs\nx,0,0,1.0,1\n");
  EXPECT_THROW((void)load_trace(bad1), util::SimError);
  std::istringstream bad2("job_id,user,origin_site,runtime_s,inputs\n1,0,0,-5.0,1\n");
  EXPECT_THROW((void)load_trace(bad2), util::SimError);
  std::istringstream bad3("job_id,user,origin_site,runtime_s,inputs\n1,0,0,1.0,abc\n");
  EXPECT_THROW((void)load_trace(bad3), util::SimError);
  std::istringstream bad4("job_id,user,origin_site,runtime_s,inputs\n1,0,0,1.0,\n");
  EXPECT_THROW((void)load_trace(bad4), util::SimError);
}

TEST(Trace, NonFiniteRuntimesThrow) {
  for (const char* runtime : {"inf", "nan", "1e999"}) {
    std::istringstream in(std::string("job_id,user,origin_site,runtime_s,inputs\n1,0,0,") +
                          runtime + ",1\n");
    EXPECT_THROW((void)load_trace(in), util::SimError) << runtime;
  }
}

TEST(Trace, NonDenseUsersThrow) {
  std::istringstream in(
      "job_id,user,origin_site,runtime_s,inputs\n1,0,0,1.0,1\n2,2,0,1.0,1\n");
  EXPECT_THROW((void)load_trace(in), util::SimError);
}

TEST(Trace, EmptyTraceThrows) {
  std::istringstream in("job_id,user,origin_site,runtime_s,inputs\n");
  EXPECT_THROW((void)load_trace(in), util::SimError);
}

TEST(Trace, MissingColumnThrows) {
  std::istringstream in("job_id,user\n1,0\n");
  EXPECT_THROW((void)load_trace(in), util::SimError);
}

TEST(Trace, FileRoundTrip) {
  Workload original = small_workload();
  std::string path = testing::TempDir() + "/chicsim_trace_test.csv";
  save_trace_file(original, path);
  Workload loaded = load_trace_file(path);
  EXPECT_EQ(loaded.total_jobs(), original.total_jobs());
}

TEST(Trace, MissingFileThrows) {
  EXPECT_THROW((void)load_trace_file("/nonexistent/trace.csv"), util::SimError);
}

}  // namespace
}  // namespace chicsim::workload
