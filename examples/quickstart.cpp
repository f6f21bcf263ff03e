// Quickstart: run one Data Grid simulation with the paper's Table 1
// parameters and print the three metrics of §5.2.
//
//   ./quickstart                         # JobDataPresent + DataLeastLoaded
//   ./quickstart --es=JobLocal --ds=DataDoNothing
//   ./quickstart --bandwidth=100        # scenario 2
#include <cstdio>
#include <exception>

#include "core/experiment.hpp"
#include "core/grid.hpp"
#include "util/cli.hpp"
#include "util/string_util.hpp"

int main(int argc, char** argv) {
  using namespace chicsim;
  util::CliParser cli("quickstart", "single ChicSim++ Data Grid simulation (Table 1 setup)");
  cli.add_option("es", "JobDataPresent", "external scheduler algorithm");
  cli.add_option("ds", "DataLeastLoaded", "dataset scheduler (replication) algorithm");
  cli.add_option("bandwidth", "10", "nominal link bandwidth in MB/s");
  cli.add_option("seed", "101", "random seed");
  cli.add_option("jobs", "6000", "total number of jobs");
  cli.add_option("staleness", "120", "load-information staleness in seconds (0 = exact)");

  try {
    if (!cli.parse(argc, argv)) return 0;

    core::SimulationConfig config;
    config.es = core::from_string<core::EsAlgorithm>(cli.get("es"));
    config.ds = core::from_string<core::DsAlgorithm>(cli.get("ds"));
    config.link_bandwidth_mbps = cli.get_double("bandwidth");
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.total_jobs = static_cast<std::size_t>(cli.get_int("jobs"));
    config.info_staleness_s = cli.get_double("staleness");
    config.validate();

    std::printf("%s\n", config.describe().c_str());

    core::Grid grid(config);
    grid.run();
    const core::RunMetrics& m = grid.metrics();

    std::printf("jobs completed            : %llu\n",
                static_cast<unsigned long long>(m.jobs_completed));
    std::printf("makespan                  : %.0f s\n", m.makespan_s);
    std::printf("avg response time / job   : %.1f s\n", m.avg_response_time_s);
    std::printf("p95 response time         : %.1f s\n", m.p95_response_time_s);
    std::printf("avg data transferred / job: %.1f MB (fetch %.1f + replication %.1f)\n",
                m.avg_data_per_job_mb, m.avg_fetch_per_job_mb, m.avg_replication_per_job_mb);
    std::printf("processor idle time       : %.1f %%\n", 100.0 * m.idle_fraction);
    std::printf("remote fetches            : %llu\n",
                static_cast<unsigned long long>(m.remote_fetches));
    std::printf("replications              : %llu\n",
                static_cast<unsigned long long>(m.replications));
    std::printf("jobs run at origin site   : %llu\n",
                static_cast<unsigned long long>(m.jobs_run_at_origin));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
