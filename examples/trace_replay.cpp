// Workload traces: export a synthetic workload to CSV, then replay it.
//
// The paper's future work plans to use real access patterns (Fermilab
// traces). This example shows the complete path a real trace would take:
// generate (or obtain) a job stream, save it, reload it, and run the exact
// same Data Grid Execution on it — results are identical to the in-memory
// workload because the simulation is fully deterministic given (workload,
// config, seed).
#include <cstdio>
#include <exception>

#include "core/grid.hpp"
#include "util/cli.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace chicsim;
  util::CliParser cli("trace_replay", "save a workload trace to CSV and replay it");
  cli.add_option("jobs", "1200", "workload size");
  cli.add_option("seed", "9", "workload seed");
  cli.add_option("trace", "/tmp/chicsim_trace.csv", "trace file path");

  try {
    if (!cli.parse(argc, argv)) return 0;

    core::SimulationConfig cfg;
    cfg.total_jobs = static_cast<std::size_t>(cli.get_int("jobs"));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    cfg.es = core::EsAlgorithm::JobDataPresent;
    cfg.ds = core::DsAlgorithm::DataRandom;
    cfg.validate();
    std::string path = cli.get("trace");

    // Build the workload exactly as Grid would, save it, and run the
    // generated version.
    util::Rng drng = util::Rng::substream(cfg.seed, "datasets");
    auto catalog = data::DatasetCatalog::generate_uniform(
        cfg.num_datasets, cfg.min_dataset_mb, cfg.max_dataset_mb, drng);
    workload::WorkloadConfig wcfg;
    wcfg.num_users = cfg.num_users;
    wcfg.jobs_per_user = cfg.jobs_per_user();
    wcfg.num_sites = cfg.num_sites;
    wcfg.geometric_p = cfg.geometric_p;
    util::Rng wrng = util::Rng::substream(cfg.seed, "workload");
    workload::Workload workload(wcfg, catalog, wrng);
    workload::save_trace_file(workload, path);
    std::printf("saved %zu jobs to %s\n", workload.total_jobs(), path.c_str());

    core::Grid direct(cfg);
    direct.run();

    // Reload from disk and replay.
    workload::Workload replayed_workload = workload::load_trace_file(path);
    core::Grid replayed(cfg, std::move(replayed_workload));
    replayed.run();

    std::printf("direct run  : avg response %.2f s, %.1f MB/job\n",
                direct.metrics().avg_response_time_s, direct.metrics().avg_data_per_job_mb);
    std::printf("trace replay: avg response %.2f s, %.1f MB/job\n",
                replayed.metrics().avg_response_time_s,
                replayed.metrics().avg_data_per_job_mb);

    if (direct.metrics() == replayed.metrics()) {
      std::printf("replay matches the direct run — the trace captures the workload fully.\n");
      return 0;
    }
    std::printf("replay diverged from the direct run (unexpected)\n");
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
