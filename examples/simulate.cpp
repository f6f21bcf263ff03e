// chicsim's general-purpose driver: run any scenario described by a config
// file (plus CLI overrides), print the run summary and per-site breakdown,
// and optionally export metrics/timeline CSVs.
//
//   ./simulate --config ../examples/scenarios/table1.cfg
//   ./simulate --config ../examples/scenarios/fast_network.cfg --set seed=7
//   ./simulate --config ... --metrics-csv out.csv --timeline-csv tl.csv
//
// Config keys mirror the SimulationConfig field names — see
// examples/scenarios/table1.cfg for a fully commented scenario. The config
// block printed first lists every key and is itself a valid config file.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>

#include "core/grid.hpp"
#include "core/report.hpp"
#include "util/cli.hpp"
#include "util/config_file.hpp"
#include "util/error.hpp"

int main(int argc, char** argv) {
  using namespace chicsim;
  util::CliParser cli("simulate", "run a simulation described by a config file");
  cli.add_option("config", "", "path to a scenario config file (empty = Table 1 defaults)");
  cli.add_option("set", "", "inline overrides, e.g. --set 'es=JobLocal;seed=7'");
  cli.add_option("metrics-csv", "", "write run metrics CSV here");
  cli.add_option("timeline-csv", "", "write a timeline CSV here (samples every DS period)");
  core::add_observed_run_options(cli);
  cli.add_flag("sites", "print the per-site breakdown table");

  try {
    if (!cli.parse(argc, argv)) return 0;

    core::SimulationConfig cfg;
    std::string config_path = cli.get("config");
    if (!config_path.empty()) {
      cfg.apply(util::ConfigFile::load(config_path));
    }
    std::string overrides = cli.get("set");
    std::replace(overrides.begin(), overrides.end(), ';', '\n');
    cfg.apply(util::ConfigFile::parse(overrides));
    cfg.validate();

    std::printf("%s\n", cfg.describe().c_str());
    core::Grid grid(cfg);
    // The timeline samples every DS period, and once more after the run.
    core::run_observed(cli, grid, cfg.ds_check_period_s, /*final_sample=*/true,
                       cli.get("timeline-csv"), [&] {
      std::printf("run summary:\n%s", core::render_run_summary(grid.metrics()).c_str());
      if (cli.get_flag("sites")) {
        std::printf("\nper-site breakdown:\n%s", core::render_site_table(grid).c_str());
      }
      std::string metrics_path = cli.get("metrics-csv");
      if (!metrics_path.empty()) {
        std::ofstream out(metrics_path);
        if (!out) throw util::SimError("cannot write --metrics-csv file: " + metrics_path);
        core::write_metrics_csv(grid.metrics(), out);
        std::printf("\nmetrics written to %s\n", metrics_path.c_str());
      }
    });
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
