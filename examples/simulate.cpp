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
#include "core/site_metrics.hpp"
#include "core/spans.hpp"
#include "core/timeline.hpp"
#include "core/trace_export.hpp"
#include "sim/profiler.hpp"
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
  cli.add_option("trace-out", "", "write a Chrome trace (Perfetto-loadable JSON) here");
  cli.add_option("site-metrics-out", "",
                 "write per-site/per-link metrics here (.json or CSV by extension)");
  cli.add_option("spans-csv", "", "write the per-job span table here");
  cli.add_flag("profile", "print a wall-clock event-loop profile after the run");
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

    std::unique_ptr<core::TimelineRecorder> timeline;
    std::string timeline_path = cli.get("timeline-csv");
    std::string trace_path = cli.get("trace-out");
    if (!timeline_path.empty() || !trace_path.empty()) {
      timeline = std::make_unique<core::TimelineRecorder>(grid, cfg.ds_check_period_s);
    }

    std::string site_metrics_path = cli.get("site-metrics-out");
    std::string spans_path = cli.get("spans-csv");
    std::unique_ptr<core::SpanBuilder> spans;
    if (!trace_path.empty() || !spans_path.empty()) {
      spans = std::make_unique<core::SpanBuilder>();
      grid.add_observer(spans.get());
    }
    std::unique_ptr<core::SiteMetricsObserver> site_metrics;
    if (!site_metrics_path.empty()) {
      site_metrics =
          std::make_unique<core::SiteMetricsObserver>(grid.topology(), &grid.routing());
      grid.add_observer(site_metrics.get());
    }
    sim::EngineProfiler profiler;
    if (cli.get_flag("profile")) grid.engine().set_profiler(&profiler);

    grid.run();

    std::printf("run summary:\n%s", core::render_run_summary(grid.metrics()).c_str());
    if (cli.get_flag("sites")) {
      std::printf("\nper-site breakdown:\n%s", core::render_site_table(grid).c_str());
    }

    std::string metrics_path = cli.get("metrics-csv");
    if (!metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) throw util::SimError("cannot write " + metrics_path);
      core::write_metrics_csv(grid.metrics(), out);
      std::printf("\nmetrics written to %s\n", metrics_path.c_str());
    }
    if (timeline) timeline->sample_now();
    if (!timeline_path.empty()) {
      std::ofstream out(timeline_path);
      if (!out) throw util::SimError("cannot write " + timeline_path);
      timeline->write_csv(out);
      std::printf("timeline written to %s\n", timeline_path.c_str());
    }
    if (!trace_path.empty()) {
      std::ofstream out(trace_path);
      if (!out) throw util::SimError("cannot write " + trace_path);
      core::write_chrome_trace(out, *spans, grid.topology(), grid.site_count(),
                               &grid.routing(), timeline->samples());
      std::printf("chrome trace written to %s (load in ui.perfetto.dev)\n",
                  trace_path.c_str());
    }
    if (!site_metrics_path.empty()) {
      std::ofstream out(site_metrics_path);
      if (!out) throw util::SimError("cannot write " + site_metrics_path);
      if (site_metrics_path.ends_with(".json")) {
        site_metrics->registry().write_json(out);
      } else {
        site_metrics->registry().write_csv(out);
      }
      std::printf("site/link metrics written to %s\n", site_metrics_path.c_str());
    }
    if (!spans_path.empty()) {
      std::ofstream out(spans_path);
      if (!out) throw util::SimError("cannot write " + spans_path);
      spans->write_csv(out);
      std::printf("per-job spans written to %s\n", spans_path.c_str());
    }
    if (cli.get_flag("profile")) {
      std::printf("\nwall-clock event-loop profile:\n%s", profiler.render_table().c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
