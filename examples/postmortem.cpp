// Post-mortem analysis of a run via the structured event trace.
//
// Runs one scenario with an EventLog attached, then answers the questions
// an operator asks after a slow campaign: which datasets generated the
// traffic, which sites served it, how long fetches took, and what exactly
// happened to the slowest job — its full event trace, printed.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>

#include "core/events.hpp"
#include "core/grid.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace chicsim;
  util::CliParser cli("postmortem", "event-trace analysis of one simulation run");
  cli.add_option("jobs", "2400", "workload size");
  cli.add_option("seed", "17", "workload seed");
  cli.add_option("es", "JobLeastLoaded", "external scheduler algorithm");
  cli.add_option("ds", "DataDoNothing", "dataset scheduler algorithm");
  cli.add_option("trace-csv", "", "optionally dump the whole event trace as CSV");

  try {
    if (!cli.parse(argc, argv)) return 0;

    core::SimulationConfig cfg;
    cfg.total_jobs = static_cast<std::size_t>(cli.get_int("jobs"));
    cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    cfg.es = core::from_string<core::EsAlgorithm>(cli.get("es"));
    cfg.ds = core::from_string<core::DsAlgorithm>(cli.get("ds"));
    cfg.validate();

    core::Grid grid(cfg);
    core::EventLog log;
    grid.add_observer(&log);
    grid.run();

    std::printf("%s + %s, %zu jobs, %zu trace events\n\n", core::to_string(cfg.es),
                core::to_string(cfg.ds), cfg.total_jobs, log.size());

    // --- hottest datasets by fetch megabytes ---
    std::map<data::DatasetId, double> fetch_mb;
    std::map<data::SiteIndex, double> served_mb;
    util::OnlineStats fetch_latency;
    std::map<std::pair<data::DatasetId, data::SiteIndex>, double> fetch_started_at;
    for (const core::GridEvent& e : log.events()) {
      if (e.type == core::GridEventType::FetchStarted) {
        fetch_mb[e.dataset] += e.mb;
        served_mb[e.site_a] += e.mb;
        fetch_started_at[{e.dataset, e.site_b}] = e.time;
      } else if (e.type == core::GridEventType::FetchCompleted) {
        auto it = fetch_started_at.find({e.dataset, e.site_b});
        if (it != fetch_started_at.end()) {
          fetch_latency.add(e.time - it->second);
          fetch_started_at.erase(it);
        }
      }
    }

    std::vector<std::pair<double, data::DatasetId>> hot;
    for (const auto& [d, mb] : fetch_mb) hot.emplace_back(mb, d);
    std::sort(hot.rbegin(), hot.rend());
    util::TablePrinter hot_table({"dataset", "fetched (GB)", "size (MB)", "replicas at end"});
    for (std::size_t i = 0; i < std::min<std::size_t>(10, hot.size()); ++i) {
      auto [mb, d] = hot[i];
      hot_table.add_row({std::to_string(d), util::format_fixed(mb / 1000.0, 1),
                         util::format_fixed(grid.datasets().size_mb(d), 0),
                         std::to_string(grid.replicas().replica_count(d))});
    }
    std::printf("hottest datasets by fetch traffic:\n%s\n", hot_table.render().c_str());

    std::vector<std::pair<double, data::SiteIndex>> servers;
    for (const auto& [s, mb] : served_mb) servers.emplace_back(mb, s);
    std::sort(servers.rbegin(), servers.rend());
    util::TablePrinter srv_table({"site", "served (GB)"});
    for (std::size_t i = 0; i < std::min<std::size_t>(5, servers.size()); ++i) {
      srv_table.add_row({std::to_string(servers[i].second),
                         util::format_fixed(servers[i].first / 1000.0, 1)});
    }
    std::printf("busiest replica servers:\n%s\n", srv_table.render().c_str());

    if (fetch_latency.count() > 0) {
      std::printf("fetch latency: mean %.1f s, min %.1f s, max %.1f s over %zu fetches\n\n",
                  fetch_latency.mean(), fetch_latency.min(), fetch_latency.max(),
                  fetch_latency.count());
    }

    // --- the slowest job, in full ---
    site::JobId slowest = 1;
    for (site::JobId id = 2; id <= cfg.total_jobs; ++id) {
      if (grid.job(id).response_time() > grid.job(slowest).response_time()) slowest = id;
    }
    const site::Job& job = grid.job(slowest);
    std::printf("slowest job: %s (response %.1f s)\n", job.describe().c_str(),
                job.response_time());
    for (const core::GridEvent& e : log.job_trace(slowest)) {
      std::printf("  t=%9.1f  %-18s", e.time, core::to_string(e.type));
      if (e.dataset != data::kNoDataset) std::printf("  dataset %u", e.dataset);
      if (e.site_a != data::kNoSite) std::printf("  site %u", e.site_a);
      if (e.site_b != data::kNoSite) std::printf(" -> %u", e.site_b);
      if (e.mb > 0.0) std::printf("  (%.0f MB)", e.mb);
      std::printf("\n");
    }

    std::string csv_path = cli.get("trace-csv");
    if (!csv_path.empty()) {
      std::ofstream out(csv_path);
      log.write_csv(out);
      std::printf("\nfull trace written to %s\n", csv_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
