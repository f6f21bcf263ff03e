// Robustness sweep — fault rate x the paper's 4x3 scheduling matrix.
//
// docs/robustness.md: the fault-injection framework (site crashes with
// exponential downtimes, mid-flight transfer failures, silent replica-
// catalog corruption) is swept against every (ES, DS) pair of the paper.
// The questions this bench answers: does every cell still complete every
// job under faults (recovery correctness), how much response time does a
// given fault intensity cost each policy pair (resilience ranking), and
// which policies degrade gracefully? Data-aware placement plus replication
// should degrade the least — replicas double as failover sources.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <vector>

#include "common.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

/// Sum of a per-seed counter over a cell.
std::uint64_t summed(const chicsim::core::CellResult& cell,
                     std::uint64_t chicsim::core::RunMetrics::*field) {
  std::uint64_t total = 0;
  for (const auto& m : cell.per_seed) total += m.*field;
  return total;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using namespace chicsim;
  using core::CellResult;
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_robustness",
                      "sweep fault intensity against the 4x3 scheduling matrix");
  bench::add_standard_options(cli);
  cli.add_option("csv", "", "write raw sweep metrics to this CSV file");
  cli.add_option("rates", "0,0.25,1", "site crash rates per site-hour to sweep (0 first)");
  cli.add_option("downtime", "900", "mean site downtime in seconds");
  cli.add_option("transfer-fail", "0.05",
                 "per-fetch mid-flight failure probability at nonzero crash rates");
  cli.add_option("catalog-loss", "2",
                 "silent catalog corruptions per hour at nonzero crash rates");
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  const auto& es_algos = core::paper_es_algorithms();
  const auto& ds_algos = core::paper_ds_algorithms();

  std::vector<double> rates = bench::doubles_from_cli(cli, "rates");

  std::printf("=== Robustness: fault rate x scheduling matrix (%zu jobs, %zu seeds) ===\n",
              base.total_jobs, seeds.size());
  std::printf("downtime %.0f s, transfer-fail %.2f, catalog-loss %.1f/h at rate > 0\n\n",
              cli.get_double("downtime"), cli.get_double("transfer-fail"),
              cli.get_double("catalog-loss"));

  std::vector<std::pair<double, std::vector<CellResult>>> sweeps;
  for (double rate : rates) {
    core::SimulationConfig cfg = base;
    cfg.fault_site_crash_rate_per_hour = rate;
    cfg.fault_site_downtime_s = cli.get_double("downtime");
    cfg.fault_transfer_fail_prob = rate > 0.0 ? cli.get_double("transfer-fail") : 0.0;
    cfg.fault_catalog_loss_rate_per_hour =
        rate > 0.0 ? cli.get_double("catalog-loss") : 0.0;
    core::ExperimentRunner runner(cfg, seeds);
    sweeps.emplace_back(rate, bench::run_matrix_from_cli(cli, runner, es_algos, ds_algos));
    std::printf("%s\n", bench::render_matrix(
                            sweeps.back().second, es_algos, ds_algos,
                            [](const CellResult& c) { return c.avg_response_time_s; },
                            "avg response time (s), crash rate " +
                                util::format_fixed(rate, 2) + " /site-hour",
                            1)
                            .c_str());
  }

  // Resilience ranking: response-time inflation from the fault-free row to
  // the heaviest fault rate, best (smallest) first.
  const std::vector<CellResult>& healthy = sweeps.front().second;
  const std::vector<CellResult>& worst = sweeps.back().second;
  struct Ranked {
    EsAlgorithm es;
    DsAlgorithm ds;
    double inflation;
    std::uint64_t resubmitted;
    std::uint64_t retries;
  };
  std::vector<Ranked> ranking;
  for (auto es : es_algos) {
    for (auto ds : ds_algos) {
      const CellResult& h = bench::cell_of(healthy, es, ds);
      const CellResult& w = bench::cell_of(worst, es, ds);
      ranking.push_back({es, ds, w.avg_response_time_s / h.avg_response_time_s,
                         summed(w, &core::RunMetrics::jobs_resubmitted),
                         summed(w, &core::RunMetrics::transfer_retries)});
    }
  }
  std::sort(ranking.begin(), ranking.end(),
            [](const Ranked& a, const Ranked& b) { return a.inflation < b.inflation; });
  util::TablePrinter table(
      {"rank", "ES", "DS", "response inflation", "resubmitted", "transfer retries"});
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    table.add_row({std::to_string(i + 1), core::to_string(ranking[i].es),
                   core::to_string(ranking[i].ds),
                   util::format_fixed(ranking[i].inflation, 3) + "x",
                   std::to_string(ranking[i].resubmitted),
                   std::to_string(ranking[i].retries)});
  }
  std::printf("resilience ranking at crash rate %.2f /site-hour (1.000x = unaffected)\n%s\n",
              sweeps.back().first, table.render().c_str());

  if (!cli.get("csv").empty()) {
    std::ofstream out(cli.get("csv"));
    if (!out) throw util::SimError("cannot write --csv file: " + cli.get("csv"));
    util::CsvWriter csv(out);
    csv.header({"crash_rate_per_site_hour", "es", "ds", "seeds", "avg_response_time_s",
                "makespan_s", "site_crashes", "jobs_resubmitted", "transfer_retries",
                "output_retries", "transfers_aborted", "catalog_invalidations"});
    for (const auto& [rate, cells] : sweeps) {
      for (const CellResult& cell : cells) {
        csv.row({util::format_fixed(rate, 4), core::to_string(cell.es),
                 core::to_string(cell.ds), std::to_string(cell.seeds_run),
                 util::format_fixed(cell.avg_response_time_s, 3),
                 util::format_fixed(cell.makespan_s, 3),
                 std::to_string(summed(cell, &core::RunMetrics::site_crashes)),
                 std::to_string(summed(cell, &core::RunMetrics::jobs_resubmitted)),
                 std::to_string(summed(cell, &core::RunMetrics::transfer_retries)),
                 std::to_string(summed(cell, &core::RunMetrics::output_retries)),
                 std::to_string(summed(cell, &core::RunMetrics::transfers_aborted)),
                 std::to_string(summed(cell, &core::RunMetrics::catalog_invalidations))});
      }
    }
    std::printf("raw sweep metrics written to %s\n\n", cli.get("csv").c_str());
  }

  std::printf("=== shape checks ===\n");
  bench::ShapeChecks checks;

  bool zero_rate_clean = true;
  bool all_jobs_always_complete = true;
  std::uint64_t total_crashes_at_worst = 0;
  for (const auto& [rate, cells] : sweeps) {
    for (const CellResult& cell : cells) {
      for (const auto& m : cell.per_seed) {
        if (m.jobs_completed != base.total_jobs) all_jobs_always_complete = false;
        if (rate == 0.0 &&
            m.site_crashes + m.jobs_resubmitted + m.transfer_retries +
                    m.transfers_aborted + m.catalog_invalidations >
                0) {
          zero_rate_clean = false;
        }
      }
      if (rate == rates.back()) {
        total_crashes_at_worst += summed(cell, &core::RunMetrics::site_crashes);
      }
    }
  }
  checks.check(zero_rate_clean,
               "zero fault rate records zero fault/recovery activity (bit-clean baseline)");
  checks.check(all_jobs_always_complete,
               "every job completes in every cell at every fault rate (recovery is total)");
  checks.check(rates.back() == 0.0 || total_crashes_at_worst > 0,
               "the heaviest sweep point actually injected site crashes");
  double mean_inflation = 0.0;
  for (const Ranked& r : ranking) mean_inflation += r.inflation;
  mean_inflation /= static_cast<double>(ranking.size());
  checks.check(mean_inflation >= 1.0,
               "faults do not make the grid faster on average (sanity)");
  return checks.finish();
}
