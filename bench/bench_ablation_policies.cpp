// Ablation — the modelling policy knobs the paper leaves implicit:
//   * replica selection for fetches (closest / random / least-loaded source);
//   * the DS neighbour scope (grid-wide vs same-region "known sites");
//   * the Local Scheduler discipline (Fifo / FifoSkip / Sjf).
//
// Each knob is varied with everything else at the paper defaults, for a
// data-heavy configuration where the knob can matter. The headline check:
// the paper's qualitative winner (JobDataPresent + replication beats
// JobLocal + no replication) is robust to every knob setting.
#include <cstdio>

#include "common.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"

namespace {

using namespace chicsim;

double run_pair(const core::SimulationConfig& cfg, const std::vector<std::uint64_t>& seeds,
                unsigned threads, core::EsAlgorithm es, core::DsAlgorithm ds) {
  core::ExperimentRunner runner(cfg, seeds);
  return runner.run_cell(es, ds, threads).avg_response_time_s;
}

}  // namespace

int bench_main(int argc, char** argv) {
  using core::DsAlgorithm;
  using core::EsAlgorithm;
  util::CliParser cli("bench_ablation_policies",
                      "sweep replica selection, DS neighbour scope and LS discipline");
  bench::add_standard_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  core::SimulationConfig base = bench::config_from_cli(cli);
  auto seeds = bench::seeds_from_cli(cli);
  unsigned threads = bench::threads_from_cli(cli);
  bench::ShapeChecks checks;

  std::printf("=== Ablation: replica selection (ES=JobLocal, DS=DataDoNothing) ===\n\n");
  {
    util::TablePrinter table({"replica selection", "JobLocal+None (s)",
                              "JobDataPresent+Repl (s)"});
    double winner_worst = 0.0;
    double baseline_best = 1e18;
    for (core::ReplicaSelection rs :
         {core::ReplicaSelection::Closest, core::ReplicaSelection::Random,
          core::ReplicaSelection::LeastLoadedSource}) {
      core::SimulationConfig cfg = base;
      cfg.replica_selection = rs;
      double local =
          run_pair(cfg, seeds, threads, EsAlgorithm::JobLocal, DsAlgorithm::DataDoNothing);
      double dp =
          run_pair(cfg, seeds, threads, EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded);
      table.add_row({core::to_string(rs), util::format_fixed(local, 1),
                     util::format_fixed(dp, 1)});
      winner_worst = std::max(winner_worst, dp);
      baseline_best = std::min(baseline_best, local);
    }
    std::fputs(table.render().c_str(), stdout);
    checks.check(winner_worst < baseline_best,
                 "the paper's winner is robust to the replica-selection policy");
  }

  std::printf("\n=== Ablation: DS neighbour scope (ES=JobDataPresent, DS=DataLeastLoaded) "
              "===\n\n");
  {
    util::TablePrinter table({"scope", "response (s)", "repl MB/job"});
    double grid_resp = 0.0;
    double region_resp = 0.0;
    for (core::NeighborScope scope : {core::NeighborScope::Grid, core::NeighborScope::Region}) {
      core::SimulationConfig cfg = base;
      cfg.ds_neighbor_scope = scope;
      core::ExperimentRunner runner(cfg, seeds);
      auto cell =
          runner.run_cell(EsAlgorithm::JobDataPresent, DsAlgorithm::DataLeastLoaded, threads);
      table.add_row({core::to_string(scope),
                     util::format_fixed(cell.avg_response_time_s, 1),
                     util::format_fixed(cell.avg_replication_per_job_mb, 1)});
      (scope == core::NeighborScope::Grid ? grid_resp : region_resp) =
          cell.avg_response_time_s;
    }
    std::fputs(table.render().c_str(), stdout);
    checks.check(grid_resp <= region_resp * 1.1,
                 "grid-wide known-sites lists replicate at least as effectively as "
                 "region-restricted ones");
  }

  std::printf("\n=== Ablation: local scheduler (ES=JobLeastLoaded, DS=DataDoNothing) ===\n\n");
  {
    util::TablePrinter table({"LS discipline", "response (s)", "idle (%)"});
    double fifo_resp = 0.0;
    double skip_resp = 0.0;
    for (core::LsAlgorithm ls :
         {core::LsAlgorithm::Fifo, core::LsAlgorithm::FifoSkip, core::LsAlgorithm::Sjf}) {
      core::SimulationConfig cfg = base;
      cfg.ls = ls;
      core::ExperimentRunner runner(cfg, seeds);
      auto cell = runner.run_cell(EsAlgorithm::JobLeastLoaded, DsAlgorithm::DataDoNothing, threads);
      table.add_row({core::to_string(ls), util::format_fixed(cell.avg_response_time_s, 1),
                     util::format_fixed(100.0 * cell.idle_fraction, 1)});
      if (ls == core::LsAlgorithm::Fifo) fifo_resp = cell.avg_response_time_s;
      if (ls == core::LsAlgorithm::FifoSkip) skip_resp = cell.avg_response_time_s;
    }
    std::fputs(table.render().c_str(), stdout);
    checks.check(skip_resp <= fifo_resp,
                 "bypassing data-blocked heads (FifoSkip) does not hurt response time");
  }

  std::printf("\n");
  return checks.finish();
}
