// Simulation configuration.
//
// Defaults reproduce Table 1 of the paper exactly; everything the paper
// leaves unstated is a documented assumption (see DESIGN.md §3) and is
// overridable from config files and the bench/example CLIs.
#pragma once

#include <cstdint>
#include <string>

#include "core/algorithms.hpp"
#include "net/transfer_manager.hpp"
#include "util/config_file.hpp"
#include "util/units.hpp"

namespace chicsim::core {

struct SimulationConfig {
  // --- Table 1 parameters ---
  std::size_t num_users = 120;
  std::size_t num_sites = 30;
  std::size_t min_compute_elements = 2;  ///< "Compute Elements/Site 2-5"
  std::size_t max_compute_elements = 5;
  /// §3 assumes "all processors have the same performance" (spread 0, the
  /// default). A spread s > 0 draws a per-site speed factor uniformly from
  /// [1-s, 1+s]; job compute time scales inversely — the heterogeneity
  /// ablation of bench_ablation_heterogeneity.
  double compute_speed_spread = 0.0;
  std::size_t num_datasets = 200;
  util::Megabytes min_dataset_mb = 500.0;   ///< "500 MB to 2 GB"
  util::Megabytes max_dataset_mb = 2000.0;
  util::MbPerSec link_bandwidth_mbps = 10.0;  ///< scenario 1; 100 = scenario 2
  std::size_t total_jobs = 6000;

  // --- workload shape (§5.1) ---
  double geometric_p = 0.05;          ///< popularity skew (Figure 2)
  std::size_t inputs_per_job = 1;     ///< >1 enables the multi-input extension
  double compute_seconds_per_gb = 300.0;
  /// §3's job model generates output files; the paper's experiments ignore
  /// output costs as negligible (the default). Setting a fraction > 0 ships
  /// output of (fraction x total input size) back to the job's origin site,
  /// and the job only counts as complete when it lands — the output-cost
  /// extension swept by bench_ablation_output.
  double output_fraction = 0.0;
  /// Probability a job's input is drawn from the submitting user's own hot
  /// set rather than the community distribution (0 = paper's single
  /// community focus; see WorkloadConfig::user_focus).
  double user_focus = 0.0;

  // --- documented assumptions (DESIGN.md §3) ---
  util::Megabytes storage_capacity_mb = 50000.0;  ///< per site
  double replication_threshold = 10.0;  ///< requests before a dataset is "popular"
  util::SimTime ds_check_period_s = 300.0;  ///< DS evaluation period
  std::size_t num_regions = 6;  ///< regional routers in the hierarchy
  /// Network shape (Hierarchy = paper, every link at link_bandwidth_mbps;
  /// Star = flat ablation where num_regions is ignored and every site
  /// neighbours every other).
  TopologyKind topology = TopologyKind::Hierarchy;
  /// Age of the load information schedulers observe: 0 = exact and
  /// instantaneous; > 0 = site loads are re-published every this many
  /// seconds, as with the MDS/NWS information services the paper names as
  /// its information sources (GRIS cache lifetimes were minutes in that
  /// era). The 120 s default reproduces the paper's distributed-information
  /// setting; bench_ablation_staleness sweeps the knob.
  util::SimTime info_staleness_s = 120.0;

  // --- policies under study ---
  /// ES deployment (§3's user<->ES mapping discussion). The paper's
  /// experiments use one ES per site (Distributed); Centralized funnels
  /// every decision through one scheduler at central_decision_overhead_s
  /// per decision — the scaling study of bench_ext_central.
  EsMapping es_mapping = EsMapping::Distributed;
  double central_decision_overhead_s = 1.0;
  /// Job generation over time: ClosedLoop is the paper's strict sequence;
  /// OpenLoop submits with exponential interarrivals of mean
  /// arrival_interval_s per user, independent of completions (the
  /// offered-load sweep of bench_ext_openloop).
  SubmissionMode submission_mode = SubmissionMode::ClosedLoop;
  double arrival_interval_s = 600.0;
  EsAlgorithm es = EsAlgorithm::JobLocal;
  DsAlgorithm ds = DsAlgorithm::DataDoNothing;
  LsAlgorithm ls = LsAlgorithm::Fifo;
  ReplicaSelection replica_selection = ReplicaSelection::Closest;
  NeighborScope ds_neighbor_scope = NeighborScope::Grid;
  net::SharePolicy share_policy = net::SharePolicy::EqualShare;

  // --- fault injection (docs/robustness.md) ---
  // Stochastic faults are generated over the first 24 h of virtual time
  // (FaultPlan::kHorizonS). Recovery is not configurable: the retry
  // backoffs and no-progress budgets are constants of the FetchPlanner
  // and the JobLifecycle.
  /// Stochastic FaultPlan generation (seeded from `seed`, substream
  /// "faults"): expected site crashes per site per hour of virtual time
  /// (0 = fault-free; the paper's setting). Each crash is paired with a
  /// recovery after an exponentially distributed downtime.
  double fault_site_crash_rate_per_hour = 0.0;
  /// Mean downtime of a crashed site (exponential).
  util::SimTime fault_site_downtime_s = 3600.0;
  /// Per-fetch probability that a started remote fetch fails mid-flight
  /// and must be retried (substream "transfer_faults").
  double fault_transfer_fail_prob = 0.0;
  /// Expected silent replica-catalog corruptions per hour grid-wide: a
  /// physical copy vanishes while the catalog keeps advertising it, until
  /// source selection discovers and reconciles the lie.
  double fault_catalog_loss_rate_per_hour = 0.0;

  std::uint64_t seed = 1;

  [[nodiscard]] std::size_t jobs_per_user() const { return total_jobs / num_users; }

  /// Throws util::SimError when inconsistent (zero sites, users not evenly
  /// divisible into jobs, inverted ranges, non-finite values, fault rates
  /// that would generate more than a million actions, ...).
  void validate() const;

  /// Overlay values from a parsed config file (keys match the field names,
  /// e.g. `num_sites = 30`, `es = JobDataPresent`). Unknown keys and
  /// unparsable values throw util::SimError naming the key.
  void apply(const util::ConfigFile& file);

  /// Every key as a `key = value` line, doubles in shortest round-trip
  /// form: a config file that apply() turns back into this exact config.
  [[nodiscard]] std::string describe() const;

  /// Calls f(name, member pointer) for every config-file key, in field
  /// order. This table is the one place a key's name is spelled.
  template <typename F>
  static void for_each_key(F&& f);
};

template <typename F>
void SimulationConfig::for_each_key(F&& f) {
  using C = SimulationConfig;
  f("num_users", &C::num_users);
  f("num_sites", &C::num_sites);
  f("min_compute_elements", &C::min_compute_elements);
  f("max_compute_elements", &C::max_compute_elements);
  f("compute_speed_spread", &C::compute_speed_spread);
  f("num_datasets", &C::num_datasets);
  f("min_dataset_mb", &C::min_dataset_mb);
  f("max_dataset_mb", &C::max_dataset_mb);
  f("link_bandwidth_mbps", &C::link_bandwidth_mbps);
  f("total_jobs", &C::total_jobs);
  f("geometric_p", &C::geometric_p);
  f("inputs_per_job", &C::inputs_per_job);
  f("compute_seconds_per_gb", &C::compute_seconds_per_gb);
  f("output_fraction", &C::output_fraction);
  f("user_focus", &C::user_focus);
  f("storage_capacity_mb", &C::storage_capacity_mb);
  f("replication_threshold", &C::replication_threshold);
  f("ds_check_period_s", &C::ds_check_period_s);
  f("num_regions", &C::num_regions);
  f("topology", &C::topology);
  f("info_staleness_s", &C::info_staleness_s);
  f("es_mapping", &C::es_mapping);
  f("central_decision_overhead_s", &C::central_decision_overhead_s);
  f("submission_mode", &C::submission_mode);
  f("arrival_interval_s", &C::arrival_interval_s);
  f("es", &C::es);
  f("ds", &C::ds);
  f("ls", &C::ls);
  f("replica_selection", &C::replica_selection);
  f("ds_neighbor_scope", &C::ds_neighbor_scope);
  f("share_policy", &C::share_policy);
  f("fault_site_crash_rate_per_hour", &C::fault_site_crash_rate_per_hour);
  f("fault_site_downtime_s", &C::fault_site_downtime_s);
  f("fault_transfer_fail_prob", &C::fault_transfer_fail_prob);
  f("fault_catalog_loss_rate_per_hour", &C::fault_catalog_loss_rate_per_hour);
  f("seed", &C::seed);
}

}  // namespace chicsim::core
