#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "core/grid.hpp"
#include "probes.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using chicsim::core::DsAlgorithm;
using chicsim::core::EsAlgorithm;
using chicsim::core::SimulationConfig;

/// Table 1 as published: 30 sites, 120 users, 6000 jobs, 10 MB/s links.
/// Decision-bound: the ES decision plus the info-service refresh dominate
/// handler time and only ~400 transfers complete per run.
SimulationConfig table1_data_present() {
  SimulationConfig c;
  c.es = EsAlgorithm::JobDataPresent;
  c.ds = DsAlgorithm::DataLeastLoaded;
  return c;
}

/// The grid scaled 16x the way bench_ext_scaling scales it (sites,
/// regions, users and datasets together), with two jobs per user. Every
/// job runs at home and fetches its input, so ~1900 fetches start at once
/// and share the root and regional links: network- and calendar-bound.
SimulationConfig scaled_fetch_churn() {
  constexpr std::size_t kScale = 16;
  SimulationConfig c;
  c.num_sites = 30 * kScale;
  c.num_regions = 6 * kScale;
  c.num_users = 120 * kScale;
  c.num_datasets = 200 * kScale;
  c.total_jobs = c.num_users * 2;
  c.es = EsAlgorithm::JobLocal;
  c.ds = DsAlgorithm::DataDoNothing;
  return c;
}

/// examples/scenarios/stress_storage.cfg plus bench_robustness's heaviest
/// fault point: aborts, evictions, catalog repairs, retries and failover.
SimulationConfig faults_storage_pressure() {
  SimulationConfig c;
  c.es = EsAlgorithm::JobRandom;
  c.ds = DsAlgorithm::DataRandom;
  c.storage_capacity_mb = 15000.0;
  c.replication_threshold = 5.0;
  c.fault_site_crash_rate_per_hour = 1.0;
  c.fault_site_downtime_s = 900.0;
  c.fault_transfer_fail_prob = 0.05;
  c.fault_catalog_loss_rate_per_hour = 2.0;
  return c;
}

struct Spec {
  const char* name;
  SimulationConfig (*base)();
  /// Runs per batch: enough that the per-seed variation of single runs
  /// averages out (a batch takes ~0.5-5 s), few enough that a measurement
  /// still repeats each run several times.
  std::size_t batch;
};

const Spec kSpecs[] = {
    {"table1_data_present", table1_data_present, 32},
    {"scaled_fetch_churn", scaled_fetch_churn, 24},
    {"faults_storage_pressure", faults_storage_pressure, 24},
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const Spec& s : kSpecs) out.emplace_back(s.name);
    return out;
  }();
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  for (const Spec& s : kSpecs) {
    if (name != s.name) continue;
    Workload w{name, {}};
    chicsim::util::Rng seeds = chicsim::util::Rng::substream(seed, name);
    for (std::size_t i = 0; i < s.batch; ++i) {
      SimulationConfig c = s.base();
      c.seed = seeds.next_u64();
      w.runs.push_back(c);
    }
    return w;
  }
  throw std::invalid_argument("unknown workload: " + name);
}

std::uint64_t digest(const chicsim::core::RunMetrics& m) {
  // The engine/network hot-path counters (events, pushes, reschedules...)
  // are left out on purpose: an optimisation may change them while the
  // simulated results stay bit-identical.
  const double reals[] = {
      m.makespan_s,           m.avg_response_time_s,     m.p95_response_time_s,
      m.response_summary.mean, m.response_summary.stddev, m.response_summary.min,
      m.response_summary.max, m.avg_placement_wait_s,    m.avg_queue_wait_s,
      m.avg_data_wait_s,      m.avg_compute_s,           m.avg_output_wait_s,
      m.avg_data_per_job_mb,  m.avg_fetch_per_job_mb,    m.avg_replication_per_job_mb,
      m.avg_output_per_job_mb, m.total_mb_hops,          m.idle_fraction,
      m.utilization,          m.avg_link_busy_fraction,  m.max_link_busy_fraction,
  };
  const std::uint64_t counts[] = {
      m.jobs_completed,     m.response_summary.count, m.remote_fetches,
      m.replications,       m.local_data_hits,        m.local_data_misses,
      m.cache_evictions,    m.jobs_run_at_origin,     m.site_crashes,
      m.site_recoveries,    m.jobs_resubmitted,       m.transfer_retries,
      m.output_retries,     m.transfers_aborted,      m.catalog_invalidations,
  };
  std::string text;
  char buf[64];
  for (double v : reals) {
    std::snprintf(buf, sizeof buf, "%a;", v);
    text += buf;
  }
  for (std::uint64_t v : counts) {
    std::snprintf(buf, sizeof buf, "%llu;", static_cast<unsigned long long>(v));
    text += buf;
  }
  return chicsim::util::fnv1a(text);
}

RunOutcome run_one(const SimulationConfig& config, LayerProbe* probe) {
  RunOutcome out;
  try {
    auto t0 = std::chrono::steady_clock::now();
    chicsim::core::Grid grid(config);
    out.setup_s = seconds_since(t0);
    if (probe != nullptr) probe->attach(grid);
    auto t1 = std::chrono::steady_clock::now();
    grid.run();
    out.run_s = seconds_since(t1);
    grid.audit();
    out.jobs = grid.metrics().jobs_completed;
    out.digest = digest(grid.metrics());
    if (out.jobs != config.total_jobs) {
      out.error = "completed " + std::to_string(out.jobs) + " of " +
                  std::to_string(config.total_jobs) + " jobs";
    }
    if (probe != nullptr) probe->collect(grid);
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace perfbench
