#include "probes.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/factory.hpp"
#include "core/world_builder.hpp"
#include "net/routing.hpp"
#include "util/rng.hpp"
#include "workload/generator.hpp"

namespace perfbench {

namespace {

namespace core = chicsim::core;
namespace data = chicsim::data;
namespace util = chicsim::util;

using data::DatasetId;
using data::SiteIndex;

/// GridView that forwards every query to the real view, counting and timing
/// each one.
class CountingView final : public core::GridView {
 public:
  CountingView(const core::GridView& inner, Timer& timer) : inner_(inner), timer_(timer) {}

  [[nodiscard]] std::size_t num_sites() const override {
    return timer_.time([&] { return inner_.num_sites(); });
  }
  [[nodiscard]] std::size_t site_load(SiteIndex s) const override {
    return timer_.time([&] { return inner_.site_load(s); });
  }
  [[nodiscard]] bool site_alive(SiteIndex s) const override {
    return timer_.time([&] { return inner_.site_alive(s); });
  }
  [[nodiscard]] std::size_t site_compute_elements(SiteIndex s) const override {
    return timer_.time([&] { return inner_.site_compute_elements(s); });
  }
  [[nodiscard]] double site_speed_factor(SiteIndex s) const override {
    return timer_.time([&] { return inner_.site_speed_factor(s); });
  }
  [[nodiscard]] const std::vector<SiteIndex>& replica_sites(DatasetId d) const override {
    return timer_.time([&]() -> decltype(auto) { return inner_.replica_sites(d); });
  }
  [[nodiscard]] bool site_has_dataset(SiteIndex s, DatasetId d) const override {
    return timer_.time([&] { return inner_.site_has_dataset(s, d); });
  }
  [[nodiscard]] util::Megabytes dataset_size_mb(DatasetId d) const override {
    return timer_.time([&] { return inner_.dataset_size_mb(d); });
  }
  [[nodiscard]] std::size_t hops(SiteIndex a, SiteIndex b) const override {
    return timer_.time([&] { return inner_.hops(a, b); });
  }
  [[nodiscard]] const std::vector<SiteIndex>& neighbors(SiteIndex s) const override {
    return timer_.time([&]() -> decltype(auto) { return inner_.neighbors(s); });
  }
  [[nodiscard]] std::size_t path_congestion(SiteIndex a, SiteIndex b) const override {
    return timer_.time([&] { return inner_.path_congestion(a, b); });
  }
  [[nodiscard]] util::MbPerSec path_bandwidth_mbps(SiteIndex a, SiteIndex b) const override {
    return timer_.time([&] { return inner_.path_bandwidth_mbps(a, b); });
  }
  [[nodiscard]] util::SimTime now() const override {
    return timer_.time([&] { return inner_.now(); });
  }

 private:
  const core::GridView& inner_;
  Timer& timer_;
};

/// ReplicationContext whose view and read queries go through the counting
/// proxy; actions (replicate, reset_popularity) are forwarded uncounted.
class CountingContext final : public core::ReplicationContext {
 public:
  CountingContext(core::ReplicationContext& inner, Timer& timer)
      : inner_(inner), view_(inner.view(), timer), timer_(timer) {}

  [[nodiscard]] SiteIndex self() const override { return inner_.self(); }
  [[nodiscard]] const core::GridView& view() const override { return view_; }
  void replicate(DatasetId d, SiteIndex destination) override {
    inner_.replicate(d, destination);
  }
  [[nodiscard]] std::vector<DatasetId> popular_datasets(double threshold) const override {
    return timer_.time([&] { return inner_.popular_datasets(threshold); });
  }
  void reset_popularity(DatasetId d) override { inner_.reset_popularity(d); }
  [[nodiscard]] SiteIndex top_requester(DatasetId d) const override {
    return timer_.time([&] { return inner_.top_requester(d); });
  }
  [[nodiscard]] std::size_t inbound_replications(SiteIndex s) const override {
    return timer_.time([&] { return inner_.inbound_replications(s); });
  }

 private:
  core::ReplicationContext& inner_;
  CountingView view_;
  Timer& timer_;
};

class TimedExternalScheduler final : public core::ExternalScheduler {
 public:
  TimedExternalScheduler(std::unique_ptr<core::ExternalScheduler> inner, PolicyProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] SiteIndex select_site(const chicsim::site::Job& job, const core::GridView& view,
                                      util::Rng& rng) override {
    CountingView counted(view, probe_.info);
    return probe_.es.time([&] { return inner_->select_site(job, counted, rng); });
  }

 private:
  std::unique_ptr<core::ExternalScheduler> inner_;
  PolicyProbe& probe_;
};

class TimedLocalScheduler final : public core::LocalScheduler {
 public:
  TimedLocalScheduler(std::unique_ptr<core::LocalScheduler> inner, PolicyProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] chicsim::site::JobId pick_next(
      const std::deque<chicsim::site::JobId>& queue,
      const std::function<const chicsim::site::Job&(chicsim::site::JobId)>& job_of) override {
    return probe_.ls.time([&] { return inner_->pick_next(queue, job_of); });
  }

 private:
  std::unique_ptr<core::LocalScheduler> inner_;
  PolicyProbe& probe_;
};

class TimedDatasetScheduler final : public core::DatasetScheduler {
 public:
  TimedDatasetScheduler(std::unique_ptr<core::DatasetScheduler> inner, PolicyProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void evaluate(core::ReplicationContext& ctx, util::Rng& rng) override {
    CountingContext counted(ctx, probe_.info);
    probe_.ds.time([&] { inner_->evaluate(counted, rng); });
  }
  void on_remote_fetch(core::ReplicationContext& ctx, DatasetId dataset, SiteIndex requester,
                       util::Rng& rng) override {
    CountingContext counted(ctx, probe_.info);
    ++probe_.remote_fetch_hooks;
    inner_->on_remote_fetch(counted, dataset, requester, rng);
  }

 private:
  std::unique_ptr<core::DatasetScheduler> inner_;
  PolicyProbe& probe_;
};

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Mean ns a Timer records around a call that does nothing: the cost of
/// the clock reads themselves (median of five rounds, measured once).
double clock_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> rounds;
    for (int r = 0; r < 5; ++r) {
      std::uint64_t total_ns = 0;
      constexpr int kCalls = 20000;
      for (int i = 0; i < kCalls; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        const auto t1 = std::chrono::steady_clock::now();
        total_ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      }
      rounds.push_back(static_cast<double>(total_ns) / kCalls);
    }
    std::sort(rounds.begin(), rounds.end());
    return rounds[2];
  }();
  return overhead;
}

}  // namespace

double Timer::mean_ns() const {
  if (timed_ == 0) return 0.0;
  return std::max(0.0, total_s_ / static_cast<double>(timed_) * 1e9 - clock_overhead_ns());
}

void CountingObserver::on_event(const core::GridEvent& event) {
  ++counts_[static_cast<std::size_t>(event.type)];
  ++total_;
}

void LayerProbe::attach(core::Grid& grid) {
  const core::SimulationConfig& c = grid.config();
  grid.set_external_scheduler(
      std::make_unique<TimedExternalScheduler>(core::make_external_scheduler(c.es), policy_));
  grid.set_local_scheduler(
      std::make_unique<TimedLocalScheduler>(core::make_local_scheduler(c.ls), policy_));
  grid.set_dataset_scheduler(std::make_unique<TimedDatasetScheduler>(
      core::make_dataset_scheduler(c.ds, c.replication_threshold), policy_));
  grid.add_observer(&bus_);
  grid.engine().set_profiler(&profiler_);
}

void LayerProbe::collect(core::Grid& grid) {
  grid.engine().set_profiler(nullptr);
  const chicsim::sim::Engine& engine = grid.engine();
  events_ += engine.events_executed();
  pushes_ += engine.queue().total_pushes();
  cancels_ += engine.queue().total_cancels();
  peak_heap_ = std::max<std::uint64_t>(peak_heap_, engine.queue().peak_heap_size());
  compactions_ += engine.queue().compactions();

  const chicsim::net::TransferStats& ts = grid.transfers().stats();
  transfers_started_ += ts.transfers_started;
  transfers_completed_ += ts.transfers_completed;
  transfers_aborted_ += ts.transfers_aborted;
  reallocations_ += ts.reallocations;
  flows_rescheduled_ += ts.flows_rescheduled;

  const core::RunMetrics& m = grid.metrics();
  evictions_ += m.cache_evictions;
  local_hits_ += m.local_data_hits;
  local_misses_ += m.local_data_misses;
  catalog_invalidations_ += m.catalog_invalidations;
  remote_fetches_ += m.remote_fetches;
  transfer_retries_ += m.transfer_retries;
  jobs_resubmitted_ += m.jobs_resubmitted;
}

std::map<std::string, std::pair<double, std::string>> LayerProbe::metrics() const {
  std::map<std::string, std::pair<double, std::string>> out;
  auto put = [&](const std::string& name, double value, const char* unit) {
    out[name] = {value, unit};
  };
  auto count = [](std::uint64_t v) { return static_cast<double>(v); };

  put("sim.events", count(events_), "count");
  put("sim.pushes_per_event", ratio(count(pushes_), count(events_)), "ratio");
  put("sim.cancels_per_push", ratio(count(cancels_), count(pushes_)), "ratio");
  put("sim.peak_heap", count(peak_heap_), "count");
  put("sim.compactions", count(compactions_), "count");

  put("net.transfers_started", count(transfers_started_), "count");
  put("net.transfers_aborted", count(transfers_aborted_), "count");
  put("net.reallocations", count(reallocations_), "count");
  put("net.reschedules_per_completed_flow",
      ratio(count(flows_rescheduled_), count(transfers_completed_)), "ratio");

  put("data.evictions", count(evictions_), "count");
  put("data.local_hit_ratio", ratio(count(local_hits_), count(local_hits_ + local_misses_)),
      "ratio");
  put("data.catalog_invalidations", count(catalog_invalidations_), "count");

  const std::uint64_t decisions =
      policy_.es.calls() + policy_.ds.calls() + policy_.remote_fetch_hooks;
  put("policy.es_select_ns", policy_.es.mean_ns(), "ns");
  put("policy.ds_evaluate_us", policy_.ds.mean_ns() / 1e3, "us");
  put("policy.ls_pick_ns", policy_.ls.mean_ns(), "ns");
  put("policy.info_queries_per_decision", ratio(count(policy_.info.calls()), count(decisions)),
      "ratio");
  put("policy.info_query_ns", policy_.info.mean_ns(), "ns");

  const std::uint64_t started = bus_.count(core::GridEventType::FetchStarted);
  const std::uint64_t joined = bus_.count(core::GridEventType::FetchJoined);
  put("services.remote_fetches", count(remote_fetches_), "count");
  put("services.fetch_join_ratio", ratio(count(joined), count(started + joined)), "ratio");
  put("services.transfer_retries", count(transfer_retries_), "count");
  put("services.jobs_resubmitted", count(jobs_resubmitted_), "count");

  for (const char* tag : {"job_submission", "compute_done", "transfer_completion", "ds_evaluate"}) {
    double mean_us = 0.0;
    double share = 0.0;
    for (const auto& p : profiler_.profiles()) {
      if (p.tag != tag) continue;
      mean_us = p.mean_us();
      share = ratio(p.total_s, profiler_.handler_time_s());
    }
    put(std::string("sim.handler_us.") + tag, mean_us, "us");
    put(std::string("sim.handler_frac.") + tag, share, "frac");
  }

  put("bus.events_emitted", count(bus_.total()), "count");
  return out;
}

SetupSplit time_setup_layers(const core::SimulationConfig& config) {
  using Clock = std::chrono::steady_clock;
  auto since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  SetupSplit split;
  auto t0 = Clock::now();
  chicsim::net::Topology topology = core::build_topology(config);
  chicsim::net::Routing routing(topology);
  std::vector<chicsim::site::Site> sites = core::build_sites(config);
  auto neighbors = core::build_neighbor_lists(config);
  data::DatasetCatalog catalog = core::build_catalog(config);
  data::ReplicaCatalog replicas(catalog.size());
  core::place_master_replicas(config, catalog, sites, replicas);
  split.world_s = since(t0);

  auto t1 = Clock::now();
  util::Rng rng = util::Rng::substream(config.seed, "workload");
  chicsim::workload::WorkloadConfig w;
  w.num_users = config.num_users;
  w.jobs_per_user = config.jobs_per_user();
  w.num_sites = config.num_sites;
  w.inputs_per_job = config.inputs_per_job;
  w.geometric_p = config.geometric_p;
  w.compute_seconds_per_gb = config.compute_seconds_per_gb;
  w.user_focus = config.user_focus;
  chicsim::workload::Workload workload(w, catalog, rng);
  split.workload_s = since(t1);
  return split;
}

}  // namespace perfbench
