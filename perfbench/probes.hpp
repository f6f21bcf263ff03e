// Layer probes applied from outside the simulator, through public APIs
// only: timing decorators around the three scheduler policies, forwarding
// GridView / ReplicationContext proxies that count and time the
// information queries policies make, a counting GridObserver, the engine's
// own EngineProfiler, and the counters the grid already keeps.
//
// Probes must never change a result. The decorators forward every call with
// the same arguments and the same RNG, so a probed run is bit-identical to
// a plain one; probe_test.cpp and every traced benchmark run check this.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "core/events.hpp"
#include "core/grid.hpp"
#include "sim/profiler.hpp"

namespace perfbench {

/// Call count and steady-clock time of one probed operation. Only every
/// `sample_every`-th call is timed: information queries take a few ns, so
/// timing each would cost more than the query and swamp the traced run.
class Timer {
 public:
  explicit Timer(std::uint64_t sample_every = 1) : sample_every_(sample_every) {}

  [[nodiscard]] std::uint64_t calls() const { return calls_; }

  /// Mean duration of the timed calls, less the cost of reading the clock.
  [[nodiscard]] double mean_ns() const;

  /// Run `f`, timing it when sampled; returns what `f` returns (references
  /// included).
  template <class F>
  decltype(auto) time(F&& f) {
    if (calls_++ % sample_every_ != 0) return f();
    ++timed_;
    const auto t0 = std::chrono::steady_clock::now();
    struct Stop {
      Timer& t;
      std::chrono::steady_clock::time_point t0;
      ~Stop() {
        t.total_s_ +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      }
    } stop{*this, t0};
    return f();
  }

 private:
  std::uint64_t sample_every_;
  std::uint64_t calls_ = 0;
  std::uint64_t timed_ = 0;
  double total_s_ = 0.0;
};

/// What the policy decorators measure.
struct PolicyProbe {
  Timer es;         ///< ExternalScheduler::select_site
  Timer ds;         ///< DatasetScheduler::evaluate
  Timer ls;         ///< LocalScheduler::pick_next
  Timer info{64};   ///< one information query made by a policy
  std::uint64_t remote_fetch_hooks = 0;  ///< DatasetScheduler::on_remote_fetch
};

/// Counts every GridEvent by type.
class CountingObserver final : public chicsim::core::GridObserver {
 public:
  void on_event(const chicsim::core::GridEvent& event) override;

  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::uint64_t count(chicsim::core::GridEventType type) const {
    return counts_[static_cast<std::size_t>(type)];
  }

 private:
  std::array<std::uint64_t, chicsim::core::kNumGridEventTypes> counts_{};
  std::uint64_t total_ = 0;
};

/// Everything one traced batch collects. attach() before Grid::run(),
/// collect() after it; counters add up over the batch's runs. The grid
/// holds pointers into the probe while it runs, so the probe is not
/// copyable or movable.
class LayerProbe {
 public:
  LayerProbe() = default;
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  /// Install the policy decorators (fresh policies from the factory, as
  /// the grid builds its defaults), the observer and the profiler.
  void attach(chicsim::core::Grid& grid);

  /// Add the finished run's counters and detach the profiler.
  void collect(chicsim::core::Grid& grid);

  /// Per-layer metrics of the batch, keyed by metric name; values carry
  /// their unit. Wall-clock figures include the probes' own overhead.
  [[nodiscard]] std::map<std::string, std::pair<double, std::string>> metrics() const;

  [[nodiscard]] const PolicyProbe& policy() const { return policy_; }

 private:
  PolicyProbe policy_;
  CountingObserver bus_;
  chicsim::sim::EngineProfiler profiler_;

  std::uint64_t events_ = 0;
  std::uint64_t pushes_ = 0;
  std::uint64_t cancels_ = 0;
  std::uint64_t peak_heap_ = 0;  ///< max over runs
  std::uint64_t compactions_ = 0;
  std::uint64_t transfers_started_ = 0;
  std::uint64_t transfers_completed_ = 0;
  std::uint64_t transfers_aborted_ = 0;
  std::uint64_t reallocations_ = 0;
  std::uint64_t flows_rescheduled_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t local_hits_ = 0;
  std::uint64_t local_misses_ = 0;
  std::uint64_t catalog_invalidations_ = 0;
  std::uint64_t remote_fetches_ = 0;
  std::uint64_t transfer_retries_ = 0;
  std::uint64_t jobs_resubmitted_ = 0;
};

/// Wall time of the world-building and workload-generation steps of Grid
/// construction, repeated outside the grid through the same public calls.
struct SetupSplit {
  double world_s = 0.0;
  double workload_s = 0.0;
};
[[nodiscard]] SetupSplit time_setup_layers(const chicsim::core::SimulationConfig& config);

}  // namespace perfbench
