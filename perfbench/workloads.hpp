// Benchmark workloads and the single-run harness.
//
// A workload is a fixed batch of simulation configs derived from the
// workload seed. The benchmark repeats the batch and reports medians over
// repetitions, so the amount of work per measurement does not depend on how
// fast the simulator is. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/metrics.hpp"

namespace perfbench {

class LayerProbe;

struct Workload {
  std::string name;
  /// One config per simulation in the batch; seeds differ, nothing else.
  std::vector<chicsim::core::SimulationConfig> runs;
};

/// Names accepted by make_workload, in the order README.md lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The batch of `name` for workload seed `seed`. Throws std::invalid_argument
/// for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name, std::uint64_t seed);

/// FNV-1a over the hexfloat rendering of every RunMetrics field: equal
/// digests mean bit-identical results.
[[nodiscard]] std::uint64_t digest(const chicsim::core::RunMetrics& m);

/// One simulation, timed and checked.
struct RunOutcome {
  double setup_s = 0.0;  ///< core::Grid construction
  double run_s = 0.0;    ///< Grid::run()
  std::uint64_t jobs = 0;
  std::uint64_t digest = 0;
  std::string error;  ///< empty when every check passed
};

/// Build the grid, attach `probe` when non-null, run, then check: no
/// exception, audit() passes, and every job completed.
[[nodiscard]] RunOutcome run_one(const chicsim::core::SimulationConfig& config,
                                 LayerProbe* probe);

}  // namespace perfbench
