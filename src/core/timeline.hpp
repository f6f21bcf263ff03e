// Time-series sampling of grid state.
//
// The paper reports end-of-run averages; operationally one also wants to
// see the *transient* — how long the hotspot lasts before replication
// dissolves it, how deep queues get, how busy the network is.  A
// TimelineRecorder rides the event calendar on a sim::PeriodicTimer,
// samples the grid every `period` virtual seconds, and exposes the series
// for reporting (CSV or the convergence example's console plot).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "sim/engine.hpp"
#include "util/units.hpp"

namespace chicsim::core {

class Grid;

/// One sample of grid-wide state.
struct TimelineSample {
  util::SimTime time = 0.0;
  std::uint64_t jobs_completed = 0;
  std::size_t jobs_queued = 0;       ///< waiting at all sites
  std::size_t jobs_running = 0;      ///< occupying compute elements
  std::size_t active_transfers = 0;  ///< flows in the network
  std::size_t total_replicas = 0;    ///< replica-catalog population
  double busy_fraction = 0.0;        ///< instantaneous: busy CEs / all CEs
  std::size_t max_site_queue = 0;    ///< deepest queue (hotspot indicator)
};

class TimelineRecorder {
 public:
  /// Start sampling `grid` every `period_s` (> 0) of virtual time. Must be
  /// constructed after the Grid and before run(); samples stop when the
  /// simulation ends or the recorder is destroyed, whichever comes first.
  TimelineRecorder(Grid& grid, util::SimTime period_s);

  [[nodiscard]] const std::vector<TimelineSample>& samples() const { return samples_; }

  /// Write the series as CSV (one row per sample).
  void write_csv(std::ostream& out) const;

  /// Take one sample immediately (also used internally by the timer).
  void sample_now();

 private:
  Grid& grid_;
  std::vector<TimelineSample> samples_;
  sim::PeriodicTimer timer_;  ///< destroying it cancels the next sample
};

}  // namespace chicsim::core
