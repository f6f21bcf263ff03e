// The discrete-event simulation engine.
//
// This is the Parsec substitute (see DESIGN.md §2): a virtual clock plus an
// event calendar.  Model components (transfer manager, compute elements,
// dataset schedulers, users) are plain objects holding a reference to the
// Engine; they advance the world exclusively by scheduling callbacks.
//
// Determinism contract: given the same initial schedule and the same
// callbacks, a run is bit-for-bit reproducible — ties in virtual time break
// by schedule order, and the engine itself consumes no randomness.
#pragma once

#include <cstdint>
#include <functional>

#include "sim/event.hpp"
#include "sim/event_queue.hpp"
#include "util/units.hpp"

namespace chicsim::sim {

class EngineProfiler;

class Engine {
 public:
  Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Current virtual time (seconds).
  [[nodiscard]] util::SimTime now() const { return now_; }

  /// Schedule `fn` at absolute virtual time `t` (>= now). Returns a handle
  /// usable with cancel().
  EventId schedule_at(util::SimTime t, EventFn fn);

  /// Schedule `fn` after `delay` seconds (>= 0).
  EventId schedule_in(util::SimTime delay, EventFn fn);

  /// Tagged variants: `tag` must be a string literal (or other storage
  /// outliving the engine) naming the event type for the wall-clock
  /// profiler. Scheduling order and results are unaffected by tags.
  EventId schedule_at(util::SimTime t, const char* tag, EventFn fn);
  EventId schedule_in(util::SimTime delay, const char* tag, EventFn fn);

  /// Cancel a pending event. Returns false when it already fired or was
  /// already cancelled.
  bool cancel(EventId id);

  /// Run until the event calendar is empty or stop() is called.
  void run();

  /// Run while events exist with time <= `t_end`; afterwards now() == t_end
  /// if the horizon was reached, else the time of the last executed event.
  void run_until(util::SimTime t_end);

  /// Execute exactly one event if any is pending; returns false when idle.
  bool step();

  /// Request that run()/run_until() return after the current event.
  void stop() { stop_requested_ = true; }

  /// Number of events executed so far (for tests and microbenchmarks).
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t events_pending() const { return queue_.size(); }

  /// The underlying calendar, for its performance counters (pushes, cancels,
  /// peak pending events).
  [[nodiscard]] const EventQueue& queue() const { return queue_; }

  /// Attach a wall-clock profiler (nullptr detaches). While attached,
  /// step() times each handler with the steady clock and run()/run_until()
  /// bracket the run for the events/sec figure. Detached costs one branch.
  void set_profiler(EngineProfiler* profiler) { profiler_ = profiler; }
  [[nodiscard]] EngineProfiler* profiler() const { return profiler_; }

 private:
  EventQueue queue_;
  util::SimTime now_ = 0.0;
  EventId next_id_ = 1;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
  EngineProfiler* profiler_ = nullptr;
};

/// Repeating timer: runs `fn` every `period` seconds starting at
/// `start` (absolute). Used by the Dataset Schedulers' periodic popularity
/// evaluation. Cancelling is done by destroying the timer or calling stop().
class PeriodicTimer {
 public:
  /// `tag` (optional, must outlive the timer) labels the ticks for the
  /// wall-clock profiler.
  PeriodicTimer(Engine& engine, util::SimTime start, util::SimTime period, EventFn fn,
                const char* tag = nullptr);
  ~PeriodicTimer();

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void stop();
  [[nodiscard]] bool running() const { return running_; }

 private:
  void arm(util::SimTime t);

  Engine& engine_;
  util::SimTime period_;
  EventFn fn_;
  const char* tag_ = nullptr;
  EventId pending_ = kNoEvent;
  bool running_ = true;
};

}  // namespace chicsim::sim
