// Choosing a CPU for each timed run on a shared host.
//
// On a shared host each CPU has slow spells of its own: another tenant's
// work on the same physical core contends for its caches. On a 4-vCPU KVM
// guest a single Table-1 run took 13 ms in a fast spell and 24 ms in a slow
// one, and spells lasted from a second to tens of seconds. Best-of-N timing
// cannot skip a spell that outlasts the whole measurement, so before each
// run the chooser moves the thread to a CPU that is fast right now.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

class CpuChooser {
 public:
  /// Reads the CPUs this thread may use. With fewer than two, pin() does
  /// nothing.
  CpuChooser();

  /// Pin the calling thread for run `run` of the current batch. Candidates
  /// start at CPU (run + batch) mod n, so each run's repetitions start on
  /// every CPU in turn. A short cache-bound probe times each candidate; the
  /// first within 25% of the fastest probe ever seen is kept, else the
  /// fastest candidate. Best effort: if pinning fails the thread stays put.
  void pin(std::size_t run);

  void next_batch() { ++batch_; }

 private:
  std::vector<int> cpus_;
  std::vector<double> probe_keys_;
  std::size_t batch_ = 0;
  double fastest_probe_s_ = 0.0;  ///< 0 until the first probe
};

}  // namespace perfbench
