// Steady-clock microbenchmarks of single layers: the event calendar
// (sim), the fluid network under flow churn (net), and LRU storage plus the
// replica catalog (data). Inputs derive from the workload seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

namespace perfbench {

/// Run every microbenchmark, giving each about `seconds_each` of repeats
/// (at least three), and return the median of each as name -> (value, unit).
[[nodiscard]] std::map<std::string, std::pair<double, std::string>> run_microbenches(
    std::uint64_t seed, double seconds_each);

}  // namespace perfbench
