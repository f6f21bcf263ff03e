// Test support: batch statistics over a whole sample set, the exact
// references the streaming accumulators in util/stats are checked against.
#pragma once

#include <vector>

#include "util/stats.hpp"

namespace chicsim::test_support {

/// Summary of raw samples, folded through util::OnlineStats.
[[nodiscard]] util::Summary summarize(const std::vector<double>& samples);

/// Percentile of a sample set (linear interpolation between order
/// statistics). `q` in [0, 1]. Sorts a copy.
[[nodiscard]] double percentile(std::vector<double> samples, double q);

}  // namespace chicsim::test_support
