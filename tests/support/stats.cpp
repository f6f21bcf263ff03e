#include "support/stats.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace chicsim::test_support {

util::Summary summarize(const std::vector<double>& samples) {
  util::OnlineStats s;
  for (double x : samples) s.add(x);
  return util::summarize(s);
}

double percentile(std::vector<double> samples, double q) {
  CHICSIM_ASSERT_MSG(!samples.empty(), "percentile of empty sample set");
  CHICSIM_ASSERT_MSG(q >= 0.0 && q <= 1.0, "percentile: q out of [0,1]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  double pos = q * static_cast<double>(samples.size() - 1);
  auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= samples.size()) return samples.back();
  double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[lo + 1] * frac;
}

}  // namespace chicsim::test_support
