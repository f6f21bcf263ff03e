// Units and basic scalar types shared across the simulator.
//
// The paper (and this reproduction) works in seconds, megabytes, and
// megabytes-per-second throughout: dataset sizes are 500 MB - 2 GB, nominal
// link bandwidths are 10 or 100 MB/s, and job runtimes are 300 s per GB of
// input.  We keep these as doubles with named aliases rather than heavy
// strong types; the public API always names the unit in the identifier
// (`size_mb`, `bandwidth_mbps`, `runtime_s`) so mixups stay visible.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace chicsim::util {

/// Virtual (simulated) time in seconds.
using SimTime = double;

/// Data size in megabytes (1 MB = 1e6 bytes for our purposes; the paper
/// never distinguishes MB from MiB and neither do we).
using Megabytes = double;

/// Bandwidth / transfer rate in megabytes per second.
using MbPerSec = double;

inline constexpr SimTime kTimeZero = 0.0;
inline constexpr SimTime kTimeInfinity = std::numeric_limits<double>::infinity();

/// Megabytes in one gigabyte.
inline constexpr double kMbPerGb = 1000.0;

/// Convert gigabytes to megabytes.
[[nodiscard]] constexpr Megabytes gb_to_mb(double gb) { return gb * kMbPerGb; }

/// Convert megabytes to gigabytes.
[[nodiscard]] constexpr double mb_to_gb(Megabytes mb) { return mb / kMbPerGb; }

/// Tolerance used when comparing virtual times / sizes accumulated through
/// floating-point arithmetic.
inline constexpr double kEpsilon = 1e-9;

/// True when |a - b| is within an absolute-plus-relative tolerance.
[[nodiscard]] constexpr bool approx_equal(double a, double b, double tol = 1e-6) {
  double diff = a > b ? a - b : b - a;
  double mag = (a > 0 ? a : -a) + (b > 0 ? b : -b);
  return diff <= tol * (1.0 + mag);
}

/// Capped exponential backoff before retry number `attempt` (1-based):
/// min(base * 2^(attempt-1), cap). ldexp scales by a power of two exactly,
/// and no integer shift overflows however large `attempt` grows.
[[nodiscard]] inline SimTime capped_backoff(SimTime base, std::uint64_t attempt,
                                            SimTime cap) {
  // Past 2^4096 every positive base has overflowed to infinity anyway.
  int exponent = static_cast<int>(std::min<std::uint64_t>(attempt, 4097)) - 1;
  return std::min(std::ldexp(base, exponent), cap);
}

}  // namespace chicsim::util
