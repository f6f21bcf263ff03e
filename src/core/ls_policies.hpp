// Local Scheduler algorithms.
//
// "Management of internal resources is a problem widely researched in the
// past and we use FIFO as a simplification" (§4). Fifo is therefore the
// paper's policy: strict arrival order, and a job whose data is still in
// flight blocks the jobs behind it (the processor "waits for data",
// Figure 4's wording). FifoSkip and Sjf are extensions for the local-
// scheduling ablation bench.
#pragma once

#include "core/algorithms.hpp"
#include "core/scheduler.hpp"

namespace chicsim::core {

/// Strict arrival order with head-of-line blocking (paper default).
class FifoLs final : public LocalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(LsAlgorithm::Fifo); }
  [[nodiscard]] site::JobId pick_next(
      const std::deque<site::JobId>& queue,
      const std::function<const site::Job&(site::JobId)>& job_of) override;
};

/// Arrival order, but a data-blocked head is bypassed by the first
/// data-ready job behind it.
class FifoSkipLs final : public LocalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(LsAlgorithm::FifoSkip); }
  [[nodiscard]] site::JobId pick_next(
      const std::deque<site::JobId>& queue,
      const std::function<const site::Job&(site::JobId)>& job_of) override;
};

/// Shortest runtime among data-ready jobs (ties by arrival order).
class SjfLs final : public LocalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(LsAlgorithm::Sjf); }
  [[nodiscard]] site::JobId pick_next(
      const std::deque<site::JobId>& queue,
      const std::function<const site::Job&(site::JobId)>& job_of) override;
};

}  // namespace chicsim::core
