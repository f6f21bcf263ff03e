// The job model.
//
// Paper §3: "Each job requires that a specified set of files be available
// before it can execute. It then executes for a specified amount of time on
// a single processor, and finally generates a specified set of files."  The
// experiments use a single input file per job and negligible output; the
// model here carries the general set-of-inputs form (the paper's stated
// future work) and the workload generator controls how many are used.
//
// Lifecycle and the timestamps recorded at each step:
//
//   Created --submit--> Submitted (at the origin site's External Scheduler)
//           --dispatch--> Queued (at the execution site; input fetches start
//                                 now, concurrently with queueing)
//           --data ready + processor free--> Running
//           --runtime elapses--> Completed
//
// Response time (Figure 3a) = finish - submit
//                           = max(queue wait, data wait) + compute time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "data/replica_catalog.hpp"
#include "util/units.hpp"

namespace chicsim::site {

using JobId = std::uint64_t;
using UserId = std::uint32_t;
inline constexpr JobId kNoJob = 0;

enum class JobState : std::uint8_t {
  Created,          ///< generated, not yet submitted
  Submitted,        ///< at the origin ES, awaiting a placement decision
  Queued,           ///< in the execution site's queue (data may still be moving)
  Running,          ///< occupying a compute element
  ReturningOutput,  ///< compute done; output shipping to the origin site
  Completed,        ///< done; all timestamps final
};

[[nodiscard]] const char* to_string(JobState state);

struct Job {
  JobId id = kNoJob;
  UserId user = 0;
  data::SiteIndex origin_site = data::kNoSite;
  data::SiteIndex exec_site = data::kNoSite;

  /// Input datasets that must all be locally available before execution.
  std::vector<data::DatasetId> inputs;

  /// Compute duration once started (Table 1 workload: 300 s per GB of
  /// input). Fixed at generation time.
  util::SimTime runtime_s = 0.0;

  JobState state = JobState::Created;

  /// Number of inputs not yet present at the execution site (counts down as
  /// fetches complete; 0 means the job is data-ready).
  std::size_t inputs_pending = 0;

  /// Fault-recovery counters: consecutive re-queues since the last
  /// successful dispatch (reset when the ES places the job on a live
  /// site), and how many times the output return was restarted. Both
  /// bounded by core::JobLifecycle::kMaxResubmissions.
  std::uint32_t resubmissions = 0;
  std::uint32_t output_retries = 0;

  /// Total re-queues over the job's lifetime; never reset. Pending
  /// callbacks capture it to detect that the job was resubmitted under
  /// them and drop themselves as stale.
  std::uint32_t reschedule_generation = 0;

  // --- timestamps (virtual seconds; negative = not reached) ---
  util::SimTime submit_time = -1.0;
  util::SimTime dispatch_time = -1.0;
  util::SimTime data_ready_time = -1.0;
  util::SimTime start_time = -1.0;
  /// Compute finished (processor released). Equals finish_time unless the
  /// output-return extension is active and output had to travel.
  util::SimTime compute_done_time = -1.0;
  util::SimTime finish_time = -1.0;

  [[nodiscard]] bool data_ready() const { return inputs_pending == 0; }
  [[nodiscard]] util::SimTime response_time() const { return finish_time - submit_time; }
  [[nodiscard]] util::SimTime queue_wait() const { return start_time - dispatch_time; }

  /// Human-readable one-liner for logs.
  [[nodiscard]] std::string describe() const;
};

}  // namespace chicsim::site
