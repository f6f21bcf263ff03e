// Causal span reconstruction from the grid event stream.
//
// The event log answers "what happened when"; spans answer "where did this
// job's time go". A SpanBuilder is a GridObserver that folds the flat
// GridEvent stream into one record per job — placement wait, queue wait,
// one span per input fetch (with the chosen source site), compute, output
// return — and one record per network transfer. Each completed job is
// labelled with its critical path following the paper's decomposition
// (completion = max(queue, transfer) + compute): the phase that actually
// gated the start of computation.
//
// The builder never touches the Grid; it sees only events, so it works
// identically on a live run (attached via Grid::add_observer) and in tests
// that replay a synthetic stream.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "core/events.hpp"

namespace chicsim::core {

/// Which phase gated the job per the paper's completion-time decomposition.
enum class CriticalPath : std::uint8_t {
  QueueBound,    ///< waiting for a free compute element dominated
  DataBound,     ///< waiting for input transfers dominated
  ComputeBound,  ///< started immediately; runtime was everything
};

[[nodiscard]] const char* to_string(CriticalPath path);

/// One input fetch as seen by one job. Jobs that piggyback on an in-flight
/// fetch of the same dataset get their own span (starting when they joined)
/// with `joined` set.
struct FetchSpan {
  data::DatasetId dataset = data::kNoDataset;
  data::SiteIndex source = data::kNoSite;
  data::SiteIndex dest = data::kNoSite;
  util::SimTime start = 0.0;
  util::SimTime end = 0.0;
  util::Megabytes mb = 0.0;
  bool joined = false;
  bool completed = false;
};

/// The full decomposition of one job's lifetime.
struct JobSpans {
  site::JobId job = site::kNoJob;
  data::SiteIndex origin_site = data::kNoSite;
  data::SiteIndex exec_site = data::kNoSite;

  util::SimTime submit = 0.0;
  util::SimTime dispatch = 0.0;
  util::SimTime data_ready = 0.0;
  util::SimTime start = 0.0;
  util::SimTime compute_done = 0.0;
  util::SimTime finish = 0.0;

  std::vector<FetchSpan> fetches;
  bool completed = false;
  /// Times the job lost its execution site (or a dead placement) and went
  /// back to the ES; the phase timestamps above describe the final attempt.
  std::uint32_t resubmissions = 0;

  // Phase durations (valid once `completed`).
  [[nodiscard]] double placement_wait_s() const { return dispatch - submit; }
  [[nodiscard]] double queue_wait_s() const { return start - dispatch; }
  [[nodiscard]] double data_wait_s() const { return data_ready - dispatch; }
  [[nodiscard]] double compute_s() const { return compute_done - start; }
  [[nodiscard]] double output_wait_s() const { return finish - compute_done; }
  [[nodiscard]] double response_s() const { return finish - submit; }

  /// The paper's completion = max(queue, transfer) + compute: whichever of
  /// queue wait and data wait gated the start. Ties (including the common
  /// all-zero case) resolve deterministically: no wait at all is
  /// ComputeBound; equal non-zero waits count as QueueBound.
  [[nodiscard]] CriticalPath critical_path() const;
};

/// One network transfer (job fetch or replication push).
struct TransferSpan {
  enum class Kind : std::uint8_t { Fetch, Replication };

  Kind kind = Kind::Fetch;
  data::DatasetId dataset = data::kNoDataset;
  data::SiteIndex src = data::kNoSite;
  data::SiteIndex dst = data::kNoSite;
  util::SimTime start = 0.0;
  util::SimTime end = 0.0;
  util::Megabytes mb = 0.0;
  /// Job that triggered the fetch (kNoJob for replication pushes).
  site::JobId initiator = site::kNoJob;
  bool completed = false;
};

class SpanBuilder final : public GridObserver {
 public:
  void on_event(const GridEvent& event) override;

  /// Per-job records, indexed by job id - 1 (job ids are dense from 1).
  [[nodiscard]] const std::vector<JobSpans>& jobs() const { return jobs_; }

  /// All transfers in start order.
  [[nodiscard]] const std::vector<TransferSpan>& transfers() const { return transfers_; }

  [[nodiscard]] std::size_t completed_jobs() const { return completed_jobs_; }

  /// Fault-stream events (site crash/recovery, link degradation), verbatim
  /// and in order — rendered as instant markers by the trace exporter.
  [[nodiscard]] const std::vector<GridEvent>& fault_marks() const { return fault_marks_; }

  /// Completed-job tally per critical-path label, indexed by CriticalPath.
  [[nodiscard]] std::array<std::uint64_t, 3> critical_path_counts() const;

  /// One row per completed job: timestamps, phase durations, fetch count,
  /// critical-path label.
  void write_csv(std::ostream& out) const;

 private:
  JobSpans& job_mut(site::JobId id);

  std::vector<JobSpans> jobs_;
  std::vector<TransferSpan> transfers_;
  std::vector<GridEvent> fault_marks_;
  std::size_t completed_jobs_ = 0;

  /// In-flight fetches keyed (dest, dataset) — the coalescing key the
  /// FetchPlanner uses — mapping to the open TransferSpan and the jobs
  /// riding it (each with its own join time).
  struct OpenFetch {
    std::size_t transfer_index = 0;
    std::vector<std::pair<site::JobId, util::SimTime>> members;
  };
  std::map<std::pair<data::SiteIndex, data::DatasetId>, OpenFetch> open_fetches_;

  /// In-flight replications keyed (src, dst, dataset); FIFO per key covers
  /// (pathological) concurrent identical pushes.
  std::map<std::tuple<data::SiteIndex, data::SiteIndex, data::DatasetId>,
           std::vector<std::size_t>>
      open_replications_;
};

}  // namespace chicsim::core
