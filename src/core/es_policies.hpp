// External Scheduler algorithms (§4).
//
// "An External Scheduler selects a remote site to which to send a job,
// based on one of four algorithms" — JobRandom, JobLeastLoaded,
// JobDataPresent, JobLocal — plus the JobAdaptive extension sketched in the
// paper's §5.4/§6 (choose between data-source execution and local execution
// from observed congestion and data size).
#pragma once

#include <memory>

#include "core/algorithms.hpp"
#include "core/scheduler.hpp"

namespace chicsim::core {

/// "A randomly selected site."
class JobRandomEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(EsAlgorithm::JobRandom); }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override;
};

/// "The site that currently has the least load" (fewest waiting jobs).
/// Ties are broken uniformly at random so that the simultaneous submissions
/// at t=0 do not all pile onto the lowest-numbered site.
class JobLeastLoadedEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(EsAlgorithm::JobLeastLoaded); }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override;
};

/// "A site that already has the required data. If more than one site
/// qualifies choose the least loaded one."  With multiple inputs (the
/// multi-input extension) the sites holding the most input megabytes
/// qualify.
class JobDataPresentEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(EsAlgorithm::JobDataPresent); }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override;

 private:
  // Reused per decision: input megabytes held per site, then the scan.
  std::vector<double> mb_;
  std::vector<data::SiteIndex> placeable_;
  std::vector<data::SiteIndex> qualifying_;
  std::vector<data::SiteIndex> ties_;
};

/// "Always run jobs locally."
class JobLocalEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(EsAlgorithm::JobLocal); }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override;
};

/// Extension: estimated-completion-time scheduling. For each candidate site
/// (origin, the best data holder, the least-loaded site) estimate
/// max(queue wait, data transfer) + compute and pick the minimum — slow
/// links and big data push jobs toward the data, idle networks and small
/// data let them run locally, as the paper's future-work discussion
/// anticipates.
class JobAdaptiveEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override { return to_string(EsAlgorithm::JobAdaptive); }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override;

  /// The completion-time estimate itself (exposed for tests and for
  /// JobBestEstimate).
  [[nodiscard]] static double estimate_completion_s(const site::Job& job,
                                                    data::SiteIndex candidate,
                                                    const GridView& view);

 private:
  JobDataPresentEs data_present_;  // keeps its scoring buffers across calls
};

/// Extension: exhaustive estimated-completion scheduling — evaluate the
/// JobAdaptive estimate at *every* site and take the argmin (ties by lowest
/// index for determinism). The centralized-omniscient upper bound the
/// decoupled heuristics are compared against.
class JobBestEstimateEs final : public ExternalScheduler {
 public:
  [[nodiscard]] const char* name() const override {
    return to_string(EsAlgorithm::JobBestEstimate);
  }
  [[nodiscard]] data::SiteIndex select_site(const site::Job& job, const GridView& view,
                                            util::Rng& rng) override;
};

}  // namespace chicsim::core
