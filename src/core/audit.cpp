#include "core/audit.hpp"

#include <algorithm>
#include <string>

#include "core/grid.hpp"
#include "util/error.hpp"

namespace chicsim::core {

void audit_grid(const Grid& grid) {
  auto fail = [](const std::string& what) { throw util::SimError("grid audit: " + what); };

  const data::DatasetCatalog& catalog = grid.datasets();
  const data::ReplicaCatalog& replicas = grid.replicas();

  // Replica catalog <-> storage consistency: every catalogued replica is
  // physically present, and every durable (non-transient) copy of the
  // world's datasets ... transient copies are permitted to be uncatalogued.
  for (data::DatasetId d = 0; d < catalog.size(); ++d) {
    const auto& holders = replicas.locations(d);
    if (holders.empty()) fail("dataset " + std::to_string(d) + " lost its last replica");
    for (data::SiteIndex s : holders) {
      if (s >= grid.site_count()) fail("replica catalog references an unknown site");
      if (!grid.site_at(s).storage().contains(d)) {
        fail("catalogued replica of dataset " + std::to_string(d) + " missing at site " +
             std::to_string(s));
      }
    }
  }

  // Sites: storage within declared bounds (transient overflow is counted in
  // storage stats; used_mb may legitimately exceed capacity only then).
  for (data::SiteIndex s = 0; s < grid.site_count(); ++s) {
    const site::Site& site = grid.site_at(s);
    if (site.storage().stats().overflow_adds == 0 &&
        site.storage().used_mb() > site.storage().capacity_mb() + util::kEpsilon) {
      fail("site " + std::to_string(site.index()) + " storage over capacity");
    }
    if (site.compute().busy() > site.compute().size()) {
      fail("site " + std::to_string(site.index()) + " has more busy elements than exist");
    }
    // Crash invariants: a dead site holds no work — its queue was drained
    // and its running jobs killed by the crash choreography.
    if (!site.alive()) {
      if (site.load() != 0) fail("dead site " + std::to_string(s) + " has queued jobs");
      if (site.compute().busy() != 0) {
        fail("dead site " + std::to_string(s) + " has running jobs");
      }
    }
  }

  // Job-state consistency with queues.
  for (site::JobId id = 1; id <= grid.job_count(); ++id) {
    const site::Job& job = grid.job(id);
    if (job.state == site::JobState::Queued) {
      const auto& q = grid.site_at(job.exec_site).queue();
      if (std::find(q.begin(), q.end(), job.id) == q.end()) {
        fail("queued " + job.describe() + " missing from its site queue");
      }
    }
  }

  if (grid.finished()) {
    for (data::SiteIndex s = 0; s < grid.site_count(); ++s) {
      const site::Site& site = grid.site_at(s);
      if (site.load() != 0) fail("finished run left jobs queued");
      if (site.compute().busy() != 0) fail("finished run left jobs running");
    }
    std::uint64_t completed = 0;
    for (site::JobId id = 1; id <= grid.job_count(); ++id) {
      if (grid.job(id).state != site::JobState::Completed) {
        fail("finished run left unfinished jobs");
      }
      ++completed;
    }
    if (completed != grid.job_count()) fail("completed-job count mismatch");
  }
}

}  // namespace chicsim::core
