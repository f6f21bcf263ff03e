#include "core/timeline.hpp"

#include <algorithm>
#include <ostream>

#include "core/grid.hpp"
#include "util/csv.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {

TimelineRecorder::TimelineRecorder(Grid& grid, util::SimTime period_s)
    : grid_(grid),
      timer_(grid.engine(), grid.engine().now() + period_s, period_s, [this] { sample_now(); },
             "timeline_sample") {
  sample_now();
}

void TimelineRecorder::sample_now() {
  TimelineSample s;
  s.time = grid_.engine().now();
  std::size_t busy = 0;
  std::size_t total = 0;
  std::uint64_t completed = 0;
  for (data::SiteIndex i = 0; i < grid_.site_count(); ++i) {
    const site::Site& site = grid_.site_at(i);
    s.jobs_queued += site.load();
    s.jobs_running += site.compute().busy();
    s.max_site_queue = std::max(s.max_site_queue, site.load());
    busy += site.compute().busy();
    total += site.compute().size();
    completed += site.jobs_completed_here();
  }
  s.jobs_completed = completed;
  s.active_transfers = grid_.transfers().active_count();
  s.total_replicas = grid_.replicas().total_replicas();
  s.busy_fraction = total > 0 ? static_cast<double>(busy) / static_cast<double>(total) : 0.0;
  samples_.push_back(s);
}

void TimelineRecorder::write_csv(std::ostream& out) const {
  util::CsvWriter csv(out);
  csv.header({"time_s", "jobs_completed", "jobs_queued", "jobs_running", "active_transfers",
              "total_replicas", "busy_fraction", "max_site_queue"});
  for (const TimelineSample& s : samples_) {
    csv.row({util::format_fixed(s.time, 1), std::to_string(s.jobs_completed),
             std::to_string(s.jobs_queued), std::to_string(s.jobs_running),
             std::to_string(s.active_transfers), std::to_string(s.total_replicas),
             util::format_fixed(s.busy_fraction, 4), std::to_string(s.max_site_queue)});
  }
}

}  // namespace chicsim::core
