#include "site/site.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace chicsim::site {

Site::Site(data::SiteIndex index, std::size_t num_compute_elements,
           util::Megabytes storage_capacity_mb, util::SimTime popularity_half_life_s,
           double speed_factor)
    : index_(index),
      speed_factor_(speed_factor),
      compute_(num_compute_elements, /*start_time=*/0.0),
      storage_(storage_capacity_mb),
      popularity_(popularity_half_life_s) {
  CHICSIM_ASSERT_MSG(speed_factor > 0.0, "site speed factor must be positive");
}

void Site::enqueue(JobId job) {
  CHICSIM_ASSERT_MSG(job != kNoJob, "enqueue of null job");
  queue_.push_back(job);
}

void Site::remove_from_queue(JobId job) {
  auto it = std::find(queue_.begin(), queue_.end(), job);
  CHICSIM_ASSERT_MSG(it != queue_.end(), "job not in queue");
  queue_.erase(it);
}

std::vector<JobId> Site::drain_queue() {
  std::vector<JobId> out(queue_.begin(), queue_.end());
  queue_.clear();
  return out;
}

}  // namespace chicsim::site
