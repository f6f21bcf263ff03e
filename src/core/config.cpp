#include "core/config.hpp"

#include <charconv>
#include <cmath>
#include <type_traits>

#include "core/faults.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {

void SimulationConfig::validate() const {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw util::SimError(std::string("config: ") + what);
  };
  for_each_key([&](const char* name, auto member) {
    if constexpr (std::is_floating_point_v<std::remove_cvref_t<decltype(this->*member)>>) {
      if (!std::isfinite(this->*member)) {
        throw util::SimError(std::string("config: ") + name + " must be finite");
      }
    }
  });
  require(num_users > 0, "num_users must be positive");
  require(num_sites > 0, "num_sites must be positive");
  require(num_regions > 0 && num_regions <= num_sites,
          "num_regions must be in [1, num_sites]");
  require(min_compute_elements >= 1, "min_compute_elements must be >= 1");
  require(max_compute_elements >= min_compute_elements,
          "max_compute_elements must be >= min_compute_elements");
  require(compute_speed_spread >= 0.0 && compute_speed_spread < 1.0,
          "compute_speed_spread must be in [0, 1)");
  require(num_datasets > 0, "num_datasets must be positive");
  require(min_dataset_mb > 0.0, "min_dataset_mb must be positive");
  require(max_dataset_mb >= min_dataset_mb, "max_dataset_mb must be >= min_dataset_mb");
  require(link_bandwidth_mbps > 0.0, "link_bandwidth_mbps must be positive");
  require(total_jobs > 0, "total_jobs must be positive");
  require(total_jobs % num_users == 0, "total_jobs must divide evenly across users");
  require(geometric_p > 0.0 && geometric_p < 1.0, "geometric_p must be in (0,1)");
  require(inputs_per_job >= 1, "inputs_per_job must be >= 1");
  require(inputs_per_job <= num_datasets, "inputs_per_job exceeds dataset count");
  require(compute_seconds_per_gb > 0.0, "compute_seconds_per_gb must be positive");
  require(output_fraction >= 0.0, "output_fraction must be non-negative");
  require(user_focus >= 0.0 && user_focus <= 1.0, "user_focus must be in [0, 1]");
  require(storage_capacity_mb >= max_dataset_mb,
          "storage_capacity_mb must hold at least one largest dataset");
  require(replication_threshold > 0.0, "replication_threshold must be positive");
  require(ds_check_period_s > 0.0, "ds_check_period_s must be positive");
  require(info_staleness_s >= 0.0, "info_staleness_s must be non-negative");
  require(central_decision_overhead_s >= 0.0,
          "central_decision_overhead_s must be non-negative");
  require(arrival_interval_s > 0.0, "arrival_interval_s must be positive");
  require(fault_site_crash_rate_per_hour >= 0.0,
          "fault_site_crash_rate_per_hour must be non-negative");
  require(fault_site_downtime_s > 0.0, "fault_site_downtime_s must be positive");
  require(fault_transfer_fail_prob >= 0.0 && fault_transfer_fail_prob < 1.0,
          "fault_transfer_fail_prob must be in [0, 1)");
  require(fault_catalog_loss_rate_per_hour >= 0.0,
          "fault_catalog_loss_rate_per_hour must be non-negative");
  // FaultPlan::generate allocates every stochastic action up front, so a
  // rate is bounded by the expected size of the plan it would generate.
  constexpr double kMaxExpectedActions = 1e6;
  double horizon_h = FaultPlan::kHorizonS / 3600.0;
  require(2.0 * static_cast<double>(num_sites) * fault_site_crash_rate_per_hour * horizon_h <=
              kMaxExpectedActions,
          "fault_site_crash_rate_per_hour would generate over 1e6 crash/recover actions");
  require(fault_catalog_loss_rate_per_hour * horizon_h <= kMaxExpectedActions,
          "fault_catalog_loss_rate_per_hour would generate over 1e6 catalog losses");
  // Pinned masters must fit: expected load per site is
  // num_datasets/num_sites files of at most max_dataset_mb. We cannot know
  // the random placement here, so this is checked exactly at Grid build.
}

namespace {

template <typename T>
void parse_into(T& field, const std::string& text) {
  if constexpr (std::is_enum_v<T>) {
    field = from_string<T>(text);
  } else if constexpr (std::is_floating_point_v<T>) {
    auto v = util::parse_double(text);
    if (!v || !std::isfinite(*v)) throw util::SimError("not a finite number: " + text);
    field = *v;
  } else {
    auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), field);
    if (ec != std::errc{} || end != text.data() + text.size()) {
      throw util::SimError("not an unsigned integer: " + text);
    }
  }
}

template <typename T>
std::string format_value(const T& value) {
  if constexpr (std::is_enum_v<T>) {
    return to_string(value);
  } else if constexpr (std::is_floating_point_v<T>) {
    return util::format_shortest(value);
  } else {
    return std::to_string(value);
  }
}

}  // namespace

void SimulationConfig::apply(const util::ConfigFile& file) {
  // A misspelt key is an error, not a silently ignored line.
  for (const std::string& key : file.keys()) {
    bool known = false;
    for_each_key([&](const char* name, auto member) {
      if (key != name) return;
      known = true;
      try {
        parse_into(this->*member, *file.get(key));
      } catch (const util::SimError& e) {
        throw util::SimError("config: key '" + key + "': " + e.what());
      }
    });
    if (!known) throw util::SimError("config: unknown key: " + key);
  }
}

std::string SimulationConfig::describe() const {
  std::string out;
  for_each_key([&](const char* name, auto member) {
    out += std::string(name) + " = " + format_value(this->*member) + "\n";
  });
  return out;
}

}  // namespace chicsim::core
