#include "core/config.hpp"

#include <set>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::core {

void SimulationConfig::validate() const {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw util::SimError(std::string("config: ") + what);
  };
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
  require(backbone_bandwidth_multiplier > 0.0,
          "backbone_bandwidth_multiplier must be positive");
  require(storage_capacity_mb >= max_dataset_mb,
          "storage_capacity_mb must hold at least one largest dataset");
  require(replication_threshold > 0.0, "replication_threshold must be positive");
  require(ds_check_period_s > 0.0, "ds_check_period_s must be positive");
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
  require(fault_horizon_s > 0.0, "fault_horizon_s must be positive");
  require(fetch_retry_base_s > 0.0, "fetch_retry_base_s must be positive");
  require(fetch_retry_max_s >= fetch_retry_base_s,
          "fetch_retry_max_s must be >= fetch_retry_base_s");
  require(fetch_max_retries >= 1, "fetch_max_retries must be >= 1");
  require(resubmit_backoff_s > 0.0, "resubmit_backoff_s must be positive");
  require(max_job_resubmissions >= 1, "max_job_resubmissions must be >= 1");
  // Pinned masters must fit: expected load per site is
  // num_datasets/num_sites files of at most max_dataset_mb. We cannot know
  // the random placement here, so this is checked exactly at Grid build.
}

void SimulationConfig::apply(const util::ConfigFile& file) {
  // Every key read is recorded, so a misspelt key is an error instead of a
  // silently ignored line.
  std::set<std::string> consumed;
  auto get = [&](const char* key) {
    consumed.insert(key);
    return file.get(key);
  };
  auto geti = [&](const char* key, std::size_t& field) {
    consumed.insert(key);
    if (auto v = file.get_int(key)) {
      if (*v < 0) throw util::SimError(std::string("config: ") + key + " must be >= 0");
      field = static_cast<std::size_t>(*v);
    }
  };
  auto getd = [&](const char* key, double& field) {
    consumed.insert(key);
    if (auto v = file.get_double(key)) field = *v;
  };
  geti("num_users", num_users);
  geti("num_sites", num_sites);
  geti("min_compute_elements", min_compute_elements);
  geti("max_compute_elements", max_compute_elements);
  getd("compute_speed_spread", compute_speed_spread);
  geti("num_datasets", num_datasets);
  getd("min_dataset_mb", min_dataset_mb);
  getd("max_dataset_mb", max_dataset_mb);
  getd("link_bandwidth_mbps", link_bandwidth_mbps);
  geti("total_jobs", total_jobs);
  getd("geometric_p", geometric_p);
  geti("inputs_per_job", inputs_per_job);
  getd("compute_seconds_per_gb", compute_seconds_per_gb);
  getd("output_fraction", output_fraction);
  getd("user_focus", user_focus);
  getd("backbone_bandwidth_multiplier", backbone_bandwidth_multiplier);
  getd("storage_capacity_mb", storage_capacity_mb);
  getd("replication_threshold", replication_threshold);
  getd("ds_check_period_s", ds_check_period_s);
  getd("popularity_half_life_s", popularity_half_life_s);
  getd("info_staleness_s", info_staleness_s);
  geti("num_regions", num_regions);
  if (auto v = get("topology")) topology = topology_kind_from_string(*v);
  if (auto v = get("es_mapping")) es_mapping = es_mapping_from_string(*v);
  getd("central_decision_overhead_s", central_decision_overhead_s);
  if (auto v = get("submission_mode")) {
    submission_mode = submission_mode_from_string(*v);
  }
  getd("arrival_interval_s", arrival_interval_s);
  if (auto v = get("es")) es = es_from_string(*v);
  if (auto v = get("ds")) ds = ds_from_string(*v);
  if (auto v = get("ls")) ls = ls_from_string(*v);
  if (auto v = get("replica_selection")) {
    replica_selection = replica_selection_from_string(*v);
  }
  if (auto v = get("ds_neighbor_scope")) {
    ds_neighbor_scope = neighbor_scope_from_string(*v);
  }
  if (auto v = get("share_policy")) {
    std::string p = util::to_lower(*v);
    if (p == "equalshare") {
      share_policy = net::SharePolicy::EqualShare;
    } else if (p == "maxmin") {
      share_policy = net::SharePolicy::MaxMin;
    } else if (p == "nocontention") {
      share_policy = net::SharePolicy::NoContention;
    } else {
      throw util::SimError("config: unknown share_policy: " + *v);
    }
  }
  getd("fault_site_crash_rate_per_hour", fault_site_crash_rate_per_hour);
  getd("fault_site_downtime_s", fault_site_downtime_s);
  getd("fault_transfer_fail_prob", fault_transfer_fail_prob);
  getd("fault_catalog_loss_rate_per_hour", fault_catalog_loss_rate_per_hour);
  getd("fault_horizon_s", fault_horizon_s);
  getd("fetch_retry_base_s", fetch_retry_base_s);
  getd("fetch_retry_max_s", fetch_retry_max_s);
  geti("fetch_max_retries", fetch_max_retries);
  getd("resubmit_backoff_s", resubmit_backoff_s);
  geti("max_job_resubmissions", max_job_resubmissions);
  consumed.insert("seed");
  if (auto v = file.get_int("seed")) seed = static_cast<std::uint64_t>(*v);
  for (const std::string& key : file.keys()) {
    if (consumed.count(key) == 0) throw util::SimError("config: unknown key: " + key);
  }
}

std::string SimulationConfig::describe() const {
  std::string out;
  auto line = [&out](const std::string& k, const std::string& v) {
    out += "  " + k + " = " + v + "\n";
  };
  out += "SimulationConfig {\n";
  line("num_users", std::to_string(num_users));
  line("num_sites", std::to_string(num_sites));
  line("compute_elements_per_site",
       std::to_string(min_compute_elements) + "-" + std::to_string(max_compute_elements));
  line("compute_speed_spread", util::format_fixed(compute_speed_spread, 2));
  line("num_datasets", std::to_string(num_datasets));
  line("dataset_size_mb", util::format_fixed(min_dataset_mb, 0) + "-" +
                              util::format_fixed(max_dataset_mb, 0));
  line("link_bandwidth_mbps", util::format_fixed(link_bandwidth_mbps, 0));
  line("total_jobs", std::to_string(total_jobs));
  line("jobs_per_user", std::to_string(jobs_per_user()));
  line("geometric_p", util::format_fixed(geometric_p, 3));
  line("inputs_per_job", std::to_string(inputs_per_job));
  line("compute_seconds_per_gb", util::format_fixed(compute_seconds_per_gb, 0));
  line("output_fraction", util::format_fixed(output_fraction, 3));
  line("user_focus", util::format_fixed(user_focus, 2));
  line("backbone_bandwidth_multiplier", util::format_fixed(backbone_bandwidth_multiplier, 2));
  line("storage_capacity_mb", util::format_fixed(storage_capacity_mb, 0));
  line("replication_threshold", util::format_fixed(replication_threshold, 1));
  line("ds_check_period_s", util::format_fixed(ds_check_period_s, 0));
  line("popularity_half_life_s", util::format_fixed(popularity_half_life_s, 1));
  line("info_staleness_s", util::format_fixed(info_staleness_s, 0));
  line("topology", to_string(topology));
  line("num_regions", std::to_string(num_regions));
  line("submission_mode", to_string(submission_mode));
  if (submission_mode == SubmissionMode::OpenLoop) {
    line("arrival_interval_s", util::format_fixed(arrival_interval_s, 1));
  }
  line("es_mapping", to_string(es_mapping));
  if (es_mapping == EsMapping::Centralized) {
    line("central_decision_overhead_s", util::format_fixed(central_decision_overhead_s, 2));
  }
  line("es", to_string(es));
  line("ds", to_string(ds));
  line("ls", to_string(ls));
  line("replica_selection", to_string(replica_selection));
  line("ds_neighbor_scope", to_string(ds_neighbor_scope));
  line("share_policy", share_policy == net::SharePolicy::EqualShare   ? "EqualShare"
                       : share_policy == net::SharePolicy::MaxMin     ? "MaxMin"
                                                                      : "NoContention");
  if (faults_enabled()) {
    line("fault_site_crash_rate_per_hour",
         util::format_fixed(fault_site_crash_rate_per_hour, 3));
    line("fault_site_downtime_s", util::format_fixed(fault_site_downtime_s, 0));
    line("fault_transfer_fail_prob", util::format_fixed(fault_transfer_fail_prob, 3));
    line("fault_catalog_loss_rate_per_hour",
         util::format_fixed(fault_catalog_loss_rate_per_hour, 3));
    line("fault_horizon_s", util::format_fixed(fault_horizon_s, 0));
    line("fetch_retry_base_s", util::format_fixed(fetch_retry_base_s, 0));
    line("fetch_retry_max_s", util::format_fixed(fetch_retry_max_s, 0));
    line("fetch_max_retries", std::to_string(fetch_max_retries));
    line("resubmit_backoff_s", util::format_fixed(resubmit_backoff_s, 0));
    line("max_job_resubmissions", std::to_string(max_job_resubmissions));
  }
  line("seed", std::to_string(seed));
  out += "}";
  return out;
}

}  // namespace chicsim::core
