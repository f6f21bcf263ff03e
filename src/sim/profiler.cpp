#include "sim/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>

#include "util/string_util.hpp"

namespace chicsim::sim {

namespace {
double steady_seconds() {
  // detlint: allow(wall-clock): the opt-in profiler measures real handler cost; it never feeds simulated state
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* effective_tag(const char* tag) { return tag != nullptr ? tag : "untagged"; }
}  // namespace

void EngineProfiler::run_started() { run_started_at_ = steady_seconds(); }

void EngineProfiler::run_finished() {
  if (run_started_at_ == 0.0) return;
  run_wall_s_ += steady_seconds() - run_started_at_;
  run_started_at_ = 0.0;
}

void EngineProfiler::record(const char* tag, double wall_s) {
  ++events_;
  handler_s_ += wall_s;
  auto it = cache_.find(tag);
  if (it == cache_.end()) {
    // Folding by content here means two distinct literals with equal text
    // share one histogram, so tag identity never depends on linker layout.
    util::HistogramMetric& hist = by_tag_[effective_tag(tag)];
    it = cache_.emplace(tag, &hist).first;
  }
  it->second->observe(wall_s);
}

std::vector<EngineProfiler::TagProfile> EngineProfiler::profiles() const {
  std::vector<TagProfile> rows;
  rows.reserve(by_tag_.size());
  for (const auto& [tag, hist] : by_tag_) {
    const util::OnlineStats& s = hist.stats();
    TagProfile p;
    p.tag = tag;
    p.count = s.count();
    p.total_s = s.sum();
    p.min_s = s.min();
    p.max_s = s.max();
    rows.push_back(std::move(p));
  }
  std::stable_sort(rows.begin(), rows.end(), [](const TagProfile& a, const TagProfile& b) {
    return a.total_s > b.total_s;
  });
  return rows;
}

const util::HistogramMetric* EngineProfiler::histogram_of(const std::string& tag) const {
  auto it = by_tag_.find(tag);
  return it == by_tag_.end() ? nullptr : &it->second;
}

std::string EngineProfiler::render_table() const {
  auto rows = profiles();
  std::string out;
  char buf[160];
  std::snprintf(buf, sizeof buf, "%-24s %12s %12s %12s %12s %12s\n", "event tag", "count",
                "total (s)", "mean (us)", "min (us)", "max (us)");
  out += buf;
  for (const TagProfile& p : rows) {
    std::snprintf(buf, sizeof buf, "%-24s %12llu %12.4f %12.2f %12.2f %12.2f\n",
                  p.tag.c_str(), static_cast<unsigned long long>(p.count), p.total_s,
                  p.mean_us(), p.min_s * 1e6, p.max_s * 1e6);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "%llu events in %.3f s wall = %.0f events/sec\n",
                static_cast<unsigned long long>(events_), run_wall_s_, events_per_sec());
  out += buf;
  return out;
}

void EngineProfiler::write_json(std::ostream& out) const {
  out << "{\n"
      << "  \"events\": " << events_ << ",\n"
      << "  \"run_wall_s\": " << run_wall_s_ << ",\n"
      << "  \"handler_time_s\": " << handler_s_ << ",\n"
      << "  \"events_per_sec\": " << events_per_sec() << ",\n"
      << "  \"tags\": {";
  auto rows = profiles();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const TagProfile& p = rows[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    \"" << util::json_escape(p.tag) << "\": {\"count\": " << p.count
        << ", \"total_s\": " << p.total_s << ", \"mean_us\": " << p.mean_us()
        << ", \"min_us\": " << p.min_s * 1e6 << ", \"max_us\": " << p.max_s * 1e6 << "}";
  }
  out << "\n  }\n}\n";
}

}  // namespace chicsim::sim
