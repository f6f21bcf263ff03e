#include "core/trace_export.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <queue>
#include <string>
#include <vector>

#include "util/string_util.hpp"

namespace chicsim::core {

namespace {

constexpr double kSecondsToMicros = 1e6;

/// Comma-managed writer for the flat traceEvents array.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& out) : out_(out) {}

  /// Begin one event object; the caller appends fields via field()/raw()
  /// and then calls close().
  void open() {
    out_ << (first_ ? "\n" : ",\n") << "    {";
    first_ = false;
    first_field_ = true;
  }
  void field(const char* key, const std::string& value) {
    sep();
    out_ << '"' << key << "\": \"" << util::json_escape(value) << '"';
  }
  void field(const char* key, double value) {
    sep();
    out_ << '"' << key << "\": " << value;
  }
  void field(const char* key, std::uint64_t value) {
    sep();
    out_ << '"' << key << "\": " << value;
  }
  /// Raw JSON fragment (for args objects).
  void raw(const char* key, const std::string& json) {
    sep();
    out_ << '"' << key << "\": " << json;
  }
  void close() { out_ << '}'; }

 private:
  void sep() {
    if (!first_field_) out_ << ", ";
    first_field_ = false;
  }

  std::ostream& out_;
  bool first_ = true;
  bool first_field_ = true;
};

void write_metadata(EventWriter& w, const char* what, std::uint64_t pid,
                    std::uint64_t tid, const std::string& name, bool with_tid) {
  w.open();
  w.field("name", std::string(what));
  w.field("ph", std::string("M"));
  w.field("pid", pid);
  if (with_tid) w.field("tid", tid);
  w.raw("args", "{\"name\": \"" + util::json_escape(name) + "\"}");
  w.close();
}

void write_async(EventWriter& w, const char* ph, const std::string& name,
                 const std::string& cat, std::uint64_t id, std::uint64_t pid,
                 double ts_us) {
  w.open();
  w.field("name", name);
  w.field("cat", cat);
  w.field("ph", std::string(ph));
  w.field("id", id);
  w.field("pid", pid);
  w.field("tid", std::uint64_t{0});
  w.field("ts", ts_us);
  w.close();
}

void write_async_span(EventWriter& w, const std::string& name, const std::string& cat,
                      std::uint64_t id, std::uint64_t pid, double start_s, double end_s) {
  write_async(w, "b", name, cat, id, pid, start_s * kSecondsToMicros);
  write_async(w, "e", name, cat, id, pid, end_s * kSecondsToMicros);
}

void write_counter(EventWriter& w, const std::string& name, std::uint64_t pid,
                   double ts_us, const std::string& args_json) {
  w.open();
  w.field("name", name);
  w.field("ph", std::string("C"));
  w.field("pid", pid);
  w.field("ts", ts_us);
  w.raw("args", args_json);
  w.close();
}

std::string link_label(const net::Topology& topology, net::LinkId link) {
  const net::Link& l = topology.link(link);
  return "link " + topology.node(l.a).name + "-" + topology.node(l.b).name;
}

/// Pack possibly-overlapping [start, end) intervals into the smallest
/// number of lanes (greedy, optimal for interval graphs): sort by start,
/// reuse the lane that freed up earliest.
struct ComputeInterval {
  double start = 0.0;
  double end = 0.0;
  site::JobId job = site::kNoJob;
};

std::vector<std::size_t> assign_lanes(std::vector<ComputeInterval>& intervals) {
  std::sort(intervals.begin(), intervals.end(), [](const auto& a, const auto& b) {
    return a.start < b.start || (a.start == b.start && a.job < b.job);
  });
  std::vector<std::size_t> lane_of(intervals.size());
  using LaneEnd = std::pair<double, std::size_t>;  // (end time, lane)
  std::priority_queue<LaneEnd, std::vector<LaneEnd>, std::greater<>> busy;
  std::size_t lanes = 0;
  for (std::size_t i = 0; i < intervals.size(); ++i) {
    if (!busy.empty() && busy.top().first <= intervals[i].start) {
      lane_of[i] = busy.top().second;
      busy.pop();
    } else {
      lane_of[i] = lanes++;
    }
    busy.emplace(intervals[i].end, lane_of[i]);
  }
  return lane_of;
}

}  // namespace

void write_chrome_trace(std::ostream& out, const SpanBuilder& spans,
                        const net::Topology& topology, std::size_t site_count,
                        const net::Routing* routing,
                        const std::vector<TimelineSample>& timeline) {
  const auto network_pid = static_cast<std::uint64_t>(site_count);
  const auto grid_pid = static_cast<std::uint64_t>(site_count + 1);

  auto old_precision = out.precision(15);
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  EventWriter w(out);

  // --- process / thread names ---
  for (std::size_t s = 0; s < site_count; ++s) {
    // build_hierarchy/build_star create site nodes first, so NodeId == index.
    write_metadata(w, "process_name", s, 0, topology.node(static_cast<net::NodeId>(s)).name,
                   /*with_tid=*/false);
    write_metadata(w, "thread_name", s, 0, "jobs", /*with_tid=*/true);
  }
  write_metadata(w, "process_name", network_pid, 0, "network", /*with_tid=*/false);
  if (!timeline.empty()) {
    write_metadata(w, "process_name", grid_pid, 0, "grid", /*with_tid=*/false);
  }

  // --- compute spans, packed into per-site compute-element lanes ---
  std::vector<std::vector<ComputeInterval>> per_site(site_count);
  for (const JobSpans& j : spans.jobs()) {
    if (!j.completed || j.exec_site >= site_count || j.compute_s() <= 0.0) continue;
    per_site[j.exec_site].push_back({j.start, j.compute_done, j.job});
  }
  for (std::size_t s = 0; s < site_count; ++s) {
    auto& intervals = per_site[s];
    if (intervals.empty()) continue;
    std::vector<std::size_t> lane_of = assign_lanes(intervals);
    std::size_t max_lane = *std::max_element(lane_of.begin(), lane_of.end());
    for (std::size_t lane = 0; lane <= max_lane; ++lane) {
      write_metadata(w, "thread_name", s, lane + 1, "ce" + std::to_string(lane),
                     /*with_tid=*/true);
    }
    for (std::size_t i = 0; i < intervals.size(); ++i) {
      const ComputeInterval& iv = intervals[i];
      w.open();
      w.field("name", "job " + std::to_string(iv.job));
      w.field("cat", std::string("compute"));
      w.field("ph", std::string("X"));
      w.field("pid", static_cast<std::uint64_t>(s));
      w.field("tid", static_cast<std::uint64_t>(lane_of[i] + 1));
      w.field("ts", iv.start * kSecondsToMicros);
      w.field("dur", (iv.end - iv.start) * kSecondsToMicros);
      w.raw("args", "{\"job\": " + std::to_string(iv.job) + "}");
      w.close();
    }
  }

  // --- per-job phase spans (async, one row per job on its exec site) ---
  for (const JobSpans& j : spans.jobs()) {
    if (!j.completed || j.exec_site >= site_count) continue;
    const auto id = static_cast<std::uint64_t>(j.job);
    const auto pid = static_cast<std::uint64_t>(j.exec_site);
    std::string label = "job " + std::to_string(j.job) + " [" +
                        to_string(j.critical_path()) + "]";
    write_async_span(w, label, "job", id, pid, j.submit, j.finish);
    if (j.placement_wait_s() > 0.0) {
      write_async_span(w, "placement", "job", id, pid, j.submit, j.dispatch);
    }
    if (j.queue_wait_s() > 0.0) {
      write_async_span(w, "queue", "job", id, pid, j.dispatch, j.start);
    }
    for (const FetchSpan& f : j.fetches) {
      std::string name = std::string(f.joined ? "fetch (joined) ds" : "fetch ds") +
                         std::to_string(f.dataset) + " from " +
                         topology.node(static_cast<net::NodeId>(f.source)).name;
      write_async_span(w, name, "job", id, pid, f.start, f.end);
    }
    if (j.compute_s() > 0.0) {
      write_async_span(w, "compute", "job", id, pid, j.start, j.compute_done);
    }
    if (j.output_wait_s() > 0.0) {
      write_async_span(w, "output return", "job", id, pid, j.compute_done, j.finish);
    }
  }

  // --- network transfers ---
  {
    std::uint64_t transfer_id = 0;
    for (const TransferSpan& t : spans.transfers()) {
      ++transfer_id;
      if (!t.completed || t.src == t.dst) continue;  // local hits take no link time
      std::string name =
          std::string(t.kind == TransferSpan::Kind::Fetch ? "fetch" : "replicate") +
          " ds" + std::to_string(t.dataset) + " " +
          topology.node(static_cast<net::NodeId>(t.src)).name + "->" +
          topology.node(static_cast<net::NodeId>(t.dst)).name;
      write_async_span(w, name, "transfer", transfer_id, network_pid, t.start, t.end);
    }
  }

  // --- per-link concurrent-flow counters ---
  if (routing != nullptr) {
    // Merge +1/-1 deltas per link over time, then emit the running level.
    std::map<net::LinkId, std::map<double, int>> deltas;
    for (const TransferSpan& t : spans.transfers()) {
      if (!t.completed || t.src == t.dst) continue;
      for (net::LinkId l : routing->path(t.src, t.dst)) {
        deltas[l][t.start] += 1;
        deltas[l][t.end] -= 1;
      }
    }
    for (const auto& [link, series] : deltas) {
      std::string name = link_label(topology, link);
      int level = 0;
      for (const auto& [time, delta] : series) {
        level += delta;
        write_counter(w, name, network_pid, time * kSecondsToMicros,
                      "{\"flows\": " + std::to_string(level) + "}");
      }
    }
  }

  // --- fault markers (instant events) ---
  for (const GridEvent& e : spans.fault_marks()) {
    std::string name;
    std::uint64_t pid = grid_pid;
    std::string scope = "p";  // process-scoped arrow in the Perfetto UI
    switch (e.type) {
      case GridEventType::SiteFailed:
        name = "site crash";
        pid = static_cast<std::uint64_t>(e.site_a);
        break;
      case GridEventType::SiteRecovered:
        name = "site recovery";
        pid = static_cast<std::uint64_t>(e.site_a);
        break;
      case GridEventType::LinkDegraded:
        name = (e.mb < 1.0 ? "link degraded " : "link restored ") +
               topology.node(static_cast<net::NodeId>(e.site_a)).name + "-" +
               topology.node(static_cast<net::NodeId>(e.site_b)).name;
        pid = network_pid;
        break;
      default:
        continue;
    }
    if (pid >= site_count && pid != network_pid) pid = network_pid;
    w.open();
    w.field("name", name);
    w.field("cat", std::string("fault"));
    w.field("ph", std::string("i"));
    w.field("s", scope);
    w.field("pid", pid);
    w.field("tid", std::uint64_t{0});
    w.field("ts", e.time * kSecondsToMicros);
    w.close();
  }

  // --- grid-wide counters from the timeline ---
  if (!timeline.empty()) {
    for (const TimelineSample& s : timeline) {
      double ts = s.time * kSecondsToMicros;
      write_counter(w, "jobs", grid_pid, ts,
                    "{\"queued\": " + std::to_string(s.jobs_queued) +
                        ", \"running\": " + std::to_string(s.jobs_running) + "}");
      write_counter(w, "active_transfers", grid_pid, ts,
                    "{\"value\": " + std::to_string(s.active_transfers) + "}");
      write_counter(w, "total_replicas", grid_pid, ts,
                    "{\"value\": " + std::to_string(s.total_replicas) + "}");
    }
  }

  out << "\n  ]\n}\n";
  out.precision(old_precision);
}

}  // namespace chicsim::core
