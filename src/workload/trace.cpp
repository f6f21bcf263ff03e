#include "workload/trace.hpp"

#include <cmath>
#include <fstream>
#include <map>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::workload {

void save_trace(const Workload& workload, std::ostream& out) {
  util::CsvWriter csv(out);
  csv.header({"job_id", "user", "origin_site", "runtime_s", "inputs"});
  for (const site::Job* job : workload.all_jobs()) {
    std::vector<std::string> input_strs;
    input_strs.reserve(job->inputs.size());
    for (auto d : job->inputs) input_strs.push_back(std::to_string(d));
    csv.row({std::to_string(job->id), std::to_string(job->user),
             std::to_string(job->origin_site), util::format_shortest(job->runtime_s),
             util::join(input_strs, ";")});
  }
}

void save_trace_file(const Workload& workload, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw util::SimError("trace: cannot write " + path);
  save_trace(workload, out);
}

Workload load_trace(std::istream& in) {
  util::CsvTable table = util::parse_csv(in);
  std::size_t c_id = table.column_index("job_id");
  std::size_t c_user = table.column_index("user");
  std::size_t c_origin = table.column_index("origin_site");
  std::size_t c_runtime = table.column_index("runtime_s");
  std::size_t c_inputs = table.column_index("inputs");

  std::map<site::UserId, std::vector<site::Job>> by_user;
  for (const auto& row : table.rows) {
    site::Job job;
    auto id = util::parse_int(row[c_id]);
    auto user = util::parse_int(row[c_user]);
    auto origin = util::parse_int(row[c_origin]);
    auto runtime = util::parse_double(row[c_runtime]);
    if (!id || !user || !origin || !runtime || !std::isfinite(*runtime) || *runtime < 0.0) {
      throw util::SimError("trace: malformed row for job " + row[c_id]);
    }
    job.id = static_cast<site::JobId>(*id);
    job.user = static_cast<site::UserId>(*user);
    job.origin_site = static_cast<data::SiteIndex>(*origin);
    job.runtime_s = *runtime;
    for (const auto& piece : util::split(row[c_inputs], ';')) {
      auto d = util::parse_int(piece);
      if (!d) throw util::SimError("trace: malformed input list: " + row[c_inputs]);
      job.inputs.push_back(static_cast<data::DatasetId>(*d));
    }
    if (job.inputs.empty()) throw util::SimError("trace: job without inputs");
    by_user[job.user].push_back(std::move(job));
  }
  if (by_user.empty()) throw util::SimError("trace: no jobs");

  // Users must be dense 0..N-1 for the Grid's user table.
  std::vector<std::vector<site::Job>> jobs_by_user;
  site::UserId expected = 0;
  for (auto& [user, jobs] : by_user) {
    if (user != expected) {
      throw util::SimError("trace: user ids must be dense, missing user " +
                           std::to_string(expected));
    }
    jobs_by_user.push_back(std::move(jobs));
    ++expected;
  }
  return Workload(std::move(jobs_by_user));
}

Workload load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::SimError("trace: cannot open " + path);
  return load_trace(in);
}

}  // namespace chicsim::workload
