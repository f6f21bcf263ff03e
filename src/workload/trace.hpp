// Workload traces: save a generated workload to CSV and replay it later.
//
// The paper's future work plans runs against real access patterns (Fermi
// Lab traces); the trace format is the hook for that — any job stream
// expressed as (user, origin, runtime, inputs) rows can be replayed through
// the same Grid driver as the synthetic workloads.
#pragma once

#include <iosfwd>
#include <string>

#include "workload/generator.hpp"

namespace chicsim::workload {

/// Serialise a workload as CSV: job_id,user,origin_site,runtime_s,inputs
/// with inputs `;`-separated and runtime_s in shortest round-trip form, so
/// a reloaded trace replays bit for bit.
void save_trace(const Workload& workload, std::ostream& out);
void save_trace_file(const Workload& workload, const std::string& path);

/// Parse a trace back into a Workload. Jobs are grouped by user in row
/// order; ids are taken from the file. Throws SimError on malformed rows.
[[nodiscard]] Workload load_trace(std::istream& in);
[[nodiscard]] Workload load_trace_file(const std::string& path);

}  // namespace chicsim::workload
