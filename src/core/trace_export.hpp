// Chrome trace_event export (Perfetto-loadable).
//
// Serialises a SpanBuilder's reconstruction of a run into the Chrome
// trace_event JSON format, so a chicsim run can be opened in
// https://ui.perfetto.dev (or chrome://tracing) and visually inspected:
//
//   - one *process* per site (named after the topology node), with the
//     site's compute elements as threads carrying complete ("X") compute
//     spans — overlapping spans are packed into lanes greedily, which
//     recovers a consistent per-element view from the pooled compute model;
//   - per-job phase spans (placement, queue, fetches, compute, output) as
//     async ("b"/"e") events on the execution site, id = job id, so
//     Perfetto draws one row per in-flight job;
//   - a "network" process with one async span per transfer and per-link
//     concurrent-flow counter ("C") tracks derived from the routing paths;
//   - a "grid" process with counter tracks replayed from TimelineSamples
//     (queue depth, running jobs, active transfers, replica population).
//
// Timestamps are virtual seconds scaled to microseconds (the unit the
// format mandates).
#pragma once

#include <iosfwd>
#include <vector>

#include "core/spans.hpp"
#include "core/timeline.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"

namespace chicsim::core {

/// Write the full trace. `topology` names sites and links; `routing` may be
/// nullptr, which drops the per-link counter tracks; `timeline` may be
/// empty, which drops the grid counter tracks.
void write_chrome_trace(std::ostream& out, const SpanBuilder& spans,
                        const net::Topology& topology, std::size_t site_count,
                        const net::Routing* routing,
                        const std::vector<TimelineSample>& timeline);

}  // namespace chicsim::core
