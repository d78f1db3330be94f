#pragma once

// Pluggable output sinks for ucp::obs.
//
// Three consumers of the same instrumentation:
//  - Chrome `trace_event` JSON (complete 'X' events), loadable in Perfetto
//    or chrome://tracing;
//  - metrics snapshot JSON files (and the single-line form served by the
//    admin STATS verb and appended to the journal as a comment);
//  - a human-readable end-of-run profile table, top spans by inclusive /
//    exclusive time.
//
// Every file write passes the `obs.sink_write` fault point and returns a
// Status. Sinks are observers: callers must degrade a sink failure to a
// warning — it may never fail a sweep row or perturb a result.

#include <cstddef>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/status.hpp"

namespace ucp::obs {

/// Serializes events as a Chrome trace: {"traceEvents":[...],
/// "displayTimeUnit":"ms"}. One complete event (`ph:"X"`) per span;
/// ts/dur in microseconds; `cat` is the `layer` segment of the span name;
/// exclusive time rides in args.excl_us.
std::string trace_json(const std::vector<TraceEvent>& events);

/// Writes `trace_json(events)` to `path` (via the obs.sink_write fault
/// point). kInternal on I/O failure.
Status write_trace_file(const std::string& path,
                        const std::vector<TraceEvent>& events);

/// Writes `snapshot_json(snapshot)` (+ trailing newline) to `path`.
Status write_metrics_file(const std::string& path, const Snapshot& snapshot);

/// Prometheus text exposition (version 0.0.4) of a snapshot, for the ucpd
/// admin plane's `STATS prom` verb. Names are mangled `a.b.c` ->
/// `ucp_a_b_c`; counters become `counter`, gauges `gauge`, and the
/// power-of-two histograms render as native Prometheus histograms with
/// cumulative `_bucket{le="..."}` series (le = each non-empty bucket's
/// upper value bound, plus "+Inf"), `_sum` and `_count`.
std::string prometheus_text(const Snapshot& snapshot);

/// Aggregates events by span name and renders the top `top_n` rows by
/// inclusive time: calls, inclusive/exclusive totals and means, share of
/// the busiest span. Empty string when there are no events.
std::string profile_table(const std::vector<TraceEvent>& events,
                          std::size_t top_n = 16);

}  // namespace ucp::obs
