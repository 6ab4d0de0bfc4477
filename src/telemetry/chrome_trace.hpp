// Chrome trace-event exporter — renders a TraceEvent stream as a JSON
// Trace Event file loadable in chrome://tracing / Perfetto ("Open trace
// file").  One process row per DMM, one thread track per warp; memory
// batches appear as complete slices split into an "injection" span
// (begin..end, cat "memory") and the in-flight latency tail
// (end+1..ready-1, cat "latency"), compute cycles as cat "compute"
// slices, and barrier releases as instant events.
//
// Simulator cycles map 1:1 to microseconds (the trace-event time unit);
// scale with ChromeTraceOptions::time_scale when zooming tiny runs.
// Works on any event span: CollectingSink::events() or
// RingBufferSink::events_in_order() (a ring window is simply a
// truncated-but-valid trace).
#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>

#include "machine/report.hpp"

namespace hmm::telemetry {

struct ChromeTraceOptions {
  /// Emit process/thread name metadata ("M" events) for every DMM/warp
  /// present in the stream.
  bool metadata = true;
  /// Microseconds per simulator cycle (>= 1).
  std::int64_t time_scale = 1;
};

/// Serialize `events` as a complete Chrome trace JSON object.
void write_chrome_trace(std::ostream& out, std::span<const TraceEvent> events,
                        const ChromeTraceOptions& options = {});

/// Convenience: the same document as a string.
std::string chrome_trace_json(std::span<const TraceEvent> events,
                              const ChromeTraceOptions& options = {});

}  // namespace hmm::telemetry
