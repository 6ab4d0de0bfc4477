// ASCII Gantt rendering of a recorded TraceEvent stream — one row per
// warp, one column per time bucket, showing injection (I), in-flight
// (~), compute (#) and barrier-release (|) activity.  Used by the
// timeline example.
#pragma once

#include <span>
#include <string>

#include "machine/report.hpp"

namespace hmm {

struct GanttOptions {
  std::int64_t max_columns = 96;  ///< terminal width budget (>= 8)
  std::int64_t max_warps = 32;    ///< rows; later warps are elided
};

/// Render `events` — the trace of the run that produced `report`, e.g. a
/// telemetry::CollectingSink's events() — into an ASCII chart spanning
/// [0, report.makespan].  When the makespan exceeds max_columns, each
/// column aggregates a bucket of cycles and shows the dominant activity.
std::string render_gantt(const RunReport& report,
                         std::span<const TraceEvent> events,
                         const GanttOptions& options = {});

}  // namespace hmm
