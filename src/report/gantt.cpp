#include "report/gantt.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"
#include "core/mathutil.hpp"

namespace hmm {

std::string render_gantt(const RunReport& report,
                         std::span<const TraceEvent> events,
                         const GanttOptions& options) {
  HMM_REQUIRE(options.max_columns >= 8, "gantt: need >= 8 columns");
  HMM_REQUIRE(options.max_warps >= 1, "gantt: need >= 1 warp row");
  if (events.empty()) {
    return "(no trace recorded — attach a telemetry::CollectingSink to "
           "the run)\n";
  }

  const Cycle span = std::max<Cycle>(report.makespan, 1);
  const Cycle bucket = ceil_div(span + 1, options.max_columns);
  const auto columns =
      static_cast<std::int64_t>(ceil_div(span + 1, bucket));

  const std::int64_t warps = std::min<std::int64_t>(
      report.warps, options.max_warps);
  // Cell priority: injection > compute > in-flight > barrier > idle.
  std::vector<std::string> rows(static_cast<std::size_t>(warps),
                                std::string(static_cast<std::size_t>(columns),
                                            ' '));
  auto paint = [&](WarpId warp, Cycle from, Cycle to, char ch, int priority) {
    static const std::string order = " |~#I";  // rising priority
    if (warp >= warps || to < from) return;
    (void)priority;
    for (Cycle t = from; t <= to; ++t) {
      const auto col = static_cast<std::size_t>(t / bucket);
      if (col >= static_cast<std::size_t>(columns)) break;
      char& cell = rows[static_cast<std::size_t>(warp)][col];
      if (order.find(ch) > order.find(cell)) cell = ch;
    }
  };

  for (const TraceEvent& e : events) {
    switch (e.kind) {
      case TraceEvent::Kind::kMemory:
        paint(e.warp, e.begin, e.end, 'I', 4);
        paint(e.warp, e.end + 1, e.ready, '~', 2);
        break;
      case TraceEvent::Kind::kCompute:
        paint(e.warp, e.begin, e.end, '#', 3);
        break;
      case TraceEvent::Kind::kBarrier:
        paint(e.warp, e.begin, e.begin, '|', 1);
        break;
    }
  }

  std::ostringstream os;
  os << "time units 0.." << span << " (" << bucket << " per column); "
     << "I inject, ~ in flight, # compute, | barrier release\n";
  for (std::int64_t wid = 0; wid < warps; ++wid) {
    os << "W" << wid << (wid < 10 ? "   " : (wid < 100 ? "  " : " ")) << "["
       << rows[static_cast<std::size_t>(wid)] << "]\n";
  }
  if (report.warps > warps) {
    os << "... " << report.warps - warps << " more warps elided\n";
  }
  return os.str();
}

}  // namespace hmm
