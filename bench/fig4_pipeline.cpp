// Fig. 4: the worked global-memory pipeline example — w = 4, l = 5, warp
// W(0) touching address groups {0, 0, 1, 3} (3 stages) and warp W(1)
// touching group 2 (1 stage); both complete after 3 + 1 + 5 - 1 = 8 time
// units.  We replay it on the simulator with tracing enabled and print
// the per-cycle pipeline timeline.
#include <cstdlib>
#include <iostream>

#include "bench_common.hpp"
#include "machine/machine.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

int run() {
  bench::banner("Fig. 4 — global memory access pipeline (w=4, l=5)",
                "W(0) spans 3 address groups, W(1) is coalesced; total "
                "3 + 1 + 5 - 1 = 8 time units");

  Machine m = Machine::umm(/*w=*/4, /*l=*/5, /*p=*/8, /*mem=*/16);
  telemetry::CollectingSink trace;
  m.set_observer(&trace);
  // Fig. 4's request addresses: W(0) -> {0, 2, 6, 15}, W(1) -> {8..11}.
  const Address w0_addrs[4] = {0, 2, 6, 15};
  const auto r = m.run([&](ThreadCtx& t) -> SimTask {
    if (t.warp_id() == 0) {
      co_await t.read(MemorySpace::kGlobal,
                      w0_addrs[static_cast<std::size_t>(t.lane())]);
    } else {
      co_await t.read(MemorySpace::kGlobal, 8 + t.lane());
    }
  });

  Table t("injection trace");
  t.set_header({"warp", "stages", "inject cycles", "data ready"});
  bool ok = true;
  std::int64_t mem_events = 0;
  for (const auto& e : trace.events()) {
    if (e.kind != TraceEvent::Kind::kMemory) continue;
    ++mem_events;
    t.add_row({"W(" + std::to_string(e.warp) + ")", Table::cell(e.stages),
               std::to_string(e.begin) + ".." + std::to_string(e.end),
               Table::cell(e.ready)});
    if (e.warp == 0) ok &= e.stages == 3 && e.begin == 0 && e.end == 2;
    if (e.warp == 1) ok &= e.stages == 1 && e.begin == 3 && e.ready == 8;
  }
  t.print(std::cout);

  // ASCII timeline, one row per warp, one column per cycle.
  std::cout << "cycle     0 1 2 3 4 5 6 7 8\n";
  for (const auto& e : trace.events()) {
    if (e.kind != TraceEvent::Kind::kMemory) continue;
    std::string row = "W(" + std::to_string(e.warp) + ")     ";
    for (Cycle c = 0; c <= 8; ++c) {
      if (c >= e.begin && c <= e.end) row += " I";       // injecting
      else if (c > e.end && c < e.ready) row += " ~";    // in flight
      else if (c == e.ready) row += " R";                // data ready
      else row += "  ";
    }
    std::cout << row << "\n";
  }

  ok &= mem_events == 2 && r.makespan == 8;
  std::printf("fig4: %s (makespan %lld, paper says 3+1+5-1 = 8)\n",
              ok ? "PASS" : "FAIL", static_cast<long long>(r.makespan));
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace
}  // namespace hmm

int main() { return hmm::run(); }
