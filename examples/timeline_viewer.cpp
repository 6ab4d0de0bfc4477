// Domain example 6: visualising latency hiding.  Runs the same
// contiguous-read workload with 2, then 8, then 32 warps on a
// latency-16 UMM and draws the pipeline timeline — you can literally
// SEE the in-flight gaps (~) close as warps are added, the mechanism
// behind Lemma 1's nl/p term.
#include <cstdio>
#include <iostream>

#include "machine/machine.hpp"
#include "report/gantt.hpp"
#include "telemetry/sink.hpp"

using namespace hmm;

namespace {

void show(std::int64_t warps) {
  const std::int64_t w = 8, l = 16, n = 512;
  Machine m = Machine::umm(w, l, warps * w, n);
  telemetry::CollectingSink trace;
  m.set_observer(&trace);
  const auto r = m.run([&](ThreadCtx& t) -> SimTask {
    for (Address i = t.thread_id(); i < n; i += t.num_threads()) {
      co_await t.read(MemorySpace::kGlobal, i);
    }
  });
  std::printf("\n--- %lld warps (p = %lld): %lld time units ---\n",
              static_cast<long long>(warps),
              static_cast<long long>(warps * w),
              static_cast<long long>(r.makespan));
  GanttOptions opt;
  opt.max_warps = 8;
  std::cout << render_gantt(r, trace.events(), opt);
}

}  // namespace

int main() {
  std::printf("Latency hiding on a UMM (w = 8, l = 16, n = 512 reads)\n");
  std::printf("Watch the ~ gaps (requests in flight, warp stalled) fill "
              "with other warps' work:\n");
  show(2);   // latency-bound: mostly ~
  show(8);   // half-hidden
  show(32);  // saturated: wall-to-wall injections
  std::printf("\nLemma 1 in one picture: time = max(n/w, nl/p) + l.\n");
  return 0;
}
