// Ablation A7 — how much of the HMM's advantage comes from the shared
// memories being FAST?  §III fixes the shared latency at 1 because real
// GPU shared memory is 1-2 cycles; this ablation sweeps it from 1 up to
// the global latency.  As shared latency approaches l, the HMM sum's
// advantage over the flat UMM must vanish (its tree phase degenerates
// into Lemma 5 with the same latency).
#include <cstdlib>
#include <vector>

#include "alg/sum.hpp"
#include "alg/workload.hpp"
#include "bench_common.hpp"
#include "run/sweep.hpp"

namespace hmm {
namespace {

int run_ablation() {
  bench::banner("Ablation A7 — shared-memory latency sensitivity",
                "HMM sum, n = 2^18, d = 16, p = 2048, w = 32, global l = "
                "512; sweeping the shared latency");

  const std::int64_t n = 1 << 18, d = 16, pd = 128, w = 32, l = 512;
  const auto xs = alg::random_words(n, 1);
  const auto flat = alg::sum_umm(xs, d * pd, w, l);

  Table t("sweep over shared latency");
  t.set_header({"shared l", "HMM [tu]", "vs flat UMM"});
  bool ok = true;
  Cycle prev = 0;
  double first_speedup = 0.0;
  double last_speedup = 0.0;
  // Each latency point builds its own machine: evaluate the sweep across
  // all cores via SweepRunner, then apply the verdicts in sweep order.
  const std::vector<Cycle> sls = {1, 8, 64, 512};
  std::vector<Cycle> makespans(sls.size(), 0);
  std::vector<char> correct(sls.size(), false);
  run::SweepRunner(0).for_each(
      static_cast<std::int64_t>(sls.size()), [&](std::int64_t i) {
        const auto idx = static_cast<std::size_t>(i);
        Machine m = Machine::hmm(w, l, d, pd, std::max<std::int64_t>(pd, d),
                                 n + d, sls[idx]);
        m.global_memory().load(0, xs);
        const auto r = alg::sum_hmm(m, n);
        makespans[idx] = r.report.makespan;
        correct[idx] = r.sum == flat.sum ? 1 : 0;
      });
  for (std::size_t idx = 0; idx < sls.size(); ++idx) {
    ok &= correct[idx] != 0;
    last_speedup = static_cast<double>(flat.report.makespan) /
                   static_cast<double>(makespans[idx]);
    if (first_speedup == 0.0) first_speedup = last_speedup;
    t.add_row({Table::cell(sls[idx]), Table::cell(makespans[idx]),
               Table::cell(last_speedup, 2)});
    if (prev != 0) ok &= makespans[idx] >= prev;  // monotone degradation
    prev = makespans[idx];
  }
  t.print(std::cout);

  // The latency component of the advantage must erode monotonically...
  ok &= last_speedup < 0.9 * first_speedup;
  // ...but a residual MUST remain even at shared l == global l: the HMM
  // still owns d PRIVATE pipelines (d-fold bandwidth for the tree
  // phase), an advantage orthogonal to latency.  This decomposes the
  // §III design: latency 1 buys the l·log n -> l + log n collapse,
  // replication buys the rest.
  ok &= last_speedup > 1.5;
  std::printf("A7: %s (latency share of the win: %.2fx -> %.2fx as shared "
              "latency rises to the global one; the residual %.2fx is the "
              "d private pipelines)\n",
              ok ? "PASS" : "FAIL", first_speedup, last_speedup,
              last_speedup);
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}

}  // namespace
}  // namespace hmm

int main() { return hmm::run_ablation(); }
