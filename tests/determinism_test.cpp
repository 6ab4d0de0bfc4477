// Determinism regression: a (config, kernel, inputs) triple fully
// determines the RunReport.  The perf work (heap ready-queue, scratch
// reuse, stamped batch pricing, SweepRunner pool) must not change a
// single field — repeated runs and sweeps at thread counts 1, 2 and 8
// have to agree byte for byte (RunReport::operator== compares every
// counter and pipeline stat; a CollectingSink compares the trace event
// for event).
#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "alg/convolution.hpp"
#include "alg/matmul.hpp"
#include "alg/prefix_sums.hpp"
#include "alg/sort.hpp"
#include "alg/string_match.hpp"
#include "alg/sum.hpp"
#include "alg/workload.hpp"
#include "machine/machine.hpp"
#include "run/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

TEST(Determinism, RepeatedRunsProduceIdenticalReports) {
  const std::int64_t n = 1 << 12;
  const auto xs = alg::random_words(n, 11);
  Machine m = Machine::hmm(32, 200, 4, 64, 64, n + 4);
  m.global_memory().load(0, xs);

  const RunReport first = alg::sum_hmm(m, n).report;
  for (int i = 0; i < 3; ++i) {
    const RunReport again = alg::sum_hmm(m, n).report;
    EXPECT_EQ(first, again) << "repetition " << i;
  }
  EXPECT_GT(first.makespan, 0);
}

TEST(Determinism, TracedRunsProduceIdenticalTraces) {
  const std::int64_t n = 1 << 10;
  const auto xs = alg::random_words(n, 3);
  Machine m = Machine::hmm(32, 100, 2, 64, 64, n + 2);
  m.global_memory().load(0, xs);
  telemetry::CollectingSink sink;
  m.set_observer(&sink);

  const RunReport first = alg::sum_hmm(m, n).report;
  const std::vector<TraceEvent> first_trace = sink.events();
  const RunReport again = alg::sum_hmm(m, n).report;
  ASSERT_FALSE(first_trace.empty());
  EXPECT_EQ(first, again);
  EXPECT_EQ(first_trace, sink.events());
}

TEST(Determinism, FreshMachinesProduceIdenticalReports) {
  // Two machines built from the same config with the same inputs: no
  // state may leak between instances (scratch tables are per-port).
  const std::int64_t n = 1 << 10;
  const auto xs = alg::random_words(n, 5);
  auto build_and_run = [&]() {
    Machine m = Machine::hmm(32, 150, 4, 32, 32, n + 4);
    m.global_memory().load(0, xs);
    return alg::sum_hmm(m, n).report;
  };
  EXPECT_EQ(build_and_run(), build_and_run());
}

// The sweep pool must be invisible in the results: any job count yields
// the same report and trace for every grid point, in the same order.
TEST(Determinism, SweepReportsIdenticalAcrossThreadCounts) {
  const std::int64_t points = 12;
  const auto kernel = [](ThreadCtx& t) -> SimTask {
    Word acc = 0;
    for (int i = 0; i < 4; ++i) {
      acc += co_await t.read(MemorySpace::kGlobal,
                             (t.thread_id() * 7 + i * 13) % (1 << 12));
      co_await t.compute();
    }
    co_await t.barrier();
    co_await t.write(MemorySpace::kGlobal, t.thread_id(), acc);
  };
  using Traced = std::pair<RunReport, std::vector<TraceEvent>>;
  const auto sweep = [&](std::int64_t threads) {
    std::vector<Traced> out(static_cast<std::size_t>(points));
    run::SweepRunner(threads).for_each(points, [&](std::int64_t g) {
      MachineConfig config;
      config.width = 16;
      config.dmms = {DmmShape{32 + 16 * (g % 3), std::nullopt, {}}};
      config.global = MemorySpec{1 << 12, 50 + 25 * (g % 4)};
      Machine machine(std::move(config));
      telemetry::CollectingSink sink;  // every other point is traced
      if (g % 2 == 0) machine.set_observer(&sink);
      const RunReport report = machine.run(kernel);
      out[static_cast<std::size_t>(g)] = {report, sink.events()};
    });
    return out;
  };

  const std::vector<Traced> serial = sweep(1);
  ASSERT_FALSE(serial.front().second.empty());
  for (const std::int64_t threads : {2, 8}) {
    const std::vector<Traced> pooled = sweep(threads);
    ASSERT_EQ(pooled.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i], pooled[i])
          << "grid point " << i << " at " << threads << " threads";
    }
  }
}

TEST(Determinism, SweepForEachCoversEveryIndexExactlyOnce) {
  for (const std::int64_t threads : {1, 2, 8}) {
    std::vector<int> hits(100, 0);
    run::SweepRunner(threads).for_each(
        100, [&](std::int64_t i) { hits[static_cast<std::size_t>(i)]++; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "index " << i << " at " << threads
                            << " threads";
    }
  }
}

// ---- Fast-forward equivalence ---------------------------------------------
//
// The verified replay path (docs/PERF.md, "Analytic fast-forward") is an
// engine STRATEGY, not a model change: with --fast-forward on or off,
// every field RunReport::operator== compares — makespan, pipeline and
// exec stats, barrier releases, metrics — every trace event and every
// word the kernel computes must agree exactly.  Only FastForwardStats
// (excluded from equality by design) may differ.

/// One span-driver run: its report and the words the kernel computed.
struct FfRun {
  RunReport report;
  std::vector<Word> output;
};

struct FfDriver {
  const char* name;
  std::function<FfRun(bool ff, EngineObserver* observer)> run;
  std::int64_t dmms = 0;             ///< d of an hmm driver, 0 on umm
  std::int64_t threads_per_dmm = 0;  ///< its p/d
};

std::vector<FfDriver> ff_drivers() {
  // Shared inputs, captured by value so each case is self-contained.
  const auto xs = alg::random_words(1 << 12, 17);       // sums, scans, conv
  const auto keys = alg::random_words(1 << 9, 29);      // bitonic sorts
  const auto taps = alg::random_words(8, 23);           // conv kernel
  // Conv signal: length n + m - 1 with n a multiple of the HMM d.
  const auto sig = alg::random_words((1 << 12) + 8 - 1, 43);
  const auto pattern = alg::random_words(8, 19);
  const auto text = alg::random_words(1 << 10, 31);
  const auto a = alg::random_words(16 * 16, 37);
  const auto b = alg::random_words(16 * 16, 41);
  return {
      {"sum_umm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::sum_umm(xs, 256, 32, 100, obs, ff);
         return FfRun{r.report, {r.sum}};
       }},
      {"sum_hmm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::sum_hmm(xs, 4, 64, 32, 100, obs, ff);
         return FfRun{r.report, {r.sum}};
       },
       4, 64},
      {"prefix_sums_umm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::prefix_sums_umm(xs, 256, 32, 100, obs, ff);
         return FfRun{r.report, r.prefix};
       }},
      {"prefix_sums_hmm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::prefix_sums_hmm(xs, 4, 64, 32, 100, obs, ff);
         return FfRun{r.report, r.prefix};
       },
       4, 64},
      {"sort_umm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::sort_umm(keys, 128, 32, 100, obs, ff);
         return FfRun{r.report, r.sorted};
       }},
      {"sort_hmm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::sort_hmm(keys, 4, 32, 32, 100, obs, ff);
         return FfRun{r.report, r.sorted};
       },
       4, 32},
      {"convolution_umm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::convolution_umm(taps, sig, 256, 32, 100, obs, ff);
         return FfRun{r.report, r.z};
       }},
      {"convolution_hmm",
       [=](bool ff, EngineObserver* obs) {
         const auto r =
             alg::convolution_hmm(taps, sig, 4, 32, 32, 100, obs, ff);
         return FfRun{r.report, r.z};
       },
       4, 32},
      {"matmul_umm",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::matmul_umm(a, b, 16, 256, 32, 100, obs, ff);
         return FfRun{r.report, r.c};
       }},
      {"matmul_hmm_tiled",
       [=](bool ff, EngineObserver* obs) {
         const auto r = alg::matmul_hmm_tiled(a, b, 16, 4, 32, 32, 100,
                                              /*tile=*/8, obs, ff);
         return FfRun{r.report, r.c};
       },
       4, 32},
      {"string_match_umm",
       [=](bool ff, EngineObserver* obs) {
         const auto r =
             alg::string_match_umm(pattern, text, 128, 32, 100, obs, ff);
         return FfRun{r.report, r.distance};
       }},
      {"string_match_hmm",
       [=](bool ff, EngineObserver* obs) {
         const auto r =
             alg::string_match_hmm(pattern, text, 4, 32, 32, 100, obs, ff);
         return FfRun{r.report, r.distance};
       },
       4, 32},
  };
}

// A replayed round that delivered a wrong value or lost a write would
// show in the output words even where the report stayed equal.
TEST(FastForwardEquivalence, EverySpanDriverMatchesWithReplayOff) {
  std::int64_t replayed_on = 0;
  for (const FfDriver& d : ff_drivers()) {
    const FfRun on = d.run(true, nullptr);
    const FfRun off = d.run(false, nullptr);
    EXPECT_EQ(on.report, off.report) << d.name;
    ASSERT_FALSE(on.output.empty()) << d.name;
    EXPECT_EQ(on.output, off.output) << d.name;
    EXPECT_EQ(off.report.fast_forward.replayed_rounds, 0)
        << d.name << ": off must not replay";
    replayed_on += on.report.fast_forward.replayed_rounds;
  }
  // The equivalence must not pass vacuously: at least some drivers
  // (periodic sums / scans / convolution) have to actually replay.
  EXPECT_GT(replayed_on, 0);
}

// An exclusive warp (the only warp of its DMM) replays its DMM-local
// rounds in one fused block, ahead of the ready queue.  The round that
// breaks the pattern — here DMM 0's global write after `inner` shared
// reads — must still reach the shared global pipeline in clock order,
// behind DMM 1's earlier global reads.
TEST(FastForwardEquivalence, ExclusiveRunAheadKeepsGlobalRoundsInClockOrder) {
  for (const auto& [l, inner] : {std::pair<Cycle, int>{5, 20},
                                 {5, 200},
                                 {20, 200},
                                 {100, 200}}) {
    const auto run = [l, inner](bool ff) {
      Machine m = Machine::hmm(4, l, 2, 4, 64, 256);
      m.set_fast_forward(ff);
      return m.run([inner](ThreadCtx& t) -> SimTask {
        if (t.dmm_id() == 0) {
          for (int i = 0; i < inner; ++i) {
            co_await t.read(MemorySpace::kShared, t.lane());
          }
          co_await t.write(MemorySpace::kGlobal, 100 + t.lane(), 1);
        } else {
          for (int i = 0; i < 6; ++i) {
            co_await t.read(MemorySpace::kGlobal, 4 * i + t.lane());
          }
        }
      });
    };
    const RunReport on = run(true);
    const RunReport off = run(false);
    EXPECT_GT(on.fast_forward.replayed_rounds, 0)
        << "l=" << l << " inner=" << inner;
    EXPECT_EQ(on, off) << "l=" << l << " inner=" << inner << ": makespan "
                       << on.makespan << " with replay, " << off.makespan
                       << " without";
  }
}

// A lane that finishes while its warp's tracker records a pattern
// leaves memory slots priced for more lanes than remain.  Each lane reads
// shared lane*4 (a 4-way conflict) and computes twice per iteration;
// lanes >= 1 exit at iteration 3.
TEST(FastForwardEquivalence, LaneExitWhileRecordingIsExact) {
  const auto run = [](bool ff) {
    Machine m = Machine::dmm(4, 1, 4, 256);
    m.set_fast_forward(ff);
    return m.run([](ThreadCtx& t) -> SimTask {
      for (int i = 0; i < 8; ++i) {
        co_await t.read(MemorySpace::kShared, t.lane() * 4);
        if (i == 3 && t.lane() >= 1) co_return;
        co_await t.compute(1);
        co_await t.compute(1);
      }
    });
  };
  const RunReport on = run(true);
  const RunReport off = run(false);
  EXPECT_EQ(off.makespan, 36);
  EXPECT_EQ(off.shared_pipelines[0].stages, 20);
  EXPECT_EQ(off.shared_pipelines[0].requests, 20);
  EXPECT_EQ(on, off) << "makespan " << on.makespan << " with replay, "
                     << off.makespan << " without";
}

// On a 32-wide warp the convolution's 4-thread DMMs stage their input in
// with a first address that steps by 4 words, which replay may shift
// only by multiples of w.  Taking that copy for a period-2 pattern spent
// every warp's bailout budget and switched replay off before the
// convolution phase, which does repeat.
TEST(FastForwardEquivalence, StridedStageInLeavesTheConvolutionReplayable) {
  const auto taps = alg::random_words(32, 23);
  const auto sig = alg::random_words(alg::conv_signal_length(32, 1024), 43);
  const auto on = alg::convolution_hmm(taps, sig, 8, 4, 32, 100, nullptr, true);
  const auto off =
      alg::convolution_hmm(taps, sig, 8, 4, 32, 100, nullptr, false);
  EXPECT_GE(on.report.fast_forward.replayed_rounds, 10000);
  EXPECT_EQ(on.report, off.report);
  EXPECT_EQ(on.z, off.z);
}

// A trace sink turns replay off, but fast-forward still prices batches
// from the pattern cache: cache-priced and freshly profiled runs must
// emit the same events.
TEST(FastForwardEquivalence, TracedRunsMatchEventForEvent) {
  const std::int64_t n = 1 << 10;
  const auto xs = alg::random_words(n, 7);
  auto run = [&](bool ff) {
    Machine m = Machine::hmm(32, 100, 2, 64, 64, n + 2);
    m.set_fast_forward(ff);
    m.global_memory().load(0, xs);
    telemetry::CollectingSink sink;
    m.set_observer(&sink);
    const RunReport report = alg::sum_hmm(m, n).report;
    return std::pair<RunReport, std::vector<TraceEvent>>{report,
                                                         sink.events()};
  };
  const auto on = run(true);
  const auto off = run(false);
  ASSERT_FALSE(on.second.empty());
  EXPECT_GT(on.first.fast_forward.cache_hits, 0);
  EXPECT_EQ(on, off);
}

TEST(FastForwardEquivalence, MetricsObserverSeesIdenticalRuns) {
  const auto xs = alg::random_words(1 << 11, 13);
  auto run = [&](bool ff) {
    telemetry::MetricsRegistry metrics;
    const RunReport r = alg::sum_hmm(xs, 4, 32, 32, 100, &metrics, ff).report;
    return std::pair<RunReport, MetricsSnapshot>{r, metrics.snapshot()};
  };
  const auto on = run(true);
  const auto off = run(false);
  EXPECT_EQ(on.first, off.first);
  EXPECT_EQ(on.second, off.second);
}

// A machine's pattern cache outlives each of its runs, so what a run
// computes must not depend on what that machine ran before: a cache warm
// from a sort and a sum prices exactly what a fresh machine's cold one
// does.
TEST(Determinism, WarmPatternCacheNeverChangesResults) {
  const std::int64_t n = 1 << 9;
  const std::int64_t d = 4;
  const auto keys = alg::random_words(n, 29);
  const auto fresh = [&] {
    return Machine::hmm(32, 100, d, 64, n / d, n + d);
  };
  const auto sum = [&](Machine& m) {
    m.global_memory().load(0, keys);
    return alg::sum_hmm(m, n);
  };
  const auto sort = [&](Machine& m) {
    m.global_memory().load(0, keys);
    return alg::sort_hmm(m, n);
  };
  Machine cold_sum_machine = fresh();
  const alg::MachineSum cold_sum = sum(cold_sum_machine);
  Machine cold_sort_machine = fresh();
  const alg::MachineSort cold_sort = sort(cold_sort_machine);

  Machine machine = fresh();
  sort(machine);
  const alg::MachineSum warm_sum = sum(machine);
  EXPECT_EQ(warm_sum.report, cold_sum.report);
  EXPECT_EQ(warm_sum.sum, cold_sum.sum);
  const alg::MachineSort warm_sort = sort(machine);
  EXPECT_EQ(warm_sort.report, cold_sort.report);
  EXPECT_EQ(warm_sort.sorted, cold_sort.sorted);
  EXPECT_EQ(warm_sort.report.fast_forward.cache_misses, 0);
  EXPECT_GT(warm_sort.report.fast_forward.cache_hits, 0);
}

// Every hmm point reaches the engine under an overlay (run::HmmShape):
// the uniform overlay of a driver's own (d, p/d) — shared floor 0,
// latency 1, no links — must build exactly the machine the driver
// builds without one: equal reports, replay counters and traces.
TEST(Determinism, UniformOverlayChangesNothing) {
  int hmm_drivers = 0;
  for (const FfDriver& d : ff_drivers()) {
    if (d.dmms == 0) continue;
    ++hmm_drivers;
    const MachineOverlay uniform{std::vector<DmmShape>(
        static_cast<std::size_t>(d.dmms),
        DmmShape{d.threads_per_dmm, MemorySpec{0, 1}, {}})};
    for (const bool ff : {true, false}) {
      const auto run = [&](const MachineOverlay* overlay,
                           EngineObserver* observer) {
        const MachineOverlayScope scope(overlay);
        return d.run(ff, observer);
      };
      const FfRun plain = run(nullptr, nullptr);
      const FfRun overlaid = run(&uniform, nullptr);
      EXPECT_EQ(plain.report, overlaid.report) << d.name << " ff=" << ff;
      EXPECT_EQ(plain.output, overlaid.output) << d.name << " ff=" << ff;
      EXPECT_EQ(plain.report.fast_forward.replayed_rounds,
                overlaid.report.fast_forward.replayed_rounds)
          << d.name << " ff=" << ff;

      telemetry::CollectingSink plain_sink;
      telemetry::CollectingSink overlaid_sink;
      EXPECT_EQ(run(nullptr, &plain_sink).report,
                run(&uniform, &overlaid_sink).report)
          << d.name << " ff=" << ff;
      ASSERT_FALSE(plain_sink.events().empty()) << d.name;
      EXPECT_EQ(plain_sink.events(), overlaid_sink.events())
          << d.name << " ff=" << ff;
    }
  }
  EXPECT_EQ(hmm_drivers, 6);
}

TEST(Determinism, SweepPropagatesWorkerExceptions) {
  EXPECT_THROW(
      run::SweepRunner(4).for_each(
          16,
          [](std::int64_t i) {
            if (i == 7) throw PreconditionError("boom at 7");
          }),
      PreconditionError);
}

}  // namespace
}  // namespace hmm
