// bench_engine_hotpath — self-timing throughput benchmark of the engine
// hot path and the SweepRunner, writing machine-readable BENCH_engine.json
// so successive PRs can track the perf trajectory.
//
//   bench_engine_hotpath [--smoke] [--jobs J] [--out PATH]
//
// Six measurements:
//   1. single-run hot path — repeated HMM sum runs; reports
//      warp-rounds/sec (engine scheduling throughput) and
//      memory-batches/sec (pricing + pipeline throughput);
//   2. checker overhead — the same runs with an AccessChecker attached;
//      reports checker-on seconds/run and the on/off ratio.  The
//      checker-OFF number is the guard: a detached observer must cost
//      one null pointer check per call site and nothing else;
//   3. telemetry overhead — the same runs with a RingBufferSink (trace
//      channel on, bounded memory) and with a MetricsRegistry attached;
//      the sink-OFF side doubles as the regression guard for the
//      detached-observer hot path (exits nonzero when it drifts from the
//      plain single-run baseline);
//   4. fast-forward — a many-DMM Theorem-9 convolution with the verified
//      replay engine on vs off (both sides must produce the identical
//      RunReport); reports seconds/run for each and the speedup;
//   5. sweep scaling — the same grid of independent UMM sum points
//      evaluated serially (jobs=1) and across a thread pool (jobs=J,
//      default 8); reports wall seconds and the speedup;
//   6. determinism — asserts the serial and parallel sweeps produced
//      identical reports (exits nonzero otherwise);
//   7. static analysis — proving the 512-DMM convolution's conflict
//      bounds symbolically (build_access_plan + evaluate, no machine)
//      vs measuring them dynamically (the real kernel under an
//      AccessChecker); both sides must agree on the max conflict
//      degree, and the static path must be at least 10x cheaper.
//
// --smoke shrinks everything to a grid that finishes in well under a
// second; ctest runs it under the `bench-smoke` label.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "alg/convolution.hpp"
#include "alg/plans.hpp"
#include "alg/sum.hpp"
#include "alg/workload.hpp"
#include "analysis/checker.hpp"
#include "analysis/static/evaluate.hpp"
#include "core/version.hpp"
#include "run/sweep.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct SingleRunResult {
  std::int64_t repetitions = 0;
  double seconds_per_run = 0.0;
  double best_seconds_per_run = 0.0;  // min over reps; noise-robust
  std::int64_t warp_rounds = 0;      // per run: exec issue slots
  std::int64_t memory_batches = 0;   // per run: pipeline batches
  double warp_rounds_per_sec = 0.0;
  double memory_batches_per_sec = 0.0;
  Cycle makespan = 0;
};

/// Repeated HMM sum runs on one machine: the engine's hottest mix of
/// memory rounds (global + shared), compute rounds and barriers.
SingleRunResult measure_single_run(std::int64_t n, std::int64_t d,
                                   std::int64_t pd, std::int64_t w,
                                   Cycle l, std::int64_t reps) {
  const auto xs = alg::random_words(n, 1);
  SingleRunResult r;
  r.repetitions = reps;

  // Warm-up run, also the source of the per-run counters.
  Machine machine = Machine::hmm(w, l, d, pd, std::max(pd, d), n + d);
  machine.global_memory().load(0, xs);
  const RunReport warm = alg::sum_hmm(machine, n).report;
  for (const ExecStats& e : warm.exec) r.warp_rounds += e.issue_slots;
  r.memory_batches += warm.global_pipeline.batches;
  for (const PipelineStats& s : warm.shared_pipelines) {
    r.memory_batches += s.batches;
  }
  r.makespan = warm.makespan;

  double elapsed = 0.0, best = 0.0;
  for (std::int64_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    const auto run = alg::sum_hmm(machine, n);
    const double t = seconds_since(t0);
    elapsed += t;
    if (i == 0 || t < best) best = t;
    if (run.report.makespan != warm.makespan) {
      std::fprintf(stderr, "FATAL: repeated runs disagree on makespan\n");
      std::exit(1);
    }
  }
  r.seconds_per_run = elapsed / static_cast<double>(reps);
  r.best_seconds_per_run = best;
  r.warp_rounds_per_sec =
      static_cast<double>(r.warp_rounds) / r.seconds_per_run;
  r.memory_batches_per_sec =
      static_cast<double>(r.memory_batches) / r.seconds_per_run;
  return r;
}

struct CheckerOverheadResult {
  double seconds_per_run_off = 0.0;  // observer detached
  double seconds_per_run_on = 0.0;   // AccessChecker attached
  double overhead_ratio = 0.0;       // on / off
  std::int64_t findings = 0;         // must be 0 on this clean workload
};

/// The single-run workload with and without an attached AccessChecker on
/// the SAME machine, interleaved run-for-run so both sides see the same
/// cache and allocator state.
CheckerOverheadResult measure_checker_overhead(std::int64_t n,
                                               std::int64_t d,
                                               std::int64_t pd,
                                               std::int64_t w, Cycle l,
                                               std::int64_t reps) {
  const auto xs = alg::random_words(n, 1);
  Machine machine = Machine::hmm(w, l, d, pd, std::max(pd, d), n + d);
  machine.global_memory().load(0, xs);
  analysis::AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);

  alg::sum_hmm(machine, n);  // warm-up, observer detached

  CheckerOverheadResult r;
  double off = 0.0, on = 0.0;
  for (std::int64_t i = 0; i < reps; ++i) {
    machine.set_observer(nullptr);
    const auto t_off = Clock::now();
    alg::sum_hmm(machine, n);
    off += seconds_since(t_off);

    machine.set_observer(&checker);
    const auto t_on = Clock::now();
    alg::sum_hmm(machine, n);
    on += seconds_since(t_on);
  }
  machine.set_observer(nullptr);
  r.seconds_per_run_off = off / static_cast<double>(reps);
  r.seconds_per_run_on = on / static_cast<double>(reps);
  r.overhead_ratio = r.seconds_per_run_on / r.seconds_per_run_off;
  r.findings = checker.total_count();
  return r;
}

struct TelemetryOverheadResult {
  double seconds_per_run_off = 0.0;      // no observer attached
  double best_seconds_per_run_off = 0.0; // min over reps; noise-robust
  double seconds_per_run_ring = 0.0;     // RingBufferSink (trace channel on)
  double seconds_per_run_metrics = 0.0;  // MetricsRegistry (no trace)
  double ring_ratio = 0.0;               // ring / off
  double metrics_ratio = 0.0;            // metrics / off
  std::int64_t ring_capacity = 0;
  std::int64_t ring_kept = 0;            // events held after the last run
  std::int64_t ring_dropped = 0;         // events evicted in the last run
  std::int64_t conflict_degree_max = 0;  // sanity: sum is conflict-free
};

/// The single-run workload with a bounded trace sink and with a metrics
/// registry, interleaved run-for-run against the detached baseline (same
/// discipline as measure_checker_overhead).
TelemetryOverheadResult measure_telemetry_overhead(std::int64_t n,
                                                   std::int64_t d,
                                                   std::int64_t pd,
                                                   std::int64_t w, Cycle l,
                                                   std::int64_t reps) {
  const auto xs = alg::random_words(n, 1);
  Machine machine = Machine::hmm(w, l, d, pd, std::max(pd, d), n + d);
  machine.global_memory().load(0, xs);

  TelemetryOverheadResult r;
  r.ring_capacity = 4096;
  telemetry::RingBufferSink ring(r.ring_capacity);
  telemetry::MetricsRegistry metrics;

  alg::sum_hmm(machine, n);  // warm-up, observer detached

  double off = 0.0, best_off = 0.0, with_ring = 0.0, with_metrics = 0.0;
  for (std::int64_t i = 0; i < reps; ++i) {
    machine.set_observer(nullptr);
    const auto t_off = Clock::now();
    alg::sum_hmm(machine, n);
    const double t = seconds_since(t_off);
    off += t;
    if (i == 0 || t < best_off) best_off = t;

    machine.set_observer(&ring);
    const auto t_ring = Clock::now();
    alg::sum_hmm(machine, n);
    with_ring += seconds_since(t_ring);

    machine.set_observer(&metrics);
    const auto t_metrics = Clock::now();
    alg::sum_hmm(machine, n);
    with_metrics += seconds_since(t_metrics);
  }
  machine.set_observer(nullptr);

  r.seconds_per_run_off = off / static_cast<double>(reps);
  r.best_seconds_per_run_off = best_off;
  r.seconds_per_run_ring = with_ring / static_cast<double>(reps);
  r.seconds_per_run_metrics = with_metrics / static_cast<double>(reps);
  r.ring_ratio = r.seconds_per_run_ring / r.seconds_per_run_off;
  r.metrics_ratio = r.seconds_per_run_metrics / r.seconds_per_run_off;
  r.ring_kept = ring.size();
  r.ring_dropped = ring.dropped();
  r.conflict_degree_max = metrics.snapshot().conflict_degree.max_stages;
  return r;
}

struct FastForwardResult {
  std::int64_t d = 0, pd = 0, w = 0, m = 0, n = 0;
  double seconds_per_run_off = 0.0;      // --fast-forward=off
  double seconds_per_run_on = 0.0;       // --fast-forward=on
  double best_seconds_per_run_off = 0.0;
  double best_seconds_per_run_on = 0.0;
  std::int64_t replayed_rounds = 0;      // per on-run, deterministic
  double speedup = 0.0;                  // best_off / best_on
};

/// Theorem-9 HMM convolution with the verified fast-forward replay on vs
/// off, interleaved run-for-run.  The workload is chosen to be the
/// engine's best case on purpose — it demonstrates the headroom the
/// replay path buys (docs/PERF.md, "Analytic fast-forward"): many DMMs
/// with ONE warp each (every warp is an exclusive-regime candidate), a
/// shared-memory inner loop with period 3 (broadcast tap, contiguous
/// signal read, compute), and enough warps that the off path thrashes
/// the coroutine frames out of cache between rounds while fused replay
/// keeps each warp's frames hot across whole blocks.  Both sides must
/// agree on the makespan — the run-time half of the byte-identical
/// RunReport equivalence that tests/determinism_test.cpp locks in full.
FastForwardResult measure_fast_forward(std::int64_t d, std::int64_t pd,
                                       std::int64_t w, std::int64_t m,
                                       std::int64_t n, Cycle l,
                                       std::int64_t reps) {
  FastForwardResult r;
  r.d = d;
  r.pd = pd;
  r.w = w;
  r.m = m;
  r.n = n;
  const auto taps = alg::random_words(m, 2);
  const auto signal = alg::random_words(n + m - 1, 3);

  const auto run = [&](bool ff) {
    return alg::convolution_hmm(taps, signal, d, pd, w, l, nullptr, ff);
  };
  const auto warm_on = run(true);  // warm-up, also the counter source
  const auto warm_off = run(false);
  r.replayed_rounds = warm_on.report.fast_forward.replayed_rounds;
  if (!(warm_on.report == warm_off.report)) {
    std::fprintf(stderr,
                 "FATAL: fast-forward on and off disagree on the RunReport "
                 "(makespan %lld vs %lld)\n",
                 static_cast<long long>(warm_on.report.makespan),
                 static_cast<long long>(warm_off.report.makespan));
    std::exit(1);
  }

  double off_total = 0.0, on_total = 0.0, best_off = 0.0, best_on = 0.0;
  for (std::int64_t i = 0; i < reps; ++i) {
    const auto t_on = Clock::now();
    run(true);
    const double dt_on = seconds_since(t_on);
    on_total += dt_on;
    if (i == 0 || dt_on < best_on) best_on = dt_on;

    const auto t_off = Clock::now();
    run(false);
    const double dt_off = seconds_since(t_off);
    off_total += dt_off;
    if (i == 0 || dt_off < best_off) best_off = dt_off;
  }
  r.seconds_per_run_off = off_total / static_cast<double>(reps);
  r.seconds_per_run_on = on_total / static_cast<double>(reps);
  r.best_seconds_per_run_off = best_off;
  r.best_seconds_per_run_on = best_on;
  r.speedup = r.best_seconds_per_run_off / r.best_seconds_per_run_on;
  return r;
}

struct SweepResult {
  std::int64_t grid_points = 0;
  double serial_seconds = 0.0;
  std::int64_t parallel_jobs = 0;
  double parallel_seconds = 0.0;
  double speedup = 0.0;
  bool deterministic = false;
};

/// The same grid of independent UMM sum points, serial vs pooled.
SweepResult measure_sweep(std::int64_t grid_points, std::int64_t n,
                          std::int64_t jobs) {
  const auto xs = alg::random_words(n, 7);
  SweepResult r;
  r.grid_points = grid_points;
  r.parallel_jobs = jobs;

  auto evaluate = [&](std::int64_t pool_jobs) {
    std::vector<Cycle> makespans(static_cast<std::size_t>(grid_points), 0);
    const run::SweepRunner pool(pool_jobs);
    pool.for_each(grid_points, [&](std::int64_t i) {
      // Vary latency and thread count across the grid so points differ
      // in cost, exercising the pool's dynamic load balancing.
      const Cycle l = 64 + 32 * (i % 8);
      const std::int64_t p = 512 << (i % 3);
      makespans[static_cast<std::size_t>(i)] =
          alg::sum_umm(xs, p, 32, l).report.makespan;
    });
    return makespans;
  };

  const auto t_serial = Clock::now();
  const auto serial = evaluate(1);
  r.serial_seconds = seconds_since(t_serial);

  const auto t_parallel = Clock::now();
  const auto parallel = evaluate(jobs);
  r.parallel_seconds = seconds_since(t_parallel);

  r.speedup = r.serial_seconds / r.parallel_seconds;
  r.deterministic = serial == parallel;
  return r;
}

struct StaticAnalysisResult {
  std::int64_t d = 0, m = 0, n = 0;
  double static_seconds = 0.0;      // build_access_plan + evaluate
  double dynamic_seconds = 0.0;     // real kernel under an AccessChecker
  double best_static_seconds = 0.0;
  double best_dynamic_seconds = 0.0;
  double speedup = 0.0;             // best_dynamic / best_static
  std::int64_t static_degree_max = 0;
  std::int64_t dynamic_degree_max = 0;
  bool degrees_agree = false;
};

/// The analyzer's headline trade: the many-DMM Theorem-9 convolution's
/// conflict bounds proven symbolically (no machine, no warps — just the
/// plan twin and the gcd closed forms) vs measured dynamically (the
/// full engine with an AccessChecker pricing every dispatch).  Both
/// sides answer the same question — max shared-memory conflict degree —
/// and must agree; the point of the section is the cost gap.
StaticAnalysisResult measure_static_analysis(std::int64_t d, std::int64_t m,
                                             std::int64_t n,
                                             std::int64_t reps) {
  StaticAnalysisResult r;
  r.d = d;
  r.m = m;
  r.n = n;

  alg::PlanPoint point;
  point.algorithm = "conv";
  point.model = "hmm";
  point.n = n;
  point.m = m;
  point.p = d * 16;  // one 16-thread warp set per DMM, as in fast-forward
  point.w = 16;
  point.l = 400;
  point.d = d;

  const auto run_static = [&] {
    const auto plan = alg::build_access_plan(point);
    if (!plan) {
      std::fprintf(stderr, "FATAL: conv/hmm lost its registered plan\n");
      std::exit(1);
    }
    return analysis::evaluate(*plan);
  };
  const auto run_dynamic = [&] {
    // The default config — race + bounds + conflict — is exactly what
    // `hmmsim --check` switches on, so this is the bill the analyzer is
    // competing against.
    analysis::AccessChecker checker{analysis::CheckerConfig{}};
    alg::run_plan_workload(point, &checker);
    return checker.shared_histogram().max_degree;
  };

  const analysis::StaticReport warm_static = run_static();  // warm-up
  r.static_degree_max = warm_static.max_degree;
  r.dynamic_degree_max = run_dynamic();
  r.degrees_agree = r.static_degree_max == r.dynamic_degree_max;

  double stat_total = 0.0, dyn_total = 0.0, best_stat = 0.0, best_dyn = 0.0;
  for (std::int64_t i = 0; i < reps; ++i) {
    const auto t_stat = Clock::now();
    run_static();
    const double dt_stat = seconds_since(t_stat);
    stat_total += dt_stat;
    if (i == 0 || dt_stat < best_stat) best_stat = dt_stat;

    const auto t_dyn = Clock::now();
    run_dynamic();
    const double dt_dyn = seconds_since(t_dyn);
    dyn_total += dt_dyn;
    if (i == 0 || dt_dyn < best_dyn) best_dyn = dt_dyn;
  }
  r.static_seconds = stat_total / static_cast<double>(reps);
  r.dynamic_seconds = dyn_total / static_cast<double>(reps);
  r.best_static_seconds = best_stat;
  r.best_dynamic_seconds = best_dyn;
  r.speedup = r.best_dynamic_seconds / r.best_static_seconds;
  return r;
}

int run_bench(int argc, char** argv) {
  bool smoke = false;
  std::int64_t jobs = 8;
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      // from_chars, not atoll: overflow and trailing garbage are
      // reported instead of being silently folded into some value.
      const char* v = argv[++i];
      const auto [end, ec] = std::from_chars(v, v + std::strlen(v), jobs);
      if (ec != std::errc{} || *end != '\0' || jobs < 0) {
        std::fprintf(stderr, "invalid --jobs value: %s\n", v);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_engine_hotpath [--smoke] [--jobs J] "
                   "[--out PATH]\n");
      return 2;
    }
  }

  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("engine hot-path benchmark (hmm-sim %s, %u hardware "
              "thread%s)\n",
              kVersionString, hw, hw == 1 ? "" : "s");

  const std::int64_t n_single = smoke ? (1 << 13) : (1 << 17);
  const std::int64_t reps = smoke ? 3 : 20;
  const SingleRunResult single =
      measure_single_run(n_single, 16, 128, 32, 400, reps);
  std::printf(
      "single run : n=%lld, %.3f ms/run, %.3g warp-rounds/s, "
      "%.3g memory-batches/s\n",
      static_cast<long long>(n_single), 1e3 * single.seconds_per_run,
      single.warp_rounds_per_sec, single.memory_batches_per_sec);

  const CheckerOverheadResult check =
      measure_checker_overhead(n_single, 16, 128, 32, 400, reps);
  std::printf(
      "checker    : off %.3f ms/run, on %.3f ms/run, overhead %.2fx, "
      "findings %lld\n",
      1e3 * check.seconds_per_run_off, 1e3 * check.seconds_per_run_on,
      check.overhead_ratio, static_cast<long long>(check.findings));

  const TelemetryOverheadResult tele =
      measure_telemetry_overhead(n_single, 16, 128, 32, 400, reps);
  std::printf(
      "telemetry  : off %.3f ms/run, ring(%lld) %.3f ms/run (%.2fx, kept "
      "%lld, dropped %lld), metrics %.3f ms/run (%.2fx)\n",
      1e3 * tele.seconds_per_run_off,
      static_cast<long long>(tele.ring_capacity),
      1e3 * tele.seconds_per_run_ring, tele.ring_ratio,
      static_cast<long long>(tele.ring_kept),
      static_cast<long long>(tele.ring_dropped),
      1e3 * tele.seconds_per_run_metrics, tele.metrics_ratio);

  // Full config: 512 single-warp DMMs keep every warp in the exclusive
  // fused-replay regime while the off path round-robins 512 coroutine
  // frame sets through the cache; n % d == 0 and m <= n/d (Corollary 10)
  // hold for both configs.
  const std::int64_t ff_d = smoke ? 64 : 512;
  const std::int64_t ff_m = smoke ? 64 : 128;
  const std::int64_t ff_n = smoke ? (1 << 12) : (1 << 16);
  const FastForwardResult ff =
      measure_fast_forward(ff_d, 16, 16, ff_m, ff_n, 400, 3);
  std::printf(
      "fastforward: off %.3f ms/run, on %.3f ms/run, speedup %.2fx "
      "(best-of-reps, d=%lld, m=%lld, n=%lld, %lld replayed rounds)\n",
      1e3 * ff.seconds_per_run_off, 1e3 * ff.seconds_per_run_on, ff.speedup,
      static_cast<long long>(ff.d), static_cast<long long>(ff.m),
      static_cast<long long>(ff.n),
      static_cast<long long>(ff.replayed_rounds));

  const std::int64_t grid = smoke ? 8 : 48;
  const std::int64_t n_sweep = smoke ? (1 << 12) : (1 << 15);
  const SweepResult sweep = measure_sweep(grid, n_sweep, jobs);
  std::printf(
      "sweep      : %lld points, serial %.3fs, %lld-thread %.3fs, "
      "speedup %.2fx, deterministic %s\n",
      static_cast<long long>(sweep.grid_points), sweep.serial_seconds,
      static_cast<long long>(sweep.parallel_jobs), sweep.parallel_seconds,
      sweep.speedup, sweep.deterministic ? "yes" : "NO");

  // Same convolution family as the fast-forward section: 512 DMMs full,
  // 64 smoke.
  const StaticAnalysisResult stat = measure_static_analysis(
      ff_d, ff_m, smoke ? (1 << 12) : (1 << 16), smoke ? 3 : reps);
  std::printf(
      "static     : plan %.3f ms, dynamic --check %.3f ms, static %.1fx "
      "cheaper (best-of-reps, d=%lld, degree %lld vs %lld %s)\n",
      1e3 * stat.static_seconds, 1e3 * stat.dynamic_seconds, stat.speedup,
      static_cast<long long>(stat.d),
      static_cast<long long>(stat.static_degree_max),
      static_cast<long long>(stat.dynamic_degree_max),
      stat.degrees_agree ? "agree" : "DISAGREE");

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"engine_hotpath\",\n"
      "  \"version\": \"%s\",\n"
      "  \"smoke\": %s,\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"single_run\": {\n"
      "    \"workload\": \"hmm_sum\",\n"
      "    \"n\": %lld, \"d\": 16, \"p\": 2048, \"w\": 32, \"l\": 400,\n"
      "    \"repetitions\": %lld,\n"
      "    \"seconds_per_run\": %.6g,\n"
      "    \"warp_rounds\": %lld,\n"
      "    \"warp_rounds_per_sec\": %.6g,\n"
      "    \"memory_batches\": %lld,\n"
      "    \"memory_batches_per_sec\": %.6g,\n"
      "    \"makespan_time_units\": %lld\n"
      "  },\n"
      "  \"checker_overhead\": {\n"
      "    \"workload\": \"hmm_sum\",\n"
      "    \"seconds_per_run_off\": %.6g,\n"
      "    \"seconds_per_run_on\": %.6g,\n"
      "    \"overhead_ratio\": %.6g,\n"
      "    \"findings\": %lld\n"
      "  },\n"
      "  \"telemetry\": {\n"
      "    \"workload\": \"hmm_sum\",\n"
      "    \"seconds_per_run_off\": %.6g,\n"
      "    \"seconds_per_run_ring\": %.6g,\n"
      "    \"seconds_per_run_metrics\": %.6g,\n"
      "    \"ring_ratio\": %.6g,\n"
      "    \"metrics_ratio\": %.6g,\n"
      "    \"ring_capacity\": %lld,\n"
      "    \"ring_kept\": %lld,\n"
      "    \"ring_dropped\": %lld\n"
      "  },\n"
      "  \"fast_forward\": {\n"
      "    \"workload\": \"hmm_convolution\",\n"
      "    \"d\": %lld, \"pd\": %lld, \"w\": %lld, \"m\": %lld, "
      "\"n\": %lld, \"l\": 400,\n"
      "    \"seconds_per_run_off\": %.6g,\n"
      "    \"seconds_per_run_on\": %.6g,\n"
      "    \"best_seconds_per_run_off\": %.6g,\n"
      "    \"best_seconds_per_run_on\": %.6g,\n"
      "    \"replayed_rounds\": %lld,\n"
      "    \"speedup\": %.6g\n"
      "  },\n"
      "  \"sweep\": {\n"
      "    \"workload\": \"umm_sum_grid\",\n"
      "    \"grid_points\": %lld,\n"
      "    \"serial_seconds\": %.6g,\n"
      "    \"parallel_jobs\": %lld,\n"
      "    \"parallel_seconds\": %.6g,\n"
      "    \"speedup\": %.6g,\n"
      "    \"deterministic\": %s\n"
      "  },\n"
      "  \"static_analysis\": {\n"
      "    \"workload\": \"hmm_convolution\",\n"
      "    \"d\": %lld, \"m\": %lld, \"n\": %lld,\n"
      "    \"static_seconds\": %.6g,\n"
      "    \"dynamic_seconds\": %.6g,\n"
      "    \"best_static_seconds\": %.6g,\n"
      "    \"best_dynamic_seconds\": %.6g,\n"
      "    \"static_degree_max\": %lld,\n"
      "    \"dynamic_degree_max\": %lld,\n"
      "    \"degrees_agree\": %s,\n"
      "    \"speedup\": %.6g\n"
      "  }\n"
      "}\n",
      kVersionString, smoke ? "true" : "false", hw,
      static_cast<long long>(n_single), static_cast<long long>(reps),
      single.seconds_per_run, static_cast<long long>(single.warp_rounds),
      single.warp_rounds_per_sec,
      static_cast<long long>(single.memory_batches),
      single.memory_batches_per_sec,
      static_cast<long long>(single.makespan),
      check.seconds_per_run_off, check.seconds_per_run_on,
      check.overhead_ratio, static_cast<long long>(check.findings),
      tele.seconds_per_run_off, tele.seconds_per_run_ring,
      tele.seconds_per_run_metrics, tele.ring_ratio, tele.metrics_ratio,
      static_cast<long long>(tele.ring_capacity),
      static_cast<long long>(tele.ring_kept),
      static_cast<long long>(tele.ring_dropped),
      static_cast<long long>(ff.d), static_cast<long long>(ff.pd),
      static_cast<long long>(ff.w), static_cast<long long>(ff.m),
      static_cast<long long>(ff.n),
      ff.seconds_per_run_off, ff.seconds_per_run_on,
      ff.best_seconds_per_run_off, ff.best_seconds_per_run_on,
      static_cast<long long>(ff.replayed_rounds), ff.speedup,
      static_cast<long long>(sweep.grid_points), sweep.serial_seconds,
      static_cast<long long>(sweep.parallel_jobs), sweep.parallel_seconds,
      sweep.speedup, sweep.deterministic ? "true" : "false",
      static_cast<long long>(stat.d), static_cast<long long>(stat.m),
      static_cast<long long>(stat.n),
      stat.static_seconds, stat.dynamic_seconds,
      stat.best_static_seconds, stat.best_dynamic_seconds,
      static_cast<long long>(stat.static_degree_max),
      static_cast<long long>(stat.dynamic_degree_max),
      stat.degrees_agree ? "true" : "false", stat.speedup);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  if (!sweep.deterministic) {
    std::fprintf(stderr, "FATAL: sweep results depend on the job count\n");
    return 1;
  }
  if (check.findings != 0) {
    std::fprintf(stderr,
                 "FATAL: checker flagged the clean benchmark workload\n");
    return 1;
  }
  if (tele.conflict_degree_max != 1) {
    std::fprintf(stderr,
                 "FATAL: metrics registry saw conflict degree %lld on the "
                 "conflict-free sum (expected 1)\n",
                 static_cast<long long>(tele.conflict_degree_max));
    return 1;
  }
  // Detached-observer guard: adding the telemetry subsystem must not tax
  // runs with no observer attached.  Best-of-reps on both sides filters
  // scheduler noise; smoke runs are still too short for stable ratios, so
  // they get a loose bound while full runs use a tight one.
  const double detached_ratio =
      tele.best_seconds_per_run_off / single.best_seconds_per_run;
  const double detached_limit = smoke ? 2.0 : 1.05;
  if (detached_ratio > detached_limit) {
    std::fprintf(stderr,
                 "FATAL: detached-observer run is %.2fx the plain baseline "
                 "(limit %.2fx) — the no-telemetry hot path regressed\n",
                 detached_ratio, detached_limit);
    return 1;
  }
  // Fast-forward guard: verified replay must keep delivering a large
  // multiple on its headline workload (the recorded full-run value sits
  // above 5x; the limit leaves room for a loaded box).  The tiny smoke
  // convolution spends most of its time outside the steady-state replay
  // loop, so its bound only catches the replay path turning into a
  // slowdown.
  const double ff_limit = smoke ? 0.80 : 3.50;
  if (ff.speedup < ff_limit) {
    std::fprintf(stderr,
                 "FATAL: fast-forward convolution speedup is %.2fx "
                 "(limit %.2fx) — the replay path regressed\n",
                 ff.speedup, ff_limit);
    return 1;
  }
  // Static-analysis guards: the symbolic verdict must agree with the
  // measured one (correctness), and proving the bound must stay at
  // least an order of magnitude cheaper than measuring it (the whole
  // reason --analyze exists).  The 10x floor is the headline 512-DMM
  // claim; the smoke convolution is too small to amortize the symbolic
  // recording pass against the engine's lighter per-op bill, so smoke
  // only guards against the gap collapsing outright.
  if (!stat.degrees_agree) {
    std::fprintf(stderr,
                 "FATAL: static conflict degree %lld disagrees with the "
                 "dynamic checker's %lld on the convolution\n",
                 static_cast<long long>(stat.static_degree_max),
                 static_cast<long long>(stat.dynamic_degree_max));
    return 1;
  }
  const double stat_limit = smoke ? 5.0 : 10.0;
  if (stat.speedup < stat_limit) {
    std::fprintf(stderr,
                 "FATAL: static analysis is only %.2fx cheaper than the "
                 "dynamic checked run (limit %.0fx) — the analyzer stopped "
                 "paying for itself\n",
                 stat.speedup, stat_limit);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hmm

int main(int argc, char** argv) { return hmm::run_bench(argc, argv); }
