// SweepRunner — multi-threaded execution of independent simulation grid
// points.
//
// Nakano's model is deterministic: a (MachineConfig, kernel, inputs)
// triple fully determines the RunReport.  Parameter sweeps — the bread
// and butter of every bench/ablation binary and of hmmsim — therefore
// decompose into embarrassingly parallel grid points.  SweepRunner runs
// them across a std::thread pool in which every worker owns its own
// Machine (and its own coroutine FrameArena, reused across the worker's
// grid points — see Machine::set_frame_arena); nothing is shared between
// grid points, so results are BIT-IDENTICAL regardless of the thread
// count (locked by tests/determinism_test.cpp).
//
// Two entry points:
//
//   SweepRunner pool(jobs);            // 0 => hardware concurrency
//   pool.for_each(count, [&](std::int64_t i) { ... });   // generic
//   std::vector<RunReport> r = pool.run(jobs_span);      // config+kernel
//
// for_each hands out indices through an atomic counter (dynamic load
// balancing: grid points can differ in cost by orders of magnitude) and
// rethrows the first worker exception after joining every thread.
// Callers aggregate by index, never by completion order, to stay
// deterministic.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "machine/machine.hpp"

namespace hmm::run {

/// One independent grid point: a machine shape plus the kernel to run on
/// it.  `setup` (optional) loads inputs into the freshly built machine
/// before the run; `collect` (optional) reads outputs afterwards — it
/// runs on the worker thread, so it must only touch state owned by this
/// grid point (e.g. a result slot indexed by the job's position).
struct SweepJob {
  MachineConfig config;
  Machine::KernelFn kernel;
  std::function<void(Machine&)> setup;
  std::function<void(Machine&, const RunReport&)> collect;
  /// Attached for the run, detached before `collect` returns.  Because
  /// jobs run concurrently, each job needs its OWN observer instance
  /// (e.g. one MetricsRegistry per grid point); sharing one across jobs
  /// would race.  Not owned; must outlive the sweep.
  EngineObserver* observer = nullptr;
};

class SweepRunner {
 public:
  /// `jobs` worker threads; 0 picks std::thread::hardware_concurrency()
  /// (at least 1).  jobs == 1 never spawns a thread at all.
  explicit SweepRunner(std::int64_t jobs = 0);

  std::int64_t jobs() const { return jobs_; }

  /// Invoke fn(i) once for every i in [0, count), distributed over the
  /// pool.  Blocks until all indices completed; rethrows the first
  /// worker exception (remaining workers drain without starting new
  /// indices).
  void for_each(std::int64_t count,
                const std::function<void(std::int64_t)>& fn) const;

  /// Build, set up and run every job; reports are returned in job order.
  std::vector<RunReport> run(std::span<const SweepJob> sweep) const;

 private:
  std::int64_t jobs_;
};

}  // namespace hmm::run
