// SweepRunner — multi-threaded execution of independent simulation grid
// points.
//
// Nakano's model is deterministic: a (MachineConfig, kernel, inputs)
// triple fully determines the RunReport.  Parameter sweeps — the bread
// and butter of every bench/ablation binary and of hmmsim — therefore
// decompose into embarrassingly parallel grid points.  SweepRunner runs
// them across a std::thread pool in which every worker builds its own
// Machines, each with its own frame arena and pattern cache; nothing is
// shared between grid points, so results are BIT-IDENTICAL regardless of
// the thread count (locked by tests/determinism_test.cpp).
//
//   SweepRunner pool(jobs);            // 0 => hardware concurrency
//   pool.for_each(count, [&](std::int64_t i) { ... });
//
// for_each hands out indices through an atomic counter (dynamic load
// balancing: grid points can differ in cost by orders of magnitude) and
// rethrows the first worker exception after joining every thread.
// Callers aggregate by index, never by completion order, to stay
// deterministic.
#pragma once

#include <cstdint>
#include <functional>

namespace hmm::run {

class SweepRunner {
 public:
  /// `jobs` worker threads; 0 picks std::thread::hardware_concurrency()
  /// (at least 1).  jobs == 1 never spawns a thread at all.
  explicit SweepRunner(std::int64_t jobs = 0);

  std::int64_t jobs() const { return jobs_; }

  /// Invoke fn(i) once for every i in [0, count), distributed over the
  /// pool.  Blocks until all indices completed; rethrows the first
  /// worker exception (remaining workers drain without starting new
  /// indices).  When threads cannot start, the ones that did (or the
  /// calling thread) run every index.
  void for_each(std::int64_t count,
                const std::function<void(std::int64_t)>& fn) const;

 private:
  std::int64_t jobs_;
};

}  // namespace hmm::run
