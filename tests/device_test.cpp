// Tests for device-side subroutines (SubTask composition), barrier
// semantics under divergence, deadlock detection, and event tracing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "alg/device.hpp"
#include "alg/workload.hpp"
#include "machine/machine.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

TEST(SubTask, NestedSubroutinesSuspendAndResumeThroughTheEngine) {
  // A kernel that calls a subroutine that calls a subroutine; all memory
  // ops must be priced and the results must flow back up.
  Machine m = Machine::dmm(4, 2, 4, 16);
  m.shared_memory(0).load(0, std::vector<Word>{1, 2, 3, 4});

  struct Helpers {
    static SubTask inner(ThreadCtx& t, Address a, Word* out) {
      *out = co_await t.read(MemorySpace::kShared, a);
    }
    static SubTask outer(ThreadCtx& t, Word* out) {
      Word v = 0;
      co_await inner(t, t.thread_id(), &v);
      co_await t.compute();
      *out = v * 10;
    }
  };

  std::vector<Word> results(4, 0);
  const auto r = m.run([&](ThreadCtx& t) -> SimTask {
    co_await Helpers::outer(t, &results[static_cast<std::size_t>(t.thread_id())]);
  });
  EXPECT_EQ(results, (std::vector<Word>{10, 20, 30, 40}));
  EXPECT_GT(r.makespan, 0);
  EXPECT_EQ(r.shared_pipelines.at(0).requests, 4);
}

TEST(SubTask, ExceptionsInsideSubroutinesPropagate) {
  Machine m = Machine::dmm(4, 1, 4, 16);
  struct Helpers {
    static SubTask boom(ThreadCtx& t) {
      co_await t.compute();
      throw std::runtime_error("inner failure");
    }
  };
  EXPECT_THROW(m.run([](ThreadCtx& t) -> SimTask { co_await Helpers::boom(t); }),
               std::runtime_error);
}

TEST(DeviceTreeSum, SelfSynchronisingAcrossManyWarps) {
  // 8 warps of 4 threads fold 256 values; the pre-level barriers must
  // order producer writes before consumer reads.
  const std::int64_t n = 256, p = 32, w = 4;
  Machine m = Machine::dmm(w, 3, p, n);
  const auto xs = alg::iota_words(n, 1);
  m.shared_memory(0).load(0, xs);
  (void)m.run([&](ThreadCtx& t) -> SimTask {
    co_await alg::device_tree_sum(t, MemorySpace::kShared, 0, n,
                                  t.thread_id(), p, BarrierScope::kMachine);
  });
  EXPECT_EQ(m.shared_memory(0).peek(0), n * (n + 1) / 2);
}

TEST(DeviceCopy, MovesDataBetweenSpaces) {
  Machine m = Machine::hmm(4, 8, 2, 8, 32, 64);
  const auto xs = alg::iota_words(32, 100);
  m.global_memory().load(0, xs);
  (void)m.run([&](ThreadCtx& t) -> SimTask {
    // Each DMM stages half of the input.
    const Address base = t.dmm_id() * 16;
    co_await alg::device_copy(t, MemorySpace::kShared, 0, MemorySpace::kGlobal,
                              base, 16, t.local_thread_id(), 8);
  });
  EXPECT_EQ(m.shared_memory(0).dump(0, 16), alg::iota_words(16, 100));
  EXPECT_EQ(m.shared_memory(1).dump(0, 16), alg::iota_words(16, 116));
}

TEST(Barrier, CrossScopeDeadlockIsDiagnosedNotHung) {
  // Warp 0 waits at the DMM barrier while warp 1 waits at the machine
  // barrier: each domain waits for the other warp forever.  The engine's
  // no-progress watchdog must diagnose the deadlock (naming the parked
  // warps and their domains) instead of spinning or silently finishing.
  Machine m = Machine::dmm(4, 1, 8, 16);  // 2 warps
  EXPECT_THROW(m.run([](ThreadCtx& t) -> SimTask {
                 co_await t.barrier(t.warp_id() == 0
                                        ? BarrierScope::kDmm
                                        : BarrierScope::kMachine);
               }),
               DeadlockError);
}

TEST(Barrier, ExitingWarpSatisfiesWaitersBarrier) {
  // A warp that exits without ever calling barrier() does not hang the
  // warps that did: "all live warps" shrinks as warps finish.
  Machine m = Machine::dmm(4, 1, 8, 16);  // 2 warps
  const auto r = m.run([](ThreadCtx& t) -> SimTask {
    if (t.warp_id() == 0) co_await t.barrier();
    else co_await t.compute(10);
  });
  EXPECT_EQ(r.barrier_releases, 1);
}

TEST(Barrier, ThreadsThatExitEarlyDoNotBlockTheRest) {
  // Warp 1 finishes without ever reaching the barrier *as a whole warp*
  // is a deadlock; but a warp whose threads ALL finish is removed from
  // the domain, so the remaining warps' barrier still releases.
  Machine m = Machine::dmm(4, 1, 8, 16);
  const auto r = m.run([](ThreadCtx& t) -> SimTask {
    if (t.warp_id() == 1) co_return;  // whole warp exits
    co_await t.write(MemorySpace::kShared, t.thread_id(), 1);
    co_await t.barrier();
    co_await t.read(MemorySpace::kShared, 0);
  });
  EXPECT_EQ(r.barrier_releases, 1);
}

TEST(Barrier, ReleaseWaitsForTheSlowestWarp) {
  // Warp 0 computes 100 cycles before the barrier; warp 1 arrives
  // immediately.  Both must leave at warp 0's arrival time.
  Machine m = Machine::dmm(4, 1, 8, 16);
  const auto r = m.run([](ThreadCtx& t) -> SimTask {
    if (t.warp_id() == 0) co_await t.compute(100);
    co_await t.barrier();
    co_await t.compute();
  });
  // makespan = 100 (slow warp) + barrier + 1 compute each (serialised on
  // one exec unit: 2 more cycles).
  EXPECT_EQ(r.makespan, 102);
}

// ---- Counted barriers -----------------------------------------------------
//
// barrier(scope, k) is k consecutive barrier(scope) calls in one op.  Each
// kernel below is written both ways; the two forms must give the same
// report, trace (event for event) and memory, observed or not.

/// One counted barrier, or `count` separate ones.
SubTask wait_out(ThreadCtx& t, BarrierScope scope, std::int64_t count,
                 bool counted) {
  if (counted) {
    co_await t.barrier(scope, count);
  } else {
    for (std::int64_t i = 0; i < count; ++i) co_await t.barrier(scope);
  }
}

struct BarrierRun {
  RunReport report;
  std::vector<TraceEvent> trace;
  std::vector<Word> memory;  // every shared memory, then the global one
  friend bool operator==(const BarrierRun&, const BarrierRun&) = default;
};

using BarrierKernel = SimTask (*)(ThreadCtx&, bool counted);

BarrierRun run_barrier_kernel(const MachineConfig& config, BarrierKernel kernel,
                              bool counted, bool traced) {
  Machine m(config);
  telemetry::CollectingSink sink;
  if (traced) m.set_observer(&sink);
  BarrierRun out;
  out.report = m.run([&](ThreadCtx& t) { return kernel(t, counted); });
  out.trace = sink.events();
  for (DmmId j = 0; m.has_shared() && j < m.num_dmms(); ++j) {
    const auto cells = m.shared_memory(j).dump(0, m.shared_memory(j).size());
    out.memory.insert(out.memory.end(), cells.begin(), cells.end());
  }
  if (m.has_global()) {
    const auto cells = m.global_memory().dump(0, m.global_memory().size());
    out.memory.insert(out.memory.end(), cells.begin(), cells.end());
  }
  return out;
}

/// Runs `kernel` both ways, traced and not, and returns the counted
/// form's unobserved run.
RunReport expect_counted_matches_per_barrier(const MachineConfig& config,
                                             BarrierKernel kernel) {
  for (const bool traced : {false, true}) {
    const BarrierRun counted = run_barrier_kernel(config, kernel, true, traced);
    const BarrierRun separate =
        run_barrier_kernel(config, kernel, false, traced);
    EXPECT_EQ(counted.report, separate.report) << "traced=" << traced;
    EXPECT_EQ(counted.memory, separate.memory) << "traced=" << traced;
    EXPECT_EQ(counted.trace.size(), separate.trace.size());
    EXPECT_EQ(counted.trace, separate.trace) << "traced=" << traced;
  }
  return run_barrier_kernel(config, kernel, true, false).report;
}

MachineConfig two_dmm_hmm(std::int64_t width) {
  MachineConfig cfg;
  cfg.width = width;
  cfg.dmms = {DmmShape{12, MemorySpec{64, 1}, {}},
              DmmShape{7, MemorySpec{64, 2}, {}}};
  cfg.global = MemorySpec{256, 5};
  return cfg;
}

// The lanes of one warp wait out 1, 2 or 3 releases: only the lanes
// whose count ran out resume.  Thread 0 calls two separate barriers where
// its warp-mates wait out one count of 2, so its warp re-arrives by a pop
// at the release time, in front of the warps that re-arrived without one.
SimTask differing_counts(ThreadCtx& t, bool counted) {
  const std::int64_t self = t.local_thread_id();
  const std::int64_t k = 1 + self % 3;
  co_await t.write(MemorySpace::kShared, self, self);
  if (self == 0) {
    co_await t.barrier();
    co_await t.barrier();
  } else {
    co_await wait_out(t, BarrierScope::kDmm, 2, counted);
  }
  const Word v =
      co_await t.read(MemorySpace::kShared, (self + 1) % t.dmm_thread_count());
  co_await wait_out(t, BarrierScope::kDmm, k, counted);
  co_await t.compute(k);
  co_await t.write(MemorySpace::kShared, 16 + self, v + k);
  co_await wait_out(t, BarrierScope::kDmm, 4 - k, counted);
  co_await t.read(MemorySpace::kShared, 16 + (self + 5) % t.dmm_thread_count());
}

TEST(CountedBarrier, DifferingCountsInOneWarpMatchSeparateBarriers) {
  MachineConfig dmm;
  dmm.width = 4;
  dmm.dmms = {DmmShape{12, MemorySpec{64, 2}, {}}};
  const RunReport one = expect_counted_matches_per_barrier(dmm, differing_counts);
  EXPECT_EQ(one.barrier_releases, 6);
  const RunReport two =
      expect_counted_matches_per_barrier(two_dmm_hmm(4), differing_counts);
  EXPECT_EQ(two.barrier_releases, 12);
}

// Every warp of a domain waits out the same count, so each release
// completes the domain again at once.  DMM 1 reads global memory first,
// so its releases fall between DMM 0's rounds.
SimTask every_warp_waits(ThreadCtx& t, bool counted) {
  const std::int64_t self = t.local_thread_id();
  if (t.dmm_id() == 1) {
    for (int i = 0; i < 3; ++i) {
      co_await t.read(MemorySpace::kGlobal, 4 * i + self);
    }
  }
  co_await t.write(MemorySpace::kShared, self, 1);
  co_await wait_out(t, BarrierScope::kDmm, 5, counted);
  co_await t.read(MemorySpace::kShared, (self + 1) % t.dmm_thread_count());
  co_await wait_out(t, BarrierScope::kDmm, 3, counted);
}

TEST(CountedBarrier, ChainedReleasesCountLikeSeparateBarriers) {
  for (const std::int64_t width : {4, 8}) {
    const RunReport r =
        expect_counted_matches_per_barrier(two_dmm_hmm(width), every_warp_waits);
    EXPECT_EQ(r.barrier_releases, 2 * 8) << "w=" << width;
  }
}

// DMM j waits out j + 1 machine-wide releases, then 3 - j more.
SimTask machine_scope(ThreadCtx& t, bool counted) {
  const std::int64_t k = 1 + t.dmm_id();
  co_await t.write(MemorySpace::kGlobal, t.thread_id(), t.dmm_id());
  co_await wait_out(t, BarrierScope::kMachine, k, counted);
  const Word v = co_await t.read(MemorySpace::kGlobal,
                                 (t.thread_id() + 7) % t.num_threads());
  co_await t.compute(1 + v);
  co_await wait_out(t, BarrierScope::kMachine, 4 - k, counted);
  co_await t.write(MemorySpace::kGlobal, 64 + t.thread_id(), v);
}

TEST(CountedBarrier, MachineScopeSpansDmms) {
  MachineConfig cfg;
  cfg.width = 4;
  cfg.dmms = {DmmShape{8, MemorySpec{16, 1}, {}},
              DmmShape{8, MemorySpec{16, 1}, {}},
              DmmShape{6, MemorySpec{16, 1}, {}}};
  cfg.global = MemorySpec{128, 6};
  const RunReport r = expect_counted_matches_per_barrier(cfg, machine_scope);
  EXPECT_EQ(r.barrier_releases, 4);
}

// Warp 2 waits out two machine releases.  After the first, warp 0 parks
// at its DMM barrier until warp 1 exits at clock 50, which releases that
// barrier back at clock 0: warp 0 then reaches the machine barrier after
// warp 2's turn has passed, and the second release lists warp 2 first.
SimTask exit_releases_behind_the_clock(ThreadCtx& t, bool counted) {
  if (t.warp_id() == 2) {
    co_await wait_out(t, BarrierScope::kMachine, 2, counted);
  } else if (t.warp_id() == 1) {
    co_await t.barrier(BarrierScope::kMachine);
    co_await t.compute(50);
  } else {
    co_await t.barrier(BarrierScope::kMachine);
    co_await t.barrier(BarrierScope::kDmm);
    co_await t.barrier(BarrierScope::kMachine);
  }
}

TEST(CountedBarrier, ArrivalsKeepTheOrderOfTheReadyQueue) {
  MachineConfig cfg;
  cfg.width = 4;
  cfg.dmms = {DmmShape{8, MemorySpec{16, 1}, {}},
              DmmShape{4, MemorySpec{16, 1}, {}}};
  cfg.global = MemorySpec{16, 3};
  const RunReport r =
      expect_counted_matches_per_barrier(cfg, exit_releases_behind_the_clock);
  EXPECT_EQ(r.barrier_releases, 3);
  const BarrierRun traced =
      run_barrier_kernel(cfg, exit_releases_behind_the_clock, true, true);
  std::vector<WarpId> last_release;
  for (const TraceEvent& e : traced.trace) {
    if (e.kind == TraceEvent::Kind::kBarrier) last_release.push_back(e.warp);
  }
  ASSERT_GE(last_release.size(), 2u);
  EXPECT_EQ((std::vector<WarpId>(last_release.end() - 2, last_release.end())),
            (std::vector<WarpId>{2, 0}));
}

TEST(CountedBarrier, CountBelowOneIsRejected) {
  for (const std::int64_t count : {0, -3}) {
    Machine m = Machine::dmm(4, 1, 4, 16);
    EXPECT_THROW(m.run([count](ThreadCtx& t) -> SimTask {
                   co_await t.barrier(BarrierScope::kDmm, count);
                 }),
                 PreconditionError)
        << count;
  }
}

// Lane 0 leaves the barrier one release before its warp-mates and posts
// a warp_sync: the same split every separate-barrier kernel reports.
SimTask split_with_warp_sync(ThreadCtx& t, bool counted) {
  if (t.lane() == 0) {
    co_await t.barrier();
    co_await t.warp_sync();
  } else {
    co_await wait_out(t, BarrierScope::kDmm, 2, counted);
  }
}

// warp 0 waits out 3 DMM releases; warp 1 leaves after one for a machine
// barrier, so neither domain completes again.
SimTask cross_scope_deadlock(ThreadCtx& t, bool counted) {
  if (t.warp_id() == 0) {
    co_await wait_out(t, BarrierScope::kDmm, 3, counted);
  } else {
    co_await t.barrier(BarrierScope::kDmm);
    co_await t.barrier(BarrierScope::kMachine);
  }
}

TEST(CountedBarrier, ErrorsMatchSeparateBarriers) {
  const auto message = [](BarrierKernel kernel, bool counted) {
    Machine m = Machine::dmm(4, 1, 8, 16);
    try {
      (void)m.run([&](ThreadCtx& t) { return kernel(t, counted); });
    } catch (const std::exception& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const std::string split = message(split_with_warp_sync, true);
  EXPECT_NE(split.find("warp_sync()"), std::string::npos) << split;
  EXPECT_EQ(split, message(split_with_warp_sync, false));

  const std::string deadlock = message(cross_scope_deadlock, true);
  EXPECT_NE(deadlock.find("deadlock"), std::string::npos) << deadlock;
  EXPECT_NE(deadlock.find("dmm 0: 1 of 2 active warp(s) arrived (warps 0)"),
            std::string::npos)
      << deadlock;
  EXPECT_EQ(deadlock, message(cross_scope_deadlock, false));
}

TEST(Trace, RecordsInjectionsWithFig4Arithmetic) {
  Machine m = Machine::umm(4, 5, 8, 64);
  telemetry::CollectingSink sink;
  m.set_observer(&sink);
  (void)m.run([](ThreadCtx& t) -> SimTask {
    // Warp 0 reads stride-4 (4 groups); warp 1 reads coalesced (1 group).
    if (t.warp_id() == 0) {
      co_await t.read(MemorySpace::kGlobal, t.lane() * 4);
    } else {
      co_await t.read(MemorySpace::kGlobal, 8 + t.lane());
    }
  });
  std::vector<TraceEvent> mem;
  for (const auto& e : sink.events()) {
    if (e.kind == TraceEvent::Kind::kMemory) mem.push_back(e);
  }
  ASSERT_EQ(mem.size(), 2u);
  EXPECT_EQ(mem[0].stages, 4);
  EXPECT_EQ(mem[0].begin, 0);
  EXPECT_EQ(mem[0].ready, 8);   // 4 stages + l - 1 ... begin+stages-1+l = 8
  EXPECT_EQ(mem[1].stages, 1);
  EXPECT_EQ(mem[1].begin, 4);   // queued behind warp 0
  EXPECT_EQ(mem[1].ready, 9);
}

TEST(WarpSync, ReconvergesDivergedLanes) {
  // Lanes run data-dependent loop lengths, then exchange values through
  // memory.  Without warp_sync the late lanes would read stale cells.
  Machine m = Machine::dmm(8, 2, 8, 16);
  std::vector<Word> got(8, -1);
  (void)m.run([&](ThreadCtx& t) -> SimTask {
    // Lane i computes i+1 times (maximal divergence), then publishes.
    for (std::int64_t k = 0; k <= t.lane(); ++k) co_await t.compute();
    co_await t.write(MemorySpace::kShared, t.lane(), 10 + t.lane());
    co_await t.warp_sync();
    got[static_cast<std::size_t>(t.lane())] = co_await t.read(
        MemorySpace::kShared, (t.lane() + 1) % t.width());
  });
  for (std::int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)], 10 + (i + 1) % 8);
  }
}

TEST(WarpSync, CostsNoTime) {
  Machine m = Machine::dmm(8, 2, 8, 16);
  const auto with = m.run([](ThreadCtx& t) -> SimTask {
    co_await t.compute(5);
    co_await t.warp_sync();
    co_await t.compute(5);
  });
  Machine m2 = Machine::dmm(8, 2, 8, 16);
  const auto without = m2.run([](ThreadCtx& t) -> SimTask {
    co_await t.compute(5);
    co_await t.compute(5);
  });
  EXPECT_EQ(with.makespan, without.makespan);
}

TEST(WarpSync, ExitedLanesDoNotBlockTheSync) {
  Machine m = Machine::dmm(8, 2, 8, 16);
  const auto r = m.run([](ThreadCtx& t) -> SimTask {
    if (t.lane() >= 4) co_return;  // half the warp exits immediately
    co_await t.compute();
    co_await t.warp_sync();
    co_await t.compute();
  });
  EXPECT_GT(r.makespan, 0);
}

TEST(WarpSync, MixedWithBarrierIsDiagnosed) {
  Machine m = Machine::dmm(8, 2, 8, 16);
  EXPECT_THROW(m.run([](ThreadCtx& t) -> SimTask {
                 if (t.lane() < 4) co_await t.warp_sync();
                 else co_await t.barrier();
               }),
               PreconditionError);
}

TEST(Trace, DisabledByDefault) {
  // Events reach only an attached sink, and only while it is attached.
  Machine m = Machine::dmm(4, 1, 4, 16);
  EXPECT_EQ(m.observer(), nullptr);
  const auto kernel = [](ThreadCtx& t) -> SimTask { co_await t.compute(); };
  telemetry::CollectingSink sink;
  m.set_observer(&sink);
  (void)m.run(kernel);
  const std::int64_t seen = sink.events_seen();
  EXPECT_GT(seen, 0);
  m.set_observer(nullptr);
  (void)m.run(kernel);
  EXPECT_EQ(sink.events_seen(), seen);
}

}  // namespace
}  // namespace hmm
