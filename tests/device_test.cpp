// Tests for device-side subroutines (SubTask composition), barrier
// semantics under divergence, deadlock detection, and event tracing.
#include <gtest/gtest.h>

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
