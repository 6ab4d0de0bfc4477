// Telemetry subsystem: the ring sink against the full stream a
// CollectingSink keeps, observer fanout, and the metrics registry
// cross-validated with the AccessChecker's certified cost histograms.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "alg/sort.hpp"
#include "alg/sum.hpp"
#include "alg/transpose.hpp"
#include "alg/workload.hpp"
#include "analysis/checker.hpp"
#include "machine/machine.hpp"
#include "telemetry/fanout.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

using telemetry::CollectingSink;
using telemetry::MetricsRegistry;
using telemetry::ObserverFanout;
using telemetry::RingBufferSink;

TraceEvent numbered_event(std::int64_t i) {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kCompute;
  e.warp = i;  // the payload we track through the ring
  e.begin = i;
  e.end = i;
  e.ready = i + 1;
  return e;
}

// ---------------------------------------------------------------------------
// RingBufferSink
// ---------------------------------------------------------------------------

TEST(RingBufferSink, WraparoundKeepsNewestWindow) {
  RingBufferSink sink(4);
  for (std::int64_t i = 0; i < 10; ++i) {
    sink.on_trace_event(numbered_event(i));
  }
  EXPECT_EQ(sink.events_seen(), 10);
  EXPECT_EQ(sink.size(), 4);
  EXPECT_EQ(sink.dropped(), 6);
  const std::vector<TraceEvent> kept = sink.events_in_order();
  ASSERT_EQ(kept.size(), 4u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[static_cast<std::size_t>(i)].warp, 6 + i) << "slot " << i;
  }
}

TEST(RingBufferSink, CapacityZeroCountsEverythingAsDropped) {
  RingBufferSink sink(0);
  for (std::int64_t i = 0; i < 5; ++i) {
    sink.on_trace_event(numbered_event(i));
  }
  EXPECT_EQ(sink.events_seen(), 5);
  EXPECT_EQ(sink.size(), 0);
  EXPECT_EQ(sink.dropped(), 5);
  EXPECT_TRUE(sink.events_in_order().empty());
  EXPECT_EQ(sink.storage_capacity(), 0);
}

TEST(RingBufferSink, CapacityOneKeepsTheLastEvent) {
  RingBufferSink sink(1);
  for (std::int64_t i = 0; i < 3; ++i) {
    sink.on_trace_event(numbered_event(i));
  }
  EXPECT_EQ(sink.size(), 1);
  EXPECT_EQ(sink.dropped(), 2);
  ASSERT_EQ(sink.events_in_order().size(), 1u);
  EXPECT_EQ(sink.events_in_order().front().warp, 2);
}

TEST(RingBufferSink, RejectsNegativeCapacity) {
  EXPECT_THROW(RingBufferSink(-1), PreconditionError);
}

TEST(RingBufferSink, RealRunStaysWithinReservedStorage) {
  // The O(capacity) guarantee: a run emitting thousands of events must
  // never grow the buffer beyond its construction-time reservation.
  const auto xs = alg::random_words(256, 7);
  RingBufferSink sink(64);
  const auto r = alg::sort_hmm(xs, /*num_dmms=*/2, /*threads_per_dmm=*/16,
                               /*width=*/4, /*latency=*/20, &sink);
  EXPECT_GT(sink.events_seen(), 64);
  EXPECT_EQ(sink.storage_capacity(), 64);
  EXPECT_EQ(sink.size(), 64);
  EXPECT_EQ(sink.dropped(), sink.events_seen() - 64);

  // The kept window is the newest 64 events of the full stream.
  CollectingSink full;
  alg::sort_hmm(xs, 2, 16, 4, 20, &full);
  ASSERT_EQ(full.events().size(),
            static_cast<std::size_t>(sink.events_seen()));
  const std::vector<TraceEvent> kept = sink.events_in_order();
  const std::vector<TraceEvent> tail(full.events().end() - 64,
                                     full.events().end());
  EXPECT_EQ(kept, tail);
}

TEST(RingBufferSink, ResetsAtRunBegin) {
  const auto xs = alg::random_words(64, 3);
  RingBufferSink sink(32);
  const auto first = alg::sum_hmm(xs, 2, 8, 4, 20, &sink);
  const std::int64_t first_size = sink.size();
  const std::vector<TraceEvent> first_kept = sink.events_in_order();
  const auto second = alg::sum_hmm(xs, 2, 8, 4, 20, &sink);
  EXPECT_EQ(first.report, second.report);
  EXPECT_EQ(sink.size(), first_size);          // per-run, not cumulative
  EXPECT_EQ(sink.events_in_order(), first_kept);
}

// ---------------------------------------------------------------------------
// ObserverFanout
// ---------------------------------------------------------------------------

struct CountingObserver final : EngineObserver {
  explicit CountingObserver(bool wants) : wants_trace(wants) {}
  bool wants_trace;
  std::int64_t run_begins = 0, batches = 0, releases = 0, finishes = 0,
               run_ends = 0, traces = 0;

  bool wants_trace_events() const override { return wants_trace; }
  void on_run_begin(const Machine&) override { ++run_begins; }
  void on_memory_batch(const MemoryBatchEvent&) override { ++batches; }
  void on_barrier_release(const BarrierReleaseEvent&) override { ++releases; }
  void on_warp_finish(WarpId, DmmId, Cycle) override { ++finishes; }
  void on_trace_event(const TraceEvent&) override { ++traces; }
  void on_run_end(RunReport&) override { ++run_ends; }
};

TEST(ObserverFanout, ForwardsEventsAndGatesTheTraceChannel) {
  CountingObserver wants(true);
  CountingObserver plain(false);
  ObserverFanout fanout;
  fanout.add(&wants);
  fanout.add(&plain);
  fanout.add(nullptr);  // ignored
  EXPECT_EQ(fanout.size(), 2);
  EXPECT_TRUE(fanout.wants_trace_events());

  const auto xs = alg::random_words(64, 17);
  alg::sum_hmm(xs, 2, 8, 4, 20, &fanout);

  EXPECT_EQ(wants.run_begins, 1);
  EXPECT_EQ(plain.run_begins, 1);
  EXPECT_EQ(wants.run_ends, 1);
  EXPECT_EQ(plain.run_ends, 1);
  EXPECT_GT(wants.batches, 0);
  EXPECT_EQ(wants.batches, plain.batches);
  EXPECT_EQ(wants.releases, plain.releases);
  EXPECT_EQ(wants.finishes, plain.finishes);
  EXPECT_GT(wants.traces, 0);
  EXPECT_EQ(plain.traces, 0);  // trace channel gated per child
}

TEST(ObserverFanout, WithoutTraceChildrenTraceChannelStaysOff) {
  CountingObserver plain(false);
  ObserverFanout fanout;
  fanout.add(&plain);
  EXPECT_FALSE(fanout.wants_trace_events());
  alg::sum_hmm(alg::random_words(64, 19), 2, 8, 4, 20, &fanout);
  EXPECT_EQ(plain.traces, 0);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, WritesSnapshotIntoTheRunReport) {
  MetricsRegistry registry;
  const auto xs = alg::random_words(128, 23);
  const auto r = alg::sum_hmm(xs, 2, 8, 4, 20, &registry);
  ASSERT_TRUE(r.report.metrics.has_value());
  EXPECT_EQ(*r.report.metrics, registry.snapshot());
  EXPECT_EQ(r.report.metrics->runs, 1);
  EXPECT_EQ(r.report.metrics->makespan, r.report.makespan);
  EXPECT_EQ(r.report.metrics->warps_finished, r.report.warps);
  EXPECT_EQ(r.report.metrics->barrier_releases, r.report.barrier_releases);
  EXPECT_EQ(r.report.metrics->global_stages, r.report.global_pipeline.stages);
}

TEST(MetricsRegistry, SingleCoalescedReadStallsExactlyLatencyMinusOne) {
  // One warp, one fully coalesced global read on an idle pipeline: the
  // issue cycle is the warp instruction itself; the remaining wait is
  // exactly l - 1 cycles (k = 1 stage, Fig. 4 timing).
  const Cycle l = 5;
  Machine machine = Machine::umm(4, l, 4, 16);
  machine.global_memory().load(0, std::vector<Word>{1, 2, 3, 4});
  MetricsRegistry registry;
  machine.set_observer(&registry);
  machine.run([&](ThreadCtx& t) -> SimTask {
    co_await t.read(MemorySpace::kGlobal, t.thread_id());
  });
  const MetricsSnapshot s = registry.snapshot();
  EXPECT_EQ(s.global_batches, 1);
  EXPECT_EQ(s.global_requests, 4);
  EXPECT_EQ(s.address_groups.max_stages, 1);
  EXPECT_EQ(s.memory_stall_cycles, l - 1);
  EXPECT_EQ(s.barrier_stall_cycles, 0);
}

TEST(MetricsRegistry, BarrierStallCountsParkedCycles) {
  // Warp 0 computes 10 cycles before the barrier; warp 1 arrives almost
  // immediately and must park until the release.
  Machine machine = Machine::dmm(4, 10, 8, 16);
  MetricsRegistry registry;
  machine.set_observer(&registry);
  machine.run([&](ThreadCtx& t) -> SimTask {
    if (t.warp_id() == 0) co_await t.compute(10);
    co_await t.barrier();
  });
  const MetricsSnapshot s = registry.snapshot();
  EXPECT_EQ(s.barrier_releases, 1);
  EXPECT_GT(s.barrier_stall_cycles, 0);
}

TEST(MetricsRegistry, AgreesWithTheAccessCheckerOnSum) {
  // Theorem 7's sum is certified conflict-free and coalesced (degree 1 on
  // both pricing rules); the registry's histograms must agree with the
  // checker's batch-for-batch when both observe the same run.
  const std::int64_t n = 256, d = 2, pd = 16;
  Machine machine =
      Machine::hmm(4, 20, d, pd, std::max<std::int64_t>(pd, d), n + d);
  machine.global_memory().load(0, alg::random_words(n, 29));

  analysis::AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);
  MetricsRegistry registry;
  ObserverFanout fanout;
  fanout.add(&checker);
  fanout.add(&registry);
  machine.set_observer(&fanout);

  alg::sum_hmm(machine, n);

  const MetricsSnapshot s = registry.snapshot();
  EXPECT_EQ(s.conflict_degree.max_stages, 1);
  EXPECT_EQ(s.address_groups.max_stages, 1);
  EXPECT_EQ(s.conflict_degree.max_stages,
            checker.shared_histogram().max_degree);
  EXPECT_EQ(s.address_groups.max_stages,
            checker.global_histogram().max_degree);
  EXPECT_EQ(s.conflict_degree.batches, checker.shared_histogram().batches);
  EXPECT_EQ(s.address_groups.batches, checker.global_histogram().batches);
  EXPECT_EQ(s.conflict_degree.batches_by_stages,
            checker.shared_histogram().batches_by_degree);
  EXPECT_EQ(s.address_groups.batches_by_stages,
            checker.global_histogram().batches_by_degree);
}

TEST(MetricsRegistry, BitonicSortUmmStaysWithinDegreeTwo) {
  // Every compare-exchange touches at most two contiguous runs per warp
  // (sort.hpp): on a pure UMM the sub-width strides produce exactly the
  // two-group dispatches — the bound hmmsim --check certifies for sort.
  const std::int64_t n = 128;
  Machine machine = Machine::umm(4, 20, 32, n);
  machine.global_memory().load(0, alg::random_words(n, 31));

  analysis::AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);
  MetricsRegistry registry;
  ObserverFanout fanout;
  fanout.add(&checker);
  fanout.add(&registry);
  machine.set_observer(&fanout);

  alg::sort_mm(machine, MemorySpace::kGlobal, n);

  const MetricsSnapshot s = registry.snapshot();
  EXPECT_EQ(s.address_groups.max_stages, 2);
  EXPECT_EQ(s.address_groups.max_stages,
            checker.global_histogram().max_degree);
  EXPECT_EQ(s.address_groups.batches_by_stages,
            checker.global_histogram().batches_by_degree);
}

TEST(MetricsRegistry, BitonicSortHmmKeepsGlobalCoalesced) {
  // The HMM variant runs every stride < n/d inside the latency-1 shared
  // memories; the remaining cross-DMM global stages move whole aligned
  // runs, so the global histogram stays at one address group per dispatch
  // while the sub-width strides surface as two-group/two-bank dispatches
  // on the SHARED side instead.
  const std::int64_t n = 128, d = 2;
  Machine machine = Machine::hmm(4, 20, d, 16, n / d, n);
  machine.global_memory().load(0, alg::random_words(n, 53));

  analysis::AccessChecker checker(machine);
  checker.declare_initialized(MemorySpace::kGlobal, 0, n);
  MetricsRegistry registry;
  ObserverFanout fanout;
  fanout.add(&checker);
  fanout.add(&registry);
  machine.set_observer(&fanout);

  alg::sort_hmm(machine, n);

  const MetricsSnapshot s = registry.snapshot();
  EXPECT_EQ(s.address_groups.max_stages, 1);
  EXPECT_EQ(s.conflict_degree.max_stages, 2);
  EXPECT_EQ(s.conflict_degree.max_stages,
            checker.shared_histogram().max_degree);
  EXPECT_EQ(s.address_groups.max_stages,
            checker.global_histogram().max_degree);
}

TEST(MetricsRegistry, NaiveTransposeConflictDegreeIsTheWidth) {
  // The stride-r side of the naive transpose lands a warp's w accesses
  // on one bank: conflict degree w, the paper's worst case.
  const std::int64_t w = 4, rows = 8;
  Machine machine = Machine::dmm(w, 10, 32, 2 * rows * rows);
  machine.shared_memory(0).load(0, alg::random_words(rows * rows, 37));
  MetricsRegistry registry;
  machine.set_observer(&registry);
  alg::transpose_mm_naive(machine, rows);
  EXPECT_EQ(registry.snapshot().conflict_degree.max_stages, w);
}

TEST(MetricsRegistry, AccumulatesAcrossRunsAndResets) {
  MetricsRegistry registry;
  const auto xs = alg::random_words(64, 41);
  const auto first = alg::sum_hmm(xs, 2, 8, 4, 20, &registry);
  const auto second = alg::sum_hmm(xs, 2, 8, 4, 20, &registry);
  const MetricsSnapshot s = registry.snapshot();
  EXPECT_EQ(s.runs, 2);
  EXPECT_EQ(s.makespan, first.report.makespan + second.report.makespan);
  ASSERT_TRUE(second.report.metrics.has_value());
  EXPECT_EQ(second.report.metrics->runs, 2);  // cumulative by design

  registry.reset();
  EXPECT_EQ(registry.snapshot(), MetricsSnapshot{});
}

}  // namespace
}  // namespace hmm
