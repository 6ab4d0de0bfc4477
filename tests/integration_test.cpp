// Cross-module integration tests: chained workloads on one machine,
// memory persistence across runs, ragged topologies end-to-end, and the
// full pipeline a downstream user would run.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "alg/convolution.hpp"
#include "alg/prefix_sums.hpp"
#include "alg/sort.hpp"
#include "alg/sum.hpp"
#include "alg/workload.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

TEST(Integration, MemoryPersistsAcrossRuns) {
  // Run 1 writes, run 2 reads — the BankMemory contents must survive the
  // engine teardown between runs.
  Machine m = Machine::dmm(8, 2, 32, 64);
  (void)m.run([](ThreadCtx& t) -> SimTask {
    co_await t.write(MemorySpace::kShared, t.thread_id(), t.thread_id() * 3);
  });
  std::vector<Word> seen(32, -1);
  (void)m.run([&](ThreadCtx& t) -> SimTask {
    seen[static_cast<std::size_t>(t.thread_id())] =
        co_await t.read(MemorySpace::kShared, t.thread_id());
  });
  for (std::int64_t i = 0; i < 32; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], i * 3);
  }
}

TEST(Integration, PipelineCountersResetBetweenRuns) {
  Machine m = Machine::umm(8, 2, 32, 64);
  auto kernel = [](ThreadCtx& t) -> SimTask {
    co_await t.read(MemorySpace::kGlobal, t.thread_id());
  };
  const auto r1 = m.run(kernel);
  const auto r2 = m.run(kernel);
  EXPECT_EQ(r1.global_pipeline.batches, r2.global_pipeline.batches);
  EXPECT_EQ(r1.makespan, r2.makespan);
}

TEST(Integration, SortThenScanThenSumChain) {
  // The workflow a downstream user composes: sort an array, take its
  // prefix sums, and cross-check the final prefix against the tree sum —
  // three different algorithms, three machines, one data set.
  const std::int64_t n = 1 << 10;
  const auto xs = alg::random_words(n, 7, 0, 100);

  const auto sorted = alg::sort_hmm(xs, 4, 64, 32, 100);
  ASSERT_TRUE(std::is_sorted(sorted.sorted.begin(), sorted.sorted.end()));

  const auto scanned = alg::prefix_sums_hmm(sorted.sorted, 4, 64, 32, 100);
  const auto total = alg::sum_hmm(xs, 4, 64, 32, 100);
  EXPECT_EQ(scanned.prefix.back(), total.sum);

  // And the scan of a sorted non-negative array is non-decreasing and
  // dominated by i * max.
  for (std::size_t i = 1; i < scanned.prefix.size(); ++i) {
    EXPECT_GE(scanned.prefix[i], scanned.prefix[i - 1]);
  }
}

TEST(Integration, ConvolutionOfOnesIsAWindowedSum) {
  // Cross-algorithm identity: box-filter convolution at full overlap
  // equals the difference of prefix sums.
  const std::int64_t m = 8, n = 256;
  const auto x = alg::random_words(alg::conv_signal_length(m, n), 11, 0, 50);
  const auto box = alg::box_filter(m);
  const auto conv = alg::convolution_hmm(box, x, 4, 32, 16, 50);
  const auto scan = alg::prefix_sums_umm(x, 128, 16, 8);
  for (std::int64_t i = 0; i < n; ++i) {
    const Word hi = scan.prefix[static_cast<std::size_t>(i + m - 1)];
    const Word lo = i == 0 ? 0 : scan.prefix[static_cast<std::size_t>(i - 1)];
    EXPECT_EQ(conv.z[static_cast<std::size_t>(i)], hi - lo) << "i=" << i;
  }
}

TEST(Integration, RaggedThreadCountsWorkEndToEnd) {
  // Partial warps (p not a multiple of w) through the full sum pipeline.
  const auto xs = alg::random_words(1000, 13);
  const Word want = std::accumulate(xs.begin(), xs.end(), Word{0});
  EXPECT_EQ(alg::sum_dmm(xs, /*threads=*/37, /*width=*/8, 3).sum, want);
  EXPECT_EQ(alg::sum_umm(xs, /*threads=*/53, /*width=*/16, 7).sum, want);
  // Uneven threads per DMM via explicit config.
  MachineConfig cfg;
  cfg.width = 8;
  cfg.dmms = {DmmShape{20, MemorySpec{64, 1}, {}},
              DmmShape{7, MemorySpec{64, 1}, {}},
              DmmShape{33, MemorySpec{64, 1}, {}}};
  cfg.global = MemorySpec{1024 + 3, 40};
  Machine m(std::move(cfg));
  m.global_memory().load(0, xs);
  EXPECT_EQ(alg::sum_hmm(m, 1000).sum, want);
}

TEST(Integration, TraceOfAWholeAlgorithmIsConsistent) {
  // Record a full tree-sum trace and validate global invariants: memory
  // events never overlap in the pipeline, and every ready >= end + 1.
  Machine m = Machine::umm(8, 5, 32, 256);
  m.global_memory().load(0, alg::iota_words(256));
  telemetry::CollectingSink sink;
  m.set_observer(&sink);
  (void)m.run([](ThreadCtx& t) -> SimTask {
    for (Address i = t.thread_id(); i < 128; i += t.num_threads()) {
      const Word a = co_await t.read(MemorySpace::kGlobal, i);
      const Word b = co_await t.read(MemorySpace::kGlobal, 128 + i);
      co_await t.compute();
      co_await t.write(MemorySpace::kGlobal, i, a + b);
    }
  });
  Cycle last_end = -1;
  std::int64_t mem_events = 0;
  std::vector<TraceEvent> events = sink.events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.begin < b.begin;
            });
  for (const auto& e : events) {
    if (e.kind != TraceEvent::Kind::kMemory) continue;
    ++mem_events;
    EXPECT_GT(e.begin, last_end);  // injection slots never overlap
    EXPECT_EQ(e.ready, e.end + 5); // latency accounting
    last_end = e.end;
  }
  EXPECT_EQ(mem_events, 3 * 128 / 8);  // 3 accesses per element pair
}

}  // namespace
}  // namespace hmm
