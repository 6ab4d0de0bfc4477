// Unit tests for the l-stage memory pipeline (§II/§III, Fig. 4) and the
// banked storage behind it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "mm/bank_memory.hpp"
#include "mm/batch_cost.hpp"
#include "mm/pipeline.hpp"

namespace {
// Global operator new calls in this binary, for the allocation-free
// service test.
std::size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t bytes) {
  ++g_allocations;
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hmm {
namespace {

TEST(Pipeline, SingleBatchTiming) {
  MemoryPipeline pipe(/*latency=*/5);
  const auto slot = pipe.inject(/*ready=*/0, /*stages=*/1, /*requests=*/4);
  EXPECT_EQ(slot.inject_begin, 0);
  EXPECT_EQ(slot.inject_end, 0);
  EXPECT_EQ(slot.data_ready, 5);  // duration = k + l - 1 = 5
}

TEST(Pipeline, Fig4TwoWarpExample) {
  // Fig. 4: l = 5, W(0) occupies 3 stages, W(4) occupies 1; total
  // completion 3 + 1 + 5 - 1 = 8.
  MemoryPipeline pipe(5);
  const auto w0 = pipe.inject(0, 3, 4);
  const auto w4 = pipe.inject(0, 1, 4);
  EXPECT_EQ(w0.inject_begin, 0);
  EXPECT_EQ(w0.inject_end, 2);
  EXPECT_EQ(w0.data_ready, 7);
  EXPECT_EQ(w4.inject_begin, 3);  // back-to-back behind W(0)
  EXPECT_EQ(w4.data_ready, 8);
}

TEST(Pipeline, BatchesQueueBackToBack) {
  MemoryPipeline pipe(10);
  Cycle last_ready = 0;
  for (int i = 0; i < 8; ++i) {
    const auto slot = pipe.inject(0, 1, 1);
    EXPECT_EQ(slot.inject_begin, i);
    last_ready = slot.data_ready;
  }
  // 8 stages + latency 10 - 1 = 17.
  EXPECT_EQ(last_ready, 17);
  EXPECT_EQ(pipe.stats().batches, 8);
  EXPECT_EQ(pipe.stats().stages, 8);
  EXPECT_EQ(pipe.stats().idle_cycles, 0);
}

TEST(Pipeline, GapsAreAccountedAsIdle) {
  MemoryPipeline pipe(2);
  (void)pipe.inject(0, 1, 1);
  const auto slot = pipe.inject(10, 1, 1);
  EXPECT_EQ(slot.inject_begin, 10);
  EXPECT_EQ(pipe.stats().idle_cycles, 9);
}

TEST(Pipeline, RejectsNonsense) {
  MemoryPipeline pipe(1);
  EXPECT_THROW(pipe.inject(-1, 1, 1), PreconditionError);
  EXPECT_THROW(pipe.inject(0, 0, 1), PreconditionError);
  EXPECT_THROW(pipe.inject(0, 1, 0), PreconditionError);
  EXPECT_THROW(MemoryPipeline(0), PreconditionError);
}

TEST(Pipeline, ResetClearsHistory) {
  MemoryPipeline pipe(3);
  (void)pipe.inject(0, 4, 4);
  pipe.reset();
  EXPECT_EQ(pipe.stats().batches, 0);
  EXPECT_EQ(pipe.next_free(), 0);
}

// ---- BankMemory -----------------------------------------------------------

WarpBatch make_batch(std::initializer_list<Request> rs) { return {rs}; }

/// Serve `batch` the way the engine does: the distinct-address count from
/// the batch's profile, the delivered values into a buffer we own.
std::vector<Word> serve(BankMemory& mem, const WarpBatch& batch) {
  std::vector<Word> values(batch.size());
  mem.service(batch, profile_batch(mem.geometry(), batch).distinct_addresses,
              values);
  return values;
}

TEST(BankMemory, BroadcastReadReturnsOneValueToAll) {
  BankMemory mem(MemoryGeometry(4), 16);
  mem.poke(6, 42);
  const auto out = serve(mem, make_batch({
      {.lane = 0, .kind = AccessKind::kRead, .address = 6, .value = 0},
      {.lane = 1, .kind = AccessKind::kRead, .address = 6, .value = 0},
      {.lane = 2, .kind = AccessKind::kRead, .address = 6, .value = 0},
  }));
  EXPECT_EQ(out, (std::vector<Word>{42, 42, 42}));
}

TEST(BankMemory, ConflictingWritesHaveDeterministicWinner) {
  BankMemory mem(MemoryGeometry(4), 16);
  (void)serve(mem, make_batch({
      {.lane = 0, .kind = AccessKind::kWrite, .address = 3, .value = 10},
      {.lane = 2, .kind = AccessKind::kWrite, .address = 3, .value = 30},
      {.lane = 1, .kind = AccessKind::kWrite, .address = 3, .value = 20},
  }));
  EXPECT_EQ(mem.peek(3), 30);  // highest lane wins, replayable
}

TEST(BankMemory, ReadsObservePreBatchState) {
  BankMemory mem(MemoryGeometry(4), 16);
  mem.poke(2, 7);
  const auto out = serve(mem, make_batch({
      {.lane = 0, .kind = AccessKind::kWrite, .address = 2, .value = 99},
      {.lane = 1, .kind = AccessKind::kRead, .address = 2, .value = 0},
  }));
  EXPECT_EQ(out[1], 7);  // the read sees the pre-batch value
  EXPECT_EQ(mem.peek(2), 99);
}

TEST(BankMemory, BoundsAreEnforced) {
  BankMemory mem(MemoryGeometry(4), 8);
  EXPECT_THROW(mem.peek(8), PreconditionError);
  EXPECT_THROW(mem.poke(-1, 0), PreconditionError);
  EXPECT_THROW((void)serve(mem, make_batch({{.lane = 0,
                                             .kind = AccessKind::kRead,
                                             .address = 8,
                                             .value = 0}})),
               PreconditionError);
  EXPECT_THROW(mem.dump(4, 5), PreconditionError);
  // A bad address anywhere in a batch is caught before any cell changes.
  EXPECT_THROW((void)serve(mem, make_batch({
                   {.lane = 0, .kind = AccessKind::kWrite, .address = 1,
                    .value = 5},
                   {.lane = 1, .kind = AccessKind::kWrite, .address = 8,
                    .value = 6},
               })),
               PreconditionError);
  EXPECT_EQ(mem.peek(1), 0);
}

/// The §II same-address rule, written as plainly as possible: every read
/// sees pre-batch memory, per address the write of the highest lane wins,
/// and a write delivers what ended up stored.
struct SectionTwoOracle {
  std::vector<Word> cells;

  std::vector<Word> serve(const WarpBatch& batch) {
    const std::vector<Word> before = cells;
    for (const Request& r : batch) {
      if (r.kind != AccessKind::kWrite) continue;
      bool superseded = false;
      for (const Request& o : batch) {
        superseded |= o.kind == AccessKind::kWrite &&
                      o.address == r.address && o.lane > r.lane;
      }
      if (!superseded) cells[static_cast<std::size_t>(r.address)] = r.value;
    }
    std::vector<Word> values(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const auto a = static_cast<std::size_t>(batch[i].address);
      values[i] = batch[i].kind == AccessKind::kRead ? before[a] : cells[a];
    }
    return values;
  }
};

/// Fisher-Yates shuffle of `xs` driven by `rng`.
template <typename T>
void shuffle(std::vector<T>& xs, Rng& rng) {
  for (std::size_t i = xs.size(); i > 1; --i) {
    std::swap(xs[i - 1], xs[rng.next_below(i)]);
  }
}

TEST(BankMemory, ServiceMatchesTheSectionTwoOracleOnEveryBatchClass) {
  constexpr std::int64_t kWidth = 8;
  constexpr std::int64_t kSize = 64;
  BankMemory mem(MemoryGeometry(kWidth), kSize);
  SectionTwoOracle oracle{std::vector<Word>(kSize, 0)};
  Rng rng(1729);

  enum class Class { kDistinct, kBroadcastRead, kSameAddressWrites, kPartial };
  for (int round = 0; round < 400; ++round) {
    const auto cls = static_cast<Class>(round % 4);
    const auto n = static_cast<std::size_t>(rng.next_in(1, kWidth));
    // Lanes in shuffled order, so the highest lane is not simply the last
    // request of the batch.
    std::vector<ThreadId> lanes(n);
    for (std::size_t i = 0; i < n; ++i) lanes[i] = static_cast<ThreadId>(i);
    shuffle(lanes, rng);
    std::vector<Address> pool(kSize);
    for (std::size_t i = 0; i < pool.size(); ++i) {
      pool[i] = static_cast<Address>(i);
    }
    shuffle(pool, rng);

    WarpBatch batch(n);
    for (std::size_t i = 0; i < n; ++i) {
      Request& r = batch[i];
      r.lane = lanes[i];
      r.value = static_cast<Word>(rng.next_in(1, 1'000'000));
      const AccessKind either =
          rng.next_below(2) == 0 ? AccessKind::kRead : AccessKind::kWrite;
      switch (cls) {
        case Class::kDistinct:  // duplicate-free reads and writes
          r.address = pool[i];
          r.kind = either;
          break;
        case Class::kBroadcastRead:
          r.address = pool[0];
          r.kind = AccessKind::kRead;
          break;
        case Class::kSameAddressWrites:
          r.address = pool[0];
          r.kind = AccessKind::kWrite;
          break;
        case Class::kPartial:  // some addresses repeat, some do not
          r.address = pool[rng.next_below(3)];
          r.kind = either;
          break;
      }
    }
    std::set<Address> distinct;
    for (const Request& r : batch) distinct.insert(r.address);

    std::vector<Word> values(n, -1);
    mem.service(batch, static_cast<std::int64_t>(distinct.size()), values);
    ASSERT_EQ(values, oracle.serve(batch)) << "round " << round;
    ASSERT_EQ(mem.dump(0, kSize), oracle.cells) << "round " << round;
  }
}

TEST(BankMemory, ServiceAllocatesNothingOnAnyBranch) {
  BankMemory mem(MemoryGeometry(4), 16);
  const WarpBatch duplicate_free{
      {.lane = 0, .kind = AccessKind::kRead, .address = 1},
      {.lane = 1, .kind = AccessKind::kWrite, .address = 2, .value = 7},
      {.lane = 2, .kind = AccessKind::kRead, .address = 3},
      {.lane = 3, .kind = AccessKind::kWrite, .address = 4, .value = 8},
  };
  const WarpBatch broadcast{
      {.lane = 0, .kind = AccessKind::kRead, .address = 5},
      {.lane = 1, .kind = AccessKind::kRead, .address = 5},
      {.lane = 2, .kind = AccessKind::kRead, .address = 5},
      {.lane = 3, .kind = AccessKind::kRead, .address = 5},
  };
  const WarpBatch arbitrated{
      {.lane = 0, .kind = AccessKind::kWrite, .address = 6, .value = 1},
      {.lane = 1, .kind = AccessKind::kRead, .address = 6},
      {.lane = 2, .kind = AccessKind::kWrite, .address = 9, .value = 2},
      {.lane = 3, .kind = AccessKind::kWrite, .address = 6, .value = 3},
  };
  std::vector<Word> values(4);
  for (const auto& [batch, distinct] :
       {std::pair{&duplicate_free, 4}, std::pair{&broadcast, 1},
        std::pair{&arbitrated, 2}}) {
    const std::size_t before = g_allocations;
    mem.service(*batch, distinct, values);
    EXPECT_EQ(g_allocations, before) << distinct << " distinct addresses";
  }
  EXPECT_EQ(mem.peek(6), 3);
  EXPECT_EQ(values[1], 0);
}

TEST(BankMemory, LoadAndDumpRoundTrip) {
  BankMemory mem(MemoryGeometry(4), 8);
  const std::vector<Word> data{1, 2, 3};
  mem.load(2, data);
  EXPECT_EQ(mem.dump(2, 3), data);
  EXPECT_EQ(mem.peek(0), 0);
}

}  // namespace
}  // namespace hmm
