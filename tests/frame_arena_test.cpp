// FrameArena unit tests plus end-to-end arena semantics: arena reuse
// across runs, a thread-registered arena under a span driver, the
// global-new fallback for directly built coroutines, and exception
// propagation through nested SubTask chains under the arena.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "alg/sum.hpp"
#include "alg/workload.hpp"
#include "core/types.hpp"
#include "machine/frame_arena.hpp"
#include "machine/machine.hpp"
#include "machine/task.hpp"
#include "machine/thread_ctx.hpp"

namespace hmm {
namespace {

TEST(FrameArenaTest, BumpAlignsAndCountsAllocations) {
  FrameArena arena;
  void* a = arena.allocate(1);
  void* b = arena.allocate(24);
  EXPECT_NE(a, b);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % FrameArena::kAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % FrameArena::kAlignment, 0u);
  EXPECT_EQ(arena.allocations(), 2u);
  // Both allocations round up to kAlignment-sized slots.
  EXPECT_EQ(arena.bytes_in_use(),
            FrameArena::kAlignment + 2 * FrameArena::kAlignment);
}

TEST(FrameArenaTest, ResetKeepsChunksAndReusesMemory) {
  FrameArena arena;
  void* first = arena.allocate(64);
  arena.allocate(64);
  const std::size_t chunks = arena.chunk_count();
  const std::size_t capacity = arena.capacity_bytes();
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.allocations(), 0u);
  EXPECT_EQ(arena.chunk_count(), chunks);      // chunks survive reset
  EXPECT_EQ(arena.capacity_bytes(), capacity);
  // The bump pointer rewound: the next allocation reuses the same slot.
  EXPECT_EQ(arena.allocate(64), first);
}

TEST(FrameArenaTest, GrowsNewChunksAndServesOversizeRequests) {
  FrameArena arena(/*chunk_bytes=*/256);
  arena.allocate(200);
  EXPECT_EQ(arena.chunk_count(), 1u);
  arena.allocate(200);  // does not fit the tail of chunk 0
  EXPECT_EQ(arena.chunk_count(), 2u);
  // A request larger than the chunk size gets a dedicated chunk.
  void* big = arena.allocate(10'000);
  EXPECT_NE(big, nullptr);
  EXPECT_EQ(arena.chunk_count(), 3u);
  EXPECT_GE(arena.capacity_bytes(), 10'000u);
}

TEST(FrameArenaTest, ScopesNestAndRestore) {
  EXPECT_EQ(FrameArena::current(), nullptr);
  FrameArena outer, inner;
  {
    const FrameArena::Scope outer_scope(&outer);
    EXPECT_EQ(FrameArena::current(), &outer);
    {
      const FrameArena::Scope inner_scope(&inner);
      EXPECT_EQ(FrameArena::current(), &inner);
      // A null scope shields from any outer arena.
      const FrameArena::Scope shield(nullptr);
      EXPECT_EQ(FrameArena::current(), nullptr);
    }
    EXPECT_EQ(FrameArena::current(), &outer);
  }
  EXPECT_EQ(FrameArena::current(), nullptr);
}

SimTask noop_task() { co_return; }

TEST(FrameArenaTest, DirectlyBuiltTasksFallBackToGlobalNew) {
  // No arena active: the promise operator new must route to global new
  // and operator delete must free it (ASan would flag a leak/mismatch).
  ASSERT_EQ(FrameArena::current(), nullptr);
  SimTask task = noop_task();
  EXPECT_FALSE(task.done());
  task.resume();
  EXPECT_TRUE(task.done());
}

TEST(FrameArenaTest, ArenaFramesMayOutliveTheScope) {
  FrameArena arena;
  SimTask task = [&] {
    const FrameArena::Scope scope(&arena);
    return noop_task();
  }();
  EXPECT_GE(arena.allocations(), 1u);
  // The scope is closed; resuming and destroying the frame afterwards
  // must still work (the tag header routes the deallocation).
  task.resume();
  EXPECT_TRUE(task.done());
}

// ---- end-to-end: Machine::run under the arena -------------------------

MachineConfig barrier_config() {
  MachineConfig cfg;
  cfg.width = 32;
  cfg.dmms = {DmmShape{128, MemorySpec{64, 1}, {}}};
  return cfg;
}

SubTask tick(ThreadCtx& t) { co_await t.compute(); }

SimTask barrier_kernel(ThreadCtx& t) {
  for (int i = 0; i < 4; ++i) {
    co_await tick(t);
    co_await t.barrier();
  }
}

TEST(FrameArenaTest, RepeatedRunsAreIdenticalAndReuseTheArena) {
  Machine machine(barrier_config());
  const RunReport first = machine.run(barrier_kernel);
  const std::size_t warm_capacity = machine.frame_arena().capacity_bytes();
  EXPECT_GT(warm_capacity, 0u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(machine.run(barrier_kernel), first);
  }
  // Steady state: later runs bump inside the chunks the first run grew.
  EXPECT_EQ(machine.frame_arena().capacity_bytes(), warm_capacity);
}

// A thread-registered arena serves the Machines a span driver builds
// internally, out of the caller's reach.
TEST(FrameArenaTest, ExternalArenaIsUsedAndReachesSteadyState) {
  const auto xs = alg::random_words(1 << 10, 3);
  const auto run = [&] { return alg::sum_hmm(xs, 4, 32, 32, 100).report; };
  RunScratch scratch;
  const FrameArena& arena = scratch.arena;
  Machine::set_thread_scratch(&scratch);
  const RunReport first = run();
  const std::size_t allocations = arena.allocations();
  const std::size_t warm_capacity = arena.capacity_bytes();
  const RunReport second = run();
  const std::size_t second_capacity = arena.capacity_bytes();
  Machine::set_thread_scratch(nullptr);
  EXPECT_GE(allocations, 4u * 32u);  // every thread's frame came from it
  EXPECT_EQ(second, first);
  EXPECT_EQ(second_capacity, warm_capacity);
  // Deregistered: the driver's machine falls back to its own arena.
  scratch.arena.reset();
  EXPECT_EQ(run(), first);
  EXPECT_EQ(arena.allocations(), 0u);
}

// ---- exception propagation through nested SubTasks under the arena ----

SubTask throwing_leaf(ThreadCtx& t) {
  co_await t.compute();
  throw std::runtime_error("leaf failure");
}

SubTask middle_level(ThreadCtx& t) {
  co_await t.compute();
  co_await throwing_leaf(t);  // two levels deep from the kernel
}

TEST(FrameArenaTest, ExceptionTwoSubtaskLevelsDeepReachesRun) {
  Machine machine(barrier_config());
  const auto kernel = [](ThreadCtx& t) -> SimTask {
    co_await middle_level(t);
    co_await t.barrier();  // never reached
  };
  EXPECT_THROW(
      {
        try {
          machine.run(kernel);
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "leaf failure");
          throw;
        }
      },
      std::runtime_error);
  // The machine (and its arena) stays usable after a failed run; ASan
  // verifies the unwound SubTask/SimTask frames did not leak.
  const RunReport ok = machine.run(barrier_kernel);
  EXPECT_GT(ok.makespan, 0);
}

}  // namespace
}  // namespace hmm
