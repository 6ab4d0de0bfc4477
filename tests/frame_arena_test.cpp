// FrameArena unit tests plus end-to-end arena semantics: arena reuse
// across runs, frame recycling (per-size LIFO free lists, owner-routed
// deletes, a run holding only its live frames), a thread-registered
// arena under a span driver, the global-new fallback for directly built
// coroutines, exception propagation through nested SubTask chains under
// the arena, and (ASan builds only) poisoning of recycled frames.
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

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

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
  void* second = arena.allocate(64);
  arena.deallocate(second, 64);
  const std::size_t chunks = arena.chunk_count();
  const std::size_t capacity = arena.capacity_bytes();
  arena.reset();
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  EXPECT_EQ(arena.allocations(), 0u);
  EXPECT_EQ(arena.chunk_count(), chunks);      // chunks survive reset
  EXPECT_EQ(arena.capacity_bytes(), capacity);
  // The bump pointer rewound: the next allocation reuses the same slot.
  // Were `second` still on its free list it would come back first, so
  // reset() emptied the lists.
  EXPECT_EQ(arena.allocate(64), first);
  EXPECT_EQ(arena.allocate(64), second);
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

TEST(FrameArenaTest, FreedBlocksComeBackLifoForTheirSizeOnly) {
  FrameArena arena;
  void* a = arena.allocate(48);
  void* b = arena.allocate(48);
  arena.deallocate(a, 48);
  arena.deallocate(b, 48);
  EXPECT_EQ(arena.bytes_in_use(), 0u);
  // Other sizes never take a 48-byte block: they bump fresh memory.
  void* small = arena.allocate(32);
  void* large = arena.allocate(64);
  for (void* p : {small, large}) {
    EXPECT_NE(p, a);
    EXPECT_NE(p, b);
  }
  // The same size (any request that rounds to it) pops the newest first.
  EXPECT_EQ(arena.allocate(48), b);
  EXPECT_EQ(arena.allocate(40), a);
  EXPECT_EQ(arena.bytes_in_use(), 32u + 64u + 48u + 48u);
  EXPECT_EQ(arena.allocations(), 6u);
}

TEST(FrameArenaTest, FrameFreedUnderAnotherArenaReturnsToItsOwn) {
  FrameArena owner;
  FrameArena other;
  void* frame = nullptr;
  {
    const FrameArena::Scope scope(&owner);
    frame = FrameArena::allocate_frame(100);
  }
  EXPECT_GT(owner.bytes_in_use(), 0u);
  {
    const FrameArena::Scope scope(&other);
    FrameArena::deallocate_frame(frame);
  }
  EXPECT_EQ(owner.bytes_in_use(), 0u);
  const FrameArena::Scope scope(&owner);
  void* again = FrameArena::allocate_frame(100);
  EXPECT_EQ(again, frame);
  FrameArena::deallocate_frame(again);
}

#if defined(__SANITIZE_ADDRESS__)
// ASan builds only: a recycled frame is poisoned while it sits on the
// free list (its header, which holds the link, excepted), so resuming a
// freed SubTask is reported; handing it out again unpoisons it, and so
// does reset().
TEST(FrameArenaTest, RecycledFramesArePoisonedUntilReissued) {
  FrameArena arena;
  const FrameArena::Scope scope(&arena);
  auto* frame = static_cast<std::byte*>(FrameArena::allocate_frame(64));
  EXPECT_EQ(__asan_address_is_poisoned(frame), 0);
  FrameArena::deallocate_frame(frame);
  EXPECT_NE(__asan_address_is_poisoned(frame), 0);
  EXPECT_NE(__asan_address_is_poisoned(frame + 63), 0);
  auto* reissued = static_cast<std::byte*>(FrameArena::allocate_frame(64));
  ASSERT_EQ(reissued, frame);
  EXPECT_EQ(__asan_region_is_poisoned(reissued, 64), nullptr);
  FrameArena::deallocate_frame(reissued);
  arena.reset();
  EXPECT_EQ(__asan_address_is_poisoned(frame), 0);
}
#endif

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
  // must still work (the frame header routes the deallocation).
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

SimTask calls_kernel(ThreadCtx& t, int calls) {
  for (int i = 0; i < calls; ++i) co_await tick(t);
}

// Each SubTask frame returns to the arena when its call completes and the
// next call reuses it, so a run holds only its live frames: 64 sequential
// calls per thread need exactly the arena one call needs.
TEST(FrameArenaTest, SequentialSubtaskCallsReuseTheirFrames) {
  const auto capacity_for = [](int calls) {
    Machine machine(barrier_config());
    machine.run([calls](ThreadCtx& t) { return calls_kernel(t, calls); });
    EXPECT_EQ(machine.frame_arena().bytes_in_use(), 0u);  // all frames died
    return machine.frame_arena().capacity_bytes();
  };
  const std::size_t one = capacity_for(1);
  EXPECT_GT(one, 0u);
  EXPECT_EQ(capacity_for(64), one);
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
