// Engine-level property tests: determinism, conservation laws, lower
// bounds that must hold for ANY program, and robustness after failures.
#include <gtest/gtest.h>

#include "alg/workload.hpp"
#include "core/rng.hpp"
#include "machine/machine.hpp"

namespace hmm {
namespace {

// A reproducible "random uniform kernel": every thread performs the same
// instruction sequence (SIMD), with addresses derived from thread id and
// a per-step pattern drawn from the seed.
struct RandomProgram {
  struct Step {
    enum class What { kRead, kWrite, kCompute, kBarrier } what;
    std::int64_t stride = 1;    // address = (step_base + tid*stride) % mem
    std::int64_t base = 0;
    Cycle cycles = 1;
  };
  std::vector<Step> steps;
  std::int64_t mem_size = 0;

  static RandomProgram make(std::uint64_t seed, std::int64_t mem_size,
                            std::int64_t num_steps) {
    Rng rng(seed);
    RandomProgram prog;
    prog.mem_size = mem_size;
    for (std::int64_t s = 0; s < num_steps; ++s) {
      Step st;
      switch (rng.next_below(4)) {
        case 0: st.what = Step::What::kRead; break;
        case 1: st.what = Step::What::kWrite; break;
        case 2: st.what = Step::What::kCompute; break;
        default: st.what = Step::What::kBarrier; break;
      }
      st.stride = 1 + static_cast<std::int64_t>(rng.next_below(8));
      st.base = static_cast<std::int64_t>(rng.next_below(
          static_cast<std::uint64_t>(mem_size)));
      st.cycles = 1 + static_cast<std::int64_t>(rng.next_below(4));
      prog.steps.push_back(st);
    }
    return prog;
  }

  SimTask kernel(ThreadCtx& t, MemorySpace space) const {
    for (const Step& st : steps) {
      const Address a = (st.base + t.thread_id() * st.stride) % mem_size;
      switch (st.what) {
        case Step::What::kRead:
          co_await t.read(space, a);
          break;
        case Step::What::kWrite:
          co_await t.write(space, a, t.thread_id());
          break;
        case Step::What::kCompute:
          co_await t.compute(st.cycles);
          break;
        case Step::What::kBarrier:
          co_await t.barrier(BarrierScope::kMachine);
          break;
      }
    }
  }
};

TEST(EngineProperty, RunsAreDeterministic) {
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const auto prog = RandomProgram::make(seed, 256, 20);
    auto once = [&]() {
      Machine m = Machine::umm(8, 7, 64, 256);
      const auto r = m.run([&](ThreadCtx& t) -> SimTask {
        return prog.kernel(t, MemorySpace::kGlobal);
      });
      return std::make_pair(r.makespan, m.global_memory().dump(0, 256));
    };
    const auto a = once();
    const auto b = once();
    EXPECT_EQ(a.first, b.first) << "seed " << seed;
    EXPECT_EQ(a.second, b.second) << "seed " << seed;
  }
}

TEST(EngineProperty, PipelineCountsConserveRequests) {
  // Every read/write issued by every thread must appear in the pipeline
  // request counters exactly once.
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    const auto prog = RandomProgram::make(seed, 128, 25);
    std::int64_t mem_ops = 0;
    for (const auto& st : prog.steps) {
      if (st.what == RandomProgram::Step::What::kRead ||
          st.what == RandomProgram::Step::What::kWrite) {
        ++mem_ops;
      }
    }
    const std::int64_t p = 48;
    Machine m = Machine::umm(8, 3, p, 128);
    const auto r = m.run([&](ThreadCtx& t) -> SimTask {
      return prog.kernel(t, MemorySpace::kGlobal);
    });
    EXPECT_EQ(r.global_pipeline.requests, mem_ops * p) << "seed " << seed;
  }
}

TEST(EngineProperty, MakespanDominatesEveryResourceLowerBound) {
  // For any program: makespan >= total pipeline stages injected (one
  // stage/cycle), makespan >= busiest exec unit's issue slots, and (with
  // latency) >= last data_ready implies >= l for any memory op.
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const auto prog = RandomProgram::make(seed, 512, 30);
    Machine m = Machine::dmm(8, 9, 64, 512);
    const auto r = m.run([&](ThreadCtx& t) -> SimTask {
      return prog.kernel(t, MemorySpace::kShared);
    });
    const auto& pipe = r.shared_pipelines.at(0);
    EXPECT_GE(r.makespan, pipe.stages) << "seed " << seed;
    for (const auto& e : r.exec) {
      EXPECT_GE(r.makespan, e.issue_slots) << "seed " << seed;
    }
    if (pipe.batches > 0) {
      EXPECT_GE(r.makespan, 9);  // at least one access paid the latency
    }
  }
}

TEST(EngineProperty, HmmGlobalPipelineIsASharedBottleneck) {
  // d DMMs hammering the global memory serialise through one pipeline:
  // doubling d cannot reduce the time below the injection floor, and
  // total stages grow linearly with d.
  Cycle prev_stages = 0;
  for (std::int64_t d : {1, 2, 4, 8}) {
    Machine m = Machine::hmm(8, 4, d, 32, 8, 4096);
    const auto r = m.run([](ThreadCtx& t) -> SimTask {
      for (int rep = 0; rep < 8; ++rep) {
        co_await t.read(MemorySpace::kGlobal,
                        (t.thread_id() * 97 + rep * 31) % 4096);
      }
    });
    EXPECT_GE(r.makespan, r.global_pipeline.stages);
    if (prev_stages > 0) {
      EXPECT_GT(r.global_pipeline.stages, prev_stages);
    }
    prev_stages = r.global_pipeline.stages;
  }
}

TEST(EngineProperty, MachineIsReusableAfterAKernelThrows) {
  // A failed run must not poison the machine: coroutines are destroyed,
  // and a subsequent run works and times identically to a fresh machine.
  Machine m = Machine::dmm(8, 3, 32, 64);
  EXPECT_THROW(m.run([](ThreadCtx& t) -> SimTask {
                 co_await t.read(MemorySpace::kShared, 2);
                 if (t.thread_id() == 5) throw std::runtime_error("mid-run");
                 co_await t.barrier();
               }),
               std::runtime_error);

  auto benign = [](ThreadCtx& t) -> SimTask {
    co_await t.write(MemorySpace::kShared, t.thread_id(), 7);
    co_await t.barrier();
    co_await t.read(MemorySpace::kShared, (t.thread_id() + 1) % 32);
  };
  const auto again = m.run(benign);
  Machine fresh = Machine::dmm(8, 3, 32, 64);
  const auto clean = fresh.run(benign);
  EXPECT_EQ(again.makespan, clean.makespan);
  EXPECT_EQ(m.shared_memory(0).peek(9), 7);
}

TEST(EngineProperty, OutOfRangeAccessInsideKernelIsDiagnosed) {
  Machine m = Machine::umm(4, 2, 8, 16);
  EXPECT_THROW(m.run([](ThreadCtx& t) -> SimTask {
                 co_await t.read(MemorySpace::kGlobal, 16 + t.thread_id());
               }),
               PreconditionError);

  // One bad lane among good ones, in the first round or after replay
  // has locked onto the loop: the address is rejected before the batch
  // is priced (the pricing tables index by it), and the machine then
  // runs a clean kernel exactly like a fresh one.
  constexpr std::int64_t kSize = 64;
  const auto clean = [](ThreadCtx& t) -> SimTask {
    co_await t.read(MemorySpace::kShared, t.lane());
  };
  const RunReport expected = Machine::dmm(32, 1, 32, kSize).run(clean);
  for (const bool ff : {true, false}) {
    for (const Address bad : {Address{-1}, Address{-5}, Address{kSize},
                              Address{1} << 40}) {
      for (const int warmup : {0, 24}) {
        Machine dmm = Machine::dmm(32, 1, 32, kSize);
        dmm.set_fast_forward(ff);
        EXPECT_THROW(dmm.run([bad, warmup](ThreadCtx& t) -> SimTask {
                       for (int i = 0; i < warmup; ++i) {
                         co_await t.read(MemorySpace::kShared, t.lane());
                       }
                       co_await t.read(MemorySpace::kShared,
                                       t.lane() == 3 ? bad : t.lane());
                     }),
                     PreconditionError)
            << "address " << bad << ", fast-forward " << ff << ", warm-up "
            << warmup;
        EXPECT_EQ(dmm.run(clean), expected);
      }
    }
  }
}

TEST(EngineProperty, WrongSpaceIsDiagnosedWithAHelpfulMessage) {
  Machine dmm_only = Machine::dmm(4, 2, 8, 16);
  try {
    dmm_only.run([](ThreadCtx& t) -> SimTask {
      co_await t.read(MemorySpace::kGlobal, 0);
      (void)t;
    });
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("standalone DMM"), std::string::npos);
  }
}

TEST(EngineProperty, ZeroLatencyAndWidthOneAreRejectedOrDegenerate) {
  EXPECT_THROW(Machine::umm(8, 0, 8, 16), PreconditionError);
  // Width 1 is legal (a single-bank machine): everything serialises.
  Machine m = Machine::umm(1, 1, 4, 16);
  const auto r = m.run([](ThreadCtx& t) -> SimTask {
    co_await t.read(MemorySpace::kGlobal, t.thread_id());
  });
  // 4 warps of 1 thread, 1 stage each, back to back: 4 + 1 - 1 = 4.
  EXPECT_EQ(r.makespan, 4);
}

}  // namespace
}  // namespace hmm
