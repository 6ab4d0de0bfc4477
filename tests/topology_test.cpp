// Unit tests for the machine topology (thread/warp layout, §II/§III).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "machine/machine.hpp"
#include "machine/topology.hpp"

namespace hmm {
namespace {

TEST(Topology, EvenSplit) {
  const Topology t(/*width=*/32, {64, 64, 64, 64});
  EXPECT_EQ(t.width(), 32);
  EXPECT_EQ(t.num_dmms(), 4);
  EXPECT_EQ(t.total_threads(), 256);
  EXPECT_EQ(t.threads_on(2), 64);
  EXPECT_EQ(t.warps_on(2), 2);
  EXPECT_EQ(t.total_warps(), 8);
  EXPECT_EQ(t.first_thread(0), 0);
  EXPECT_EQ(t.first_thread(3), 192);
  EXPECT_EQ(t.first_warp(3), 6);
}

TEST(Topology, RaggedThreadCountsAndPartialWarps) {
  const Topology t(/*width=*/4, {5, 3, 9});
  EXPECT_EQ(t.total_threads(), 17);
  EXPECT_EQ(t.warps_on(0), 2);  // 4 + 1
  EXPECT_EQ(t.warps_on(1), 1);  // partial warp of 3
  EXPECT_EQ(t.warps_on(2), 3);  // 4 + 4 + 1
  EXPECT_EQ(t.total_warps(), 6);
}

TEST(Topology, RejectsNonsense) {
  EXPECT_THROW(Topology(0, {1}), PreconditionError);
  EXPECT_THROW(Topology(4, {}), PreconditionError);
  EXPECT_THROW(Topology(4, {4, 0}), PreconditionError);
  const Topology t(4, {4});
  EXPECT_THROW(t.threads_on(1), PreconditionError);
}

// Every ThreadCtx identity accessor agrees with the machine's Topology,
// on even, ragged and multi-DMM shapes with partial warps.
TEST(Topology, ThreadIdentityFollowsTheLayout) {
  struct Seen {
    ThreadId thread = -1, local = -1;
    DmmId dmm = -1;
    WarpId warp = -1;
    std::int64_t lane = -1, width = -1, num_dmms = -1, num_threads = -1,
                 dmm_threads = -1;
  };
  for (const auto& [width, threads] :
       std::vector<std::pair<std::int64_t, std::vector<std::int64_t>>>{
           {32, {64, 64}}, {4, {5, 3, 9}}, {8, {1, 17, 8, 30}}, {3, {7}}}) {
    MachineConfig cfg;
    cfg.width = width;
    cfg.dmms.clear();
    for (const std::int64_t p : threads) {
      cfg.dmms.push_back(DmmShape{p, MemorySpec{4, 1}, {}});
    }
    Machine m(cfg);
    const Topology& topo = m.topology();
    std::vector<Seen> seen(static_cast<std::size_t>(topo.total_threads()));
    (void)m.run([&seen](ThreadCtx& t) -> SimTask {
      seen[static_cast<std::size_t>(t.thread_id())] = Seen{
          t.thread_id(), t.local_thread_id(), t.dmm_id(), t.warp_id(),
          t.lane(), t.width(), t.num_dmms(), t.num_threads(),
          t.dmm_thread_count()};
      co_await t.compute();
    });
    for (DmmId j = 0; j < topo.num_dmms(); ++j) {
      for (std::int64_t i = 0; i < topo.threads_on(j); ++i) {
        const ThreadId id = topo.first_thread(j) + i;
        const Seen& s = seen[static_cast<std::size_t>(id)];
        EXPECT_EQ(s.thread, id);
        EXPECT_EQ(s.local, i) << "thread " << id;
        EXPECT_EQ(s.dmm, j) << "thread " << id;
        EXPECT_EQ(s.warp, topo.first_warp(j) + i / width) << "thread " << id;
        EXPECT_EQ(s.lane, i % width) << "thread " << id;
        EXPECT_EQ(s.width, width);
        EXPECT_EQ(s.num_dmms, topo.num_dmms());
        EXPECT_EQ(s.num_threads, topo.total_threads());
        EXPECT_EQ(s.dmm_threads, topo.threads_on(j)) << "thread " << id;
      }
    }
  }
}

// A thread's ids are 32-bit, so a machine stops short of 2^31 threads
// (checked before any memory is built).
TEST(Topology, MachinesOfTwoToThe31ThreadsAreRejected) {
  EXPECT_THROW(Machine::dmm(32, 1, std::int64_t{1} << 31, 64),
               PreconditionError);
  EXPECT_THROW(Machine::hmm(32, 100, 2, std::int64_t{1} << 30, 64, 64),
               PreconditionError);
}

}  // namespace
}  // namespace hmm
