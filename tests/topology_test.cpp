// Unit tests for the machine topology (thread/warp layout, §II/§III).
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace hmm
