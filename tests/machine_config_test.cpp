// Machine construction and configuration validation matrix.
#include <gtest/gtest.h>

#include "machine/machine.hpp"

namespace hmm {
namespace {

TEST(MachineConfig, FactoriesProduceTheRightShapes) {
  Machine dmm = Machine::dmm(16, 4, 64, 256);
  EXPECT_TRUE(dmm.has_shared());
  EXPECT_FALSE(dmm.has_global());
  EXPECT_EQ(dmm.num_dmms(), 1);
  EXPECT_EQ(dmm.shared_latency(), 4);
  EXPECT_EQ(dmm.shared_memory(0).size(), 256);
  EXPECT_THROW(dmm.global_memory(), PreconditionError);
  EXPECT_THROW(dmm.global_latency(), PreconditionError);

  Machine umm = Machine::umm(16, 9, 64, 256);
  EXPECT_FALSE(umm.has_shared());
  EXPECT_TRUE(umm.has_global());
  EXPECT_EQ(umm.global_latency(), 9);
  EXPECT_THROW(umm.shared_memory(0), PreconditionError);

  Machine h = Machine::hmm(16, 9, 4, 32, 64, 1024);
  EXPECT_TRUE(h.has_shared() && h.has_global());
  EXPECT_EQ(h.shared_latency(), 1);  // §III default
  EXPECT_EQ(h.num_threads(), 128);
  EXPECT_EQ(h.shared_memory(3).size(), 64);
  EXPECT_THROW(h.shared_memory(4), PreconditionError);
}

TEST(MachineConfig, EachDmmOwnsAPrivateSharedMemory) {
  Machine h = Machine::hmm(4, 2, 3, 4, 16, 64);
  h.shared_memory(0).poke(0, 111);
  h.shared_memory(1).poke(0, 222);
  EXPECT_EQ(h.shared_memory(0).peek(0), 111);
  EXPECT_EQ(h.shared_memory(1).peek(0), 222);
  EXPECT_EQ(h.shared_memory(2).peek(0), 0);
}

TEST(MachineConfig, InvalidSpecsAreRejected) {
  EXPECT_THROW(Machine::dmm(0, 1, 4, 16), PreconditionError);   // width
  EXPECT_THROW(Machine::dmm(4, 0, 4, 16), PreconditionError);   // latency
  EXPECT_THROW(Machine::dmm(4, 1, 0, 16), PreconditionError);   // threads
  EXPECT_THROW(Machine::dmm(4, 1, 4, 0), PreconditionError);    // memory
  EXPECT_THROW(Machine::hmm(4, 1, 0, 4, 16, 16), PreconditionError);

  MachineConfig no_memory;
  no_memory.width = 4;
  no_memory.dmms = {DmmShape{4, std::nullopt, {}}};
  EXPECT_THROW(Machine{std::move(no_memory)}, PreconditionError);

  MachineConfig bad_shared;
  bad_shared.width = 4;
  bad_shared.dmms = {DmmShape{4, MemorySpec{16, 0}, {}}};
  EXPECT_THROW(Machine{std::move(bad_shared)}, PreconditionError);

  MachineConfig mixed_shared;  // every DMM has a shared memory or none does
  mixed_shared.width = 4;
  mixed_shared.dmms = {DmmShape{4, MemorySpec{16, 1}, {}},
                       DmmShape{4, std::nullopt, {}}};
  mixed_shared.global = MemorySpec{16, 1};
  EXPECT_THROW(Machine{std::move(mixed_shared)}, PreconditionError);

  MachineConfig link_without_global;
  link_without_global.width = 4;
  link_without_global.dmms = {DmmShape{4, MemorySpec{16, 1}, DmmLink{1, 4}}};
  EXPECT_THROW(Machine{std::move(link_without_global)}, PreconditionError);
}

TEST(MachineConfig, RunRequiresACallableKernel) {
  Machine m = Machine::dmm(4, 1, 4, 16);
  Machine::KernelFn empty;
  EXPECT_THROW(m.run(empty), PreconditionError);
}

TEST(MachineConfig, GTX580InstantiationFromSectionIII) {
  // d = 16, w = 32, 1536 resident threads per SM, 48KB shared (6144
  // 8-byte words), l = several hundred: must construct cleanly at the
  // paper's stated scale.
  Machine gtx = Machine::hmm(32, 400, 16, 1536, 6144, 1 << 20);
  EXPECT_EQ(gtx.num_threads(), 24576);  // "p can be up to 24576"
  EXPECT_EQ(gtx.topology().total_warps(), 768);  // "up to 768 warps"
}

}  // namespace
}  // namespace hmm
