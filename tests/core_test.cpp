// Unit tests for src/core: integer helpers, RNG, statistics, errors.
#include <gtest/gtest.h>

#include <cmath>

#include "core/error.hpp"
#include "core/mathutil.hpp"
#include "core/rng.hpp"
#include "core/stats.hpp"

namespace hmm {
namespace {

TEST(MathUtil, CeilAndFloorDiv) {
  EXPECT_EQ(ceil_div(0, 3), 0);
  EXPECT_EQ(ceil_div(1, 3), 1);
  EXPECT_EQ(ceil_div(3, 3), 1);
  EXPECT_EQ(ceil_div(4, 3), 2);
  EXPECT_EQ(ceil_div(1'000'000'007, 2), 500'000'004);
  EXPECT_EQ(floor_div(4, 3), 1);
  EXPECT_EQ(floor_div(3, 3), 1);
  EXPECT_THROW(ceil_div(-1, 3), PreconditionError);
  EXPECT_THROW(ceil_div(1, 0), PreconditionError);
}

TEST(MathUtil, PowersOfTwo) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_TRUE(is_pow2(1LL << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(-4));

  EXPECT_EQ(ilog2_floor(1), 0);
  EXPECT_EQ(ilog2_floor(2), 1);
  EXPECT_EQ(ilog2_floor(3), 1);
  EXPECT_EQ(ilog2_floor(1024), 10);
  EXPECT_EQ(ilog2_ceil(1), 0);
  EXPECT_EQ(ilog2_ceil(3), 2);
  EXPECT_EQ(ilog2_ceil(1024), 10);
  EXPECT_EQ(ilog2_ceil(1025), 11);

  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(1024), 1024);
  EXPECT_THROW(ilog2_floor(0), PreconditionError);
}

TEST(Rng, DeterministicAndSeedSensitive) {
  Rng a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  Rng a2(7);
  bool differs = false;
  for (int i = 0; i < 100; ++i) {
    differs |= a2.next_u64() != c.next_u64();
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, BoundedDrawsStayInRangeAndCoverIt) {
  Rng rng(99);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10'000; ++i) {
    const auto v = rng.next_below(10);
    ASSERT_LT(v, 10u);
    ++hits[static_cast<std::size_t>(v)];
  }
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_in(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  EXPECT_THROW(rng.next_below(0), PreconditionError);
  EXPECT_THROW(rng.next_in(3, 2), PreconditionError);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  // The child stream must not replay the parent's continuation.
  Rng parent2(5);
  (void)parent2.split();
  bool differs = false;
  for (int i = 0; i < 50; ++i) {
    differs |= child.next_u64() != parent2.next_u64();
  }
  EXPECT_TRUE(differs);
}

TEST(RunningStats, WelfordMatchesClosedForms) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptySampleIsAnError) {
  RunningStats s;
  EXPECT_THROW(s.mean(), PreconditionError);
  EXPECT_THROW(s.min(), PreconditionError);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, GeometricMeanAndPercentile) {
  EXPECT_DOUBLE_EQ(geometric_mean({1.0, 4.0}), 2.0);
  EXPECT_DOUBLE_EQ(geometric_mean({8.0}), 8.0);
  EXPECT_THROW(geometric_mean({}), PreconditionError);
  EXPECT_THROW(geometric_mean({0.0}), PreconditionError);

  std::vector<double> xs{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.5);
  EXPECT_THROW(percentile({}, 50), PreconditionError);
  EXPECT_THROW(percentile(xs, 101), PreconditionError);
}

TEST(Errors, InvariantMessagesCarryLocationAndExpression) {
  try {
    HMM_ASSERT(1 == 2, "impossible arithmetic");
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("impossible arithmetic"), std::string::npos);
    EXPECT_NE(what.find("core_test.cpp"), std::string::npos);
  }
}

// A precondition failure reaches users (tool output, service error
// frames), so it says what is wrong and nothing about the source.
TEST(Errors, PreconditionMessagesAreTheMessage) {
  try {
    HMM_REQUIRE(1 == 2, "impossible arithmetic");
    FAIL() << "should have thrown";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "impossible arithmetic");
  }
}

}  // namespace
}  // namespace hmm
