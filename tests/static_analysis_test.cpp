// The static analyzer's three-layer contract:
//
//  1. closed forms — term_conflict_degree / term_group_count agree with
//     the executable pricing oracle (mm/batch_cost.hpp's
//     profile_batch_reference) on random affine and table terms;
//  2. arbitrary plans — evaluate() over a randomly generated symbolic
//     kernel equals the dynamic AccessChecker's histograms when the SAME
//     kernel is replayed on a live machine, across a (w, d) grid;
//  3. registered workloads — for every (algorithm, model) pair with a
//     plan twin, the full differential harness matches the real kernel
//     round-for-round across the default 12+-point (d, w, l) grid, and
//     the paper's claimed bounds certify (or, for the deliberately wrong
//     transpose-naive claim, refute).
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "alg/plans.hpp"
#include "analysis/checker.hpp"
#include "analysis/static/diff.hpp"
#include "analysis/static/evaluate.hpp"
#include "analysis/static/plan.hpp"
#include "mm/batch_cost.hpp"
#include "mm/geometry.hpp"

namespace hmm::analysis {
namespace {

std::vector<Request> to_batch(const std::vector<Address>& addrs) {
  std::vector<Request> batch;
  batch.reserve(addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    batch.push_back(Request{.lane = static_cast<ThreadId>(i),
                            .kind = AccessKind::kRead,
                            .address = addrs[i]});
  }
  return batch;
}

// ---- layer 1: closed forms vs the pricing oracle --------------------------

TEST(StaticAnalysis, AffineTermsMatchPricingOracle) {
  std::mt19937_64 rng(20260808);
  std::uniform_int_distribution<std::int64_t> stride_dist(-40, 40);
  std::uniform_int_distribution<std::int64_t> base_dist(0, 300);
  for (const std::int64_t width : {1, 2, 3, 4, 7, 8, 16, 32}) {
    for (int rep = 0; rep < 200; ++rep) {
      const std::int64_t stride = stride_dist(rng);
      const std::int64_t lanes =
          std::uniform_int_distribution<std::int64_t>(1, width)(rng);
      // Keep every address non-negative under negative strides.
      const std::int64_t base =
          base_dist(rng) + (stride < 0 ? -stride * (lanes - 1) : 0);
      const Term term = Term::affine(base, stride, lanes);

      std::vector<Address> addrs;
      for (std::int64_t i = 0; i < lanes; ++i) {
        addrs.push_back(base + stride * i);
      }
      const auto batch = to_batch(addrs);
      const BatchProfile oracle =
          profile_batch_reference(MemoryGeometry(width), batch);

      EXPECT_EQ(term_conflict_degree(term, width), oracle.dmm_stages)
          << "base=" << base << " stride=" << stride << " lanes=" << lanes
          << " w=" << width;
      EXPECT_EQ(term_group_count(term, width), oracle.umm_stages)
          << "base=" << base << " stride=" << stride << " lanes=" << lanes
          << " w=" << width;
    }
  }
}

TEST(StaticAnalysis, TableTermsMatchPricingOracle) {
  std::mt19937_64 rng(77);
  for (const std::int64_t width : {2, 4, 8, 32}) {
    for (int rep = 0; rep < 200; ++rep) {
      const std::int64_t lanes =
          std::uniform_int_distribution<std::int64_t>(1, width)(rng);
      std::vector<Address> addrs;
      for (std::int64_t i = 0; i < lanes; ++i) {
        addrs.push_back(
            std::uniform_int_distribution<std::int64_t>(0, 4 * width)(rng));
      }
      const Term term = Term::table(addrs);
      const BatchProfile oracle =
          profile_batch_reference(MemoryGeometry(width), to_batch(addrs));
      EXPECT_EQ(term_conflict_degree(term, width), oracle.dmm_stages);
      EXPECT_EQ(term_group_count(term, width), oracle.umm_stages);
    }
  }
}

// ---- layer 2: random symbolic kernels, static vs dynamic ------------------

/// One uniform round of a random kernel.  All lanes execute the same
/// round list, so barriers stay warp- and domain-uniform; participation
/// (`lanes`) and addressing vary per round.
struct RandomRound {
  enum class Kind : std::uint8_t { kShared, kGlobal, kCompute, kBarrier };
  Kind kind = Kind::kCompute;
  bool is_write = false;
  bool is_table = false;      // table: a * lane^2 + b scramble
  std::int64_t base = 0;
  std::int64_t stride = 0;
  std::int64_t lanes = 1;     // lanes with local lane id < this participate
  std::int64_t scramble = 1;
  BarrierScope scope = BarrierScope::kDmm;
};

std::vector<RandomRound> make_random_program(std::mt19937_64& rng,
                                             std::int64_t width,
                                             bool allow_global) {
  std::vector<RandomRound> rounds;
  const int count = std::uniform_int_distribution<int>(4, 12)(rng);
  for (int i = 0; i < count; ++i) {
    RandomRound r;
    switch (std::uniform_int_distribution<int>(0, 3)(rng)) {
      case 0:
        r.kind = RandomRound::Kind::kShared;
        break;
      case 1:
        r.kind = allow_global ? RandomRound::Kind::kGlobal
                              : RandomRound::Kind::kShared;
        break;
      case 2:
        r.kind = RandomRound::Kind::kCompute;
        break;
      default:
        r.kind = RandomRound::Kind::kBarrier;
        break;
    }
    r.is_write = std::uniform_int_distribution<int>(0, 1)(rng) == 1;
    r.is_table = std::uniform_int_distribution<int>(0, 3)(rng) == 0;
    r.stride = std::uniform_int_distribution<std::int64_t>(-8, 8)(rng);
    r.lanes = std::uniform_int_distribution<std::int64_t>(1, width)(rng);
    r.base = std::uniform_int_distribution<std::int64_t>(0, 64)(rng) +
             (r.stride < 0 ? -r.stride * (width - 1) : 0);
    r.scramble = std::uniform_int_distribution<std::int64_t>(1, 13)(rng);
    // kMachine scope is legal here even with one DMM; mixing scopes
    // ACROSS warps would deadlock, but all warps run the same rounds.
    r.scope = std::uniform_int_distribution<int>(0, 3)(rng) == 0
                  ? BarrierScope::kMachine
                  : BarrierScope::kDmm;
    rounds.push_back(r);
  }
  return rounds;
}

void run_random_program(const std::vector<RandomRound>& rounds, PlanCtx& c) {
  for (const RandomRound& r : rounds) {
    switch (r.kind) {
      case RandomRound::Kind::kCompute:
        c.compute();
        break;
      case RandomRound::Kind::kBarrier:
        c.barrier(r.scope);
        break;
      case RandomRound::Kind::kShared:
      case RandomRound::Kind::kGlobal: {
        if (c.lane() >= r.lanes) break;  // divergent strip tail
        const MemorySpace space = r.kind == RandomRound::Kind::kShared
                                      ? MemorySpace::kShared
                                      : MemorySpace::kGlobal;
        Address a = r.base + r.stride * c.lane();
        if (r.is_table) {
          a = r.base + (c.lane() * c.lane() * r.scramble) % (4 * c.width());
        }
        if (r.is_write) {
          c.write(space, a);
        } else {
          c.read(space, a);
        }
        break;
      }
    }
  }
}

TEST(StaticAnalysis, RandomPlansMatchDynamicCheckerAcrossGrid) {
  std::mt19937_64 rng(424242);
  for (const std::int64_t width : {2, 4, 8, 32}) {
    for (const std::int64_t dmms : {1, 2, 4}) {
      for (int rep = 0; rep < 8; ++rep) {
        const bool allow_global = dmms == 1 || true;  // global is machine-wide
        const auto rounds = make_random_program(rng, width, allow_global);
        // A ragged thread count exercises partial-warp folding.
        PlanShape shape{.width = width,
                        .num_dmms = dmms,
                        .threads_per_dmm = 2 * width + width / 2 + 1};
        const LaneFn lane_fn = [&rounds](PlanCtx& c) {
          run_random_program(rounds, c);
        };

        const AccessPlan plan =
            analysis::build_access_plan("random", shape, lane_fn);
        const StaticReport stat = evaluate(plan);

        AccessChecker checker(CheckerConfig{
            .race = false, .bounds = false, .conflict = true});
        replay_plan_on_machine(shape, lane_fn, 8, &checker);

        EXPECT_TRUE(
            histograms_equal(stat.shared_hist, checker.shared_histogram()))
            << "shared mismatch at w=" << width << " d=" << dmms
            << " rep=" << rep;
        EXPECT_TRUE(
            histograms_equal(stat.global_hist, checker.global_histogram()))
            << "global mismatch at w=" << width << " d=" << dmms
            << " rep=" << rep;
      }
    }
  }
}

// A DMM-affine kernel: shared addresses are the same on every DMM, global
// ones move by dmm * shift.  Under PlanShape::dmm_affine the builder
// records DMMs 0 and 1 only when DMM 1 prices as DMM 0 (shift a multiple
// of w), and records every DMM otherwise; either way the report is the
// full build's.  Three warps per DMM, the last one partial.
TEST(StaticAnalysis, DmmAffinePromiseRecordsTwoDmmsAndPricesAsTheFullBuild) {
  constexpr std::int64_t kWidth = 8, kDmms = 6, kThreads = 2 * kWidth + 3;
  for (const std::int64_t shift : {std::int64_t{0}, 3 * kWidth, 3 * kWidth + 1}) {
    std::int64_t lanes_recorded = 0;
    const LaneFn lane_fn = [&](PlanCtx& c) {
      ++lanes_recorded;
      const std::int64_t self = c.local_thread_id();
      const Address g0 = c.dmm_id() * shift;
      c.set_label("stage-in");
      c.read(MemorySpace::kGlobal, g0 + 2 * self);
      c.write(MemorySpace::kShared, self);
      c.barrier();
      c.set_label("work");
      c.read(MemorySpace::kShared, (3 * self) % kThreads);
      c.read(MemorySpace::kGlobal, 0);
      c.write(MemorySpace::kGlobal, g0 + self);
    };
    PlanShape shape{
        .width = kWidth, .num_dmms = kDmms, .threads_per_dmm = kThreads};
    const StaticReport full =
        evaluate(analysis::build_access_plan("full", shape, lane_fn));
    EXPECT_EQ(lanes_recorded, kDmms * kThreads);

    lanes_recorded = 0;
    shape.dmm_affine = true;
    const StaticReport affine =
        evaluate(analysis::build_access_plan("affine", shape, lane_fn));
    // A failing witness stops at DMM 1's first warp, whose global read
    // moved by a non-multiple of w; then every DMM is recorded.
    EXPECT_EQ(lanes_recorded, shift % kWidth == 0 ? 2 * kThreads
                                                  : kDmms * kThreads + kWidth)
        << "shift " << shift;

    EXPECT_TRUE(histograms_equal(affine.shared_hist, full.shared_hist))
        << "shift " << shift;
    EXPECT_TRUE(histograms_equal(affine.global_hist, full.global_hist))
        << "shift " << shift;
    EXPECT_EQ(affine.shared_hist.batches, full.shared_hist.batches);
    EXPECT_EQ(affine.max_degree, full.max_degree);
    EXPECT_EQ(affine.max_groups, full.max_groups);
    EXPECT_EQ(affine.shared_stages, full.shared_stages);
    EXPECT_EQ(affine.global_stages, full.global_stages);
    ASSERT_EQ(affine.rounds.size(), full.rounds.size());
    for (std::size_t i = 0; i < full.rounds.size(); ++i) {
      EXPECT_EQ(affine.rounds[i].label, full.rounds[i].label);
      EXPECT_EQ(affine.rounds[i].space, full.rounds[i].space);
      EXPECT_EQ(affine.rounds[i].dispatches, full.rounds[i].dispatches);
      EXPECT_EQ(affine.rounds[i].max_cost, full.rounds[i].max_cost);
      EXPECT_EQ(affine.rounds[i].total_stages, full.rounds[i].total_stages);
    }
  }
}

// ---- layer 3: every registered workload, full differential grid -----------

TEST(StaticAnalysis, RegisteredWorkloadsMatchDynamicAcrossDefaultGrid) {
  const auto plans = alg::registered_plans();
  ASSERT_GE(plans.size(), 10u);
  for (const auto& [algorithm, model] : plans) {
    const auto grid = default_diff_grid(algorithm, model);
    ASSERT_GE(grid.size(), 12u) << algorithm << "/" << model;
    for (const alg::PlanPoint& point : grid) {
      const PlanDiff diff = diff_point(point);
      EXPECT_TRUE(diff.match)
          << algorithm << "/" << model << " w=" << point.w << " l=" << point.l
          << " d=" << point.d << ": " << diff.mismatch;
    }
  }
}

alg::PlanPoint default_point(const std::string& algorithm,
                             const std::string& model) {
  alg::PlanPoint pt;
  pt.algorithm = algorithm;
  pt.model = model;
  pt.n = 4096;
  pt.m = 16;
  pt.p = 256;
  pt.w = 32;
  pt.l = 64;
  pt.d = 4;
  pt.seed = 7;
  return pt;
}

TEST(StaticAnalysis, BitonicSortCertifiesAtExactlyDegreeTwo) {
  const auto plan = alg::build_access_plan(default_point("sort", "hmm"));
  ASSERT_TRUE(plan.has_value());
  const StaticReport report = evaluate(*plan);
  EXPECT_EQ(report.max_degree, 2);  // Theorem: bitonic needs — and meets — 2
  EXPECT_TRUE(report.conflict_free(2));
  EXPECT_FALSE(report.conflict_free(1));
  EXPECT_TRUE(satisfies_claims(*plan, report));
}

TEST(StaticAnalysis, SumTransposePermuteCertifyConflictFree) {
  for (const auto& [algorithm, model] :
       {std::pair<std::string, std::string>{"sum", "hmm"},
        {"transpose", "dmm"},
        {"permute", "dmm"}}) {
    const auto plan = alg::build_access_plan(default_point(algorithm, model));
    ASSERT_TRUE(plan.has_value()) << algorithm;
    const StaticReport report = evaluate(*plan);
    EXPECT_EQ(report.max_degree, 1) << algorithm << "/" << model;
    EXPECT_TRUE(report.conflict_free(1)) << algorithm << "/" << model;
    EXPECT_TRUE(satisfies_claims(*plan, report)) << algorithm << "/" << model;
  }
}

TEST(StaticAnalysis, NaiveTransposeClaimIsRefutedStatically) {
  const auto point = default_point("transpose-naive", "dmm");
  const auto plan = alg::build_access_plan(point);
  ASSERT_TRUE(plan.has_value());
  const StaticReport report = evaluate(*plan);
  // Column-major gather: every lane of a warp hits the same bank, so the
  // (deliberately wrong) degree-1 claim must be refuted with degree w.
  EXPECT_EQ(report.max_degree, point.w);
  EXPECT_FALSE(satisfies_claims(*plan, report));
  // ... and yet the (wrong) static certificate still matches the dynamic
  // run: refutation is about claims, not about mispricing.
  const PlanDiff diff = diff_point(point);
  EXPECT_TRUE(diff.match) << diff.mismatch;
}

TEST(StaticAnalysis, UmmWorkloadsHonorCoalescingClaims) {
  for (const auto& [algorithm, groups] :
       {std::pair<std::string, std::int64_t>{"sum", 1},
        {"scan", 2},
        {"conv", 2},
        {"sort", 2},
        {"stencil", 2}}) {
    const auto plan = alg::build_access_plan(default_point(algorithm, "umm"));
    ASSERT_TRUE(plan.has_value()) << algorithm;
    const StaticReport report = evaluate(*plan);
    EXPECT_LE(report.max_groups, groups) << algorithm;
    EXPECT_TRUE(satisfies_claims(*plan, report)) << algorithm;
  }
}

TEST(StaticAnalysis, CertificateTableCoversEveryDispatch) {
  const auto plan = alg::build_access_plan(default_point("conv", "hmm"));
  ASSERT_TRUE(plan.has_value());
  const StaticReport report = evaluate(*plan);
  ASSERT_FALSE(report.rounds.empty());
  std::int64_t dispatches = 0;
  for (const RoundCertificate& row : report.rounds) {
    EXPECT_FALSE(row.label.empty());
    EXPECT_GE(row.max_cost, 1);
    dispatches += row.dispatches;
  }
  // Memoized warps fold into their first occurrence's Dispatch::count,
  // so the certificate total is the multiplicity-weighted dispatch
  // count, not the stored-entry count.
  std::int64_t total = 0;
  for (const Dispatch& d : plan->dispatches) total += d.count;
  EXPECT_EQ(dispatches, total);
  EXPECT_GE(total, static_cast<std::int64_t>(plan->dispatches.size()));
}

}  // namespace
}  // namespace hmm::analysis
