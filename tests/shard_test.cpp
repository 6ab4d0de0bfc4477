// Unit coverage for cross-process sweep sharding: the round-robin
// ShardPlan partition, the GridSpec fingerprint, manifest JSON
// emit/parse round trips, the core/json.hpp parser it rides on, and the
// shared sweep CSV schema (report/sweep_csv.hpp).  The process-level
// behaviour (2-shard merge == single-process --csv, merge exit codes)
// is locked separately by tools/shard_roundtrip.sh.
#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <memory>
#include <set>

#include "core/error.hpp"
#include "core/json.hpp"
#include "machine/topology_spec.hpp"
#include "report/sweep_csv.hpp"
#include "run/shard.hpp"

namespace hmm {
namespace {

using run::fnv1a64;
using run::GridSpec;
using run::Manifest;
using run::ShardPlan;

GridSpec small_spec() {
  GridSpec spec;
  spec.algorithm = "sum";
  spec.model = "hmm";
  spec.n = {4096, 16384};
  spec.m = {32};
  spec.p = {2048};
  spec.w = {32};
  spec.l = {100, 400};
  spec.d = {4, 16};
  spec.seed = 1;
  return spec;
}

// ---------------------------------------------------------------------------
// ShardPlan: the round-robin partition
// ---------------------------------------------------------------------------

TEST(ShardPlan, EveryIndexOwnedByExactlyOneShard) {
  for (const std::int64_t points : {0LL, 1LL, 5LL, 16LL, 37LL}) {
    for (const std::int64_t shards : {1LL, 2LL, 3LL, 5LL, 8LL, 40LL}) {
      std::set<std::int64_t> covered;
      std::int64_t total = 0;
      for (std::int64_t s = 0; s < shards; ++s) {
        const ShardPlan plan{s, shards};
        const auto own = plan.indices(points);
        EXPECT_EQ(static_cast<std::int64_t>(own.size()), plan.count(points));
        for (const std::int64_t g : own) {
          EXPECT_TRUE(plan.owns(g));
          EXPECT_TRUE(covered.insert(g).second)
              << "index " << g << " owned twice (" << shards << " shards)";
        }
        total += plan.count(points);
      }
      EXPECT_EQ(total, points);
      EXPECT_EQ(static_cast<std::int64_t>(covered.size()), points);
    }
  }
}

TEST(ShardPlan, RoundRobinInterleavesTheOuterAxis) {
  // Round-robin exists to balance the expensive large-n tail: with 2
  // shards over 4 points, each shard gets one small-n and one large-n
  // point instead of shard 1 getting both large ones.
  const ShardPlan even{0, 2};
  const ShardPlan odd{1, 2};
  EXPECT_EQ(even.indices(4), (std::vector<std::int64_t>{0, 2}));
  EXPECT_EQ(odd.indices(4), (std::vector<std::int64_t>{1, 3}));
}

TEST(ShardPlan, MoreShardsThanPointsLeavesTrailingShardsEmpty) {
  const ShardPlan plan{5, 8};
  EXPECT_EQ(plan.count(3), 0);
  EXPECT_TRUE(plan.indices(3).empty());
  EXPECT_EQ((ShardPlan{2, 8}.count(3)), 1);
}

TEST(ShardPlan, ParseSpec) {
  ShardPlan plan;
  EXPECT_TRUE(run::parse_shard_spec("0/1", plan));
  EXPECT_EQ(plan.shard, 0);
  EXPECT_EQ(plan.shards, 1);
  EXPECT_TRUE(run::parse_shard_spec("3/8", plan));
  EXPECT_EQ(plan.shard, 3);
  EXPECT_EQ(plan.shards, 8);

  for (const char* bad : {"8/8", "9/8", "-1/2", "1/0", "1/-2", "a/2", "1/b",
                          "1", "/", "1/", "/2", "1/2/3", ""}) {
    EXPECT_FALSE(run::parse_shard_spec(bad, plan)) << "accepted: " << bad;
  }
}

// ---------------------------------------------------------------------------
// GridSpec: identity and fingerprint
// ---------------------------------------------------------------------------

TEST(GridSpec, PointsIsTheAxisProduct) {
  EXPECT_EQ(small_spec().points(), 8);
  GridSpec one;
  one.algorithm = "sum";
  one.n = {1};
  one.m = {1};
  one.p = {1};
  one.w = {1};
  one.l = {1};
  one.d = {1};
  EXPECT_EQ(one.points(), 1);
}

// The grid-size rule: run::kMaxGridPoints points are allowed, one more is
// not.  65,537 is prime, so a grid of that size is one axis that long.
TEST(GridSpec, GridsPastTheCapAreRejected) {
  GridSpec spec;
  spec.algorithm = "sum";
  spec.n.assign(256, 4096);
  spec.m.assign(256, 32);
  EXPECT_EQ(run::kMaxGridPoints, 65536);
  EXPECT_EQ(spec.points(), 65536);
  EXPECT_EQ(spec.size_error(), "");
  EXPECT_EQ(spec.expand().size(), 65536u);

  spec.n.assign(65537, 4096);
  spec.m = {32};
  EXPECT_EQ(spec.points(), run::kMaxGridPoints + 1);
  EXPECT_EQ(spec.size_error(), "has more than 65536 points");
  EXPECT_THROW(spec.expand(), PreconditionError);
  EXPECT_THROW(run::plan_manifest(spec, 2, "hmmsim",
                                  sweep_csv_header(false, true)),
               PreconditionError);
}

// Four axes of 2^16 values multiply to 2^64, past the int64 range: the
// count stops at the cap instead of computing the product (UBSan builds
// would report the signed overflow).
TEST(GridSpec, AnOverflowingAxisProductIsRejectedWithoutComputingIt) {
  GridSpec spec;
  spec.algorithm = "sum";
  for (std::vector<std::int64_t>* axis : {&spec.n, &spec.m, &spec.p, &spec.w}) {
    axis->assign(65536, 1);
  }
  EXPECT_EQ(spec.points(), run::kMaxGridPoints + 1);
  EXPECT_FALSE(spec.size_error().empty());
}

TEST(GridSpec, FingerprintIsStableAndSensitive) {
  const GridSpec spec = small_spec();
  EXPECT_EQ(spec.fingerprint(), spec.fingerprint());
  EXPECT_EQ(spec.fingerprint().size(), 16u);

  GridSpec other = spec;
  other.seed = 2;
  EXPECT_NE(other.fingerprint(), spec.fingerprint());
  other = spec;
  other.l = {100, 401};
  EXPECT_NE(other.fingerprint(), spec.fingerprint());
  other = spec;
  other.metrics = true;
  EXPECT_NE(other.fingerprint(), spec.fingerprint());
  other = spec;
  other.fast_forward = false;
  EXPECT_NE(other.fingerprint(), spec.fingerprint());
  other = spec;
  other.analyze = true;
  EXPECT_NE(other.fingerprint(), spec.fingerprint());
  other = spec;
  other.algorithm = "sort";
  EXPECT_NE(other.fingerprint(), spec.fingerprint());
}

TEST(GridSpec, FnvVector) {
  // FNV-1a 64 published test vectors — the fingerprint must never
  // silently change across refactors (old manifests would stop
  // merging).
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
}

std::shared_ptr<const topo::TopologySpec> linked_topology() {
  return std::make_shared<const topo::TopologySpec>(topo::parse_topology_text(
      R"({"hmms": [{"name": "a", "dmms": 2, "threads_per_dmm": 32},
                   {"name": "b", "dmms": 2, "threads_per_dmm": 32}],
          "links": [{"from": "b", "to": "a", "latency": 7}]})",
      "<test>"));
}

TEST(GridSpec, FingerprintIsPinned) {
  // Saved manifests and sharded CSVs carry these digests: reordering
  // canonical() or the topology digest would silently orphan them.
  EXPECT_EQ(small_spec().fingerprint(), "330738b260677c91");
  GridSpec linked;
  linked.algorithm = "sum";
  linked.n = {1024};
  ASSERT_TRUE(linked.adopt(linked_topology()));
  EXPECT_EQ(linked.fingerprint(), "78e8a231240a469f");
}

TEST(GridSpec, AdoptReplacesTheShapeAxes) {
  GridSpec spec = small_spec();
  ASSERT_TRUE(spec.adopt(linked_topology()));
  EXPECT_EQ(spec.p, (std::vector<std::int64_t>{128}));
  EXPECT_EQ(spec.w, (std::vector<std::int64_t>{32}));
  EXPECT_EQ(spec.l, (std::vector<std::int64_t>{400}));
  EXPECT_EQ(spec.d, (std::vector<std::int64_t>{4}));
  EXPECT_FALSE(spec.machine.empty());
  for (const run::Point& point : spec.expand()) {
    EXPECT_EQ(point.machine, spec.topology);
  }

  // A trivial spec is its flags: same shape, no digest, same fingerprint.
  GridSpec flags = small_spec();
  flags.p = {128};
  flags.w = {32};
  flags.l = {200};
  flags.d = {4};
  GridSpec trivial = small_spec();
  ASSERT_TRUE(trivial.adopt(std::make_shared<const topo::TopologySpec>(
      topo::synthesize_topology("machine", 128, 32, 200, 4))));
  EXPECT_TRUE(trivial.machine.empty());
  EXPECT_EQ(trivial.fingerprint(), flags.fingerprint());

  // Only the hmm model has DMMs to reshape; umm adopts nothing.
  GridSpec umm = small_spec();
  umm.model = "umm";
  const GridSpec before = umm;
  EXPECT_FALSE(umm.adopt(linked_topology()));
  EXPECT_EQ(umm, before);
}

// ---------------------------------------------------------------------------
// Manifest: plan, emit, parse
// ---------------------------------------------------------------------------

TEST(Manifest, PlanCoversTheGrid) {
  const GridSpec spec = small_spec();
  const Manifest m =
      run::plan_manifest(spec, 3, "hmmsim", sweep_csv_header(false, true));
  EXPECT_EQ(m.grid_points, 8);
  EXPECT_EQ(m.shards, 3);
  ASSERT_EQ(m.entries.size(), 3u);
  EXPECT_EQ(m.entries[0].grid_points, 3);  // indices 0,3,6
  EXPECT_EQ(m.entries[1].grid_points, 3);  // indices 1,4,7
  EXPECT_EQ(m.entries[2].grid_points, 2);  // indices 2,5
  EXPECT_EQ(m.fingerprint, spec.fingerprint());

  // Every entry records a complete, runnable argv ending in its shard.
  const auto& argv = m.entries[2].argv;
  ASSERT_FALSE(argv.empty());
  EXPECT_EQ(argv.front(), "hmmsim");
  EXPECT_EQ(argv[1], "sum");
  EXPECT_EQ(argv.back(), "--shard=2/3");
}

TEST(Manifest, JsonRoundTrip) {
  GridSpec spec = small_spec();
  spec.metrics = true;
  const Manifest planned =
      run::plan_manifest(spec, 2, "hmmsim", sweep_csv_header(true, true));
  const std::string text = run::manifest_json(planned);
  const Manifest parsed = run::parse_manifest_json(text);
  EXPECT_EQ(parsed, planned);
  // Emission is deterministic: same manifest, same bytes.
  EXPECT_EQ(run::manifest_json(parsed), text);
}

TEST(Manifest, ParseRejectsInconsistentDocuments) {
  const GridSpec spec = small_spec();
  const Manifest planned =
      run::plan_manifest(spec, 2, "hmmsim", sweep_csv_header(false, true));
  const std::string good = run::manifest_json(planned);

  EXPECT_THROW(run::parse_manifest_json("{"), PreconditionError);
  EXPECT_THROW(run::parse_manifest_json("{}"), PreconditionError);

  // A doctored fingerprint no longer matches the embedded grid.
  std::string bad = good;
  const auto at = bad.find(planned.fingerprint);
  ASSERT_NE(at, std::string::npos);
  bad.replace(at, 16, "0000000000000000");
  EXPECT_THROW(run::parse_manifest_json(bad), PreconditionError);

  // A doctored grid_points count disagrees with the axes.
  bad = good;
  const auto points_at = bad.find("\"grid_points\": 8");
  ASSERT_NE(points_at, std::string::npos);
  bad.replace(points_at, std::strlen("\"grid_points\": 8"),
              "\"grid_points\": 9");
  EXPECT_THROW(run::parse_manifest_json(bad), PreconditionError);

  // Axes and seed that break the axis rule are rejected even when the
  // fingerprint matches them.
  GridSpec zero_n = spec;
  zero_n.n = {0};
  GridSpec negative_p = spec;
  negative_p.p = {-4};
  for (const GridSpec& broken : {zero_n, negative_p}) {
    EXPECT_THROW(run::parse_manifest_json(run::manifest_json(
                     run::plan_manifest(broken, 2, "hmmsim",
                                        sweep_csv_header(false, true)))),
                 PreconditionError);
  }
  GridSpec wrapped = spec;
  wrapped.seed = std::numeric_limits<std::uint64_t>::max();  // "seed": -1
  bad = run::manifest_json(
      run::plan_manifest(wrapped, 2, "hmmsim", sweep_csv_header(false, true)));
  const auto seed_at = bad.find("\"seed\": 18446744073709551615");
  ASSERT_NE(seed_at, std::string::npos);
  bad.replace(seed_at, std::strlen("\"seed\": 18446744073709551615"),
              "\"seed\": -1");
  EXPECT_THROW(run::parse_manifest_json(bad), PreconditionError);
}

// A self-consistent manifest of 1000 x 1000 points — its fingerprint,
// grid_points and entry count all agree with its axes — is refused by
// the grid-size rule alone, before hmm-merge sizes anything by it.
TEST(Manifest, ParseRejectsAGridPastTheCap) {
  Manifest manifest = run::plan_manifest(small_spec(), 1, "hmmsim",
                                         sweep_csv_header(false, true));
  manifest.grid.n.assign(1000, 4096);
  manifest.grid.m.assign(1000, 32);
  manifest.grid.l = {100};
  manifest.grid.d = {4};
  manifest.fingerprint = manifest.grid.fingerprint();
  manifest.grid_points = 1000000;
  manifest.entries[0].grid_points = 1000000;
  try {
    run::parse_manifest_json(run::manifest_json(manifest));
    FAIL() << "a 1,000,000-point manifest was accepted";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "manifest: grid has more than 65536 points");
  }
}

// ---------------------------------------------------------------------------
// core/json.hpp: the parser the manifest rides on
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalarsObjectsAndArrays) {
  const json::Value v = json::parse(
      R"({"a": 1, "b": [true, false, null], "c": {"d": "x\ny"}, "e": -2.5})");
  EXPECT_EQ(v.get("a").as_int64(), 1);
  ASSERT_EQ(v.get("b").as_array().size(), 3u);
  EXPECT_TRUE(v.get("b").as_array()[0].as_bool());
  EXPECT_TRUE(v.get("b").as_array()[2].is_null());
  EXPECT_EQ(v.get("c").get("d").as_string(), "x\ny");
  EXPECT_DOUBLE_EQ(v.get("e").as_double(), -2.5);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.get("missing"), PreconditionError);
  EXPECT_THROW(v.get("a").as_string(), PreconditionError);
  EXPECT_THROW(v.get("e").as_int64(), PreconditionError);  // not integral
}

TEST(Json, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\" 1}", "01x", "\"unterminated", "{}extra",
        "{\"a\": \"\\q\"}", "nul"}) {
    EXPECT_THROW(json::parse(bad), PreconditionError) << "accepted: " << bad;
  }
}

// The parser recurses once per level: nesting is bounded, so a hostile
// document is a PreconditionError, never a stack overflow.
TEST(Json, NestingDeeperThanTheLimitIsRejected) {
  const auto nested = [](int depth) {  // alternating arrays and objects
    std::string doc;
    for (int i = 0; i < depth; ++i) doc += i % 2 == 0 ? "[" : "{\"k\":";
    doc += '0';
    for (int i = depth - 1; i >= 0; --i) doc += i % 2 == 0 ? ']' : '}';
    return doc;
  };
  EXPECT_NO_THROW(json::parse(nested(json::kMaxDepth)));
  EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1)), PreconditionError);
  EXPECT_THROW(json::parse(std::string(200000, '[')), PreconditionError);
}

TEST(Json, EscapeRoundTripsThroughParse) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string doc = "\"" + json::escape(nasty) + "\"";
  EXPECT_EQ(json::parse(doc).as_string(), nasty);
}

// ---------------------------------------------------------------------------
// report/sweep_csv.hpp: the shared row schema
// ---------------------------------------------------------------------------

TEST(SweepCsv, HeaderVariants) {
  EXPECT_EQ(sweep_csv_header(false, false),
            "algorithm,model,n,m,p,w,l,d,time,global_stages,ff_rounds");
  EXPECT_EQ(sweep_csv_header(false, true),
            "algorithm,model,n,m,p,w,l,d,time,global_stages,ff_rounds,"
            "grid_index,shard,fingerprint");
  EXPECT_EQ(sweep_csv_header(true, true),
            "algorithm,model,n,m,p,w,l,d,time,global_stages,ff_rounds,"
            "conflict_degree_max,address_groups_max,memory_stall,"
            "barrier_stall,latency_hiding,link_batches,link_stages,"
            "grid_index,shard,fingerprint");
  EXPECT_EQ(sweep_csv_header(false, true, true),
            "algorithm,model,n,m,p,w,l,d,time,global_stages,ff_rounds,"
            "static_degree_max,static_groups_max,static_verdict,"
            "grid_index,shard,fingerprint");
}

TEST(SweepCsv, AnalyzeColumnsCarryTheStaticVerdict) {
  const SweepPoint point{"sort", "hmm", 4096, 32, 2048, 32, 400, 16};
  const SweepStaticVerdict verdict{2, 1, "ok"};
  SweepMeasurement measured{2122, 146, 97, nullptr};
  measured.analyze = &verdict;
  EXPECT_EQ(sweep_csv_row(point, measured),
            "sort,hmm,4096,32,2048,32,400,16,2122,146,97,2,1,ok");
}

TEST(SweepCsv, ShardedRowIsTheBaseRowPlusTag) {
  const SweepPoint point{"sum", "hmm", 4096, 32, 2048, 32, 400, 16};
  const SweepMeasurement measured{2122, 146, 97, nullptr};
  const std::string base = sweep_csv_row(point, measured);
  EXPECT_EQ(base, "sum,hmm,4096,32,2048,32,400,16,2122,146,97");

  const ShardTag tag{5, 1, "9ecd17ffc63d0566"};
  const std::string sharded = sweep_csv_row(point, measured, &tag);
  // The merge tool strips kShardColumns trailing columns to recover the
  // base row; this equality is that contract.
  EXPECT_EQ(sharded, base + ",5,1,9ecd17ffc63d0566");
}

TEST(SweepCsv, MetricsColumnsMatchTheLegacyFormat) {
  MetricsSnapshot s;
  s.conflict_degree.max_stages = 1;
  s.address_groups.max_stages = 2;
  s.memory_stall_cycles = 30;
  s.barrier_stall_cycles = 40;
  s.latency_hiding = 0.5;
  s.link_remote_batches = 16;
  s.link_stages = 3216;
  const SweepPoint point{"sum", "umm", 1, 2, 3, 4, 5, 6};
  const SweepMeasurement measured{7, 8, 9, &s};
  EXPECT_EQ(sweep_csv_row(point, measured),
            "sum,umm,1,2,3,4,5,6,7,8,9,1,2,30,40,0.500000,16,3216");
}

}  // namespace
}  // namespace hmm
