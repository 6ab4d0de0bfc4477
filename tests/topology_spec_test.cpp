// Tests for declarative machine topologies (machine/topology_spec.hpp):
// schema validation, normalization round-trips, canonical fingerprints,
// the flags↔JSON equivalence guarantee across every span driver, and the
// interconnect surcharge of linked multi-HMM machines.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "alg/workload.hpp"
#include "machine/topology_spec.hpp"
#include "run/point.hpp"
#include "run/shard.hpp"
#include "telemetry/metrics.hpp"

namespace hmm {
namespace {

topo::TopologySpec parse(const std::string& text) {
  return topo::parse_topology_text(text, "<test>");
}

TEST(TopologySpec, DefaultsAndDerivedAxes) {
  const topo::TopologySpec spec = parse(R"({"hmms": [{"dmms": 4}]})");
  EXPECT_EQ(spec.name, "machine");
  EXPECT_EQ(spec.width, 32);
  EXPECT_EQ(spec.global_latency, 400);
  EXPECT_EQ(spec.total_dmms(), 4);
  // threads_per_dmm defaults to the width (one warp per DMM).
  EXPECT_EQ(spec.total_threads(), 4 * 32);
  EXPECT_EQ(spec.max_threads_per_dmm(), 32);
  EXPECT_EQ(spec.hmms.at(0).name, "hmm0");
  EXPECT_EQ(spec.home, "hmm0");
  EXPECT_TRUE(spec.is_trivial());
}

TEST(TopologySpec, WarpsNormalizeToThreads) {
  const topo::TopologySpec spec =
      parse(R"({"width": 16, "hmms": [{"dmms": 2, "warps_per_dmm": 3}]})");
  EXPECT_EQ(spec.hmms.at(0).threads_per_dmm, 48);
  EXPECT_EQ(spec.total_threads(), 96);
  // The normalized document spells threads, never warps.
  EXPECT_NE(spec.document().find("threads_per_dmm"), std::string::npos);
  EXPECT_EQ(spec.document().find("warps_per_dmm"), std::string::npos);
}

TEST(TopologySpec, DocumentRoundTripsExactly) {
  const topo::TopologySpec spec = parse(R"({
    "name": "two-gpu",
    "width": 32,
    "global_latency": 300,
    "hmms": [
      {"name": "a", "dmms": 2, "threads_per_dmm": 64, "shared_latency": 2},
      {"name": "b", "dmms": 3, "threads_per_dmm": 32,
       "dmm_overrides": [{"dmm": 1, "threads": 96, "shared_size": 128}]}
    ],
    "links": [{"name": "wire", "from": "b", "to": "a",
               "latency": 10, "words_per_stage": 4}],
    "home": "a"
  })");
  const topo::TopologySpec again = parse(spec.document());
  EXPECT_EQ(again.document(), spec.document());
  EXPECT_EQ(again.canonical(), spec.canonical());
  EXPECT_EQ(again.total_threads(), spec.total_threads());
  EXPECT_EQ(again.total_dmms(), 5);
}

TEST(TopologySpec, SynthesizedFlagsAreTrivial) {
  const topo::TopologySpec spec =
      topo::synthesize_topology("machine", 2048, 32, 400, 16);
  EXPECT_TRUE(spec.is_trivial());
  EXPECT_EQ(spec.total_threads(), 2048);
  EXPECT_EQ(spec.total_dmms(), 16);
  // ...and its document re-parses to the same trivial machine.
  const topo::TopologySpec again = parse(spec.document());
  EXPECT_TRUE(again.is_trivial());
  EXPECT_EQ(again.canonical(), spec.canonical());
  EXPECT_THROW(topo::synthesize_topology("machine", 100, 32, 400, 16),
               PreconditionError);  // p not a multiple of d
}

TEST(TopologySpec, NonTrivialWhenEngineCanObserveTheDifference) {
  EXPECT_FALSE(
      parse(R"({"hmms": [{"dmms": 2, "shared_latency": 4}]})").is_trivial());
  EXPECT_FALSE(
      parse(R"({"hmms": [{"dmms": 2, "shared_size": 64}]})").is_trivial());
  EXPECT_FALSE(parse(R"({"hmms": [
      {"dmms": 2, "dmm_overrides": [{"dmm": 0, "threads": 64}]}]})")
                   .is_trivial());
  EXPECT_FALSE(parse(R"({"hmms": [
      {"name": "a", "dmms": 1}, {"name": "b", "dmms": 1}],
      "links": [{"from": "b", "to": "a"}]})")
                   .is_trivial());
}

TEST(TopologySpec, CanonicalIsRenameInvariant) {
  const char* kNamed = R"({
    "hmms": [{"name": "a", "dmms": 1}, {"name": "b", "dmms": 1}],
    "links": [{"name": "nvlink", "from": "b", "to": "a", "latency": 5}],
    "home": "a"
  })";
  const char* kRenamed = R"({
    "hmms": [{"name": "x", "dmms": 1}, {"name": "y", "dmms": 1}],
    "links": [{"name": "wire", "from": "y", "to": "x", "latency": 5}],
    "home": "x"
  })";
  EXPECT_EQ(parse(kNamed).canonical(), parse(kRenamed).canonical());
  // Two spellings of the same resolved machine — override up from a low
  // base vs down from a high one — fingerprint identically, while a
  // genuinely different thread layout does not.
  const char* kOverrideUp = R"({"hmms": [{"dmms": 2, "threads_per_dmm": 32,
      "dmm_overrides": [{"dmm": 1, "threads": 64}]}]})";
  const char* kOverrideDown = R"({"hmms": [{"dmms": 2, "threads_per_dmm": 64,
      "dmm_overrides": [{"dmm": 0, "threads": 32}]}]})";
  const char* kUniform = R"({"hmms": [{"dmms": 2, "threads_per_dmm": 32}]})";
  EXPECT_EQ(parse(kOverrideUp).canonical(), parse(kOverrideDown).canonical());
  EXPECT_NE(parse(kOverrideUp).canonical(), parse(kUniform).canonical());
  // Any observable change moves the fingerprint.
  EXPECT_NE(parse(kNamed).canonical(),
            parse(R"({
    "hmms": [{"name": "a", "dmms": 1}, {"name": "b", "dmms": 1}],
    "links": [{"from": "b", "to": "a", "latency": 6}],
    "home": "a"
  })")
                .canonical());
}

TEST(TopologySpec, StrictParseRejections) {
  using topo::TopologySpecError;
  // Unknown keys at every level.
  EXPECT_THROW(parse(R"({"hmms": [{"dmms": 1}], "cores": 4})"),
               TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": [{"dmms": 1, "speed": 2}]})"),
               TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": [{"dmms": 1,
      "dmm_overrides": [{"dmm": 0, "color": 1}]}]})"),
               TopologySpecError);
  // threads and warps are one quantity in two spellings; both at once is
  // ambiguous.
  EXPECT_THROW(
      parse(R"({"hmms": [{"dmms": 1, "threads_per_dmm": 32,
      "warps_per_dmm": 1}]})"),
      TopologySpecError);
  // Structural nonsense.
  EXPECT_THROW(parse("{"), TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": []})"), TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": [{}]})"), TopologySpecError);  // no dmms
  EXPECT_THROW(parse(R"({"hmms": [{"dmms": 0}]})"), TopologySpecError);
  EXPECT_THROW(parse(R"({"width": 0, "hmms": [{"dmms": 1}]})"),
               TopologySpecError);
  // Duplicate names, bad home, dangling link endpoints.
  EXPECT_THROW(parse(R"({"hmms": [{"name": "a", "dmms": 1},
      {"name": "a", "dmms": 1}]})"),
               TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": [{"dmms": 1}], "home": "nope"})"),
               TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": [{"name": "a", "dmms": 1}],
      "links": [{"from": "a", "to": "ghost"}]})"),
               TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": [{"name": "a", "dmms": 1}],
      "links": [{"from": "a", "to": "a"}]})"),
               TopologySpecError);
  // Two HMMs with no route between them: the far one can never reach
  // global memory.
  EXPECT_THROW(parse(R"({"hmms": [{"name": "a", "dmms": 1},
      {"name": "b", "dmms": 1}]})"),
               TopologySpecError);
  // Per-HMM width must agree with the machine width (the engine prices
  // one warp width machine-wide).
  EXPECT_THROW(parse(R"({"width": 32,
      "hmms": [{"dmms": 1, "width": 16}]})"),
               TopologySpecError);
  // Out-of-range override index and duplicate override entries.
  EXPECT_THROW(parse(R"({"hmms": [{"dmms": 2,
      "dmm_overrides": [{"dmm": 2, "threads": 32}]}]})"),
               TopologySpecError);
  EXPECT_THROW(parse(R"({"hmms": [{"dmms": 2,
      "dmm_overrides": [{"dmm": 0, "threads": 32},
                        {"dmm": 0, "threads": 64}]}]})"),
               TopologySpecError);
  // A missing file is the same failure class as a malformed one.
  EXPECT_THROW(topo::parse_topology_file("/nonexistent/machine.json"),
               TopologySpecError);
}

TEST(TopologySpec, GridFingerprintChangesIffTopologyDoes) {
  run::GridSpec flags;
  flags.algorithm = "sum";
  flags.model = "hmm";
  flags.n = {1024};
  flags.m = {32};
  flags.p = {128};
  flags.w = {32};
  flags.l = {100};
  flags.d = {4};

  // A trivial spec IS its flags: frontends leave GridSpec::machine empty,
  // so the fingerprint cannot move (pre-topology manifests stay valid).
  run::GridSpec trivial = flags;
  trivial.machine_path = "m.json";  // argv material, never identity
  EXPECT_EQ(trivial.fingerprint(), flags.fingerprint());

  run::GridSpec overlaid = flags;
  overlaid.machine =
      parse(R"({"hmms": [{"dmms": 4, "threads_per_dmm": 32,
      "shared_latency": 2}]})")
          .canonical();
  EXPECT_NE(overlaid.fingerprint(), flags.fingerprint());

  run::GridSpec linked = flags;
  linked.machine = parse(R"({"hmms": [
      {"name": "a", "dmms": 2, "threads_per_dmm": 32},
      {"name": "b", "dmms": 2, "threads_per_dmm": 32}],
      "links": [{"from": "b", "to": "a", "latency": 7}]})")
                       .canonical();
  EXPECT_NE(linked.fingerprint(), flags.fingerprint());
  EXPECT_NE(linked.fingerprint(), overlaid.fingerprint());
}

// The tentpole guarantee: a flag run and its synthesized-JSON equivalent
// produce identical outcomes through the shared dispatcher, for every
// span driver on both models.
TEST(TopologySpec, FlagRunsEqualSynthesizedJsonAcrossAllDrivers) {
  alg::WorkloadCache workloads;
  const char* kAlgorithms[] = {"sum", "scan", "conv", "sort", "matmul",
                               "match"};
  const char* kModels[] = {"hmm", "umm"};
  for (const char* algorithm : kAlgorithms) {
    for (const char* model : kModels) {
      run::Point point;
      point.algorithm = algorithm;
      point.model = model;
      point.n = std::string(algorithm) == "matmul" ? 32 : 1024;
      point.m = 16;
      point.p = 128;
      point.w = 32;
      point.l = 100;
      point.d = 4;
      const run::PointOutcome flags = run::run_point(point, workloads);

      run::Point json = point;
      json.machine = std::make_shared<const topo::TopologySpec>(
          topo::synthesize_topology("machine", point.p, point.w, point.l,
                                    point.d));
      const run::PointOutcome viaSpec = run::run_point(json, workloads);
      EXPECT_EQ(flags.time, viaSpec.time) << algorithm << "/" << model;
      EXPECT_EQ(flags.global_stages, viaSpec.global_stages)
          << algorithm << "/" << model;
      EXPECT_EQ(flags.ff_rounds, viaSpec.ff_rounds)
          << algorithm << "/" << model;
      EXPECT_EQ(flags.summary, viaSpec.summary) << algorithm << "/" << model;
    }
  }
}

// A spec that is non-trivial only through a redundant size floor must
// still reproduce the flag run exactly: a floor below the driver's own
// shared size adds no cost.
TEST(TopologySpec, RedundantOverlayReproducesFlagRun) {
  alg::WorkloadCache workloads;
  run::Point point;
  point.algorithm = "sort";
  point.n = 1024;
  point.p = 128;
  point.w = 32;
  point.l = 100;
  point.d = 4;
  const run::PointOutcome flags = run::run_point(point, workloads);

  run::Point overlaid = point;
  overlaid.machine = std::make_shared<const topo::TopologySpec>(
      parse(R"({"hmms": [{"dmms": 4, "threads_per_dmm": 32,
      "shared_size": 1}]})"));
  ASSERT_FALSE(overlaid.machine->is_trivial());
  const run::PointOutcome via = run::run_point(overlaid, workloads);
  EXPECT_EQ(flags.time, via.time);
  EXPECT_EQ(flags.global_stages, via.global_stages);
  EXPECT_EQ(flags.summary, via.summary);
}

std::shared_ptr<const topo::TopologySpec> linked_pair() {
  return std::make_shared<const topo::TopologySpec>(parse(R"({
    "hmms": [{"name": "gpu0", "dmms": 2, "threads_per_dmm": 64},
             {"name": "gpu1", "dmms": 2, "threads_per_dmm": 64}],
    "links": [{"from": "gpu1", "to": "gpu0",
               "latency": 50, "words_per_stage": 4}],
    "home": "gpu0"
  })"));
}

TEST(TopologySpec, LinkSurchargeSlowsRemoteTrafficAndIsCounted) {
  alg::WorkloadCache workloads;
  run::Point flat;
  flat.algorithm = "sum";
  flat.n = 2048;
  flat.p = 256;
  flat.w = 32;
  flat.l = 100;
  flat.d = 4;
  const run::PointOutcome flatOutcome = run::run_point(flat, workloads);

  run::Point linked = flat;
  linked.machine = linked_pair();
  telemetry::MetricsRegistry registry;
  const run::PointOutcome linkedOutcome =
      run::run_point(linked, workloads, &registry);
  // Same machine shape, but half the DMMs now pay the interconnect on
  // every global batch: strictly slower, and the link counters say why.
  EXPECT_GT(linkedOutcome.time, flatOutcome.time);
  EXPECT_EQ(flatOutcome.summary, linkedOutcome.summary);  // same answer
  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GT(snap.link_remote_batches, 0);
  EXPECT_GT(snap.link_stages, 0);
  // The model histograms price coalescing, not the interconnect: the
  // surcharge must NOT leak into the address-group maxima.
  EXPECT_LE(snap.address_groups.max_stages, 32);
}

TEST(TopologySpec, LinkedRunsAreDeterministicAcrossModes) {
  alg::WorkloadCache workloads;
  run::Point point;
  point.algorithm = "sort";
  point.n = 1024;
  point.p = 256;
  point.w = 32;
  point.l = 100;
  point.d = 4;
  point.machine = linked_pair();
  const run::PointOutcome base = run::run_point(point, workloads);

  run::Point noFf = point;
  noFf.fast_forward = false;
  const run::PointOutcome slow = run::run_point(noFf, workloads);
  EXPECT_EQ(base.time, slow.time);
  EXPECT_EQ(base.global_stages, slow.global_stages);
  EXPECT_EQ(base.summary, slow.summary);
}

TEST(TopologySpec, NonTrivialSpecRequiresHmmModel) {
  alg::WorkloadCache workloads;
  run::Point point;
  point.algorithm = "sum";
  point.model = "umm";
  point.n = 1024;
  point.p = 256;
  point.w = 32;
  point.l = 100;
  point.d = 4;
  point.machine = linked_pair();
  EXPECT_THROW(run::run_point(point, workloads), PreconditionError);
}

}  // namespace
}  // namespace hmm
