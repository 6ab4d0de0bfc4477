// Cross-process sweep sharding: deterministic partition of a sweep grid
// across K independent `hmmsim` processes (possibly on K machines), plus
// the job-manifest format that lets `hmm-merge` validate and reassemble
// the shard outputs into the exact CSV one process would have produced.
//
// The pieces:
//
//   GridSpec   — the one sweep vocabulary (hmmsim flags, hmmsimd run
//                requests, manifests): its defaults are run::Point's,
//                and it is the only home of the axis rule, the row-major
//                expansion and --machine adoption.  Everything that
//                determines the CSV rows (and nothing that does not:
//                `--jobs` is a runner-local choice).  Its
//                `fingerprint()` — FNV-1a 64 over a canonical rendering
//                — tags every manifest and every sharded CSV row, so a
//                merge can prove all inputs came from the same grid.
//   ShardPlan  — round-robin assignment: shard i of K owns grid indices
//                {i, i+K, i+2K, ...} in row-major grid order.  Because
//                `n` is the outermost axis, round-robin interleaves the
//                expensive large-n points across shards instead of
//                handing the whole large-n tail to the last shard.
//   Manifest   — the JSON job file `hmmsim --emit-manifest` writes: one
//                entry per shard with the exact argv to run, the
//                expected row count, the fingerprint and the CSV header
//                every shard must reproduce.  docs/API.md documents the
//                schema field by field.
//
// Determinism contract: the same GridSpec and K always produce the same
// plan, the same manifest bytes and — because grid points are
// independent simulations — the same rows, regardless of which machine
// runs which shard (tests/shard_test.cpp, tools/shard_roundtrip.sh).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "machine/topology_spec.hpp"
#include "run/point.hpp"

namespace hmm::run {

/// FNV-1a 64-bit over `bytes` — the manifest fingerprint hash.
std::uint64_t fnv1a64(std::string_view bytes);

/// The axis rule argv, the wire and manifests share: an axis is a
/// non-empty list of values >= `min` (1 for the six axes, 0 for the
/// seed).  Returns why `values` breaks it ("is empty", "values must be
/// >= 1"), or an empty string when it holds.
std::string axis_error(const std::vector<std::int64_t>& values,
                       std::int64_t min = 1);

/// Round-robin shard assignment: shard `shard` of `shards` owns every
/// grid index congruent to it mod `shards`.
struct ShardPlan {
  std::int64_t shard = 0;   ///< in [0, shards)
  std::int64_t shards = 1;  ///< >= 1

  bool owns(std::int64_t grid_index) const {
    return grid_index % shards == shard;
  }

  /// How many of `grid_points` indices this shard owns.
  std::int64_t count(std::int64_t grid_points) const;

  /// The owned indices, ascending.
  std::vector<std::int64_t> indices(std::int64_t grid_points) const;
};

/// Parse "i/K" (e.g. "--shard=2/8") into a plan.  Returns false on
/// malformed input, K < 1 or i outside [0, K).
bool parse_shard_spec(std::string_view spec, ShardPlan& plan);

/// Identity of one sweep grid; see file comment.
struct GridSpec {
  std::string algorithm;
  std::string model = Point{}.model;
  std::vector<std::int64_t> n{Point{}.n}, m{Point{}.m}, p{Point{}.p},
      w{Point{}.w}, l{Point{}.l}, d{Point{}.d};
  std::uint64_t seed = Point{}.seed;
  bool metrics = false;       ///< rows carry the five metric columns
  /// Engine replay shortcut (hmmsim --fast-forward); part of the identity
  /// because shards must agree on it even though results are provably
  /// equal.
  bool fast_forward = Point{}.fast_forward;
  bool analyze = false;       ///< rows carry the three static-analyzer
                              ///< columns (hmmsim --analyze sweeps)
  /// Topology digest: the canonical text of a NON-trivial --machine
  /// spec (topo::TopologySpec::canonical()), empty for plain flags and
  /// for trivial specs — a flag run and its equivalent JSON must share a
  /// fingerprint, while any topology the flags cannot express must
  /// change it.  Appended to canonical() only when non-empty so all
  /// pre-topology fingerprints are unchanged.
  std::string machine;
  /// The --machine file path for manifest argv reconstruction.  Runner
  /// input, not grid identity: NOT part of canonical() (two paths to the
  /// same document fingerprint identically via `machine`).
  std::string machine_path;
  /// The adopted topology every expanded point carries; null for flag
  /// grids and parsed manifests.  Runner input like machine_path.
  std::shared_ptr<const topo::TopologySpec> topology;

  /// Total grid points (product of the six axis sizes).
  std::int64_t points() const;

  /// The grid's points in row-major (n, m, p, w, l, d) order, n
  /// outermost, each carrying `topology` — so grid index i names the
  /// same point in a local sweep, a shard run and a daemon request.
  std::vector<Point> expand() const;

  /// Adopt a resolved --machine topology (null adopts nothing): its
  /// derived shape replaces the p/w/l/d axes, every expanded point
  /// carries it, and a non-trivial spec sets the `machine` digest.
  /// Returns false, adopting nothing, when a non-trivial spec meets a
  /// model other than hmm — only the hmm model has DMMs to reshape.
  [[nodiscard]] bool adopt(std::shared_ptr<const topo::TopologySpec> spec);

  /// Canonical one-line rendering — the fingerprint input.  Stable
  /// across runs and processes by construction (no pointers, no
  /// locale, fixed field order).
  std::string canonical() const;

  /// 16 lowercase hex digits of fnv1a64(canonical()).
  std::string fingerprint() const;

  friend bool operator==(const GridSpec&, const GridSpec&) = default;
};

/// One shard's job in a manifest.
struct ManifestEntry {
  std::int64_t shard = 0;
  std::int64_t grid_points = 0;       ///< rows this shard must produce
  std::vector<std::string> argv;      ///< exact command to run it

  friend bool operator==(const ManifestEntry&,
                         const ManifestEntry&) = default;
};

/// The parsed (or planned) job manifest.
struct Manifest {
  std::int64_t version = 1;
  std::string tool;         ///< argv[0] recorded for the entries
  std::string fingerprint;  ///< GridSpec::fingerprint() of `grid`
  std::int64_t grid_points = 0;
  std::int64_t shards = 0;
  std::string header;       ///< CSV header line every shard must emit
  GridSpec grid;
  std::vector<ManifestEntry> entries;  ///< one per shard, in shard order

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Plan a K-way manifest for `spec`.  `tool` is the command name to
/// record in each entry's argv (conventionally "hmmsim"); `header` is
/// the sharded CSV header the runs will emit
/// (report/sweep_csv.hpp: sweep_csv_header(spec.metrics, true)).
Manifest plan_manifest(const GridSpec& spec, std::int64_t shards,
                       const std::string& tool, const std::string& header);

/// Serialize to the manifest JSON document (stable key order, 2-space
/// indent, trailing newline) — byte-identical for identical manifests.
std::string manifest_json(const Manifest& manifest);

/// Parse a manifest document; throws PreconditionError on syntax
/// errors, missing fields, an unsupported version, or internal
/// inconsistencies (entry count != shards, fingerprint mismatch with
/// the embedded grid, point counts that don't add up).
Manifest parse_manifest_json(const std::string& text);

}  // namespace hmm::run
