// The sweep CSV schema — the ONE definition of the rows `hmmsim` emits
// for grid sweeps, shared by the CLI (tools/hmmsim.cpp) and the shard
// merge tool (tools/hmm-merge.cpp).
//
// Base columns:    algorithm,model,n,m,p,w,l,d,time,global_stages,ff_rounds
// --metrics adds:  conflict_degree_max,address_groups_max,memory_stall,
//                  barrier_stall,latency_hiding
// --analyze adds:  static_degree_max,static_groups_max,static_verdict
// Sharded runs add (always last, so a merge can strip them by count):
//                  grid_index,shard,fingerprint
//
// A sharded row minus its three shard columns is byte-identical to the
// row the same grid point produces in a single-process `hmmsim --csv`
// run — that equality is what `hmm-merge` reconstructs and what
// tools/shard_roundtrip.sh locks.
#pragma once

#include <string>

#include "machine/report.hpp"

namespace hmm {

/// One fully resolved grid point (the sweep axes of the hmmsim CLI).
struct SweepPoint {
  std::string algorithm;
  std::string model;
  std::int64_t n = 0;
  std::int64_t m = 0;
  std::int64_t p = 0;
  std::int64_t w = 0;
  std::int64_t l = 0;
  std::int64_t d = 0;
};

/// The static analyzer's verdict for one grid point (`--analyze` sweeps).
struct SweepStaticVerdict {
  std::int64_t degree_max = 0;  ///< worst shared dispatch (DMM pricing)
  std::int64_t groups_max = 0;  ///< worst global dispatch (UMM pricing)
  /// "ok" (claims hold), "refuted" (certificate exceeds a claim) or
  /// "none" (no plan twin registered for this algorithm/model).
  std::string verdict = "none";
};

/// What one simulated grid point measured.
struct SweepMeasurement {
  Cycle time = 0;
  std::int64_t global_stages = 0;
  /// Rounds the engine fast-forwarded via verified pattern replay
  /// (RunReport::fast_forward.replayed_rounds).  Deterministic for a
  /// given grid point and --fast-forward setting.  The cache hit/miss
  /// counters stay out of the CSV: they depend on what the machine ran
  /// before (its pattern cache outlives each run), not on the point.
  std::int64_t ff_rounds = 0;
  /// Non-null when the run was observed by a MetricsRegistry (--metrics);
  /// adds the five metric columns.  Not owned.
  const MetricsSnapshot* metrics = nullptr;
  /// Non-null when the sweep carries static verdicts (--analyze); adds
  /// the three static columns.  Not owned.
  const SweepStaticVerdict* analyze = nullptr;
};

/// Shard provenance appended to every row of a `--shard=i/K` run.
struct ShardTag {
  std::int64_t grid_index = 0;  ///< row-major index into the full grid
  std::int64_t shard = 0;       ///< owning shard (grid_index mod shards)
  std::string fingerprint;      ///< grid fingerprint (run/shard.hpp)
};

/// Number of trailing columns a ShardTag contributes.
inline constexpr int kShardColumns = 3;

/// The header line (no trailing newline).
std::string sweep_csv_header(bool metrics, bool sharded, bool analyze = false);

/// One data row (no trailing newline).  Pass `tag == nullptr` for
/// unsharded rows; `m.metrics == nullptr` / `m.analyze == nullptr` omit
/// the metric / static columns, so the caller must be consistent with
/// the header it printed.
std::string sweep_csv_row(const SweepPoint& point, const SweepMeasurement& m,
                          const ShardTag* tag = nullptr);

}  // namespace hmm
