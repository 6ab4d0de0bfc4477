// Library version, reported by examples and benches so recorded outputs
// identify the build they came from.
#pragma once

#include <cstddef>

namespace hmm {

inline constexpr int kVersionMajor = 1;
inline constexpr int kVersionMinor = 10;
inline constexpr int kVersionPatch = 0;
inline constexpr const char* kVersionString = "1.10.0";

/// Optional engine/tooling capabilities compiled into this build, in
/// lexicographic order.  `hmmsim --version`, the daemon's hello frame and
/// the `version` service request all report exactly this list, so scripts
/// probe features instead of parsing version numbers.
inline constexpr const char* kFeatures[] = {
    "analyze",       // symbolic access-plan analyzer (--analyze)
    "check",         // dynamic AccessChecker (--check)
    "fast-forward",  // round-pattern memoization + verified replay
    "machine-topology",  // declarative --machine JSON topologies
    "metrics",       // telemetry MetricsRegistry (--metrics, table/csv/json)
    "service",       // hmmsimd daemon + hmmsim --connect client mode
    "sharding",      // cross-process sweeps (--emit-manifest/--shard)
    "trace",         // Chrome trace export (--trace)
};
inline constexpr std::size_t kFeatureCount =
    sizeof(kFeatures) / sizeof(kFeatures[0]);

}  // namespace hmm
