// One fully resolved operating point and the dispatcher that runs it —
// the SINGLE definition of "execute algorithm X at (n, m, p, w, l, d)"
// shared by every frontend: the hmmsim CLI (local runs and sweeps), the
// hmmsimd service (src/service/server.cpp) and bench_service.  Keeping
// the dispatch here is what makes `hmmsim --connect` output byte-
// identical to a local run: both sides execute exactly this function and
// render rows through report/sweep_csv.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "alg/workload.hpp"
#include "machine/machine.hpp"
#include "machine/observer.hpp"
#include "machine/topology_spec.hpp"

namespace hmm::run {

/// One grid point of the sweep vocabulary (the hmmsim axes).  Its
/// initializers are the vocabulary's defaults (hmmsim's usage text):
/// GridSpec and the wire's RunRequest start every field from them.
struct Point {
  std::string algorithm;      ///< sum, scan, conv, sort, matmul, match
  std::string model = "hmm";  ///< or "umm"
  std::int64_t n = 1 << 16;
  std::int64_t m = 32;
  std::int64_t p = 2048;
  std::int64_t w = 32;
  std::int64_t l = 400;
  std::int64_t d = 16;
  std::uint64_t seed = 1;
  bool fast_forward = true;
  /// Declarative machine topology (--machine=FILE), already resolved to
  /// the flat axes above by GridSpec::adopt (p = total threads, d = total
  /// DMMs, w = width, l = global latency).  On the hmm model its DMM
  /// shapes are the overlay the dispatch installs (HmmShape); null means
  /// the uniform machine of (p, d).  Only a TRIVIAL spec may run on umm.
  /// Shared because every point of a sweep references one parsed spec
  /// across workers.
  std::shared_ptr<const topo::TopologySpec> machine;

  friend bool operator==(const Point&, const Point&) = default;
};

/// What one executed point reports back.
struct PointOutcome {
  Cycle time = 0;
  std::int64_t global_stages = 0;
  std::int64_t ff_rounds = 0;  ///< RunReport::fast_forward.replayed_rounds
  std::string summary;         ///< human one-liner ("sum = 42")
};

/// The HMM shape a point runs on, for one dispatch (run_point and
/// `hmmsim --check`).  On the hmm model it installs the point's DMMs as a
/// MachineOverlay until destruction — the topology's shapes, or d
/// uniform DMMs of p/d threads with a latency-1 shared memory — so flag
/// and --machine points reach the engine one way.  Throws
/// PreconditionError when a non-trivial topology meets a model other
/// than hmm, or when p is not a positive multiple of d on a flag point.
class HmmShape {
 public:
  explicit HmmShape(const Point& point);

  /// The LARGEST DMM's thread count — the drivers' shared-size formulas
  /// are nondecreasing in it, so every kernel gets the room it expects —
  /// 0 on umm.
  std::int64_t threads_per_dmm() const { return threads_per_dmm_; }

 private:
  MachineOverlay overlay_;
  MachineOverlayScope scope_;
  std::int64_t threads_per_dmm_ = 0;
};

/// Execute `point` on a fresh machine, reading inputs through the shared
/// immutable `workloads` cache (thread-safe; concurrent points reuse one
/// buffer per distinct (n, seed)).  `observer`, when non-null, is
/// attached for the run — each concurrent point needs its own instance.
/// Throws PreconditionError on an unknown algorithm or incompatible
/// shape (p not a positive multiple of d on the hmm model).
PointOutcome run_point(const Point& point, alg::WorkloadCache& workloads,
                       EngineObserver* observer = nullptr);

}  // namespace hmm::run
