// What a simulation run reports back: the makespan in the paper's time
// units plus utilisation counters and (optionally) a telemetry metrics
// snapshot.  The scheduled-event stream goes to observers instead
// (machine/observer.hpp, telemetry/sink.hpp).
#pragma once

#include <optional>
#include <vector>

#include "core/types.hpp"
#include "machine/op.hpp"
#include "mm/pipeline.hpp"

namespace hmm {

/// One scheduled event, emitted only to an attached observer that wants
/// trace events (telemetry/sink.hpp).
struct TraceEvent {
  enum class Kind : std::uint8_t { kMemory, kCompute, kBarrier };

  Kind kind = Kind::kMemory;
  WarpId warp = 0;
  DmmId dmm = 0;
  MemorySpace space = MemorySpace::kShared;  // memory events only
  std::int64_t requests = 0;                 // memory events only
  std::int64_t stages = 0;                   // memory events only
  Cycle begin = 0;  ///< first injection / compute / release cycle
  Cycle end = 0;    ///< last injection or compute cycle
  Cycle ready = 0;  ///< cycle the warp proceeds

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Per-DMM execution-engine counters (one warp instruction per cycle).
struct ExecStats {
  std::int64_t issue_slots = 0;  ///< warp instructions issued
  Cycle busy_until = 0;          ///< next free issue cycle at run end

  friend bool operator==(const ExecStats&, const ExecStats&) = default;
};

/// Batches-per-cost histogram of one pricing rule: index k counts warp
/// dispatches that cost k pipeline stages.  Under DMM pricing k is the
/// bank-conflict degree (k = 1 is the paper's "conflict-free"); under UMM
/// pricing k is the address-group count (k = 1 is "fully coalesced").
/// Index 0 is unused: a dispatched batch costs >= 1 stage.
struct StageHistogram {
  std::vector<std::int64_t> batches_by_stages;
  std::int64_t batches = 0;       ///< total dispatches recorded
  std::int64_t max_stages = 0;    ///< largest cost seen (0: none recorded)
  std::int64_t total_stages = 0;  ///< sum of per-dispatch costs

  friend bool operator==(const StageHistogram&,
                         const StageHistogram&) = default;
};

/// Aggregated telemetry of one or more observed runs, accumulated by
/// telemetry::MetricsRegistry and written into RunReport::metrics at run
/// end.  Every quantity is stated in the paper's cost terms — see
/// docs/OBSERVABILITY.md for the exact definitions.
struct MetricsSnapshot {
  std::int64_t runs = 0;  ///< Machine::run calls folded into this snapshot

  StageHistogram conflict_degree;  ///< DMM-priced dispatches (bank rule)
  StageHistogram address_groups;   ///< UMM-priced dispatches (group rule)

  std::int64_t shared_batches = 0;
  std::int64_t shared_requests = 0;
  std::int64_t global_batches = 0;
  std::int64_t global_requests = 0;

  Cycle memory_stall_cycles = 0;   ///< warp wait beyond the issue cycle
  Cycle barrier_stall_cycles = 0;  ///< warp wait parked at barriers
  std::int64_t barrier_releases = 0;
  std::int64_t warps_finished = 0;

  Cycle makespan = 0;                ///< summed over observed runs
  std::int64_t exec_issue_slots = 0; ///< warp instructions issued
  std::int64_t global_stages = 0;    ///< global pipeline stages injected
  Cycle global_busy = 0;             ///< global pipeline busy_until sum
  std::int64_t shared_stages = 0;    ///< all shared pipelines, summed
  Cycle shared_busy = 0;             ///< all shared busy_until, summed
  std::int64_t bottleneck_stages = 0;  ///< per run: max stages over ports

  /// stages / busy_until of the injection port: 1.0 = the pipeline never
  /// idled while active.  0 when the port was never used.
  double global_occupancy = 0.0;
  double shared_occupancy = 0.0;  ///< aggregate over every shared port
  /// bottleneck_stages / makespan: the fraction of the run the busiest
  /// pipeline was injecting.  1.0 = bandwidth-bound (latency fully
  /// hidden, Fig. 4); -> 0 = latency- or compute-bound.
  double latency_hiding = 0.0;

  /// Interconnect traffic (multi-HMM topologies; both 0 on single-HMM
  /// machines).  Sums of RunReport::link over the observed runs.
  std::int64_t link_remote_batches = 0;
  std::int64_t link_stages = 0;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

/// Diagnostics of the round-pattern cache and the verified fast-forward
/// replay path (docs/PERF.md, "Analytic fast-forward").  These counters
/// describe HOW a result was computed, not WHAT it is: cache hit rates
/// depend on cache warmth (a machine's pattern cache outlives each of
/// its runs) and replayed_rounds depends on whether the shortcut was
/// enabled — so FastForwardStats is deliberately EXCLUDED from
/// RunReport::operator==, which compares simulation results only.
struct FastForwardStats {
  std::int64_t cache_hits = 0;      ///< profile_batch calls skipped
  std::int64_t cache_misses = 0;    ///< batches priced then memoized
  std::int64_t replayed_rounds = 0; ///< rounds serviced by verified replay
  std::int64_t patterns = 0;        ///< periodic patterns recorded
  std::int64_t bailouts = 0;        ///< replays abandoned on verify failure
};

/// Interconnect tallies of one run (multi-HMM topologies,
/// src/machine/topology_spec.hpp).  Part of the simulated result: the
/// extra stages reshape the global pipeline's timeline, so they compare
/// in RunReport::operator== like every other priced quantity.  Both
/// fields are 0 on single-HMM machines.
struct LinkStats {
  std::int64_t remote_batches = 0;  ///< global batches that crossed a link
  std::int64_t stages = 0;          ///< extra pipeline stages they paid
  friend bool operator==(const LinkStats&, const LinkStats&) = default;
};

struct RunReport {
  Cycle makespan = 0;  ///< completion time of the slowest warp (time units)

  PipelineStats global_pipeline;               ///< zeroed if no global memory
  std::vector<PipelineStats> shared_pipelines; ///< one per DMM (maybe empty)
  std::vector<ExecStats> exec;                 ///< one per DMM

  std::int64_t barrier_releases = 0;
  std::int64_t threads = 0;
  std::int64_t warps = 0;

  LinkStats link;  ///< interconnect traffic (zero on single-HMM machines)

  /// Populated only when a telemetry::MetricsRegistry observed the run
  /// (cumulative over every run that registry has seen).
  std::optional<MetricsSnapshot> metrics;

  /// How the engine got here (cache/replay work).  Not part of the
  /// simulated result; see FastForwardStats.
  FastForwardStats fast_forward;

  /// Byte-for-byte comparability: determinism tests assert that repeated
  /// runs (and sweeps at any thread count) produce identical reports, and
  /// that fast-forward on vs off agrees on every field compared here.
  /// `fast_forward` is intentionally omitted — it reports engine
  /// strategy, not simulation output.
  friend bool operator==(const RunReport& a, const RunReport& b) {
    return a.makespan == b.makespan &&
           a.global_pipeline == b.global_pipeline &&
           a.shared_pipelines == b.shared_pipelines && a.exec == b.exec &&
           a.barrier_releases == b.barrier_releases &&
           a.threads == b.threads && a.warps == b.warps &&
           a.link == b.link && a.metrics == b.metrics;
  }
};

}  // namespace hmm
