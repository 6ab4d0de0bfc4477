// EngineObserver — a lightweight hook into the engine's scheduling loop.
//
// An observer attached to a Machine (Machine::set_observer) sees every
// warp memory dispatch, every barrier release and every warp completion
// of subsequent runs, in the engine's deterministic scheduling order.
// That order is a valid serialisation of the simulated execution: events
// are emitted in nondecreasing simulated time, every pre-barrier access
// of a domain is emitted before the domain's release event, and every
// post-barrier access after it.  Analysis tools (analysis/checker.hpp)
// rely on exactly this property.
//
// Cost contract: with no observer attached the engine pays one pointer
// null-check per round (bench_engine_hotpath tracks the checker-off
// throughput so regressions are visible).  Observer callbacks run inline
// in the engine loop; they must not re-enter the Machine.
#pragma once

#include <span>

#include "core/types.hpp"
#include "machine/op.hpp"
#include "machine/report.hpp"
#include "mm/batch_cost.hpp"
#include "mm/request.hpp"

namespace hmm {

class Machine;

/// One warp's memory dispatch: the batch it sent (with per-request thread
/// attribution, see Request::thread), the price the MMU charged and the
/// pipeline slot it got (telemetry derives queueing/latency stalls from
/// the issue-to-data_ready window).
struct MemoryBatchEvent {
  WarpId warp = 0;
  DmmId dmm = 0;
  MemorySpace space = MemorySpace::kShared;
  bool dmm_pricing = false;        ///< true: bank pricing; false: groups
  Cycle issue = 0;                 ///< cycle the warp instruction issued
  /// Priced pipeline stages of the batch, interconnect surcharge included
  /// for cross-HMM global traffic (--machine links).  The pure model
  /// price (conflict degree / address groups) is in `profile`.
  std::int64_t stages = 0;
  Cycle inject_begin = 0;          ///< first injection cycle of the slot
  Cycle inject_end = 0;            ///< last injection cycle of the slot
  Cycle data_ready = 0;            ///< first cycle the issuer may proceed
  std::span<const Request> batch;  ///< valid only during the callback
  const BatchProfile* profile = nullptr;  ///< full cost breakdown
};

/// A barrier domain released: every live warp of the scope arrived.
struct BarrierReleaseEvent {
  BarrierScope scope = BarrierScope::kDmm;
  DmmId dmm = -1;  ///< owning DMM for kDmm scope; -1 for kMachine
  Cycle when = 0;  ///< release time (max arrival over the domain)
  std::int64_t warps_released = 0;
  Cycle stall_cycles = 0;  ///< sum over released warps of (when - arrival)
};

class EngineObserver {
 public:
  virtual ~EngineObserver() = default;

  /// A new Machine::run is starting.  Run boundaries are full
  /// synchronisation points (a run only returns when every warp
  /// finished), so observers tracking happens-before may treat this as a
  /// machine-wide barrier.
  virtual void on_run_begin(const Machine& machine) { (void)machine; }

  virtual void on_memory_batch(const MemoryBatchEvent& event) {
    (void)event;
  }

  virtual void on_barrier_release(const BarrierReleaseEvent& event) {
    (void)event;
  }

  virtual void on_warp_finish(WarpId warp, DmmId dmm, Cycle when) {
    (void)warp, (void)dmm, (void)when;
  }

  /// Opt-in for on_trace_event.  Sampled once at the start of each run:
  /// when it returns false (the default) the engine never constructs
  /// TraceEvents for this observer, so analysis-only observers (e.g. the
  /// AccessChecker) pay nothing for the trace channel.
  virtual bool wants_trace_events() const { return false; }

  /// One scheduled TraceEvent, in the engine's deterministic emission
  /// order (telemetry/sink.hpp builds every trace sink on this hook).
  /// Only called when wants_trace_events() returned true at run start.
  virtual void on_trace_event(const TraceEvent& event) { (void)event; }

  /// The run finished; `report` is complete (makespan, pipeline and exec
  /// counters).  The reference is mutable so telemetry observers
  /// can snapshot derived metrics into RunReport::metrics; observers must
  /// not clear or rewrite the engine-owned fields.
  virtual void on_run_end(RunReport& report) { (void)report; }
};

}  // namespace hmm
