// Machine — the cycle-accurate simulator for the DMM, the UMM and the HMM.
//
// One class covers all three models (§II, §III): a machine is d DMMs, each
// optionally owning a *shared memory* (banked, DMM conflict pricing),
// plus optionally one *global memory* (UMM coalescing pricing) whose
// single pipeline is shared by the warps of every DMM.  The named
// factories configure the three paper models:
//
//   Machine::dmm(w, l, p, size)            — one DMM, shared memory only
//   Machine::umm(w, l, p, size)            — one "DMM" of threads, global
//                                            memory only
//   Machine::hmm(w, l, d, p_per_dmm, shared_size, global_size)
//                                          — the HMM: shared latency 1,
//                                            global latency l
//
// Timing semantics are normative in DESIGN.md §4 and enforced by the
// engine in machine.cpp:
//   * warps execute warp-synchronously; per DMM one warp instruction
//     issues per time unit (this is what makes compute throughput d*w
//     operations per time unit, the paper's speed-up limitation);
//   * a warp's memory batch occupies k pipeline stages (bank conflicts on
//     shared, distinct address groups on global) and its issuer resumes
//     l time units after its last stage injected (Fig. 4);
//   * warps contend for pipelines in deterministic round-robin order.
//
// A kernel is any callable invoked once per thread to produce that
// thread's coroutine.  Machine::run is synchronous; the callable must
// stay alive for the duration of the call (binding a temporary lambda is
// fine).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "machine/frame_arena.hpp"
#include "machine/observer.hpp"
#include "machine/report.hpp"
#include "machine/task.hpp"
#include "machine/thread_ctx.hpp"
#include "machine/topology.hpp"
#include "mm/bank_memory.hpp"
#include "mm/batch_cost.hpp"
#include "mm/pattern_cache.hpp"
#include "mm/pipeline.hpp"

namespace hmm {

/// Size/latency of one memory.
struct MemorySpec {
  std::int64_t size = 0;
  Cycle latency = 1;
};

/// Interconnect pricing for one DMM whose HMM does not own the global
/// memory (multi-GPU topologies, src/machine/topology_spec.hpp).  A
/// global batch from such a DMM crosses the link, which costs
///
///   latency + ceil(requests / words_per_stage)
///
/// EXTRA pipeline stages on top of the UMM coalescing cost: the latency
/// term models the hop delay, the bandwidth term serializes the words
/// through the link.  Extra stages both delay the issuing warp's
/// data_ready and occupy the home pipeline longer, so remote traffic
/// backpressures local traffic — the contention a shared interconnect
/// actually creates.  words_per_stage == 0 means "no link" (a DMM local
/// to the home HMM).
struct DmmLink {
  Cycle latency = 0;
  std::int64_t words_per_stage = 0;
  bool active() const { return words_per_stage > 0; }
  friend bool operator==(const DmmLink&, const DmmLink&) = default;
};

/// One DMM of a machine: its threads, its private shared memory (DMM
/// pricing) and its route to the global memory.  The paper's HMM is d
/// equal shapes of p/d threads with a latency-1 shared memory and no
/// link; a --machine topology lets each DMM's shape differ.  Either
/// every DMM of a machine has a shared memory or none does.
struct DmmShape {
  std::int64_t threads = 32;
  std::optional<MemorySpec> shared;
  DmmLink link;  ///< inactive for a DMM local to the global memory
};

/// The DMMs every HMM that Machine::hmm builds on the calling thread
/// takes while a MachineOverlayScope holds this overlay, because the
/// span drivers (alg::sum_hmm etc.) build their Machines internally, out
/// of reach of MachineConfig.  It must have exactly one entry per DMM of
/// the machine being built; each `shared` carries that DMM's pipeline
/// latency and a MINIMUM word count that is max-combined with the
/// driver's own size formula (absent: the driver's spec).
struct MachineOverlay {
  std::vector<DmmShape> dmms;
};

struct MachineConfig {
  std::int64_t width = 32;
  std::vector<DmmShape> dmms = {DmmShape{}};
  std::optional<MemorySpec> global;  ///< one global memory, UMM pricing
  /// Round-pattern memoization and verified fast-forward replay of
  /// periodic warps (default on).  Results are identical either way —
  /// the replay path re-verifies every lane's request before trusting a
  /// recorded pattern and bails out to full simulation on any deviation
  /// — so this switch exists for A/B measurement and as a conservatism
  /// valve.  With an EngineObserver attached the replay shortcut
  /// disables itself (full simulation, so observers see every event);
  /// the profile cache stays on because cached profiles are exact.
  bool fast_forward = true;
};

/// What a run reuses instead of reallocating or repricing: coroutine
/// frames (machine/frame_arena.hpp) and priced round patterns
/// (mm/pattern_cache.hpp).  Every Machine owns one; a long-lived worker
/// thread may register its own (Machine::set_thread_scratch) so it stays
/// warm across the machines it builds.  Warmth never changes results:
/// the arena holds only transient frames, and cache entries are
/// geometry-keyed exact profiles.
struct RunScratch {
  FrameArena arena;
  PatternCache cache;
};

class Machine {
 public:
  using KernelFn = std::function<SimTask(ThreadCtx&)>;

  explicit Machine(MachineConfig config);

  // ---- factories for the three paper models ---------------------------
  static Machine dmm(std::int64_t width, Cycle latency,
                     std::int64_t num_threads, std::int64_t memory_size);
  static Machine umm(std::int64_t width, Cycle latency,
                     std::int64_t num_threads, std::int64_t memory_size);
  static Machine hmm(std::int64_t width, Cycle global_latency,
                     std::int64_t num_dmms, std::int64_t threads_per_dmm,
                     std::int64_t shared_size, std::int64_t global_size,
                     Cycle shared_latency = 1);

  // ---- shape -----------------------------------------------------------
  const Topology& topology() const { return topology_; }
  std::int64_t width() const { return topology_.width(); }
  std::int64_t num_dmms() const { return topology_.num_dmms(); }
  std::int64_t num_threads() const { return topology_.total_threads(); }
  bool has_shared() const { return !shared_.empty(); }
  bool has_global() const { return global_.has_value(); }
  Cycle shared_latency() const;
  Cycle global_latency() const;

  // ---- memories (zero-cost host access for I/O) ------------------------
  BankMemory& shared_memory(DmmId dmm);
  const BankMemory& shared_memory(DmmId dmm) const;
  BankMemory& global_memory();
  const BankMemory& global_memory() const;

  /// Run one kernel to completion on all threads; returns the timing
  /// report.  Memory contents persist across runs; pipeline/exec counters
  /// are reset at the start of each run.
  RunReport run(const KernelFn& kernel);

  // ---- observation (analysis/checker.hpp et al.) -----------------------
  /// Attach `observer` to all subsequent runs (nullptr detaches).  The
  /// observer is not owned and must outlive every run it observes; the
  /// engine pays a single pointer null-check per event site when none is
  /// attached (see machine/observer.hpp for the event contract).
  void set_observer(EngineObserver* observer) { observer_ = observer; }
  EngineObserver* observer() const { return observer_; }

  // ---- round-pattern memoization (mm/pattern_cache.hpp) ----------------
  /// Enable/disable the pattern cache AND the fast-forward replay for all
  /// subsequent runs (overrides MachineConfig::fast_forward).
  void set_fast_forward(bool enabled) { config_.fast_forward = enabled; }
  bool fast_forward_enabled() const { return config_.fast_forward; }

  // ---- per-run scratch (RunScratch) -----------------------------------
  /// This machine's own frame arena, which its runs reset and allocate
  /// from unless the calling thread registered a RunScratch.
  const FrameArena& frame_arena() const { return scratch_.arena; }
  /// Register `scratch` for every run on the CALLING thread, in place of
  /// each machine's own (nullptr deregisters).  This is how a long-lived
  /// worker keeps its arena and pattern cache warm under the span
  /// drivers (alg::sum_hmm etc.) that build Machines internally, out of
  /// the worker's reach: hmmsimd registers one for each grid point.
  /// Every run resets the arena and keeps the cache, so `scratch` must
  /// outlive every run on this thread and never be shared across threads.
  static void set_thread_scratch(RunScratch* scratch);

 private:
  friend class Engine;

  struct Port {
    MemoryPipeline pipeline;
    BankMemory memory;
    BatchCostScratch cost_scratch;  ///< reusable tables for batch pricing
    bool dmm_pricing;  ///< true: bank-conflict cost; false: group cost

    Port(MemoryGeometry geom, const MemorySpec& spec, bool dmm)
        : pipeline(spec.latency), memory(geom, spec.size), dmm_pricing(dmm) {}
  };

  MachineConfig config_;
  Topology topology_;
  std::vector<Port> shared_;      // one per DMM when configured
  std::optional<Port> global_;
  EngineObserver* observer_ = nullptr;  // not owned
  RunScratch scratch_;  // this machine's own (see set_thread_scratch)
};

/// Installs `overlay` on the calling thread for the span of one dispatch:
/// every HMM that Machine::hmm builds meanwhile adopts the overlay's DMM
/// shapes (the DMM count must match — a driver constructing a
/// differently-shaped machine under an overlay is a precondition error).
/// This is how every hmm point, flag or --machine, reaches the span
/// drivers; see run::HmmShape.  Machine::dmm / Machine::umm ignore the
/// overlay.  Not owned: it must outlive the scope.  nullptr clears any
/// overlay for the scope's lifetime.  The destructor restores the
/// previous one, even when the guarded code throws.
class MachineOverlayScope {
 public:
  explicit MachineOverlayScope(const MachineOverlay* overlay);
  ~MachineOverlayScope();
  MachineOverlayScope(const MachineOverlayScope&) = delete;
  MachineOverlayScope& operator=(const MachineOverlayScope&) = delete;

 private:
  const MachineOverlay* saved_;
};

}  // namespace hmm
