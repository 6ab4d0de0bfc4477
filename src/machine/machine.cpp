#include "machine/machine.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "core/error.hpp"
#include "machine/ready_queue.hpp"
#include "mm/batch_cost.hpp"

namespace hmm {

namespace {
// Installed and read on the same thread, so no synchronisation is involved.
thread_local const MachineOverlay* t_overlay = nullptr;  // MachineOverlayScope

std::vector<std::int64_t> thread_counts(const std::vector<DmmShape>& dmms) {
  std::vector<std::int64_t> threads;
  threads.reserve(dmms.size());
  for (const DmmShape& s : dmms) threads.push_back(s.threads);
  return threads;
}
}  // namespace

MachineOverlayScope::MachineOverlayScope(const MachineOverlay* overlay)
    : saved_(t_overlay) {
  t_overlay = overlay;
}
MachineOverlayScope::~MachineOverlayScope() { t_overlay = saved_; }

// ---------------------------------------------------------------------------
// Machine construction
// ---------------------------------------------------------------------------

Machine::Machine(MachineConfig config)
    : config_(std::move(config)),
      topology_(config_.width, thread_counts(config_.dmms)) {
  // ThreadCtx keeps its ids in 32 bits (machine/thread_ctx.hpp).
  HMM_REQUIRE(topology_.total_threads() <= INT32_MAX,
              "a machine holds at most 2^31 - 1 threads");
  const bool has_shared = config_.dmms.front().shared.has_value();
  HMM_REQUIRE(has_shared || config_.global.has_value(),
              "a machine needs at least one memory");
  const MemoryGeometry geom(config_.width);
  if (has_shared) shared_.reserve(config_.dmms.size());
  for (const DmmShape& s : config_.dmms) {
    HMM_REQUIRE(s.shared.has_value() == has_shared,
                "either every DMM has a shared memory or none does");
    HMM_REQUIRE(!s.shared || (s.shared->size >= 1 && s.shared->latency >= 1),
                "invalid shared memory spec");
    HMM_REQUIRE(s.link.words_per_stage >= 0 && s.link.latency >= 0,
                "invalid DMM link");
    HMM_REQUIRE(!s.link.active() || config_.global.has_value(),
                "DMM links require a global memory");
    if (s.shared) shared_.emplace_back(geom, *s.shared, /*dmm=*/true);
  }
  if (config_.global) {
    HMM_REQUIRE(config_.global->size >= 1 && config_.global->latency >= 1,
                "invalid global memory spec");
    global_.emplace(geom, *config_.global, /*dmm=*/false);
  }
}

Machine Machine::dmm(std::int64_t width, Cycle latency,
                     std::int64_t num_threads, std::int64_t memory_size) {
  MachineConfig cfg;
  cfg.width = width;
  cfg.dmms = {DmmShape{num_threads, MemorySpec{memory_size, latency}, {}}};
  return Machine(std::move(cfg));
}

Machine Machine::umm(std::int64_t width, Cycle latency,
                     std::int64_t num_threads, std::int64_t memory_size) {
  MachineConfig cfg;
  cfg.width = width;
  cfg.dmms = {DmmShape{num_threads, std::nullopt, {}}};
  cfg.global = MemorySpec{memory_size, latency};
  return Machine(std::move(cfg));
}

Machine Machine::hmm(std::int64_t width, Cycle global_latency,
                     std::int64_t num_dmms, std::int64_t threads_per_dmm,
                     std::int64_t shared_size, std::int64_t global_size,
                     Cycle shared_latency) {
  MachineConfig cfg;
  cfg.width = width;
  cfg.global = MemorySpec{global_size, global_latency};
  const MemorySpec driver_shared{shared_size, shared_latency};
  // A registered overlay supplies the DMMs.  The driver's shared_size
  // formula (computed for the LARGEST DMM, see run::HmmShape) stays each
  // DMM's floor so kernels keep the room they sized for.
  if (const MachineOverlay* ov = t_overlay) {
    HMM_REQUIRE(static_cast<std::int64_t>(ov->dmms.size()) == num_dmms,
                "machine overlay: the driver built an HMM with " +
                    std::to_string(num_dmms) + " DMMs but the --machine " +
                    "topology describes " + std::to_string(ov->dmms.size()));
    cfg.dmms = ov->dmms;
    for (DmmShape& s : cfg.dmms) {
      const MemorySpec floor = s.shared.value_or(driver_shared);
      s.shared = MemorySpec{std::max(shared_size, floor.size), floor.latency};
    }
  } else {
    cfg.dmms.assign(static_cast<std::size_t>(num_dmms),
                    DmmShape{threads_per_dmm, driver_shared, {}});
  }
  return Machine(std::move(cfg));
}

Cycle Machine::shared_latency() const {
  HMM_REQUIRE(has_shared(), "machine has no shared memory");
  return shared_.front().pipeline.latency();
}

Cycle Machine::global_latency() const {
  HMM_REQUIRE(has_global(), "machine has no global memory");
  return global_->pipeline.latency();
}

BankMemory& Machine::shared_memory(DmmId dmm) {
  HMM_REQUIRE(has_shared(), "machine has no shared memory");
  HMM_REQUIRE(dmm >= 0 && dmm < num_dmms(), "DMM id out of range");
  return shared_[static_cast<std::size_t>(dmm)].memory;
}

const BankMemory& Machine::shared_memory(DmmId dmm) const {
  HMM_REQUIRE(has_shared(), "machine has no shared memory");
  HMM_REQUIRE(dmm >= 0 && dmm < num_dmms(), "DMM id out of range");
  return shared_[static_cast<std::size_t>(dmm)].memory;
}

BankMemory& Machine::global_memory() {
  HMM_REQUIRE(has_global(), "machine has no global memory");
  return global_->memory;
}

const BankMemory& Machine::global_memory() const {
  HMM_REQUIRE(has_global(), "machine has no global memory");
  return global_->memory;
}

// ---------------------------------------------------------------------------
// Engine — the event-driven warp scheduler
// ---------------------------------------------------------------------------

class Engine {
 public:
  Engine(Machine& machine, const Machine::KernelFn& kernel)
      : machine_(machine), kernel_(kernel) {}

  RunReport run();

 private:
  struct ThreadState {
    ThreadCtx ctx;
    SimTask task;
    bool done = false;
    bool need_resume = true;  // member of the warp's flagged-lane list
  };
  // One per simulated thread, 48,128 of them on the modern-sm preset:
  // its size bounds the peak memory of the sweeps that run those.
  static_assert(sizeof(ThreadState) <= 80);

  /// Operation class of a whole warp after a resume batch, computed by
  /// resume_flagged while the freshly posted ops are hot in cache.
  /// Anything but kMixed lets round() dispatch directly and skip the
  /// per-lane classification scan — the common case, since uniform SIMD
  /// kernels keep every live lane on the same operation.
  enum class UniformClass : std::uint8_t {
    kMixed,  ///< divergent ops, or a partial resume: rescan to classify
    kMemory,
    kCompute,
    kBarrier,
    kWarpSync,
  };

  struct WarpState {
    WarpId id = 0;
    DmmId dmm = 0;
    ThreadId first = 0;       // global id of lane 0
    std::int64_t count = 0;   // threads in this warp
    Cycle clock = 0;
    // Sizes of this warp's slices of live_lanes_/flagged_lanes_ (the
    // lane lists live in flat engine-owned storage, one width-sized
    // slice per warp, so no warp round ever allocates).  `live` is
    // maintained ONLY by resume_flagged, the one place a lane can die.
    std::int64_t live = 0;
    std::int64_t flagged = 0;
    UniformClass uniform = UniformClass::kMixed;
    MemorySpace uniform_space = MemorySpace::kShared;  // when kMemory
    // When kBarrier; while `waiting`, the scope of the barrier.
    BarrierScope uniform_scope = BarrierScope::kDmm;
    Cycle uniform_cycles = 0;  // SIMD max over the batch, when kCompute
    // A barrier round: the smallest and largest count its live lanes
    // posted (ThreadCtx::barrier), set by the round's classification.
    std::int64_t wait_min = 0;
    std::int64_t wait_max = 0;
    // Releases the parked warp has seen; it stays parked while
    // `released < wait_min`.
    std::int64_t released = 0;
    bool waiting = false;   // parked at an unreleased barrier
    bool finished = false;
    // Static: the only warp of its DMM (fused replay's exclusive regime).
    bool exclusive = false;
  };

  /// One warp instruction issues per time unit per DMM (SIMD dispatch).
  struct ExecUnit {
    Cycle next_free = 0;
    std::int64_t slots = 0;

    Cycle acquire(Cycle ready, std::int64_t n) {
      const Cycle begin = std::max(ready, next_free);
      next_free = begin + n;
      slots += n;
      return begin;
    }
  };

  struct BarrierDomain {
    std::int64_t active = 0;  // unfinished warps in this domain
    std::vector<WarpId> arrived;
    Cycle max_arrival = 0;
    BarrierScope scope = BarrierScope::kDmm;  // identity, for observers
    DmmId dmm = -1;                           // -1 for the machine domain
  };

  // ---- fast-forward: round-pattern recording and verified replay ------
  //
  // Once a warp's round fingerprints repeat with period P (for >= 2 full
  // periods), the engine records the next P rounds as PatternSlots and
  // then REPLAYS them: each replayed round still resumes every lane's
  // coroutine (the kernel consumes the values memory delivers, so
  // resumes are irreducible), but verifies the freshly posted ops
  // against the slot in one fused pass and then applies the recorded
  // pricing directly — no batch build, no profile_batch, no
  // service() — with byte-identical timing and memory effects.  Replay
  // only runs with no observer attached, so no event consumer exists.
  // Any deviation (different op, inadmissible address shift, lane
  // death, barrier) bails out to the ordinary scan path for that round
  // and the warp starts scanning again; kMaxBailouts flaps WITHOUT an
  // intervening full replayed period disable the tracker for the warp
  // (a completed period refunds the budget — a pattern that breaks
  // periodically, like convolution's once-per-output write, keeps
  // earning its keep).  See docs/PERF.md "Analytic fast-forward".
  //
  // Replayed rounds are additionally FUSED into blocks — many rounds of
  // one warp serviced in a single queue pop, keeping its lane frames hot
  // in cache — whenever that provably cannot be observed:
  //
  //  * exclusive regime: the warp is the only warp of its DMM and its
  //    period touches nothing outside the DMM (shared-space memory
  //    slots, compute, warp syncs).  Its exec unit, shared pipeline and
  //    shared memory are then private — no other warp can read or write
  //    any state the block touches, so running the block ahead of the
  //    global clock order commutes with every other warp's rounds.
  //  * horizon regime: each successive round's (clock, warp id) still
  //    precedes the ready queue's minimum, i.e. the round would have
  //    been the very next pop anyway.  Exact for any slot content —
  //    this is just the event loop with the re-heap skipped.
  static constexpr std::int64_t kMaxPeriod = 8;
  static constexpr std::int64_t kHistory = 2 * kMaxPeriod;
  static constexpr std::int64_t kMaxBailouts = 8;

  /// One recorded round of a periodic pattern.
  struct PatternSlot {
    enum class Kind : std::uint8_t { kMemory, kCompute, kWarpSync };
    Kind kind = Kind::kWarpSync;
    MemorySpace space = MemorySpace::kShared;  // kMemory only
    bool all_read = false;   ///< batch had no writes
    bool broadcast = false;  ///< one distinct address (any shift is exact)
    /// DMM-priced port: a uniform shift c rotates banks as a multiset
    /// (bank_of(a+c) = (bank_of(a)+c) mod w), so max-per-bank distinct
    /// counts — the stages — survive ANY shift.  UMM-priced slots only
    /// admit shifts ≡ 0 (mod w), which preserve the group structure.
    bool any_shift = false;
    Cycle cycles = 0;          ///< kCompute: SIMD max over the warp
    std::int64_t stages = 0;   ///< kMemory: priced pipeline stages
    std::int64_t nreq = 0;     ///< kMemory: requests (== live lanes)
    Address base = 0;          ///< kMemory: first lane's address, updated
                               ///< by every accepted shift
    std::int64_t min_delta = 0;  ///< bounds check is 2 compares per round
    std::int64_t max_delta = 0;
    std::vector<std::int64_t> deltas;  ///< per live lane; deltas[0] == 0
    std::vector<Op::Kind> kinds;       ///< per live lane (lane-0 verify uses
                                       ///< kinds[0] for every slot shape)
  };

  struct WarpTracker {
    enum class Mode : std::uint8_t { kScan, kRecord, kReplay, kOff };
    Mode mode = Mode::kScan;
    std::uint64_t hist[kHistory] = {};  // fingerprint ring
    std::int64_t hist_len = 0;
    std::int64_t hist_pos = 0;          // next write slot
    std::int64_t run[kMaxPeriod + 1] = {};  // run[p]: rounds with fp==fp[-p]
    std::int64_t period = 0;
    std::int64_t recorded = 0;  // slots captured so far (kRecord)
    std::int64_t pos = 0;       // replay cursor (kReplay)
    std::int64_t bailouts = 0;
    // Every memory slot is shared-space (DMM-local): with an exclusive
    // warp this makes the whole period fusable out of clock order.
    bool local_only = false;
    std::vector<PatternSlot> slots;

    /// Back to scanning with a cold window (pattern broke or never was).
    void reset() {
      if (mode == Mode::kOff) return;
      mode = Mode::kScan;
      hist_len = 0;
      hist_pos = 0;
      std::fill(std::begin(run), std::end(run), 0);
      period = 0;
      recorded = 0;
      pos = 0;
    }
  };

  void launch_threads();
  void round(WarpState& w);
  void dispatch_scan(WarpState& w);
  void resume_flagged(WarpState& w);
  void memory_round(WarpState& w, MemorySpace space);
  void compute_round(WarpState& w);
  void barrier_round(WarpState& w, BarrierScope scope);
  void arrive(WarpState& w);
  void finish_warp(WarpState& w);
  void release_if_complete(BarrierDomain& domain);
  void release(BarrierDomain& domain);
  void wake(WarpState& w);
  void check_no_deadlock() const;

  // Fast-forward machinery (definitions near try_replay_round below).
  bool observe_fp(WarpTracker& t, std::uint64_t fp);
  void bail_tracker(WarpTracker& t);
  void advance_record(WarpTracker& t);
  void record_memory_slot(WarpTracker& t, const WarpState& w,
                          MemorySpace space, const WarpBatch& batch,
                          const BatchProfile& profile, std::int64_t stages,
                          bool dmm_pricing);
  void replay_rounds(WarpState& w, WarpTracker& t);
  bool try_replay_round(WarpState& w, WarpTracker& t);
  static bool drain_resumes(ThreadState* base_ts, const std::int32_t* lanes,
                            std::int64_t k, std::int64_t nl);

  Machine::Port& port_for(DmmId dmm, MemorySpace space);

  /// Extra global-pipeline stages a batch of `requests` words pays for
  /// crossing `dmm`'s interconnect link (0 for local DMMs).  A pure
  /// function of (dmm, requests), so the replay path recomputes the
  /// identical surcharge the recording path priced.
  std::int64_t link_extra_stages(DmmId dmm, std::int64_t requests) const {
    const DmmLink& link =
        machine_.config_.dmms[static_cast<std::size_t>(dmm)].link;
    if (!link.active()) return 0;
    return link.latency +
           (requests + link.words_per_stage - 1) / link.words_per_stage;
  }

  /// Tally one global batch against `dmm`'s link (no-op for local DMMs).
  /// Call exactly once per GLOBAL pipeline inject.
  void note_link_traffic(DmmId dmm, std::int64_t requests) {
    const std::int64_t extra = link_extra_stages(dmm, requests);
    if (extra == 0) return;
    ++link_remote_batches_;
    link_stages_ += extra;
  }
  ThreadState& thread(ThreadId t) {
    return threads_[static_cast<std::size_t>(t)];
  }
  void requeue(const WarpState& w) { queue_.push(w.clock, w.id); }

  /// This warp's slice of the flat live-lane storage: the lanes (in
  /// ascending order) whose thread has not finished.
  std::int32_t* live_lanes(const WarpState& w) {
    return live_lanes_.data() + static_cast<std::size_t>(w.id) * width_;
  }
  /// This warp's slice of the flat flagged-lane storage: the live lanes
  /// (in ascending order) whose coroutine must be resumed next round.
  std::int32_t* flagged_lanes(const WarpState& w) {
    return flagged_lanes_.data() + static_cast<std::size_t>(w.id) * width_;
  }
  /// Mark a LIVE lane for resumption; idempotent per round.  Every
  /// flag site iterates lanes in ascending order, so the flagged list
  /// stays sorted and resume order is deterministic.
  void flag_lane(WarpState& w, std::int32_t lane) {
    ThreadState& ts = thread(w.first + lane);
    if (ts.need_resume) return;
    ts.need_resume = true;
    flagged_lanes(w)[w.flagged++] = lane;
  }
  /// Bulk-flag EVERY live lane (barrier release, warp_sync reconverge):
  /// one memcpy of the live list instead of a strided per-lane sweep.
  /// Skipping the per-lane need_resume marks is sound because the warp is
  /// requeued immediately and nothing else can flag its lanes before the
  /// next resume_flagged consumes the whole batch (resume's
  /// need_resume=false store is then a no-op).
  void flag_all_live(WarpState& w) {
    HMM_ASSERT(w.flagged == 0, "bulk flag over pending flags");
    std::memcpy(flagged_lanes(w), live_lanes(w),
                static_cast<std::size_t>(w.live) * sizeof(std::int32_t));
    w.flagged = w.live;
  }

  Machine& machine_;
  const Machine::KernelFn& kernel_;

  std::vector<ThreadState> threads_;
  std::vector<WarpState> warps_;
  std::vector<ExecUnit> exec_;
  std::vector<BarrierDomain> dmm_domains_;
  BarrierDomain machine_domain_;
  // Read by every ThreadCtx (one per DMM); sized before the first kernel
  // launch and never reallocated during the run.
  std::vector<ThreadCtx::DmmIdentity> dmm_identities_;
  ReadyQueue queue_;
  // Scratch reused by every memory/compute round: capacity is bounded by
  // the warp width, so after launch the hot path allocates nothing.
  WarpBatch batch_scratch_;
  std::vector<std::int32_t> participants_scratch_;  // lanes, this round
  std::vector<Word> values_scratch_;  // what service() delivers, per request
  // Flat per-warp lane lists (one width-sized slice each, see
  // live_lanes()/flagged_lanes()): divergent or mostly-done warps visit
  // only their live lanes instead of scanning the full warp width.
  std::vector<std::int32_t> live_lanes_;
  std::vector<std::int32_t> flagged_lanes_;
  std::size_t width_ = 0;  // topology width, cached for slice math
  // Round-pattern memoization state, sampled once per run: cache_ is
  // the machine's pattern cache, or null when fast-forward is off; replay
  // additionally requires that no observer is attached (the global
  // fallback of the observer contract — observers see every event of a
  // fully simulated run).
  PatternCache* cache_ = nullptr;
  bool replay_enabled_ = false;
  std::vector<std::uint64_t> key_scratch_;  // canonical key, reused
  std::vector<WarpTracker> trackers_;       // one per warp
  // Interconnect tallies (RunReport::link), bumped at the GLOBAL pipeline
  // inject sites.
  std::int64_t link_remote_batches_ = 0;
  std::int64_t link_stages_ = 0;
  RunReport report_;
  // Sampled once per run: true when the attached observer wants
  // TraceEvents.  Call sites guard on it, so a run nobody traces never
  // constructs one, at the cost of a single branch on a cached bool.
  // Replay never runs with an observer attached, so the replay path
  // emits no events.
  bool trace_ = false;
};

namespace {

// Fingerprints feeding the periodicity detector.  Distinct tag words keep
// the three replayable round classes from colliding structurally; memory
// rounds fold in the translation-invariant shape hash (see
// mm/pattern_cache.hpp) so a striding loop fingerprints as periodic, and
// the phase of the round's first address that replay's shift rule must
// preserve (see memory_round).
inline std::uint64_t fp_memory_round(MemorySpace space, std::uint64_t shape,
                                     std::uint64_t phase) {
  const std::uint64_t words[3] = {0x100u + static_cast<std::uint64_t>(space),
                                  shape, phase};
  return fnv1a64_words(words);
}

inline std::uint64_t fp_compute_round(Cycle cycles) {
  const std::uint64_t words[2] = {0x200u, static_cast<std::uint64_t>(cycles)};
  return fnv1a64_words(words);
}

const std::uint64_t kWarpSyncFp = [] {
  const std::uint64_t words[1] = {0x300u};
  return fnv1a64_words(words);
}();

}  // namespace

Machine::Port& Engine::port_for(DmmId dmm, MemorySpace space) {
  if (space == MemorySpace::kShared) {
    HMM_REQUIRE(machine_.has_shared(),
                "kernel accessed shared memory on a machine without one "
                "(a standalone UMM has only a global memory)");
    return machine_.shared_[static_cast<std::size_t>(dmm)];
  }
  HMM_REQUIRE(machine_.has_global(),
              "kernel accessed global memory on a machine without one "
              "(a standalone DMM has only a shared memory)");
  return *machine_.global_;
}

void Engine::launch_threads() {
  const Topology& topo = machine_.topology();
  const std::int64_t p = topo.total_threads();
  threads_.resize(static_cast<std::size_t>(p));

  // Fill thread identities first: coroutine frames hold references into
  // threads_ and dmm_identities_, which must never reallocate after the
  // first kernel launch.  Machine's constructor bounds p below 2^31.
  dmm_identities_.resize(static_cast<std::size_t>(topo.num_dmms()));
  for (DmmId j = 0; j < topo.num_dmms(); ++j) {
    ThreadCtx::DmmIdentity& id = dmm_identities_[static_cast<std::size_t>(j)];
    id.dmm = j;
    id.first_warp = topo.first_warp(j);
    id.width = topo.width();
    id.num_dmms = topo.num_dmms();
    id.num_threads = p;
    id.dmm_threads = topo.threads_on(j);
    const ThreadId base = topo.first_thread(j);
    for (std::int64_t i = 0; i < topo.threads_on(j); ++i) {
      ThreadCtx& c = thread(base + i).ctx;
      c.thread_id_ = static_cast<std::int32_t>(base + i);
      c.local_id_ = static_cast<std::int32_t>(i);
      c.dmm_ = &id;
    }
  }
  for (ThreadId t = 0; t < p; ++t) {
    thread(t).task = kernel_(thread(t).ctx);
    HMM_REQUIRE(thread(t).task.valid(),
                "kernel callable must return a live SimTask coroutine");
    thread(t).ctx.leaf_ = thread(t).task.handle();
  }

  warps_.resize(static_cast<std::size_t>(topo.total_warps()));
  width_ = static_cast<std::size_t>(topo.width());
  live_lanes_.resize(static_cast<std::size_t>(topo.total_warps()) * width_);
  flagged_lanes_.resize(static_cast<std::size_t>(topo.total_warps()) * width_);
  for (DmmId j = 0; j < topo.num_dmms(); ++j) {
    const WarpId wbase = topo.first_warp(j);
    for (WarpId k = 0; k < topo.warps_on(j); ++k) {
      WarpState& w = warps_[static_cast<std::size_t>(wbase + k)];
      w.id = wbase + k;
      w.dmm = j;
      w.first = topo.first_thread(j) + k * topo.width();
      w.exclusive = topo.warps_on(j) == 1;
      w.count = std::min(topo.width(), topo.threads_on(j) - k * topo.width());
      w.live = w.count;
      w.flagged = w.count;  // every lane needs its initial resume
      for (std::int64_t i = 0; i < w.count; ++i) {
        live_lanes(w)[i] = static_cast<std::int32_t>(i);
        flagged_lanes(w)[i] = static_cast<std::int32_t>(i);
      }
    }
  }

  exec_.assign(static_cast<std::size_t>(topo.num_dmms()), ExecUnit{});
  dmm_domains_.assign(static_cast<std::size_t>(topo.num_dmms()),
                      BarrierDomain{});
  for (DmmId j = 0; j < topo.num_dmms(); ++j) {
    dmm_domains_[static_cast<std::size_t>(j)].active = topo.warps_on(j);
    dmm_domains_[static_cast<std::size_t>(j)].dmm = j;
  }
  machine_domain_.active = topo.total_warps();
  machine_domain_.scope = BarrierScope::kMachine;

  queue_.reserve(static_cast<std::size_t>(topo.total_warps()));
  batch_scratch_.reserve(static_cast<std::size_t>(topo.width()));
  participants_scratch_.reserve(static_cast<std::size_t>(topo.width()));
  values_scratch_.reserve(static_cast<std::size_t>(topo.width()));
  if (replay_enabled_) {
    trackers_.resize(static_cast<std::size_t>(topo.total_warps()));
  }

  for (const WarpState& w : warps_) requeue(w);
}

RunReport Engine::run() {
  // Fresh pipeline counters; memory CONTENTS are owned by the Machine
  // and persist across runs.
  for (auto& port : machine_.shared_) port.pipeline.reset();
  if (machine_.global_) machine_.global_->pipeline.reset();

  trace_ =
      machine_.observer_ != nullptr && machine_.observer_->wants_trace_events();

  // Round-pattern memoization (mm/pattern_cache.hpp).  The cache is pure
  // memoization of exact profiles, so it stays on even under observation;
  // the REPLAY shortcut falls back to full simulation whenever an
  // observer is attached, so observers always see every batch event.
  cache_ = machine_.fast_forward_ ? &machine_.cache_ : nullptr;
  replay_enabled_ = cache_ != nullptr && machine_.observer_ == nullptr;
  const std::int64_t cache_hits0 = cache_ != nullptr ? cache_->hits() : 0;
  const std::int64_t cache_misses0 = cache_ != nullptr ? cache_->misses() : 0;

  // Activate the coroutine frame arena for the WHOLE run: SimTask frames
  // are created at launch, but SubTask frames are created whenever a
  // thread enters a device subroutine mid-run, so the scope must span
  // the scheduling loop too.  Resetting here is safe — frames die with
  // the Engine, and the previous run's engine is long gone.
  machine_.arena_.reset();
  const FrameArena::Scope arena_scope(&machine_.arena_);

  launch_threads();
  report_.threads = machine_.num_threads();
  report_.warps = machine_.topology().total_warps();
  if (machine_.observer_) machine_.observer_->on_run_begin(machine_);

  while (!queue_.empty()) {
    const auto [t, wid] = queue_.pop();
    round(warps_[static_cast<std::size_t>(wid)]);
  }

  // No-progress watchdog: the ready queue drained (zero warps resumable,
  // zero requests in flight), so any unfinished warp is parked at a
  // barrier that can never release.  Abort with a diagnostic listing the
  // blocked warps and every barrier domain's arrival state instead of
  // returning a report that silently dropped work.
  check_no_deadlock();

  report_.shared_pipelines.reserve(machine_.shared_.size());
  for (const auto& port : machine_.shared_) {
    report_.shared_pipelines.push_back(port.pipeline.stats());
  }
  if (machine_.global_) {
    report_.global_pipeline = machine_.global_->pipeline.stats();
  }
  report_.exec.reserve(exec_.size());
  for (const ExecUnit& e : exec_) {
    report_.exec.push_back(ExecStats{e.slots, e.next_free});
  }
  if (cache_ != nullptr) {
    // This run's share of a cache that outlives it.  The hit/miss split
    // depends on how warm that cache was — the machine's earlier runs
    // fill it — which is why RunReport::operator== excludes
    // FastForwardStats.
    report_.fast_forward.cache_hits = cache_->hits() - cache_hits0;
    report_.fast_forward.cache_misses = cache_->misses() - cache_misses0;
  }
  report_.link.remote_batches = link_remote_batches_;
  report_.link.stages = link_stages_;
  if (machine_.observer_) machine_.observer_->on_run_end(report_);
  return std::move(report_);
}

void Engine::check_no_deadlock() const {
  std::int64_t blocked = 0;
  for (const WarpState& w : warps_) blocked += w.finished ? 0 : 1;
  if (blocked == 0) return;

  std::string msg = "deadlock: no warp is resumable and no request is in "
                    "flight, but " + std::to_string(blocked) +
                    " warp(s) never finished (mismatched barrier calls or "
                    "scopes?)\n  blocked warps:";
  for (const WarpState& w : warps_) {
    if (w.finished) continue;
    msg += "\n    warp " + std::to_string(w.id) + " (dmm " +
           std::to_string(w.dmm) + ", " + std::to_string(w.live) +
           " live lane(s)) ";
    if (w.waiting) {
      msg += w.uniform_scope == BarrierScope::kMachine
                 ? "parked at a machine-scope barrier"
                 : "parked at a DMM-scope barrier";
    } else {
      msg += "never reached a barrier release";
    }
  }
  msg += "\n  barrier domains:";
  const auto describe = [&msg](const BarrierDomain& dom, const std::string&
                                                             name) {
    msg += "\n    " + name + ": " +
           std::to_string(static_cast<std::int64_t>(dom.arrived.size())) +
           " of " + std::to_string(dom.active) + " active warp(s) arrived";
    if (!dom.arrived.empty()) {
      msg += " (warps";
      for (const WarpId id : dom.arrived) {
        msg += ' ';
        msg += std::to_string(id);
      }
      msg += ")";
    }
  };
  for (const BarrierDomain& dom : dmm_domains_) {
    describe(dom, "dmm " + std::to_string(dom.dmm));
  }
  describe(machine_domain_, "machine");
  throw DeadlockError(msg);
}

/// Batched resume: visit ONLY the lanes flagged since the last round
/// (a per-warp list, not an all-lanes scan), so divergent and
/// mostly-done warps skip dead and unflagged lanes entirely.  This is
/// also the single place a lane can die, and therefore the single place
/// `w.live` and the live-lane list are updated.
void Engine::resume_flagged(WarpState& w) {
  if (w.flagged == 0) {
    w.uniform = UniformClass::kMixed;  // nothing fresh to classify
    return;
  }
  // Classify while the freshly posted ops are still hot: when every live
  // lane is resumed together (the SIMD-uniform common case) and they all
  // post the same operation class, round() dispatches directly instead of
  // re-scanning the warp.  A partial batch leaves older pending ops we did
  // not look at, so only a full batch can establish uniformity.
  bool uniform_valid = (w.flagged == w.live);
  bool uniform_set = false;
  UniformClass uniform = UniformClass::kMixed;
  const std::int32_t* flagged = flagged_lanes(w);
  bool lane_died = false;
  for (std::int64_t k = 0; k < w.flagged; ++k) {
    ThreadState& ts = thread(w.first + flagged[k]);
    ts.need_resume = false;
    ts.ctx.pending_ = Op{};
    // Resume the innermost active coroutine (a SubTask when the kernel is
    // inside a device subroutine); completion transfers control back up
    // the call chain within this resume.
    ts.ctx.leaf_.resume();
    if (ts.task.done()) {
      ts.task.rethrow_if_failed();
      ts.done = true;
      lane_died = true;
      continue;
    }
    const Op& op = ts.ctx.pending_;
    HMM_ASSERT(op.kind != Op::Kind::kNone,
               "thread suspended without posting an operation");
    if (!uniform_valid) continue;
    UniformClass cls = UniformClass::kMixed;
    switch (op.kind) {
      case Op::Kind::kRead:
      case Op::Kind::kWrite:
        cls = UniformClass::kMemory;
        break;
      case Op::Kind::kCompute:
        cls = UniformClass::kCompute;
        break;
      case Op::Kind::kBarrier:
        cls = UniformClass::kBarrier;
        break;
      case Op::Kind::kWarpSync:
        cls = UniformClass::kWarpSync;
        break;
      case Op::Kind::kNone:
        break;  // unreachable (asserted above)
    }
    if (!uniform_set) {
      uniform = cls;
      uniform_set = true;
      w.uniform_space = op.space;
      w.uniform_scope = op.scope;
      w.uniform_cycles = op.cycles;
      w.wait_min = op.cycles;
      w.wait_max = op.cycles;
    } else if (cls != uniform ||
               (cls == UniformClass::kMemory && op.space != w.uniform_space) ||
               (cls == UniformClass::kBarrier && op.scope != w.uniform_scope)) {
      uniform_valid = false;  // divergent: round() falls back to the scan
    } else if (cls == UniformClass::kCompute) {
      w.uniform_cycles = std::max(w.uniform_cycles, op.cycles);
    } else if (cls == UniformClass::kBarrier) {
      w.wait_min = std::min(w.wait_min, op.cycles);
      w.wait_max = std::max(w.wait_max, op.cycles);
    }
  }
  // Dead lanes posted nothing; uniformity is over the survivors.
  w.uniform = (uniform_valid && uniform_set) ? uniform : UniformClass::kMixed;
  w.flagged = 0;
  if (lane_died) {
    // Compact the live list in place, preserving ascending lane order.
    std::int32_t* live = live_lanes(w);
    std::int64_t kept = 0;
    for (std::int64_t k = 0; k < w.live; ++k) {
      if (!thread(w.first + live[k]).done) live[kept++] = live[k];
    }
    w.live = kept;
  }
}

void Engine::round(WarpState& w) {
  if (w.waiting) {
    // Every live lane still waits out a counted barrier: the warp takes
    // the turn the per-barrier form's round would, with no lane resumed.
    arrive(w);
    return;
  }
  if (replay_enabled_) {
    WarpTracker& t = trackers_[static_cast<std::size_t>(w.id)];
    if (t.mode == WarpTracker::Mode::kReplay) {
      if (w.flagged == w.live && w.live > 0) {
        replay_rounds(w, t);
        return;
      }
      // A partial resume set can't match a full-participation slot; this
      // cannot happen while replay holds the warp, so treat it as a break.
      t.reset();
    }
  }

  resume_flagged(w);
  if (w.live == 0) {
    finish_warp(w);
    return;
  }

  // Fast path: resume_flagged already classified the warp as uniform, so
  // the per-lane scan below would just rediscover the same single class.
  // Error detection is unaffected — mixed barrier scopes or a
  // barrier/warp_sync split mark the warp kMixed and take the scan, which
  // raises the diagnostic.
  switch (w.uniform) {
    case UniformClass::kMemory:
      memory_round(w, w.uniform_space);
      return;
    case UniformClass::kCompute:
      compute_round(w);
      return;
    case UniformClass::kBarrier:
      barrier_round(w, w.uniform_scope);
      return;
    case UniformClass::kWarpSync:
      // Every live lane reached the warp sync: reconverge for free.
      flag_all_live(w);
      requeue(w);
      if (replay_enabled_) {
        WarpTracker& t = trackers_[static_cast<std::size_t>(w.id)];
        if (observe_fp(t, kWarpSyncFp)) {
          t.slots[static_cast<std::size_t>(t.recorded)] = PatternSlot{};
          advance_record(t);
        }
      }
      return;
    case UniformClass::kMixed:
      break;
  }

  // A divergent (or unclassifiable) round: whatever periodicity the
  // tracker was chasing is over.
  if (replay_enabled_) trackers_[static_cast<std::size_t>(w.id)].reset();
  dispatch_scan(w);
}

void Engine::dispatch_scan(WarpState& w) {
  // Classify the pending ops of live threads; service exactly one kind per
  // round, by fixed priority: shared memory, global memory, compute,
  // barrier.  (Uniform SIMD kernels only ever present one kind at a time;
  // the priority order makes divergent programs deterministic.)
  bool has_shared = false, has_global = false, has_compute = false;
  bool has_barrier = false;
  std::int64_t warp_syncs = 0;
  BarrierScope scope = BarrierScope::kDmm;
  bool scope_set = false;
  std::int64_t wait_min = INT64_MAX, wait_max = 0;  // barrier counts
  const std::int32_t* live = live_lanes(w);
  for (std::int64_t k = 0; k < w.live; ++k) {
    const ThreadState& ts = thread(w.first + live[k]);
    const Op& op = ts.ctx.pending_;
    switch (op.kind) {
      case Op::Kind::kRead:
      case Op::Kind::kWrite:
        (op.space == MemorySpace::kShared ? has_shared : has_global) = true;
        break;
      case Op::Kind::kCompute:
        has_compute = true;
        break;
      case Op::Kind::kBarrier:
        if (scope_set) {
          HMM_REQUIRE(scope == op.scope,
                      "threads of one warp reached barriers of different "
                      "scopes in the same step");
        }
        scope = op.scope;
        scope_set = true;
        has_barrier = true;
        wait_min = std::min(wait_min, op.cycles);
        wait_max = std::max(wait_max, op.cycles);
        break;
      case Op::Kind::kWarpSync:
        ++warp_syncs;
        break;
      case Op::Kind::kNone:
        HMM_ASSERT(false, "live thread with no pending operation");
    }
  }

  if (has_shared) {
    memory_round(w, MemorySpace::kShared);
  } else if (has_global) {
    memory_round(w, MemorySpace::kGlobal);
  } else if (has_compute) {
    compute_round(w);
  } else if (warp_syncs == w.live) {
    // Every live lane reached the warp sync: reconverge for free.
    flag_all_live(w);
    requeue(w);
  } else {
    HMM_REQUIRE(!has_barrier || warp_syncs == 0,
                "threads of one warp are split between barrier() and "
                "warp_sync() — they can never reconverge");
    HMM_ASSERT(has_barrier, "warp round with no classified operation");
    w.wait_min = wait_min;
    w.wait_max = wait_max;
    barrier_round(w, scope);
  }
}

void Engine::memory_round(WarpState& w, MemorySpace space) {
  Machine::Port& port = port_for(w.dmm, space);
  const Address memory_size = port.memory.size();
  WarpBatch& batch = batch_scratch_;
  std::vector<std::int32_t>& participants = participants_scratch_;
  batch.clear();
  participants.clear();
  const std::int32_t* live = live_lanes(w);
  for (std::int64_t k = 0; k < w.live; ++k) {
    const std::int32_t lane = live[k];
    const ThreadState& ts = thread(w.first + lane);
    const Op& op = ts.ctx.pending_;
    if ((op.kind != Op::Kind::kRead && op.kind != Op::Kind::kWrite) ||
        op.space != space) {
      continue;
    }
    // Checked here, before the pattern key and the pricing tables see
    // the address: both index by it.
    HMM_REQUIRE(op.address >= 0 && op.address < memory_size,
                "service: address out of range");
    batch.push_back(Request{
        .lane = lane,
        .kind = op.kind == Op::Kind::kRead ? AccessKind::kRead
                                           : AccessKind::kWrite,
        .address = op.address,
        .value = op.value,
        .thread = w.first + lane,
    });
    participants.push_back(lane);
  }
  HMM_ASSERT(!batch.empty(), "memory round without requests");

  // Price the batch: pattern-cache hit (exact, full-key compare) or the
  // stamped pass as the miss path.  Observers receive the profile either
  // way — cached profiles are byte-identical to freshly priced ones.
  BatchProfile profile;
  std::uint64_t shape_fp = 0;
  if (cache_ != nullptr) {
    const PatternKeyInfo key =
        build_pattern_key(port.memory.geometry(), batch, key_scratch_);
    shape_fp = key.shape_fp;
    if (!cache_->find(key.cache_fp, key_scratch_, profile)) {
      profile = profile_batch(port.memory.geometry(), batch, port.cost_scratch);
      cache_->insert(key.cache_fp, key_scratch_, profile);
    }
  } else {
    profile = profile_batch(port.memory.geometry(), batch, port.cost_scratch);
  }
  std::int64_t stages =
      port.dmm_pricing ? profile.dmm_stages : profile.umm_stages;
  // Cross-HMM global traffic pays its interconnect as extra stages,
  // folded in HERE — the one place stages are computed — so the recorded
  // pattern (record_memory_slot) and the replay inject inherit the
  // surcharge unchanged.
  if (space == MemorySpace::kGlobal) {
    stages +=
        link_extra_stages(w.dmm, static_cast<std::int64_t>(batch.size()));
  }

  // Issuing the access is one warp instruction on this DMM's SIMD engine;
  // the pipeline then carries the batch independently (latency hiding).
  const Cycle issue =
      exec_[static_cast<std::size_t>(w.dmm)].acquire(w.clock, 1);

  if (space == MemorySpace::kGlobal) {
    note_link_traffic(w.dmm, static_cast<std::int64_t>(batch.size()));
  }
  const PipelineSlot slot = port.pipeline.inject(
      issue, stages, static_cast<std::int64_t>(batch.size()));
  if (machine_.observer_) {
    machine_.observer_->on_memory_batch(MemoryBatchEvent{
        .warp = w.id,
        .dmm = w.dmm,
        .space = space,
        .dmm_pricing = port.dmm_pricing,
        .issue = issue,
        .stages = stages,
        .inject_begin = slot.inject_begin,
        .inject_end = slot.inject_end,
        .data_ready = slot.data_ready,
        .batch = batch,
        .profile = &profile,
    });
  }
  std::vector<Word>& values = values_scratch_;
  values.resize(batch.size());
  port.memory.service(batch, profile.distinct_addresses, values);

  for (std::size_t i = 0; i < participants.size(); ++i) {
    thread(w.first + participants[i]).ctx.delivered_ = values[i];
    flag_lane(w, participants[i]);
  }
  w.clock = slot.data_ready;
  requeue(w);

  if (trace_) {
    machine_.observer_->on_trace_event(TraceEvent{
        .kind = TraceEvent::Kind::kMemory,
        .warp = w.id,
        .dmm = w.dmm,
        .space = space,
        .requests = static_cast<std::int64_t>(batch.size()),
        .stages = stages,
        .begin = slot.inject_begin,
        .end = slot.inject_end,
        .ready = slot.data_ready,
    });
  }

  // Periodicity tracking — only for PROVEN-uniform rounds (every live
  // lane resumed together and posted this access), so a replayed slot
  // can assume full participation.
  if (replay_enabled_ && w.uniform == UniformClass::kMemory) {
    WarpTracker& t = trackers_[static_cast<std::size_t>(w.id)];
    // try_replay_round shifts a UMM-priced, non-broadcast slot only by
    // multiples of w, so two such rounds repeat only when their first
    // addresses agree mod w.  Without the phase a copy loop stepping by
    // 4 words looks periodic, fails every replay attempt and spends the
    // warp's bailout budget before the phase that does repeat.
    const std::uint64_t phase =
        port.dmm_pricing || profile.distinct_addresses == 1
            ? 0
            : static_cast<std::uint64_t>(batch.front().address) % width_;
    if (observe_fp(t, fp_memory_round(space, shape_fp, phase))) {
      record_memory_slot(t, w, space, batch, profile, stages,
                         port.dmm_pricing);
    }
  }
}

void Engine::compute_round(WarpState& w) {
  Cycle cycles = 0;
  const bool uniform = w.uniform == UniformClass::kCompute;
  std::vector<std::int32_t>& participants = participants_scratch_;
  participants.clear();
  if (uniform) {
    // resume_flagged classified the warp uniform-compute and collected the
    // SIMD max while the ops were hot: every live lane participates.
    cycles = w.uniform_cycles;
  } else {
    const std::int32_t* live = live_lanes(w);
    for (std::int64_t k = 0; k < w.live; ++k) {
      const ThreadState& ts = thread(w.first + live[k]);
      if (ts.ctx.pending_.kind != Op::Kind::kCompute) continue;
      cycles = std::max(cycles, ts.ctx.pending_.cycles);  // SIMD: pay the max
      participants.push_back(live[k]);
    }
  }
  HMM_ASSERT(cycles >= 1, "compute round without work");

  const Cycle begin =
      exec_[static_cast<std::size_t>(w.dmm)].acquire(w.clock, cycles);
  w.clock = begin + cycles;
  if (uniform) {
    flag_all_live(w);
  } else {
    for (std::int32_t lane : participants) flag_lane(w, lane);
  }
  requeue(w);

  if (trace_) {
    machine_.observer_->on_trace_event(TraceEvent{
        .kind = TraceEvent::Kind::kCompute,
        .warp = w.id,
        .dmm = w.dmm,
        .begin = begin,
        .end = w.clock - 1,
        .ready = w.clock,
    });
  }

  if (replay_enabled_ && uniform) {
    WarpTracker& t = trackers_[static_cast<std::size_t>(w.id)];
    if (observe_fp(t, fp_compute_round(cycles))) {
      PatternSlot& slot = t.slots[static_cast<std::size_t>(t.recorded)];
      slot = PatternSlot{};
      slot.kind = PatternSlot::Kind::kCompute;
      slot.cycles = cycles;
      advance_record(t);
    }
  }
}

void Engine::barrier_round(WarpState& w, BarrierScope scope) {
  // A barrier ends any periodic phase: release times couple this warp to
  // the rest of its domain, which replay must never shortcut.
  if (replay_enabled_) trackers_[static_cast<std::size_t>(w.id)].reset();
  w.uniform_scope = scope;
  w.released = 0;
  w.waiting = true;  // parked: not requeued until released
  arrive(w);
}

void Engine::arrive(WarpState& w) {
  BarrierDomain& domain = w.uniform_scope == BarrierScope::kDmm
                              ? dmm_domains_[static_cast<std::size_t>(w.dmm)]
                              : machine_domain_;
  domain.arrived.push_back(w.id);
  domain.max_arrival = std::max(domain.max_arrival, w.clock);
  release_if_complete(domain);
}

void Engine::finish_warp(WarpState& w) {
  HMM_ASSERT(!w.finished, "warp finished twice");
  w.finished = true;
  report_.makespan = std::max(report_.makespan, w.clock);
  if (machine_.observer_) {
    machine_.observer_->on_warp_finish(w.id, w.dmm, w.clock);
  }

  BarrierDomain& dd = dmm_domains_[static_cast<std::size_t>(w.dmm)];
  --dd.active;
  release_if_complete(dd);
  --machine_domain_.active;
  release_if_complete(machine_domain_);
}

void Engine::release_if_complete(BarrierDomain& domain) {
  if (!domain.arrived.empty() &&
      static_cast<std::int64_t>(domain.arrived.size()) == domain.active) {
    release(domain);
  }
}

void Engine::release(BarrierDomain& domain) {
  const Cycle t = domain.max_arrival;
  ++report_.barrier_releases;
  if (machine_.observer_) {
    // Parked warps still carry their arrival time in `clock`, so the
    // domain's aggregate barrier wait is free to compute here.
    Cycle stall = 0;
    for (WarpId wid : domain.arrived) {
      stall += t - warps_[static_cast<std::size_t>(wid)].clock;
    }
    machine_.observer_->on_barrier_release(BarrierReleaseEvent{
        .scope = domain.scope,
        .dmm = domain.dmm,
        .when = t,
        .warps_released = static_cast<std::int64_t>(domain.arrived.size()),
        .stall_cycles = stall,
    });
  }
  for (WarpId wid : domain.arrived) {
    WarpState& w = warps_[static_cast<std::size_t>(wid)];
    HMM_ASSERT(w.waiting, "released a warp that was not parked");
    w.clock = t;
    // A warp whose every live lane still waits out a counted barrier
    // stays parked; round() re-arrives it when its turn comes.
    if (++w.released >= w.wait_min) {
      w.waiting = false;
      wake(w);
    }
    requeue(w);
    if (trace_) {
      machine_.observer_->on_trace_event(TraceEvent{
          .kind = TraceEvent::Kind::kBarrier,
          .warp = w.id,
          .dmm = w.dmm,
          .begin = t,
          .end = t,
          .ready = t,
      });
    }
  }
  domain.arrived.clear();
  domain.max_arrival = 0;
}

/// Flag the lanes of a released warp whose counted barrier ran out.
/// Every live lane of a parked warp is at the barrier: barrier_round only
/// runs once the priority classification has exhausted every other
/// operation kind.
void Engine::wake(WarpState& w) {
  if (w.wait_max == w.released) {
    flag_all_live(w);
    return;
  }
  // Only the lanes whose count ran out resume; the others keep their
  // barrier op pending with the count reduced, so the next round is the
  // mixed round the per-barrier form makes.
  const std::int32_t* live = live_lanes(w);
  for (std::int64_t k = 0; k < w.live; ++k) {
    Op& op = thread(w.first + live[k]).ctx.pending_;
    HMM_ASSERT(op.kind == Op::Kind::kBarrier, "parked lane not at a barrier");
    if (op.cycles == w.released) {
      flag_lane(w, live[k]);
    } else {
      op.cycles -= w.released;
    }
  }
}

// ---------------------------------------------------------------------------
// Fast-forward: periodicity detection, pattern recording, verified replay
// ---------------------------------------------------------------------------

/// Slide `fp` into the warp's rolling fingerprint window and refresh the
/// per-period run lengths.  Returns true when THIS round must be captured
/// into slots[recorded] (recording just started, or is in progress and
/// the stream still matches the detected period).
bool Engine::observe_fp(WarpTracker& t, std::uint64_t fp) {
  if (t.mode == WarpTracker::Mode::kOff) return false;

  bool continued = true;
  if (t.mode == WarpTracker::Mode::kRecord) {
    const std::uint64_t expect =
        t.hist[(t.hist_pos - t.period + kHistory) % kHistory];
    continued = fp == expect;
  }

  const std::int64_t bound = std::min(kMaxPeriod, t.hist_len);
  for (std::int64_t p = 1; p <= bound; ++p) {
    const std::uint64_t prev = t.hist[(t.hist_pos - p + kHistory) % kHistory];
    t.run[p] = prev == fp ? t.run[p] + 1 : 0;
  }
  t.hist[t.hist_pos] = fp;
  t.hist_pos = (t.hist_pos + 1) % kHistory;
  if (t.hist_len < kHistory) ++t.hist_len;

  if (t.mode == WarpTracker::Mode::kRecord) {
    if (!continued) {
      // The pattern broke mid-recording; keep the (fresh) window and
      // scan again.
      t.mode = WarpTracker::Mode::kScan;
      t.recorded = 0;
    }
    return continued;
  }

  // Scanning: commit to the SMALLEST period that has held for at least
  // two full cycles — the round we are observing becomes slot 0.
  for (std::int64_t p = 1; p <= bound; ++p) {
    if (t.run[p] >= 2 * p) {
      t.mode = WarpTracker::Mode::kRecord;
      t.period = p;
      t.recorded = 0;
      t.local_only = true;  // record_memory_slot clears it on global slots
      t.slots.resize(static_cast<std::size_t>(p));
      return true;
    }
  }
  return false;
}

/// A replay (or recording) attempt failed: rescan, and give up on the
/// warp entirely after kMaxBailouts flaps — a warp that keeps almost
/// repeating costs more to chase than to simulate.
void Engine::bail_tracker(WarpTracker& t) {
  t.reset();
  if (++t.bailouts >= kMaxBailouts) t.mode = WarpTracker::Mode::kOff;
}

void Engine::advance_record(WarpTracker& t) {
  if (++t.recorded == t.period) {
    t.mode = WarpTracker::Mode::kReplay;
    t.pos = 0;
  }
}

void Engine::record_memory_slot(WarpTracker& t, const WarpState& w,
                                MemorySpace space, const WarpBatch& batch,
                                const BatchProfile& profile,
                                std::int64_t stages, bool dmm_pricing) {
  const std::int64_t n = static_cast<std::int64_t>(batch.size());
  bool all_read = true;
  for (const Request& r : batch) {
    if (r.kind == AccessKind::kWrite) {
      all_read = false;
      break;
    }
  }
  // Replayable slots need (a) full participation, so the replay loop can
  // walk the live list, and (b) service order to be irrelevant: any
  // all-read batch qualifies (broadcasts included), and mixed/write
  // batches qualify when duplicate-free (no same-address write races to
  // arbitrate, no read-vs-write ordering within the batch).
  if (n != w.live || (!all_read && profile.distinct_addresses != n)) {
    bail_tracker(t);
    return;
  }

  PatternSlot& s = t.slots[static_cast<std::size_t>(t.recorded)];
  s.kind = PatternSlot::Kind::kMemory;
  s.space = space;
  if (space == MemorySpace::kGlobal) t.local_only = false;
  s.all_read = all_read;
  s.broadcast = profile.distinct_addresses == 1;
  s.any_shift = dmm_pricing;
  s.cycles = 0;
  s.stages = stages;
  s.nreq = n;
  s.base = batch.front().address;
  s.deltas.resize(static_cast<std::size_t>(n));
  s.kinds.resize(static_cast<std::size_t>(n));
  s.min_delta = 0;
  s.max_delta = 0;
  for (std::int64_t i = 0; i < n; ++i) {
    const Request& r = batch[static_cast<std::size_t>(i)];
    const std::int64_t d = r.address - s.base;
    s.deltas[static_cast<std::size_t>(i)] = d;
    s.min_delta = std::min(s.min_delta, d);
    s.max_delta = std::max(s.max_delta, d);
    s.kinds[static_cast<std::size_t>(i)] = r.kind == AccessKind::kWrite
                                               ? Op::Kind::kWrite
                                               : Op::Kind::kRead;
  }
  advance_record(t);
}

/// Service consecutive rounds from the recorded pattern in ONE queue pop
/// — a fused block.  Per-round replay already skips batch building,
/// profiling and service(); fusing additionally skips the requeue/pop
/// heap churn between a warp's rounds and, more importantly, keeps the
/// warp's 32-odd coroutine frames hot in L1 across the whole block
/// instead of evicting them every time another warp's round runs.
///
/// Exactness (see the WarpTracker comment): the block keeps extending
/// while EITHER every resource the period touches is private to this
/// warp (exclusive regime — sole warp of its DMM, DMM-local slots), OR
/// the next round would have been the very next queue pop anyway
/// (horizon regime).  Otherwise the round is requeued and the block ends
/// after a single replayed round, exactly like the ordinary event loop.
void Engine::replay_rounds(WarpState& w, WarpTracker& t) {
  w.flagged = 0;
  // Clear the resume marks once for the whole block instead of once per
  // lane per round: while the warp is in replay its lanes are only ever
  // bulk-flagged (flag_all_live), which leaves the marks untouched, and
  // flag_lane — the one reader — runs only after a bailout hands the
  // warp back to the slow path.
  {
    const std::int32_t* lanes = live_lanes(w);
    ThreadState* const base_ts =
        threads_.data() + static_cast<std::size_t>(w.first);
    for (std::int64_t k = 0; k < w.live; ++k) {
      base_ts[lanes[k]].need_resume = false;
    }
  }
  const bool exclusive_fuse = w.exclusive && t.local_only;
  for (;;) {
    if (!try_replay_round(w, t)) {
      // Lanes are resumed with fresh ops posted and none is flagged.  An
      // exclusive block may have run ahead of the queue, and the round
      // that broke it may touch shared state (a global access, a
      // barrier), so it waits for its clock: at the next pop
      // resume_flagged finds nothing to resume, and round() finishes the
      // warp or classifies its ops by the scan.
      requeue(w);
      return;
    }
    if (exclusive_fuse) continue;
    if (!queue_.empty()) {
      const auto [clk, wid] = queue_.peek();
      if (w.clock > clk || (w.clock == clk && w.id > wid)) {
        // Another warp's round is due first: back into the queue.
        flag_all_live(w);
        requeue(w);
        return;
      }
    }
  }
}

/// Resume lanes [k, nl) without verification.  Used once a round has
/// already failed verification (or a lane died): the round is bailing
/// to the slow path either way, but every live lane must still be
/// resumed exactly once per round so the re-service observes a fully
/// posted batch.  Returns whether any lane finished its task.
bool Engine::drain_resumes(ThreadState* base_ts, const std::int32_t* lanes,
                           std::int64_t k, std::int64_t nl) {
  bool died = false;
  for (; k < nl; ++k) {
    ThreadState& ts = base_ts[lanes[k]];
    ts.ctx.pending_.kind = Op::Kind::kNone;
    ts.ctx.leaf_.resume();
    if (ts.task.done()) [[unlikely]] {
      ts.task.rethrow_if_failed();
      ts.done = true;
      died = true;
    }
  }
  return died;
}

/// Service one round from the recorded pattern.  Every live lane's
/// coroutine is still resumed (kernels consume delivered values — the
/// resumes ARE the computation), but the freshly posted ops are checked
/// against the slot in one fused pass and the recorded pricing is applied
/// directly: no batch build, no profiling, no service().  Everything the
/// slow path would have done to timing, memory and the link tallies
/// happens here with identical values (returns true), or the round bails
/// out to the ordinary path (returns false; lanes stay resumed, their
/// ops are intact).  The caller owns lane flags and requeueing.
bool Engine::try_replay_round(WarpState& w, WarpTracker& t) {
  PatternSlot& s = t.slots[static_cast<std::size_t>(t.pos)];
  const std::int32_t* lanes = live_lanes(w);
  const std::int64_t nl = w.live;
  ThreadState* const base_ts = threads_.data() + static_cast<std::size_t>(w.first);

  bool died = false;
  std::int64_t fail = -1;
  Address shift = 0;
  const std::int64_t wdt = static_cast<std::int64_t>(width_);

  switch (s.kind) {
    case PatternSlot::Kind::kMemory: {
      Machine::Port& port = port_for(w.dmm, s.space);
      BankMemory& mem = port.memory;
      // Lane 0 is peeled off both loop shapes: it fixes the round's
      // shift and checks admissibility once, so the per-lane loops run
      // without the first-lane branches.
      {
        ThreadState& ts = base_ts[lanes[0]];
        ts.ctx.pending_.kind = Op::Kind::kNone;
        ts.ctx.leaf_.resume();
        if (ts.task.done()) [[unlikely]] {
          ts.task.rethrow_if_failed();
          ts.done = true;
          died = true;
        } else {
          const Op& op = ts.ctx.pending_;
          shift = op.address - s.base;
          // A lane that finished since the slot was recorded leaves a
          // smaller batch than the recorded price.
          if (nl != s.nreq ||
              !(shift == 0 || s.broadcast || s.any_shift ||
                shift % wdt == 0) ||
              s.base + shift + s.min_delta < 0 ||
              s.base + shift + s.max_delta >= mem.size() ||
              op.kind != s.kinds[0] || op.space != s.space ||
              op.address != s.base + shift + s.deltas[0]) {
            fail = 0;
          }
        }
      }
      if (died || fail >= 0) {
        died |= drain_resumes(base_ts, lanes, 1, nl);
        break;
      }
      const Address abase = s.base + shift;
      const MemorySpace space = s.space;
      const Address* const deltas = s.deltas.data();
      if (s.all_read) {
        // Fused resume + verify + service.  Delivering to early lanes
        // before a later lane fails verification is harmless for reads:
        // the bailed round is re-serviced in full by the slow path,
        // which overwrites delivered_ before any lane resumes again.
        {
          ThreadState& ts0 = base_ts[lanes[0]];
          ts0.ctx.delivered_ = mem.replay_read(ts0.ctx.pending_.address);
        }
        for (std::int64_t k = 1; k < nl; ++k) {
          ThreadState& ts = base_ts[lanes[k]];
          ts.ctx.pending_.kind = Op::Kind::kNone;
          ts.ctx.leaf_.resume();
          if (ts.task.done()) [[unlikely]] {
            ts.task.rethrow_if_failed();
            ts.done = true;
            died = drain_resumes(base_ts, lanes, k + 1, nl) || true;
            break;
          }
          const Op& op = ts.ctx.pending_;
          if (op.kind != Op::Kind::kRead || op.space != space ||
              op.address != abase + deltas[k]) {
            fail = k;
            died |= drain_resumes(base_ts, lanes, k + 1, nl);
            break;
          }
          ts.ctx.delivered_ = mem.replay_read(op.address);
        }
      } else {
        // Slots containing writes verify EVERY lane before any cell is
        // touched: a partial write burst before a verification failure
        // would corrupt the slow-path re-service, which must observe
        // pre-batch memory.
        const Op::Kind* const kinds = s.kinds.data();
        for (std::int64_t k = 1; k < nl; ++k) {
          ThreadState& ts = base_ts[lanes[k]];
          ts.ctx.pending_.kind = Op::Kind::kNone;
          ts.ctx.leaf_.resume();
          if (ts.task.done()) [[unlikely]] {
            ts.task.rethrow_if_failed();
            ts.done = true;
            died = drain_resumes(base_ts, lanes, k + 1, nl) || true;
            break;
          }
          const Op& op = ts.ctx.pending_;
          if (op.kind != kinds[k] || op.space != space ||
              op.address != abase + deltas[k]) {
            fail = k;
            died |= drain_resumes(base_ts, lanes, k + 1, nl);
            break;
          }
        }
        if (!died && fail < 0) {
          // All verified; the batch is duplicate-free, so per-lane
          // service order is irrelevant (writes land, reads see the
          // pre-batch value of THEIR address — no aliasing possible).
          for (std::int64_t k = 0; k < nl; ++k) {
            ThreadState& ts = base_ts[lanes[k]];
            const Op& op = ts.ctx.pending_;
            if (op.kind == Op::Kind::kWrite) {
              mem.replay_write(op.address, op.value);
              ts.ctx.delivered_ = op.value;
            } else {
              ts.ctx.delivered_ = mem.replay_read(op.address);
            }
          }
        }
      }

      if (died || fail >= 0) break;

      // Priced effects — the exact calls the slow path would make.
      const Cycle issue =
          exec_[static_cast<std::size_t>(w.dmm)].acquire(w.clock, 1);
      s.base += shift;
      if (s.space == MemorySpace::kGlobal) note_link_traffic(w.dmm, s.nreq);
      const PipelineSlot ps = port.pipeline.inject(issue, s.stages, s.nreq);
      w.clock = ps.data_ready;
      break;
    }

    case PatternSlot::Kind::kCompute: {
      Cycle mx = 0;
      for (std::int64_t k = 0; k < nl; ++k) {
        ThreadState& ts = base_ts[lanes[k]];
        ts.ctx.pending_.kind = Op::Kind::kNone;
        ts.ctx.leaf_.resume();
        if (ts.task.done()) [[unlikely]] {
          ts.task.rethrow_if_failed();
          ts.done = true;
          died = drain_resumes(base_ts, lanes, k + 1, nl) || true;
          break;
        }
        const Op& op = ts.ctx.pending_;
        if (op.kind != Op::Kind::kCompute) {
          fail = k;
          died |= drain_resumes(base_ts, lanes, k + 1, nl);
          break;
        }
        mx = std::max(mx, op.cycles);
      }
      // The SIMD max is what the warp pays; a different max is a
      // different round even if every op is still a compute.
      if (!died && fail < 0 && mx != s.cycles) fail = 0;
      if (died || fail >= 0) break;

      const Cycle begin =
          exec_[static_cast<std::size_t>(w.dmm)].acquire(w.clock, s.cycles);
      w.clock = begin + s.cycles;
      break;
    }

    case PatternSlot::Kind::kWarpSync: {
      for (std::int64_t k = 0; k < nl; ++k) {
        ThreadState& ts = base_ts[lanes[k]];
        ts.ctx.pending_.kind = Op::Kind::kNone;
        ts.ctx.leaf_.resume();
        if (ts.task.done()) [[unlikely]] {
          ts.task.rethrow_if_failed();
          ts.done = true;
          died = drain_resumes(base_ts, lanes, k + 1, nl) || true;
          break;
        }
        if (ts.ctx.pending_.kind != Op::Kind::kWarpSync) {
          fail = k;
          died |= drain_resumes(base_ts, lanes, k + 1, nl);
          break;
        }
      }
      // Reconverging is free: nothing to price, nothing to deliver.
      break;
    }
  }

  if (died) {
    // Same compaction resume_flagged performs (the one other place a
    // lane can die).
    std::int32_t* live = live_lanes(w);
    std::int64_t kept = 0;
    for (std::int64_t k = 0; k < w.live; ++k) {
      if (!base_ts[live[k]].done) live[kept++] = live[k];
    }
    w.live = kept;
  }
  if (died || fail >= 0) {
    bail_tracker(t);
    ++report_.fast_forward.bailouts;
    return false;
  }

  t.pos = t.pos + 1 == t.period ? 0 : t.pos + 1;
  // A completed period refunds the bailout budget: a pattern that breaks
  // and re-forms periodically (convolution's once-per-output write) must
  // not exhaust it and switch the tracker off.
  if (t.pos == 0) t.bailouts = 0;
  ++report_.fast_forward.replayed_rounds;
  return true;
}

RunReport Machine::run(const KernelFn& kernel) {
  HMM_REQUIRE(static_cast<bool>(kernel), "run: kernel must be callable");
  Engine engine(*this, kernel);
  return engine.run();
}

}  // namespace hmm
