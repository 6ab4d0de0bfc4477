// AccessPlan — the symbolic IR of the static access analyzer.
//
// A plan describes every memory dispatch a workload performs as a TERM
// over the warp's lanes, independent of any machine state:
//
//   affine   base + stride*i over the participating lanes (the common
//            case: strip loops, staging copies, tree folds)
//   table    one explicit address per lane (data-dependent rounds:
//            permutation schedules, wrapped skew-transpose stores)
//
// Plans are produced by symbolic twins of the span drivers in src/alg/:
// each twin replays the kernel's control flow through a PlanCtx (which
// records operations instead of executing them), and build_access_plan
// folds the per-lane programs warp-synchronously — the same one-op-class-
// per-round, shared-before-global discipline the engine's dispatch_scan
// uses — into the exact sequence of warp dispatches the engine would
// issue.  The number-theoretic evaluator (evaluate.hpp) then prices each
// term WITHOUT constructing the machine, and the differential harness
// (diff.hpp) cross-checks the result against the dynamic AccessChecker.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "machine/observer.hpp"
#include "machine/report.hpp"

namespace hmm::analysis {

/// One symbolic warp access: how the participating lanes address memory.
struct Term {
  enum class Kind : std::uint8_t { kAffine, kTable };
  Kind kind = Kind::kAffine;
  Address base = 0;          ///< kAffine: lane 0's address
  std::int64_t stride = 0;   ///< kAffine: per-lane address step
  std::int64_t lanes = 1;    ///< kAffine: participating lane count
  std::vector<Address> addresses;  ///< kTable: one address per lane

  static Term affine(Address base, std::int64_t stride, std::int64_t lanes) {
    Term t;
    t.kind = Kind::kAffine;
    t.base = base;
    t.stride = stride;
    t.lanes = lanes;
    return t;
  }
  static Term table(std::vector<Address> addresses) {
    Term t;
    t.kind = Kind::kTable;
    t.addresses = std::move(addresses);
    t.lanes = static_cast<std::int64_t>(t.addresses.size());
    return t;
  }

  std::int64_t lane_count() const { return lanes; }
};

/// One warp memory dispatch of the plan.  `label` indexes
/// AccessPlan::labels — the round CLASS the dispatch belongs to, used to
/// aggregate the per-round certificate table.
///
/// `count` is the dispatch's multiplicity: build_access_plan merges a
/// warp's dispatch stream into the previous warp's when the two streams
/// match dispatch-for-dispatch up to one uniform address shift per
/// dispatch that is a multiple of the width.  Such a shift keeps every
/// address's bank residue a mod w and translates its group index
/// a div w by the same constant, so both pricing functions are exactly
/// unchanged — DMM-symmetric workloads collapse to one stored copy per
/// distinct warp program, and the evaluator weights every tally by
/// `count` instead of re-pricing d copies.
struct Dispatch {
  MemorySpace space = MemorySpace::kShared;
  std::int32_t label = 0;
  std::int64_t count = 1;
  Term term;
};

/// A workload's full symbolic access plan.
struct AccessPlan {
  std::string workload;      ///< e.g. "sum/hmm"
  std::int64_t width = 1;    ///< warp width == bank count == group size
  /// The bound the workload CLAIMS (paper / PR-2 certified baseline).
  /// 0 means no claim for that pricing domain; the analyzer refutes a
  /// plan whose computed certificate exceeds a non-zero claim.
  std::int64_t claimed_degree = 0;  ///< DMM conflict degree (shared)
  std::int64_t claimed_groups = 0;  ///< UMM group count (global)
  std::vector<std::string> labels;
  std::vector<Dispatch> dispatches;
};

// ---------------------------------------------------------------------------
// Symbolic lane programs
// ---------------------------------------------------------------------------

/// One recorded lane operation.  Field order keeps the struct at 16
/// bytes (address, three byte-wide tags, label) — lane recording and the
/// warp fold stream tens of millions of these, so padding is bandwidth.
struct LaneOp {
  enum class Kind : std::uint8_t { kRead, kWrite, kCompute, kBarrier };
  Address address = 0;
  Kind kind = Kind::kCompute;
  MemorySpace space = MemorySpace::kShared;
  BarrierScope scope = BarrierScope::kDmm;
  std::int32_t label = 0;
};

/// The symbolic twin of ThreadCtx: the same identity accessors and
/// operation verbs, but operations are RECORDED, not executed.  A plan
/// twin is the kernel's control flow re-run against a PlanCtx.
class PlanCtx {
 public:
  // ---- identity (mirrors ThreadCtx / Engine::launch_threads) -----------
  std::int64_t thread_id() const { return thread_id_; }
  std::int64_t local_thread_id() const { return local_id_; }
  std::int64_t dmm_id() const { return dmm_; }
  std::int64_t lane() const { return lane_; }
  std::int64_t warp_id() const { return warp_; }
  std::int64_t width() const { return width_; }
  std::int64_t num_dmms() const { return num_dmms_; }
  std::int64_t num_threads() const { return num_threads_; }
  std::int64_t dmm_thread_count() const { return dmm_threads_; }

  // ---- recorded operations ---------------------------------------------
  void read(MemorySpace space, Address address) {
    ops_.push_back({address, LaneOp::Kind::kRead, space,
                    BarrierScope::kDmm, label_});
  }
  void write(MemorySpace space, Address address) {
    ops_.push_back({address, LaneOp::Kind::kWrite, space,
                    BarrierScope::kDmm, label_});
  }
  void compute() {
    ops_.push_back({0, LaneOp::Kind::kCompute, MemorySpace::kShared,
                    BarrierScope::kDmm, label_});
  }
  void barrier(BarrierScope scope = BarrierScope::kDmm) {
    ops_.push_back({0, LaneOp::Kind::kBarrier, MemorySpace::kShared, scope,
                    label_});
  }

  /// Name the round class every subsequent operation belongs to (the
  /// certificate table aggregates per label).  Labels are interned per
  /// plan; re-using a name re-uses its row.
  void set_label(const std::string& name);

  const std::vector<LaneOp>& ops() const { return ops_; }

 private:
  friend class PlanBuilder;
  std::int64_t thread_id_ = 0;
  std::int64_t local_id_ = 0;
  std::int64_t dmm_ = 0;
  std::int64_t lane_ = 0;
  std::int64_t warp_ = 0;
  std::int64_t width_ = 1;
  std::int64_t num_dmms_ = 1;
  std::int64_t num_threads_ = 1;
  std::int64_t dmm_threads_ = 1;
  std::int32_t label_ = 0;
  std::vector<std::string>* labels_ = nullptr;  // plan-owned intern table
  std::vector<LaneOp> ops_;
};

/// Machine shape a plan is built for (the subset of MachineConfig that
/// determines dispatch composition; latency does not).
struct PlanShape {
  std::int64_t width = 32;
  std::int64_t num_dmms = 1;
  std::int64_t threads_per_dmm = 32;
  /// The twin's promise that its DMMs run one program on DMM-indexed
  /// data: DMM k's lane programs are DMM 0's operation for operation
  /// (kinds, spaces, scopes, labels, lengths), with every address an
  /// affine function of k.  build_access_plan then records DMMs 0 and 1
  /// only.  If every warp of DMM 1 prices identically to the same warp
  /// of DMM 0 (Dispatch::count's uniform width-multiple shift), the
  /// shift of DMM k is k times DMM 1's, so every DMM prices as DMM 0
  /// and the plan is DMM 0's with each multiplicity times num_dmms.
  /// Otherwise it records every DMM, as without the promise.
  bool dmm_affine = false;
};

/// A workload's symbolic kernel: invoked once per lane with the lane's
/// identity pre-set, records that lane's operation sequence.
using LaneFn = std::function<void(PlanCtx&)>;

/// Build the full access plan: run the symbolic kernel for every lane
/// and fold each warp's lane programs warp-synchronously into dispatches
/// (one operation class per round, shared before global before compute
/// before barrier — the engine's dispatch_scan order).  Exact for any
/// data-independent kernel, including divergent strip-loop tails.
AccessPlan build_access_plan(std::string workload, const PlanShape& shape,
                             const LaneFn& lane_fn);

/// Replay a symbolic kernel on a LIVE machine: each lane re-runs
/// `lane_fn` and then co_awaits its recorded operations one by one.
/// Memory sizes are derived from the plan's address ranges.  This is the
/// bridge the random-plan property tests use to compare the static
/// evaluator against the dynamic AccessChecker on arbitrary plans.
RunReport replay_plan_on_machine(const PlanShape& shape, const LaneFn& lane_fn,
                                 Cycle latency, EngineObserver* observer);

}  // namespace hmm::analysis
