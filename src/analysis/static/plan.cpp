#include "analysis/static/plan.hpp"

#include <algorithm>
#include <utility>

#include "core/error.hpp"
#include "machine/machine.hpp"

namespace hmm::analysis {

void PlanCtx::set_label(const std::string& name) {
  HMM_ASSERT(labels_ != nullptr, "PlanCtx used outside a plan build");
  for (std::size_t i = 0; i < labels_->size(); ++i) {
    if ((*labels_)[i] == name) {
      label_ = static_cast<std::int32_t>(i);
      return;
    }
  }
  label_ = static_cast<std::int32_t>(labels_->size());
  labels_->push_back(name);
}

/// Private-access shim: the builder (and the machine replayer) stamp a
/// PlanCtx with the same identity fields Engine::launch_threads gives a
/// ThreadCtx, and the builder recycles the recording buffer across lanes
/// without copying it.
class PlanBuilder {
 public:
  static void init(PlanCtx& ctx, const PlanShape& shape, std::int64_t dmm,
                   std::int64_t local_id, std::vector<std::string>* labels) {
    ctx.thread_id_ = dmm * shape.threads_per_dmm + local_id;
    ctx.local_id_ = local_id;
    ctx.dmm_ = dmm;
    ctx.lane_ = local_id % shape.width;
    ctx.warp_ = dmm * ((shape.threads_per_dmm + shape.width - 1) / shape.width) +
                local_id / shape.width;
    ctx.width_ = shape.width;
    ctx.num_dmms_ = shape.num_dmms;
    ctx.num_threads_ = shape.num_dmms * shape.threads_per_dmm;
    ctx.dmm_threads_ = shape.threads_per_dmm;
    ctx.label_ = 0;
    ctx.labels_ = labels;
    ctx.ops_.clear();
  }

  /// Exchange the context's recorded program with `out` (both keep their
  /// capacity, so steady-state recording never reallocates).
  static void swap_ops(PlanCtx& ctx, std::vector<LaneOp>& out) {
    std::swap(ctx.ops_, out);
  }
};

namespace {

/// Compress the (lane-ordered) addresses of one warp dispatch into the
/// tightest term: affine when the per-lane step is constant, an explicit
/// table otherwise.
Term compress(const std::vector<Address>& addrs) {
  const auto k = static_cast<std::int64_t>(addrs.size());
  if (k == 1) return Term::affine(addrs[0], 0, 1);
  const std::int64_t stride = addrs[1] - addrs[0];
  for (std::int64_t i = 2; i < k; ++i) {
    if (addrs[static_cast<std::size_t>(i)] -
            addrs[static_cast<std::size_t>(i - 1)] !=
        stride) {
      return Term::table(addrs);
    }
  }
  return Term::affine(addrs[0], stride, k);
}

/// Fold one warp's lane programs into dispatches, warp-synchronously:
/// every round services exactly one operation class, picked with the
/// engine's dispatch_scan priority (shared memory, then global memory,
/// then compute, then barrier).  Lanes whose program is exhausted are
/// dead and no longer participate — the symbolic mirror of a finished
/// coroutine.
///
/// The loop leads with a lockstep fast path: when every live lane's next
/// op has the same class (the overwhelmingly common case — strip loops
/// and tree folds keep warps converged), one pass both classifies the
/// round and collects its addresses.  Any divergence falls back to the
/// general two-pass scan for that round, so the dispatch stream is
/// identical either way.
///
/// Returns true iff the warp is fully lockstep: every lane program has
/// the same length and every round took the fast path, so round r
/// consumed op index r of every lane.  try_fast_merge relies on that
/// index<->dispatch correspondence.
bool fold_warp(const std::vector<std::vector<LaneOp>>& programs,
               std::int64_t lanes, std::vector<Dispatch>& out) {
  std::vector<std::size_t> cursor(static_cast<std::size_t>(lanes), 0);
  std::vector<Address> addrs;
  addrs.reserve(static_cast<std::size_t>(lanes));
  bool lockstep = true;
  for (std::int64_t i = 1; i < lanes; ++i) {
    if (programs[static_cast<std::size_t>(i)].size() !=
        programs[0].size()) {
      lockstep = false;
      break;
    }
  }

  const auto lane_size = [&](std::int64_t i) {
    return programs[static_cast<std::size_t>(i)].size();
  };
  const auto lane_op = [&](std::int64_t i, std::size_t c) -> const LaneOp& {
    return programs[static_cast<std::size_t>(i)][c];
  };
  const auto emit = [&](MemorySpace space, std::int32_t label) {
    Dispatch dispatch;
    dispatch.space = space;
    dispatch.label = label;
    dispatch.term = compress(addrs);
    out.push_back(std::move(dispatch));
  };

  for (;;) {
    // ---- lockstep fast path -------------------------------------------
    bool uniform = true, any_live = false;
    LaneOp::Kind kind = LaneOp::Kind::kCompute;
    MemorySpace space = MemorySpace::kShared;
    BarrierScope scope = BarrierScope::kDmm;
    std::int32_t label = 0;
    addrs.clear();
    for (std::int64_t i = 0; i < lanes; ++i) {
      const std::size_t c = cursor[static_cast<std::size_t>(i)];
      if (c >= lane_size(i)) continue;
      const LaneOp& op = lane_op(i, c);
      if (!any_live) {
        any_live = true;
        kind = op.kind;
        space = op.space;
        scope = op.scope;
        label = op.label;
      } else if (op.kind != kind ||
                 ((kind == LaneOp::Kind::kRead ||
                   kind == LaneOp::Kind::kWrite) &&
                  op.space != space)) {
        uniform = false;
        break;
      }
      if (kind == LaneOp::Kind::kRead || kind == LaneOp::Kind::kWrite) {
        addrs.push_back(op.address);
      } else if (kind == LaneOp::Kind::kBarrier) {
        HMM_REQUIRE(op.scope == scope,
                    "plan fold: lanes of one warp at barriers of different "
                    "scopes");
      }
    }
    if (!any_live) return lockstep;
    if (uniform) {
      for (std::int64_t i = 0; i < lanes; ++i) {
        std::size_t& c = cursor[static_cast<std::size_t>(i)];
        if (c < lane_size(i)) ++c;
      }
      if (kind == LaneOp::Kind::kRead || kind == LaneOp::Kind::kWrite) {
        emit(space, label);
      }
      continue;
    }

    // ---- general path: mixed op classes this round --------------------
    lockstep = false;
    bool any_shared = false, any_global = false, any_compute = false;
    for (std::int64_t i = 0; i < lanes; ++i) {
      const std::size_t c = cursor[static_cast<std::size_t>(i)];
      if (c >= lane_size(i)) continue;
      const LaneOp& op = lane_op(i, c);
      switch (op.kind) {
        case LaneOp::Kind::kRead:
        case LaneOp::Kind::kWrite:
          (op.space == MemorySpace::kShared ? any_shared : any_global) = true;
          break;
        case LaneOp::Kind::kCompute:
          any_compute = true;
          break;
        case LaneOp::Kind::kBarrier:
          // A lane parked at a barrier while others still issue work just
          // waits — the engine's dispatch_scan skips it the same way.
          break;
      }
    }
    if (any_shared || any_global) {
      space = any_shared ? MemorySpace::kShared : MemorySpace::kGlobal;
      addrs.clear();
      label = 0;
      for (std::int64_t i = 0; i < lanes; ++i) {
        std::size_t& c = cursor[static_cast<std::size_t>(i)];
        if (c >= lane_size(i)) continue;
        const LaneOp& op = lane_op(i, c);
        if ((op.kind == LaneOp::Kind::kRead ||
             op.kind == LaneOp::Kind::kWrite) &&
            op.space == space) {
          if (addrs.empty()) label = op.label;
          addrs.push_back(op.address);
          ++c;
        }
      }
      emit(space, label);
      continue;
    }
    HMM_ASSERT(any_compute,
               "plan fold: mixed round with neither memory nor compute");
    for (std::int64_t i = 0; i < lanes; ++i) {
      std::size_t& c = cursor[static_cast<std::size_t>(i)];
      if (c < lane_size(i) && lane_op(i, c).kind == LaneOp::Kind::kCompute) {
        ++c;
      }
    }
  }
}

/// True iff `next` prices identically to `prev` in every domain the
/// evaluator knows (plan.hpp, Dispatch::count): same space, label and
/// term shape, with every address shifted by one uniform delta that is a
/// multiple of the width.  Such a shift keeps each address's bank
/// residue a mod w and translates its group index a div w by the same
/// constant, so per-bank request counts (DMM conflict degree) and
/// distinct-group counts (UMM coalescing) are both exactly unchanged.
bool prices_identically(const Dispatch& prev, const Dispatch& next,
                        std::int64_t width) {
  if (prev.space != next.space || prev.label != next.label ||
      prev.term.kind != next.term.kind ||
      prev.term.lanes != next.term.lanes) {
    return false;
  }
  if (prev.term.kind == Term::Kind::kAffine) {
    return prev.term.stride == next.term.stride &&
           (next.term.base - prev.term.base) % width == 0;
  }
  const std::size_t k = prev.term.addresses.size();
  if (next.term.addresses.size() != k || k == 0) return false;
  const Address delta = next.term.addresses[0] - prev.term.addresses[0];
  if (delta % width != 0) return false;
  for (std::size_t i = 1; i < k; ++i) {
    if (next.term.addresses[i] - prev.term.addresses[i] != delta) {
      return false;
    }
  }
  return true;
}

/// Program-level form of the same proof, applicable when `prev` folded
/// fully lockstep (round r == op index r in every lane): `cur` prices
/// identically to `prev` iff every lane's op sequence matches field-for-
/// field and, per op index, the address delta is one constant across the
/// lanes and a multiple of the width.  Structural equality also makes
/// `cur` fold to the same dispatch composition without running the fold
/// at all — repeated warps cost one streaming comparison pass instead of
/// the whole cursor machinery.  `deltas` is scratch, reused across warps.
bool try_fast_merge(const std::vector<std::vector<LaneOp>>& prev,
                    const std::vector<std::vector<LaneOp>>& cur,
                    std::int64_t lanes, std::int64_t width,
                    std::vector<Address>& deltas) {
  const std::size_t len = prev[0].size();
  for (std::int64_t i = 0; i < lanes; ++i) {
    if (cur[static_cast<std::size_t>(i)].size() != len) return false;
  }
  deltas.resize(len);
  for (std::int64_t i = 0; i < lanes; ++i) {
    const std::vector<LaneOp>& p = prev[static_cast<std::size_t>(i)];
    const std::vector<LaneOp>& c = cur[static_cast<std::size_t>(i)];
    for (std::size_t j = 0; j < len; ++j) {
      const LaneOp& a = p[j];
      const LaneOp& b = c[j];
      if (a.kind != b.kind || a.space != b.space || a.scope != b.scope ||
          a.label != b.label) {
        return false;
      }
      if (a.kind != LaneOp::Kind::kRead && a.kind != LaneOp::Kind::kWrite) {
        continue;
      }
      const Address delta = b.address - a.address;
      if (i == 0) {
        if (delta % width != 0) return false;
        deltas[j] = delta;
      } else if (delta != deltas[j]) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

AccessPlan build_access_plan(std::string workload, const PlanShape& shape,
                             const LaneFn& lane_fn) {
  HMM_REQUIRE(shape.width >= 1 && shape.num_dmms >= 1 &&
                  shape.threads_per_dmm >= 1,
              "build_access_plan: invalid plan shape");
  AccessPlan plan;
  plan.workload = std::move(workload);
  plan.width = shape.width;
  plan.labels.push_back("kernel");  // label 0: ops before any set_label

  const std::int64_t warps =
      (shape.threads_per_dmm + shape.width - 1) / shape.width;
  std::vector<std::vector<LaneOp>> cur(static_cast<std::size_t>(shape.width));
  std::vector<std::vector<LaneOp>> prev(static_cast<std::size_t>(shape.width));
  std::vector<Dispatch> scratch;
  std::vector<Address> deltas;
  PlanCtx ctx;
  // Record one warp's lane programs into `cur`; returns its lane count.
  const auto record_warp = [&](std::int64_t dmm, std::int64_t warp) {
    const std::int64_t first = warp * shape.width;
    const std::int64_t count =
        std::min(shape.width, shape.threads_per_dmm - first);
    for (std::int64_t lane = 0; lane < count; ++lane) {
      PlanBuilder::init(ctx, shape, dmm, first + lane, &plan.labels);
      lane_fn(ctx);
      PlanBuilder::swap_ops(ctx, cur[static_cast<std::size_t>(lane)]);
    }
    return count;
  };
  // Under PlanShape::dmm_affine, DMM 1 is the witness for DMMs 2..d-1:
  // each warp's folded stream must price identically to the stored range
  // the same warp of DMM 0 merged into (or opened), `dmm0_ranges`.
  const bool affine = shape.dmm_affine && shape.num_dmms > 2;
  std::vector<std::pair<std::size_t, std::size_t>> dmm0_ranges;
  const auto dmm1_prices_as_dmm0 = [&] {
    for (std::int64_t warp = 0; warp < warps; ++warp) {
      scratch.clear();
      fold_warp(cur, record_warp(1, warp), scratch);
      const auto [first, n] = dmm0_ranges[static_cast<std::size_t>(warp)];
      if (scratch.size() != n) return false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!prices_identically(plan.dispatches[first + i], scratch[i],
                                shape.width)) {
          return false;
        }
      }
    }
    return true;
  };
  // Dispatch range of the most recently stored warp — the merge target
  // for subsequent warps (see Dispatch::count).  `prev` holds the lane
  // programs of the warp processed last (pricing identity is transitive:
  // uniform width-multiple shifts compose), `prev_lockstep` whether it
  // folded fully lockstep, which try_fast_merge needs.
  std::size_t last_first = 0, last_count = 0;
  std::int64_t prev_count = 0;
  bool prev_lockstep = false;
  for (std::int64_t dmm = 0; dmm < shape.num_dmms; ++dmm) {
    if (affine && dmm == 1 && dmm1_prices_as_dmm0()) {
      for (Dispatch& d : plan.dispatches) d.count *= shape.num_dmms;
      return plan;
    }
    for (std::int64_t warp = 0; warp < warps; ++warp) {
      const std::int64_t count = record_warp(dmm, warp);

      bool lockstep;
      if (prev_lockstep && count == prev_count &&
          try_fast_merge(prev, cur, count, shape.width, deltas)) {
        // The warp repeats the previous one up to a pricing-neutral
        // shift: bump the stored copy's multiplicity, skip the fold.
        for (std::size_t i = 0; i < last_count; ++i) {
          ++plan.dispatches[last_first + i].count;
        }
        lockstep = true;
      } else {
        scratch.clear();
        lockstep = fold_warp(cur, count, scratch);

        // Dispatch-level fallback merge: catches warps whose programs
        // diverge structurally (or non-lockstep folds) but whose
        // dispatch streams still match shift-for-shift.
        bool merged = last_count == scratch.size() && last_count > 0;
        for (std::size_t i = 0; merged && i < last_count; ++i) {
          merged = prices_identically(plan.dispatches[last_first + i],
                                      scratch[i], shape.width);
        }
        if (merged) {
          for (std::size_t i = 0; i < last_count; ++i) {
            ++plan.dispatches[last_first + i].count;
          }
        } else {
          last_first = plan.dispatches.size();
          last_count = scratch.size();
          for (Dispatch& d : scratch) plan.dispatches.push_back(std::move(d));
        }
      }
      std::swap(prev, cur);
      prev_count = count;
      prev_lockstep = lockstep;
      if (affine && dmm == 0) dmm0_ranges.emplace_back(last_first, last_count);
    }
  }
  return plan;
}

RunReport replay_plan_on_machine(const PlanShape& shape, const LaneFn& lane_fn,
                                 Cycle latency, EngineObserver* observer) {
  // Derive memory sizes from the recorded address ranges.
  std::int64_t shared_size = 0, global_size = 0;
  {
    std::vector<std::string> labels;
    PlanCtx ctx;
    for (std::int64_t dmm = 0; dmm < shape.num_dmms; ++dmm) {
      for (std::int64_t t = 0; t < shape.threads_per_dmm; ++t) {
        PlanBuilder::init(ctx, shape, dmm, t, &labels);
        lane_fn(ctx);
        for (const LaneOp& op : ctx.ops()) {
          if (op.kind != LaneOp::Kind::kRead &&
              op.kind != LaneOp::Kind::kWrite) {
            continue;
          }
          auto& size = op.space == MemorySpace::kShared ? shared_size
                                                        : global_size;
          size = std::max(size, op.address + 1);
        }
      }
    }
  }

  const bool has_global = global_size > 0;
  std::optional<MemorySpec> shared;
  if (shared_size > 0) {
    shared = MemorySpec{shared_size, has_global ? Cycle{1} : latency};
  } else if (!has_global) {
    shared = MemorySpec{1, latency};  // a machine needs one memory
  }
  MachineConfig cfg;
  cfg.width = shape.width;
  cfg.dmms.assign(static_cast<std::size_t>(shape.num_dmms),
                  DmmShape{shape.threads_per_dmm, shared, {}});
  if (has_global) cfg.global = MemorySpec{global_size, latency};

  Machine machine(std::move(cfg));
  machine.set_observer(observer);
  std::vector<std::string> labels;
  return machine.run([&](ThreadCtx& t) -> SimTask {
    PlanCtx ctx;
    PlanBuilder::init(ctx, shape, t.dmm_id(), t.local_thread_id(), &labels);
    lane_fn(ctx);
    for (const LaneOp& op : ctx.ops()) {
      switch (op.kind) {
        case LaneOp::Kind::kRead:
          co_await t.read(op.space, op.address);
          break;
        case LaneOp::Kind::kWrite:
          co_await t.write(op.space, op.address, 0);
          break;
        case LaneOp::Kind::kCompute:
          co_await t.compute();
          break;
        case LaneOp::Kind::kBarrier:
          co_await t.barrier(op.scope);
          break;
      }
    }
  });
}

}  // namespace hmm::analysis
