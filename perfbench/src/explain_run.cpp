// explain_run — single points run the way a user asks "why is this
// slow": sum and sort under the AccessChecker plus a MetricsRegistry
// (`hmmsim --check --metrics`), scan/conv/matmul with metrics only
// (`--metrics`), and the static plan analyzer on every registered plan
// (`--analyze`), each followed by the tables the CLI prints.  Observers
// turn replay off, so the engine simulates and dispatches every round.
#include <algorithm>
#include <memory>
#include <optional>

#include "alg/plans.hpp"
#include "alg/sort.hpp"
#include "alg/sum.hpp"
#include "analysis/checker.hpp"
#include "analysis/static/diff.hpp"
#include "analysis/static/evaluate.hpp"
#include "common.hpp"
#include "machine/machine.hpp"
#include "report/analysis_static.hpp"
#include "report/findings.hpp"
#include "report/metrics.hpp"
#include "telemetry/fanout.hpp"
#include "telemetry/metrics.hpp"

namespace bench {
namespace {

using hmm::run::Point;

enum class Kind { kChecked, kMetrics, kStatic, kDiff };

struct Op {
  Kind kind;
  GridPoint point;           ///< kChecked, kMetrics
  hmm::alg::PlanPoint plan;  ///< kStatic, kDiff
  std::string name;
};

struct Setup {
  std::vector<Op> ops;
  std::unique_ptr<hmm::alg::WorkloadCache> workloads;
  double fill_ms = 0.0;
};

Point make_point(const std::string& alg, const std::string& model,
                 std::int64_t n, std::uint64_t seed) {
  Point p;
  p.algorithm = alg;
  p.model = model;
  p.n = n;
  p.seed = seed;
  return p;
}

Setup set_up(const Options& opt) {
  Setup s;
  const std::uint64_t seed = opt.seed;
  auto point_op = [&](Kind kind, const std::string& alg,
                      const std::string& model, std::int64_t n) {
    const Point p = make_point(alg, model, n, seed);
    const std::string label = point_label(p, "");
    s.ops.push_back({kind, {p, label}, {},
                     (kind == Kind::kChecked ? "check " : "metrics ") + label});
  };
  const bool small = opt.reduced;
  point_op(Kind::kChecked, "sum", "hmm", 65536);
  point_op(Kind::kChecked, "sum", "umm", 65536);
  // Sizes keep every op under about 0.2 s, so no single op is the p99.
  if (!small) point_op(Kind::kChecked, "sort", "hmm", 8192);
  point_op(Kind::kChecked, "sort", "umm", 8192);
  point_op(Kind::kMetrics, "scan", "hmm", 65536);
  point_op(Kind::kMetrics, "scan", "umm", 65536);
  point_op(Kind::kMetrics, "conv", "hmm", 16384);
  point_op(Kind::kMetrics, "conv", "umm", 16384);
  point_op(Kind::kMetrics, "matmul", "hmm", 64);
  point_op(Kind::kMetrics, "matmul", "umm", 64);

  for (const auto& [alg, model] : hmm::alg::registered_plans()) {
    hmm::alg::PlanPoint pp;
    pp.algorithm = alg;
    pp.model = model;
    pp.n = model == "dmm" ? 4096 : 16384;
    pp.seed = seed;
    s.ops.push_back({Kind::kStatic, {}, pp, "analyze " + alg + "/" + model});
    if (small && alg != "sum") continue;
    // The differential check runs the real kernel under the checker.
    hmm::alg::PlanPoint dp = pp;
    dp.n = 4096;
    dp.m = 16;
    dp.p = 256;
    s.ops.push_back({Kind::kDiff, {}, dp, "diff " + alg + "/" + model});
  }

  s.workloads = std::make_unique<hmm::alg::WorkloadCache>();
  const auto t0 = Clock::now();
  for (const Op& op : s.ops) {
    if (op.kind == Kind::kChecked || op.kind == Kind::kMetrics) {
      prefill_inputs(op.point.point, *s.workloads);
    }
  }
  s.fill_ms = ms_since(t0);
  return s;
}

/// What one op measured and produced.
struct OpResult {
  double total_ms = 0.0;  ///< the whole op, tables included
  double run_ms = 0.0;    ///< the simulation call alone
  hmm::RunReport report;  ///< kChecked: the observed run
  std::vector<hmm::Word> output;
  hmm::run::PointOutcome outcome;  ///< kMetrics
  bool ok = true;
  std::string why;
};

/// `hmmsim --check --metrics` on one point: an explicitly built machine
/// with an AccessChecker and a MetricsRegistry behind an ObserverFanout.
OpResult run_checked(Context& ctx, const Op& op, hmm::alg::WorkloadCache& w,
                     std::int64_t parent) {
  Tracer& tr = ctx.tracer;
  const Point& o = op.point.point;
  const bool hmm_model = o.model == "hmm";
  const bool is_sum = o.algorithm == "sum";
  const std::int64_t pd = hmm_model ? o.p / o.d : 0;
  OpResult r;

  // Machine is not movable: build it in place, spanned by hand.
  const std::int64_t build_span = tr.begin("machine", "machine.build", parent);
  hmm::Machine machine = [&]() -> hmm::Machine {
    if (!hmm_model) return hmm::Machine::umm(o.w, o.l, o.p, o.n);
    if (is_sum) {
      return hmm::Machine::hmm(o.w, o.l, o.d, pd, std::max(pd, o.d), o.n + o.d);
    }
    return hmm::Machine::hmm(o.w, o.l, o.d, pd, o.n / o.d, o.n);
  }();
  machine.global_memory().load(0, *w.random_words(o.n, o.seed));
  machine.set_fast_forward(o.fast_forward);
  tr.end(build_span);
  std::unique_ptr<hmm::analysis::AccessChecker> checker;
  hmm::telemetry::MetricsRegistry registry;
  hmm::telemetry::ObserverFanout fanout;
  {
    const Scope s(tr, "analysis", "analysis.checker_attach", parent);
    checker = std::make_unique<hmm::analysis::AccessChecker>(machine);
    checker->declare_initialized(hmm::MemorySpace::kGlobal, 0, o.n);
  }
  {
    const Scope s(tr, "telemetry", "telemetry.fanout_attach", parent);
    fanout.add(checker.get());
    fanout.add(&registry);
    machine.set_observer(&fanout);
  }
  {
    const Scope s(tr, "alg", "alg.driver", parent);
    const auto t0 = Clock::now();
    if (is_sum) {
      const auto res = hmm_model ? hmm::alg::sum_hmm(machine, o.n)
                                 : hmm::alg::sum_mm(machine,
                                                    hmm::MemorySpace::kGlobal,
                                                    0, o.n);
      r.report = res.report;
      r.output = {res.sum};
    } else {
      auto res = hmm_model ? hmm::alg::sort_hmm(machine, o.n)
                           : hmm::alg::sort_mm(machine,
                                               hmm::MemorySpace::kGlobal, o.n);
      r.report = res.report;
      r.output = std::move(res.sorted);
    }
    r.run_ms = ms_since(t0);
  }
  machine.set_observer(nullptr);
  hmm::MetricsSnapshot snap;
  {
    const Scope s(tr, "telemetry", "telemetry.snapshot", parent);
    snap = registry.snapshot();
  }
  std::size_t rendered = 0;
  {
    const Scope s(tr, "report", "report.render", parent);
    rendered += hmm::findings_table(*checker).to_ascii().size();
    rendered += hmm::conflict_histogram_table(*checker).to_ascii().size();
    rendered += hmm::metrics_summary_table(snap).to_ascii().size();
    rendered += hmm::metrics_histogram_table(snap).to_ascii().size();
  }
  const std::int64_t bound = is_sum ? 1 : 2;
  const bool certified = checker->clean() &&
                         checker->certify_conflict_free(bound) &&
                         checker->certify_coalesced(bound);
  r.ok = certified && rendered > 0 && snap.makespan == r.report.makespan;
  if (!r.ok) r.why = op.name + ": checker findings or metrics mismatch";
  return r;
}

/// `hmmsim --metrics` on one point: run_point with a MetricsRegistry.
OpResult run_metrics(Context& ctx, const Op& op, hmm::alg::WorkloadCache& w,
                     std::int64_t parent) {
  Tracer& tr = ctx.tracer;
  OpResult r;
  hmm::telemetry::MetricsRegistry registry;
  {
    const Scope s(tr, "run", "run.run_point", parent);
    const auto t0 = Clock::now();
    r.outcome = hmm::run::run_point(op.point.point, w, &registry);
    r.run_ms = ms_since(t0);
  }
  hmm::MetricsSnapshot snap;
  {
    const Scope s(tr, "telemetry", "telemetry.snapshot", parent);
    snap = registry.snapshot();
  }
  std::size_t rendered = 0;
  {
    const Scope s(tr, "report", "report.render", parent);
    rendered += hmm::metrics_summary_table(snap).to_ascii().size();
    rendered += hmm::metrics_histogram_table(snap).to_ascii().size();
    rendered += hmm::json::to_string(hmm::metrics_json(snap)).size();
  }
  r.ok = rendered > 0 && snap.runs == 1 && snap.makespan == r.outcome.time;
  if (!r.ok) r.why = op.name + ": metrics snapshot disagrees with the run";
  return r;
}

/// `hmmsim --analyze=plan`: build the plan twin, price it, print it.
OpResult run_static(Context& ctx, const Op& op, std::int64_t parent) {
  Tracer& tr = ctx.tracer;
  OpResult r;
  const auto t0 = Clock::now();
  std::optional<hmm::analysis::AccessPlan> plan;
  {
    const Scope s(tr, "alg", "alg.build_access_plan", parent);
    plan = hmm::alg::build_access_plan(op.plan);
  }
  if (!plan.has_value()) {
    r.ok = false;
    r.why = op.name + ": no plan registered";
    return r;
  }
  hmm::analysis::StaticReport report;
  bool holds = false;
  {
    const Scope s(tr, "analysis", "analysis.evaluate", parent);
    report = hmm::analysis::evaluate(*plan);
    holds = hmm::analysis::satisfies_claims(*plan, report);
  }
  r.run_ms = ms_since(t0);
  {
    const Scope s(tr, "report", "report.render", parent);
    r.ok = !hmm::certificate_table(report).to_ascii().empty();
  }
  // The naive transpose is the registered counter-example: its claim
  // must be refuted; every other claim must hold.
  const bool expect_holds = op.plan.algorithm != "transpose-naive";
  if (holds != expect_holds) {
    r.ok = false;
    r.why = op.name + ": static verdict " + (holds ? "proven" : "refuted") +
            ", expected the opposite";
  }
  return r;
}

/// `hmmsim --analyze=diff`: the static verdict against the dynamic
/// checker on the real kernel.
OpResult run_diff(Context& ctx, const Op& op, std::int64_t parent) {
  Tracer& tr = ctx.tracer;
  OpResult r;
  std::optional<hmm::analysis::PlanDiff> diff;
  {
    const Scope s(tr, "analysis", "analysis.diff_point", parent);
    const auto t0 = Clock::now();
    diff = hmm::analysis::diff_point(op.plan);
    r.run_ms = ms_since(t0);
  }
  {
    const Scope s(tr, "report", "report.render", parent);
    r.ok = !hmm::static_dynamic_table(*diff).to_ascii().empty();
  }
  if (!diff->match) {
    r.ok = false;
    r.why = op.name + ": static/dynamic mismatch: " + diff->mismatch;
  }
  return r;
}

OpResult run_op(Context& ctx, const Op& op, hmm::alg::WorkloadCache& w,
                std::int64_t parent) {
  const auto t0 = Clock::now();
  const Scope span(ctx.tracer, "bench", "bench.op " + op.name, parent);
  OpResult r;
  switch (op.kind) {
    case Kind::kChecked: r = run_checked(ctx, op, w, span.id()); break;
    case Kind::kMetrics: r = run_metrics(ctx, op, w, span.id()); break;
    case Kind::kStatic: r = run_static(ctx, op, span.id()); break;
    case Kind::kDiff: r = run_diff(ctx, op, span.id()); break;
  }
  r.total_ms = ms_since(t0);
  return r;
}

/// Moves the calling thread round the CPUs it may use, one op at a time,
/// so every pass samples every core: the cores of a shared host run at
/// different, drifting speeds, and a serial workload left on one core
/// would measure that core.  Restores the original mask on destruction.
class CpuRotation {
 public:
  CpuRotation() : cpus_(allowed_cpus()) {}
  ~CpuRotation() { set_cpus(0, cpus_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(std::size_t k) const {
    if (!cpus_.empty()) set_cpus(0, {cpus_[k % cpus_.size()]});
  }

 private:
  std::vector<int> cpus_;
};

struct Pass {
  double wall_ms = 0.0;
  double probe_ms = 0.0;  ///< probe_cores_ms just before the pass
  std::vector<OpResult> results;
};

Pass run_pass(Context& ctx, const Setup& s, std::size_t index,
              const CpuRotation& cpus) {
  Pass pass;
  const Scope root(ctx.tracer, "bench", "bench.pass");
  const auto t0 = Clock::now();
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    cpus.pin(index + k);
    pass.results.push_back(run_op(ctx, s.ops[k], *s.workloads, root.id()));
  }
  pass.wall_ms = ms_since(t0);
  return pass;
}

/// Check one pass's outcomes against the host references and digests.
void check_pass(Context& ctx, const Setup& s, const Pass& pass,
                const std::vector<std::string>& summaries) {
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    const Op& op = s.ops[k];
    const OpResult& r = pass.results[k];
    if (op.kind == Kind::kMetrics) {
      check_outcome(ctx, "explain_run", op.point.label, r.outcome,
                    summaries[k]);
    }
    ctx.report.op(r.ok, r.why);
  }
}

}  // namespace

void explain_run(Context& ctx) {
  const Options& opt = ctx.opt;
  std::vector<double> setup_ms, fill_ms;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    s = set_up(opt);
    setup_ms.push_back(ms_since(t0));
    fill_ms.push_back(s.fill_ms);
  }

  // Count pass: the observed points, checked ones through the same
  // explicit-machine path, metric ones through the span drivers with a
  // registry attached.  Run twice; the counts must repeat exactly.
  std::vector<GridPoint> metric_points;
  for (const Op& op : s.ops) {
    if (op.kind == Kind::kMetrics) metric_points.push_back(op.point);
  }
  auto counts = [&](std::vector<std::string>* summaries) {
    CountPass cp = count_pass(ctx, "explain_run", metric_points,
                              *s.workloads, 1, /*metrics=*/true);
    std::size_t next_metric = 0;
    for (const Op& op : s.ops) {
      std::string summary;
      if (op.kind == Kind::kChecked) {
        const OpResult r = run_checked(ctx, op, *s.workloads, -1);
        const HostReference ref = host_reference(op.point.point, *s.workloads);
        check_executed(ctx, "explain_run", op.point.label, r.report,
                       r.output == ref.full);
        cp.counts.add(r.report);
      } else if (op.kind == Kind::kMetrics) {
        summary = cp.summaries[next_metric++];
      }
      if (summaries != nullptr) summaries->push_back(summary);
    }
    return cp.counts;
  };
  if (opt.print_digests) {
    counts(nullptr);
    return;
  }

  // Every core is probed before each pass.
  std::vector<Pass> plain, traced;
  {
    const std::vector<int> all = allowed_cpus();
    const CpuRotation cpus;
    const auto start = Clock::now();
    for (std::size_t i = 0;; ++i) {
      const double probe_ms = probe_cores_ms(all);
      const bool trace_this = opt.trace && i % 2 == 1;
      ctx.tracer.set_enabled(trace_this);
      Pass pass = run_pass(ctx, s, i, cpus);
      pass.probe_ms = probe_ms;
      (trace_this ? traced : plain).push_back(std::move(pass));
      ctx.tracer.set_enabled(false);
      const bool enough = opt.trace ? traced.size() >= 2 : plain.size() >= 3;
      if (enough && ms_since(start) >= opt.seconds * 1000.0) break;
    }
  }
  const double rss = self_peak_rss_mib();

  std::vector<std::string> summaries;
  const Counts first = counts(&summaries);
  for (const auto* passes : {&plain, &traced}) {
    for (const Pass& p : *passes) check_pass(ctx, s, p, summaries);
  }

  std::vector<double> walls, probes, op_ms;
  for (const Pass& p : plain) {
    walls.push_back(p.wall_ms);
    probes.push_back(p.probe_ms);
    for (const OpResult& r : p.results) {
      op_ms.push_back(to_ref(r.total_ms, p.probe_ms));
    }
  }
  const double wall_ms = median(walls);
  const auto n_ops = static_cast<double>(s.ops.size());
  if (!opt.trace) {
    report_times(ctx, median(setup_ms), walls, probes, n_ops, op_ms);
    ctx.report.metric("peak_rss_mb", rss, "MiB", 1);
    ctx.report.note("ops", std::to_string(s.ops.size()) + " per pass");
    return;
  }

  const Counts second = counts(nullptr);

  // Observer cost: each observed op's simulation time over the same
  // point run bare through run_point (median over the untraced passes
  // and over three bare runs).
  auto op_median = [&](std::size_t k) {
    std::vector<double> v;
    for (const Pass& p : plain) v.push_back(p.results[k].run_ms);
    return median(v);
  };
  double checked = 0, checked_bare = 0, metrics = 0, metrics_bare = 0;
  const CpuRotation cpus;
  for (std::size_t k = 0; k < s.ops.size(); ++k) {
    const Op& op = s.ops[k];
    if (op.kind != Kind::kChecked && op.kind != Kind::kMetrics) continue;
    std::vector<double> bare;
    for (std::size_t rep = 0; rep < 3; ++rep) {
      cpus.pin(k + rep);
      const auto t0 = Clock::now();
      hmm::run::run_point(op.point.point, *s.workloads);
      bare.push_back(ms_since(t0));
    }
    (op.kind == Kind::kChecked ? checked : metrics) += op_median(k);
    (op.kind == Kind::kChecked ? checked_bare : metrics_bare) += median(bare);
  }

  const auto passes = static_cast<double>(traced.size());
  const auto n_traced = static_cast<std::int64_t>(traced.size());
  const double sim_ms = (ctx.tracer.total_ms("run.run_point") +
                         ctx.tracer.total_ms("alg.driver")) /
                        passes;
  ctx.report.metric("run.point_ms", ctx.tracer.total_ms("run.run_point") / passes,
                    "ms", n_traced);
  ctx.report.metric("alg.workload_ms", median(fill_ms), "ms", kSetupReps);
  report_counts(ctx, first, second, sim_ms);
  ctx.report.metric("analysis.checker_ratio", checked / checked_bare, "ratio", 3);
  ctx.report.metric("telemetry.metrics_ratio", metrics / metrics_bare, "ratio", 3);
  ctx.report.metric("analysis.static_ms",
                    (ctx.tracer.total_ms("alg.build_access_plan") +
                     ctx.tracer.total_ms("analysis.evaluate")) /
                        passes,
                    "ms", n_traced);
  ctx.report.metric("report.render_ms",
                    ctx.tracer.total_ms("report.render") / passes, "ms",
                    n_traced);
  std::vector<double> traced_walls;
  for (const Pass& p : traced) traced_walls.push_back(p.wall_ms);
  ctx.report.metric("trace.overhead_ms", median(traced_walls) - wall_ms, "ms",
                    n_traced);
  report_self_times(ctx, passes);
  ctx.tracer.write_chrome_trace(opt.out_dir + "/explain_run-seed" +
                                std::to_string(opt.seed) + "-spans.json");
}

}  // namespace bench
