// paper_sweep — the Table I/II reproduction grid, run cold through
// run::run_point on a run::SweepRunner with fast-forward on.
//
// Grid: sum, scan, conv, sort, matmul and match on both the hmm and umm
// models across n, l and d (d only moves the hmm model), plus the
// 512-DMM Theorem 9 convolution and the shipped machines/*.json presets.
// Each pass builds fresh machines, so every pattern cache starts empty;
// the inputs come from a WorkloadCache filled during set-up.
#include <algorithm>
#include <memory>
#include <thread>

#include "common.hpp"
#include "machine/topology_spec.hpp"
#include "report/sweep_csv.hpp"
#include "run/sweep.hpp"

namespace bench {
namespace {

using hmm::run::Point;

/// Grid points run this many at a time (the sweep's --jobs).
std::int64_t sweep_jobs() {
  return std::max<std::int64_t>(
      1, std::min<std::int64_t>(4, std::thread::hardware_concurrency()));
}

struct Setup {
  std::vector<GridPoint> grid;
  std::unique_ptr<hmm::alg::WorkloadCache> workloads;
  double fill_ms = 0.0;
};

Point make_point(const std::string& alg, const std::string& model,
                 std::int64_t n, std::int64_t l, std::int64_t d,
                 std::uint64_t seed) {
  Point p;
  p.algorithm = alg;
  p.model = model;
  p.n = n;
  p.m = 32;
  p.p = 2048;
  p.w = 32;
  p.l = l;
  p.d = d;
  p.seed = seed;
  return p;
}

std::vector<GridPoint> build_grid(const Options& opt) {
  std::vector<GridPoint> grid;
  auto add = [&](Point p, const std::string& preset = "") {
    grid.push_back({p, point_label(p, preset)});
  };
  for (const char* alg : {"match", "sort", "conv", "scan", "matmul", "sum"}) {
    const std::string a = alg;
    const std::vector<std::int64_t> ns =
        a == "matmul" ? std::vector<std::int64_t>{64, 32}
        : (a == "sort" || a == "match") ? std::vector<std::int64_t>{8192, 2048}
                                        : std::vector<std::int64_t>{16384, 4096};
    for (const char* model : {"umm", "hmm"}) {
      const bool hmm_model = std::string(model) == "hmm";
      for (const std::int64_t n : ns) {
        for (const std::int64_t l : {400, 100}) {
          for (const std::int64_t d : hmm_model ? std::vector<std::int64_t>{16, 4}
                                                : std::vector<std::int64_t>{16}) {
            if (opt.reduced && (n != ns.back() || l != 400 || d != 16)) continue;
            add(make_point(a, model, n, l, d, opt.seed));
          }
        }
      }
    }
  }
  // Theorem 9: the convolution on 512 DMMs of 128 threads each.
  if (!opt.reduced) add(make_point("conv", "hmm", 65536, 400, 512, opt.seed));

  // Shipped presets; n is a multiple of each preset's DMM count.  Sort
  // runs once: it needs a power-of-two DMM count, and its frames grow
  // with the preset's thread count (about 200 MiB on gtx580).
  struct PresetRun {
    const char* preset;
    std::int64_t n;
    std::vector<const char*> algs;
  };
  const std::vector<PresetRun> presets = {
      {"gtx580", 8192, {"sum", "scan", "conv", "sort"}},
      {"nvlink-2gpu", 16384, {"sum", "scan", "conv", "match"}},
      {"modern-sm", 12288, {"sum", "scan", "conv"}},
  };
  for (const PresetRun& pr : presets) {
    if (opt.reduced && std::string(pr.preset) != "nvlink-2gpu") continue;
    auto spec = std::make_shared<const hmm::topo::TopologySpec>(
        hmm::topo::parse_topology_file(opt.machines_dir + "/" + pr.preset +
                                       ".json"));
    for (const char* alg : pr.algs) {
      if (opt.reduced && std::string(alg) != "sum") continue;
      Point p = make_point(alg, "hmm", std::string(alg) == "match" ? 8192 : pr.n,
                           spec->global_latency, spec->total_dmms(), opt.seed);
      p.p = spec->total_threads();
      p.w = spec->width;
      p.machine = spec;
      add(p, pr.preset);
    }
  }
  return grid;
}

/// Parse the presets, build the grid and generate every input.
Setup set_up(const Options& opt) {
  Setup s;
  s.grid = build_grid(opt);
  s.workloads = std::make_unique<hmm::alg::WorkloadCache>();
  const auto t0 = Clock::now();
  for (const GridPoint& g : s.grid) prefill_inputs(g.point, *s.workloads);
  s.fill_ms = ms_since(t0);
  return s;
}

struct Pass {
  double wall_ms = 0.0;
  double probe_ms = 0.0;  ///< probe_cores_ms just before the pass
  double sweep_ms = 0.0;
  std::vector<double> point_ms;
  std::vector<hmm::run::PointOutcome> outcomes;
};

/// One cold pass over the grid, rows rendered as `hmmsim --csv` would.
Pass run_pass(Context& ctx, const Setup& s, std::int64_t jobs) {
  Tracer& tr = ctx.tracer;
  const std::size_t n = s.grid.size();
  Pass pass;
  pass.point_ms.resize(n);
  pass.outcomes.resize(n);
  const Scope root(tr, "bench", "bench.pass");
  const auto t0 = Clock::now();
  {
    const Scope sweep(tr, "run", "run.sweep", root.id());
    hmm::run::SweepRunner(jobs).for_each(
        static_cast<std::int64_t>(n), [&](std::int64_t i) {
          const auto k = static_cast<std::size_t>(i);
          const Scope span(tr, "run", "run.run_point", sweep.id());
          const auto t = Clock::now();
          pass.outcomes[k] = hmm::run::run_point(s.grid[k].point, *s.workloads);
          pass.point_ms[k] = ms_since(t);
        });
    pass.sweep_ms = ms_since(t0);
  }
  {
    const Scope render(tr, "report", "report.render", root.id());
    std::string csv = hmm::sweep_csv_header(false, false) + "\n";
    for (std::size_t k = 0; k < n; ++k) {
      const Point& p = s.grid[k].point;
      const hmm::run::PointOutcome& o = pass.outcomes[k];
      csv += hmm::sweep_csv_row({p.algorithm, p.model, p.n, p.m, p.p, p.w,
                                 p.l, p.d},
                                {o.time, o.global_stages, o.ff_rounds}) +
             "\n";
    }
    if (csv.empty()) ctx.report.op(false, "empty sweep CSV");
  }
  pass.wall_ms = ms_since(t0);
  return pass;
}

}  // namespace

void paper_sweep(Context& ctx) {
  const Options& opt = ctx.opt;
  const std::int64_t jobs = sweep_jobs();

  std::vector<double> setup_ms, fill_ms;
  Setup s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const auto t0 = Clock::now();
    s = set_up(opt);
    setup_ms.push_back(ms_since(t0));
    fill_ms.push_back(s.fill_ms);
  }
  if (opt.print_digests) {
    count_pass(ctx, "paper_sweep", s.grid, *s.workloads, jobs);
    return;
  }

  // Measured passes.  A traced run alternates untraced and traced passes
  // so their difference is the tracing overhead.  Every core is probed
  // before each pass.
  std::vector<Pass> plain, traced;
  const std::vector<int> cpus = allowed_cpus();
  const auto start = Clock::now();
  for (int i = 0;; ++i) {
    const double probe_ms = probe_cores_ms(cpus);
    const bool trace_this = opt.trace && i % 2 == 1;
    ctx.tracer.set_enabled(trace_this);
    Pass pass = run_pass(ctx, s, jobs);
    pass.probe_ms = probe_ms;
    (trace_this ? traced : plain).push_back(std::move(pass));
    ctx.tracer.set_enabled(false);
    const bool enough = opt.trace ? traced.size() >= 2 : plain.size() >= 3;
    if (enough && ms_since(start) >= opt.seconds * 1000.0) break;
  }
  const double rss = self_peak_rss_mib();

  const CountPass first = count_pass(ctx, "paper_sweep", s.grid, *s.workloads, jobs);
  for (const auto* passes : {&plain, &traced}) {
    for (const Pass& p : *passes) {
      for (std::size_t k = 0; k < s.grid.size(); ++k) {
        check_outcome(ctx, "paper_sweep", s.grid[k].label, p.outcomes[k],
                      first.summaries[k]);
      }
    }
  }

  auto walls = [](const std::vector<Pass>& v) {
    std::vector<double> w;
    for (const Pass& p : v) w.push_back(p.wall_ms);
    return w;
  };
  const double wall_ms = median(walls(plain));
  const auto grid_size = static_cast<std::int64_t>(s.grid.size());
  if (!opt.trace) {
    std::vector<double> point_ms, probes;
    for (const Pass& p : plain) {
      for (const double ms : p.point_ms) {
        point_ms.push_back(to_ref(ms, p.probe_ms));
      }
      probes.push_back(p.probe_ms);
    }
    report_times(ctx, median(setup_ms), walls(plain), probes,
                 static_cast<double>(grid_size), point_ms);
    ctx.report.metric("peak_rss_mb", rss, "MiB", 1);
    ctx.report.note("grid", std::to_string(grid_size) + " points, " +
                                std::to_string(jobs) + " jobs");
    return;
  }

  const CountPass second = count_pass(ctx, "paper_sweep", s.grid, *s.workloads, jobs);
  const auto passes = static_cast<double>(traced.size());
  const double point_ms = ctx.tracer.total_ms("run.run_point") / passes;
  std::vector<double> idle;
  for (const Pass& p : traced) {
    const double busy = sum(p.point_ms);
    const double capacity = static_cast<double>(jobs) * p.sweep_ms;
    idle.push_back((capacity - busy) / capacity);
  }
  ctx.report.metric("run.point_ms", point_ms, "ms", grid_size);
  ctx.report.metric("run.sweep_idle_frac", median(idle), "ratio",
                    static_cast<std::int64_t>(traced.size()));
  ctx.report.metric("alg.workload_ms", median(fill_ms), "ms", kSetupReps);
  report_counts(ctx, first.counts, second.counts, point_ms);
  ctx.report.metric("report.render_ms",
                    ctx.tracer.total_ms("report.render") / passes, "ms",
                    static_cast<std::int64_t>(traced.size()));
  ctx.report.metric("trace.overhead_ms", median(walls(traced)) - wall_ms, "ms",
                    static_cast<std::int64_t>(traced.size()));
  report_self_times(ctx, passes);
  ctx.tracer.write_chrome_trace(opt.out_dir + "/paper_sweep-seed" +
                                std::to_string(opt.seed) + "-spans.json");
}

}  // namespace bench
