#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <functional>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "alg/convolution.hpp"
#include "alg/matmul.hpp"
#include "alg/prefix_sums.hpp"
#include "alg/sort.hpp"
#include "alg/string_match.hpp"
#include "alg/sum.hpp"
#include "core/error.hpp"
#include "machine/machine.hpp"
#include "run/sweep.hpp"
#include "telemetry/metrics.hpp"

namespace bench {

using hmm::Word;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double ms_since(Clock::time_point t0) { return ms_between(t0, Clock::now()); }

// ---- statistics -----------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void set_cpus(int tid, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(tid, sizeof(set), &set);
}

/// Keeps the probe's results observable, so none of its work is dropped.
static std::atomic<std::size_t> probe_sink{0};

double core_probe_ms() {
  std::vector<std::uint32_t> v(std::size_t{1} << 16);
  const auto t0 = Clock::now();
  std::uint32_t x = 12345;
  for (std::uint32_t& e : v) e = x = x * 1664525u + 1013904223u;
  std::sort(v.begin(), v.end());
  std::unordered_map<std::uint32_t, std::uint32_t> buckets;
  for (std::size_t i = 0; i < v.size(); i += 4) {
    buckets[v[i] >> 7] += static_cast<std::uint32_t>(i);
  }
  const double ms = ms_since(t0);
  probe_sink.store(buckets.size() + v[v.size() / 2], std::memory_order_relaxed);
  return ms;
}

double probe_cores_ms(const std::vector<int>& cpus) {
  if (cpus.empty()) return core_probe_ms();
  const std::vector<int> mask = allowed_cpus();
  std::vector<double> per_cpu;
  for (const int cpu : cpus) {
    set_cpus(0, {cpu});
    per_cpu.push_back(core_probe_ms());
  }
  set_cpus(0, mask);
  return median(per_cpu);
}

double self_peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_peak_rss_mib(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // "VmHWM:  1234 kB"
    }
  }
  return 0.0;
}

// ---- results --------------------------------------------------------------

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (errors_.size() < 20) errors_.push_back(what);
}

void Report::metric(std::string name, double value, std::string unit,
                    std::int64_t samples) {
  metrics_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::extra(std::string name, double value, std::string unit,
                   std::int64_t samples) {
  extras_.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::note(std::string key, std::string value) {
  notes_.emplace_back(std::move(key), std::move(value));
}

// ---- tracing ----------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::begin(const char* layer, std::string name,
                           std::int64_t parent, std::int64_t req) {
  if (!enabled_) return -1;
  const auto now = Clock::now();
  const auto thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({layer, std::move(name), now, now, parent, req, thread});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::int64_t Tracer::add(const char* layer, std::string name,
                         Clock::time_point start, Clock::time_point end,
                         std::int64_t parent, std::int64_t req) {
  if (!enabled_) return -1;
  const auto thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({layer, std::move(name), start, end, parent, req, thread});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may run in parallel (sweep workers): subtract the union
    // of their intervals, clipped to the parent.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (std::size_t c : children[i]) {
      iv.emplace_back(std::max(spans_[c].start, s.start),
                      std::min(spans_[c].end, s.end));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point cur_start{}, cur_end{};
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (!open || a > cur_end) {
        if (open) covered += ms_between(cur_start, cur_end);
        cur_start = a;
        cur_end = b;
        open = true;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    if (open) covered += ms_between(cur_start, cur_end);
    self[s.layer] += ms_between(s.start, s.end) - covered;
  }
  return self;
}

double Tracer::total_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += ms_between(s.start, s.end);
  }
  return total;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  std::map<std::uint64_t, int> tids;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int tid =
        tids.emplace(s.thread, static_cast<int>(tids.size())).first->second;
    const double ts =
        std::chrono::duration<double, std::micro>(s.start - origin_).count();
    const double dur =
        std::chrono::duration<double, std::micro>(s.end - s.start).count();
    out << (i == 0 ? "" : ",\n") << "{\"name\":\""
        << hmm::json::escape(s.name) << "\",\"cat\":\"" << s.layer
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"ts\":" << ts
        << ",\"dur\":" << dur << ",\"args\":{\"span\":" << i
        << ",\"parent\":" << s.parent << ",\"req\":" << s.req << "}}";
  }
  out << "\n]}\n";
}

// ---- points and host references ---------------------------------------------

std::string point_label(const hmm::run::Point& p, const std::string& preset) {
  std::string s = p.algorithm + "/" + p.model + "/n" + std::to_string(p.n) +
                  "/m" + std::to_string(p.m) + "/p" + std::to_string(p.p) +
                  "/w" + std::to_string(p.w) + "/l" + std::to_string(p.l) +
                  "/d" + std::to_string(p.d);
  if (!preset.empty()) s += "@" + preset;
  return s;
}

void prefill_inputs(const hmm::run::Point& p,
                    hmm::alg::WorkloadCache& workloads) {
  if (p.algorithm == "conv") {
    workloads.random_words(p.m, p.seed);
    workloads.random_words(hmm::alg::conv_signal_length(p.m, p.n), p.seed + 1);
  } else if (p.algorithm == "matmul") {
    workloads.random_words(p.n * p.n, p.seed);
    workloads.random_words(p.n * p.n, p.seed + 1);
  } else if (p.algorithm == "match") {
    workloads.random_words(p.m, p.seed, 0, 3);
    workloads.random_words(p.n, p.seed + 1, 0, 3);
  } else {
    workloads.random_words(p.n, p.seed);
  }
}

HostReference host_reference(const hmm::run::Point& p,
                             hmm::alg::WorkloadCache& workloads) {
  HostReference ref;
  if (p.algorithm == "sum") {
    const auto xs = workloads.random_words(p.n, p.seed);
    const Word s = std::accumulate(xs->begin(), xs->end(), Word{0});
    ref.full = {s};
    ref.summary = "sum = " + std::to_string(s);
  } else if (p.algorithm == "scan") {
    const auto xs = workloads.random_words(p.n, p.seed);
    ref.full.resize(xs->size());
    std::partial_sum(xs->begin(), xs->end(), ref.full.begin());
    ref.summary = "last prefix = " + std::to_string(ref.full.back());
  } else if (p.algorithm == "conv") {
    const auto a = workloads.random_words(p.m, p.seed);
    const auto x = workloads.random_words(
        hmm::alg::conv_signal_length(p.m, p.n), p.seed + 1);
    ref.full.assign(static_cast<std::size_t>(p.n), 0);
    for (std::int64_t i = 0; i < p.n; ++i) {
      Word acc = 0;
      for (std::int64_t j = 0; j < p.m; ++j) {
        acc += (*a)[static_cast<std::size_t>(j)] *
               (*x)[static_cast<std::size_t>(i + j)];
      }
      ref.full[static_cast<std::size_t>(i)] = acc;
    }
    ref.summary = "z[0] = " + std::to_string(ref.full.front());
  } else if (p.algorithm == "sort") {
    const auto xs = workloads.random_words(p.n, p.seed);
    ref.full = *xs;
    std::sort(ref.full.begin(), ref.full.end());
    ref.summary = "min = " + std::to_string(ref.full.front()) +
                  ", max = " + std::to_string(ref.full.back());
  } else if (p.algorithm == "matmul") {
    const auto a = workloads.random_words(p.n * p.n, p.seed);
    const auto b = workloads.random_words(p.n * p.n, p.seed + 1);
    const auto n = static_cast<std::size_t>(p.n);
    ref.full.assign(n * n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t k = 0; k < n; ++k) {
        const Word aik = (*a)[i * n + k];
        for (std::size_t j = 0; j < n; ++j) {
          ref.full[i * n + j] += aik * (*b)[k * n + j];
        }
      }
    }
    ref.summary = "C[0][0] = " + std::to_string(ref.full.front());
  } else if (p.algorithm == "match") {
    // Semi-global edit distance: D[0][j] = 0, D[i][0] = i; the output is
    // the last row D[m][1..n].
    const auto pat = workloads.random_words(p.m, p.seed, 0, 3);
    const auto txt = workloads.random_words(p.n, p.seed + 1, 0, 3);
    const auto n = static_cast<std::size_t>(p.n);
    std::vector<Word> prev(n + 1, 0), cur(n + 1, 0);
    for (std::int64_t i = 1; i <= p.m; ++i) {
      cur[0] = i;
      const Word pc = (*pat)[static_cast<std::size_t>(i - 1)];
      for (std::size_t j = 1; j <= n; ++j) {
        cur[j] = std::min({prev[j - 1] + ((*txt)[j - 1] != pc ? 1 : 0),
                           prev[j] + 1, cur[j - 1] + 1});
      }
      std::swap(prev, cur);
    }
    ref.full.assign(prev.begin() + 1, prev.end());
    ref.summary = "min distance = " +
                  std::to_string(*std::min_element(ref.full.begin(),
                                                   ref.full.end()));
  } else {
    throw hmm::PreconditionError("no host reference for " + p.algorithm);
  }
  return ref;
}

// ---- count pass -------------------------------------------------------------

namespace {


Digest digest_of(const hmm::RunReport& r) {
  Digest d;
  d.makespan = r.makespan;
  d.global_stages = r.global_pipeline.stages;
  for (const auto& s : r.shared_pipelines) d.shared_stages += s.stages;
  d.link_stages = r.link.stages;
  return d;
}

std::string to_string(const Digest& d) {
  return "[" + std::to_string(d.makespan) + "," +
         std::to_string(d.global_stages) + "," +
         std::to_string(d.shared_stages) + "," +
         std::to_string(d.link_stages) + "]";
}

/// One point executed through the alg span drivers directly, the way
/// run_point dispatches it, keeping the full RunReport and output.
struct Executed {
  hmm::RunReport report;
  std::vector<Word> output;
};

Executed execute_point(const hmm::run::Point& o,
                       hmm::alg::WorkloadCache& workloads,
                       hmm::EngineObserver* observer) {
  namespace alg = hmm::alg;
  const bool hmm_model = o.model == "hmm";
  const bool overlaid = o.machine != nullptr && !o.machine->is_trivial();
  std::optional<hmm::MachineOverlay> overlay;
  if (overlaid) overlay.emplace(o.machine->overlay());
  const hmm::MachineOverlayScope overlay_scope(overlay ? &*overlay : nullptr);
  const std::int64_t pd = overlaid ? o.machine->max_threads_per_dmm()
                                   : (hmm_model ? o.p / o.d : 0);
  HMM_REQUIRE(!hmm_model || overlaid || (o.p % o.d == 0 && pd >= 1),
              "p must be a positive multiple of d");
  const bool ff = o.fast_forward;

  Executed e;
  auto keep = [&](const auto& r, std::vector<Word> out) {
    e.report = r.report;
    e.output = std::move(out);
  };
  if (o.algorithm == "sum") {
    const auto xs = workloads.random_words(o.n, o.seed);
    const auto r = hmm_model ? alg::sum_hmm(*xs, o.d, pd, o.w, o.l, observer, ff)
                             : alg::sum_umm(*xs, o.p, o.w, o.l, observer, ff);
    keep(r, {r.sum});
  } else if (o.algorithm == "scan") {
    const auto xs = workloads.random_words(o.n, o.seed);
    const auto r =
        hmm_model ? alg::prefix_sums_hmm(*xs, o.d, pd, o.w, o.l, observer, ff)
                  : alg::prefix_sums_umm(*xs, o.p, o.w, o.l, observer, ff);
    keep(r, r.prefix);
  } else if (o.algorithm == "conv") {
    const auto a = workloads.random_words(o.m, o.seed);
    const auto x =
        workloads.random_words(alg::conv_signal_length(o.m, o.n), o.seed + 1);
    const auto r =
        hmm_model
            ? alg::convolution_hmm(*a, *x, o.d, pd, o.w, o.l, observer, ff)
            : alg::convolution_umm(*a, *x, o.p, o.w, o.l, observer, ff);
    keep(r, r.z);
  } else if (o.algorithm == "sort") {
    const auto xs = workloads.random_words(o.n, o.seed);
    const auto r = hmm_model
                       ? alg::sort_hmm(*xs, o.d, pd, o.w, o.l, observer, ff)
                       : alg::sort_umm(*xs, o.p, o.w, o.l, observer, ff);
    keep(r, r.sorted);
  } else if (o.algorithm == "matmul") {
    const auto a = workloads.random_words(o.n * o.n, o.seed);
    const auto b = workloads.random_words(o.n * o.n, o.seed + 1);
    const auto r =
        hmm_model ? alg::matmul_hmm_tiled(*a, *b, o.n, o.d, pd, o.w, o.l,
                                          std::min<std::int64_t>(o.n, o.w),
                                          observer, ff)
                  : alg::matmul_umm(*a, *b, o.n, o.p, o.w, o.l, observer, ff);
    keep(r, r.c);
  } else if (o.algorithm == "match") {
    const auto pat = workloads.random_words(o.m, o.seed, 0, 3);
    const auto txt = workloads.random_words(o.n, o.seed + 1, 0, 3);
    const auto r =
        hmm_model
            ? alg::string_match_hmm(*pat, *txt, o.d, pd, o.w, o.l, observer, ff)
            : alg::string_match_umm(*pat, *txt, o.p, o.w, o.l, observer, ff);
    keep(r, r.distance);
  } else {
    throw hmm::PreconditionError("unknown algorithm: " + o.algorithm);
  }
  return e;
}

}  // namespace

void Counts::add(const hmm::RunReport& r) {
  ++points;
  for (const auto& x : r.exec) rounds += x.issue_slots;
  cache_hits += r.fast_forward.cache_hits;
  cache_misses += r.fast_forward.cache_misses;
  replayed_rounds += r.fast_forward.replayed_rounds;
  bailouts += r.fast_forward.bailouts;
  const Digest d = digest_of(r);
  global_stages += d.global_stages;
  shared_stages += d.shared_stages;
  link_stages += d.link_stages;
}

void DigestBook::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw hmm::PreconditionError("cannot read digests file " + path);
  std::stringstream text;
  text << in.rdbuf();
  const hmm::json::Value doc = hmm::json::parse(text.str());
  for (const auto& [workload, points] : doc.get("workloads").as_object()) {
    for (const auto& [label, v] : points.as_object()) {
      const auto& a = v.as_array();
      HMM_REQUIRE(a.size() == 4, "digest " + label + " needs 4 numbers");
      book_[workload][label] = {a[0].as_int64(), a[1].as_int64(),
                                a[2].as_int64(), a[3].as_int64()};
    }
  }
}

const Digest* DigestBook::find(const std::string& workload,
                               const std::string& label) const {
  const auto w = book_.find(workload);
  if (w == book_.end()) return nullptr;
  const auto it = w->second.find(label);
  return it == w->second.end() ? nullptr : &it->second;
}

bool DigestBook::check(const std::string& workload, const std::string& label,
                       const Digest& d, std::string* why) const {
  const Digest* recorded = find(workload, label);
  if (recorded == nullptr) {
    *why = workload + " " + label + ": no recorded digest";
    return false;
  }
  if (*recorded == d) return true;
  *why = workload + " " + label + ": digest " + to_string(d) +
         " != recorded " + to_string(*recorded);
  return false;
}

namespace {

// Filled by check_executed, which only the main thread calls.
std::map<std::string, std::map<std::string, Digest>> g_recorded;

}  // namespace

std::string recorded_digests_json() {
  std::string s = "{\n  \"workloads\": {";
  bool first_w = true;
  for (const auto& [workload, points] : g_recorded) {
    s += std::string(first_w ? "" : ",") + "\n    \"" + workload + "\": {";
    bool first_p = true;
    for (const auto& [label, d] : points) {
      s += std::string(first_p ? "" : ",") + "\n      \"" + label +
           "\": " + to_string(d);
      first_p = false;
    }
    s += "\n    }";
    first_w = false;
  }
  return s + "\n  }\n}\n";
}

void check_executed(Context& ctx, const std::string& workload,
                    const std::string& label, const hmm::RunReport& report,
                    bool output_ok) {
  const Digest d = digest_of(report);
  std::string why;
  bool ok = output_ok;
  if (!ok) why = workload + " " + label + ": output differs from host reference";
  if (ctx.opt.print_digests) {
    g_recorded[workload][label] = d;
  } else if (ok) {
    ok = ctx.digests.check(workload, label, d, &why);
  }
  ctx.report.op(ok, why);
}

void check_outcome(Context& ctx, const std::string& workload,
                   const std::string& label,
                   const hmm::run::PointOutcome& outcome,
                   const std::string& summary) {
  if (ctx.opt.print_digests) return;  // nothing recorded yet
  const Digest* d = ctx.digests.find(workload, label);
  const bool ok = d != nullptr && outcome.time == d->makespan &&
                  outcome.global_stages == d->global_stages &&
                  outcome.summary == summary;
  ctx.report.op(ok, workload + " " + label + ": run_point gave time " +
                        std::to_string(outcome.time) + ", \"" +
                        outcome.summary + "\"; expected \"" + summary + "\"" +
                        (d == nullptr ? " (no recorded digest)" : ""));
}

CountPass count_pass(Context& ctx, const std::string& workload,
                     const std::vector<GridPoint>& points,
                     hmm::alg::WorkloadCache& workloads, std::int64_t jobs,
                     bool metrics) {
  const std::size_t n = points.size();
  std::vector<hmm::RunReport> reports(n);
  std::vector<char> output_ok(n, 0);
  CountPass pass;
  pass.summaries.resize(n);
  hmm::run::SweepRunner(jobs).for_each(
      static_cast<std::int64_t>(n), [&](std::int64_t i) {
        const auto k = static_cast<std::size_t>(i);
        hmm::telemetry::MetricsRegistry registry;
        Executed e = execute_point(points[k].point, workloads,
                                   metrics ? &registry : nullptr);
        const HostReference ref = host_reference(points[k].point, workloads);
        output_ok[k] = e.output == ref.full ? 1 : 0;
        pass.summaries[k] = ref.summary;
        reports[k] = std::move(e.report);
      });
  for (std::size_t k = 0; k < n; ++k) {
    pass.counts.add(reports[k]);
    check_executed(ctx, workload, points[k].label, reports[k],
                   output_ok[k] != 0);
  }
  return pass;
}

void report_counts(Context& ctx, const Counts& c, const Counts& again,
                   double point_ms) {
  ctx.report.op(c == again, "count pass: two passes gave different counts");
  const auto rounds = static_cast<double>(c.rounds);
  const auto lookups = static_cast<double>(c.cache_hits + c.cache_misses);
  const auto n = c.points;
  ctx.report.metric("machine.rounds", rounds, "count", n);
  ctx.report.metric("machine.ns_per_round",
                    rounds > 0 ? point_ms * 1e6 / rounds : 0.0, "ns", n);
  ctx.report.metric("machine.ff.replay_share",
                    rounds > 0 ? static_cast<double>(c.replayed_rounds) / rounds
                               : 0.0,
                    "ratio", n);
  ctx.report.metric("machine.ff.bailouts", static_cast<double>(c.bailouts),
                    "count", n);
  ctx.report.metric("mm.cache_hit_ratio",
                    lookups > 0 ? static_cast<double>(c.cache_hits) / lookups
                                : 0.0,
                    "ratio", n);
  ctx.report.metric("mm.global_stages", static_cast<double>(c.global_stages),
                    "count", n);
  ctx.report.metric("mm.shared_stages", static_cast<double>(c.shared_stages),
                    "count", n);
  ctx.report.metric("machine.link_stages", static_cast<double>(c.link_stages),
                    "count", n);
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"setup_s", "s"},       {"wall_s", "s"},  {"ops_per_s", "1/s"},
      {"p50_ms", "ms"},       {"p99_ms", "ms"}, {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"run.point_ms", "ms"},
      {"run.sweep_idle_frac", "ratio"},
      {"alg.workload_ms", "ms"},
      {"machine.rounds", "count"},
      {"machine.ns_per_round", "ns"},
      {"machine.ff.replay_share", "ratio"},
      {"machine.ff.bailouts", "count"},
      {"mm.cache_hit_ratio", "ratio"},
      {"mm.global_stages", "count"},
      {"mm.shared_stages", "count"},
      {"machine.link_stages", "count"},
      {"analysis.checker_ratio", "ratio"},
      {"telemetry.metrics_ratio", "ratio"},
      {"analysis.static_ms", "ms"},
      {"report.render_ms", "ms"},
      {"service.admit_ms", "ms"},
      {"service.first_row_ms", "ms"},
      {"service.stream_ms", "ms"},
      {"service.overhead_ratio", "ratio"},
      {"service.rejected", "count"},
      {"service.telemetry_dropped", "count"},
      {"service.gen_late_ms", "ms"},
      {"core.json_parse_us", "us"},
      {"trace.overhead_ms", "ms"},
      {"run.self_ms", "ms"},
      {"alg.self_ms", "ms"},
      {"machine.self_ms", "ms"},
      {"analysis.self_ms", "ms"},
      {"telemetry.self_ms", "ms"},
      {"report.self_ms", "ms"},
      {"service.self_ms", "ms"},
      {"core.self_ms", "ms"},
  };
  return names;
}

void report_times(Context& ctx, double setup_ms,
                  const std::vector<double>& walls_ms,
                  const std::vector<double>& probes_ms, double ops,
                  const std::vector<double>& latencies_ref_ms) {
  std::vector<double> ref_ms;
  for (std::size_t i = 0; i < walls_ms.size(); ++i) {
    ref_ms.push_back(to_ref(walls_ms[i], probes_ms[i]));
  }
  const double wall_s = median(ref_ms) / 1000.0;
  const auto units = static_cast<std::int64_t>(walls_ms.size());
  const auto samples = static_cast<std::int64_t>(latencies_ref_ms.size());
  ctx.report.metric("setup_s", to_ref(setup_ms, median(probes_ms)) / 1000.0,
                    "s", kSetupReps);
  ctx.report.metric("wall_s", wall_s, "s", units);
  ctx.report.metric("ops_per_s", ops / wall_s, "1/s", units);
  ctx.report.metric("p50_ms", quantile(latencies_ref_ms, 0.50), "ms", samples);
  ctx.report.metric("p99_ms", quantile(latencies_ref_ms, 0.99), "ms", samples);
  ctx.report.extra("wall_raw_s", median(walls_ms) / 1000.0, "s", units);
  ctx.report.extra("core_probe_ms", median(probes_ms), "ms", units);
}

void report_self_times(Context& ctx, double passes) {
  const auto self = ctx.tracer.self_ms_by_layer();
  for (const char* layer : {"run", "alg", "machine", "analysis", "telemetry",
                            "report", "service", "core"}) {
    const auto it = self.find(layer);
    ctx.report.metric(std::string(layer) + ".self_ms",
                      it == self.end() ? 0.0 : it->second / passes, "ms",
                      static_cast<std::int64_t>(passes));
  }
}

}  // namespace bench
