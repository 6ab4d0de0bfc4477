// Shared pieces of the hmm-sim benchmark: options, statistics, the
// correctness ledger, the span tracer, host reference outputs and the
// count pass over the alg span drivers.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "alg/workload.hpp"
#include "core/json.hpp"
#include "machine/report.hpp"
#include "run/point.hpp"

namespace bench {

using Clock = std::chrono::steady_clock;

/// In-process set-up repetitions; setup_s is their median.
constexpr int kSetupReps = 31;

double ms_between(Clock::time_point a, Clock::time_point b);
double ms_since(Clock::time_point t0);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool reduced = false;        ///< self-test sizes: a subset of every grid
  bool print_digests = false;  ///< print the count-pass digests and exit
  std::string machines_dir = "machines";
  std::string daemon;                ///< hmmsimd binary (service_mix)
  std::string digests;               ///< recorded digests (JSON)
  std::string out_dir = ".bench_build/out";  ///< spans, results, sockets
  std::string commit = "unknown";
  std::string source_sha256 = "unknown";
};

// ---- statistics -----------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
double sum(const std::vector<double>& v);

/// CPUs the calling thread may run on.
std::vector<int> allowed_cpus();
/// Restrict thread `tid` (0: the calling thread) to `cpus`.
void set_cpus(int tid, const std::vector<int>& cpus);

/// core_probe_ms on the reference core the end-to-end times are scaled to
/// (about its median on a vCPU of the 4-vCPU shared host the bounds were
/// set on).
constexpr double kProbeRefMs = 6.0;

/// Time a fixed piece of host code on the calling thread's core:
/// generate, sort and hash 64 Ki integers.  It shares no code with the
/// simulator, so no change to the program moves it.  The cores of a
/// shared host drift by tens of percent over minutes; a workload probes
/// the cores it runs on before each unit of work, and the end-to-end
/// times are scaled to the reference core so that drift cancels out.
double core_probe_ms();
/// A host time `ms`, measured just after a probe that took `probe_ms`, as
/// it would read on the reference core.
inline double to_ref(double ms, double probe_ms) {
  return ms * kProbeRefMs / probe_ms;
}
/// The median core_probe_ms over `cpus`, the calling thread moved onto
/// each in turn and back onto its previous CPUs afterwards.
double probe_cores_ms(const std::vector<int>& cpus);

/// Peak resident set of this process, MiB.
double self_peak_rss_mib();
/// Peak resident set (VmHWM) of process `pid`, MiB; 0 if unreadable.
double process_peak_rss_mib(int pid);

// ---- results --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 1;
};

/// Correctness ledger and metric sink of one benchmark run.  Every
/// checked operation calls `op` once; a failed check records why.
class Report {
 public:
  void op(bool ok, const std::string& what);
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// A metric the result line carries (end-to-end or per-layer).
  void metric(std::string name, double value, std::string unit,
              std::int64_t samples = 1);
  /// A metric printed in the table only (zero-valued ratios, lateness).
  void extra(std::string name, double value, std::string unit,
             std::int64_t samples = 1);
  void note(std::string key, std::string value);

  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& extras() const { return extras_; }
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

 private:
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<std::string> errors_;
  std::vector<Metric> metrics_;
  std::vector<Metric> extras_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// ---- tracing ----------------------------------------------------------------

/// In-memory spans around the benchmark's calls into each layer.  A
/// disabled tracer records nothing and every call returns at once.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Toggle recording between passes (never while spans are open).
  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::int64_t begin(const char* layer, std::string name,
                     std::int64_t parent = -1, std::int64_t req = -1);
  void end(std::int64_t id);
  /// A span whose interval was measured elsewhere (service requests).
  std::int64_t add(const char* layer, std::string name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent = -1,
                   std::int64_t req = -1);

  /// Self time per layer: each span's duration minus the part of it its
  /// children cover, summed by layer.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Summed duration of every span called `name`.
  double total_ms(const std::string& name) const;
  /// Chrome trace (`chrome://tracing`, Perfetto) of every span.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* layer;
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent;
    std::int64_t req;
    std::uint64_t thread;
  };

  std::atomic<bool> enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span; `id()` is the parent handle for nested spans.
class Scope {
 public:
  Scope(Tracer& tracer, const char* layer, std::string name,
        std::int64_t parent = -1, std::int64_t req = -1)
      : tracer_(tracer), id_(tracer.begin(layer, std::move(name), parent, req)) {}
  ~Scope() { tracer_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

// ---- points, host references and the count pass ---------------------------

/// Stable key of a grid point ("sum/hmm/n4096/m32/p2048/w32/l400/d16",
/// with "@preset" for machine presets).
std::string point_label(const hmm::run::Point& p, const std::string& preset);

/// Generate, into `workloads`, every input run_point reads for `p`.
void prefill_inputs(const hmm::run::Point& p, hmm::alg::WorkloadCache& workloads);

/// Functional output computed on the host, independent of the simulator.
struct HostReference {
  std::string summary;          ///< the run_point summary it must print
  std::vector<hmm::Word> full;  ///< the full output vector
};
HostReference host_reference(const hmm::run::Point& p,
                             hmm::alg::WorkloadCache& workloads);

/// The simulated result a simulator-only change must leave identical.
struct Digest {
  std::int64_t makespan = 0;
  std::int64_t global_stages = 0;
  std::int64_t shared_stages = 0;
  std::int64_t link_stages = 0;
  friend bool operator==(const Digest&, const Digest&) = default;
};

/// Exact engine counts summed over a set of executed points.
struct Counts {
  std::int64_t points = 0;
  std::int64_t rounds = 0;  ///< sum of exec.issue_slots
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t replayed_rounds = 0;
  std::int64_t bailouts = 0;
  std::int64_t global_stages = 0;
  std::int64_t shared_stages = 0;
  std::int64_t link_stages = 0;
  void add(const hmm::RunReport& r);
  friend bool operator==(const Counts&, const Counts&) = default;
};

/// Recorded digests (perfbench/digests.json): workload -> label -> digest.
class DigestBook {
 public:
  void load(const std::string& path);
  /// Compare against the recorded digest; false with a reason on a
  /// mismatch or a point that has no recorded digest.
  bool check(const std::string& workload, const std::string& label,
             const Digest& d, std::string* why) const;
  /// The recorded digest, or nullptr.
  const Digest* find(const std::string& workload,
                     const std::string& label) const;

 private:
  std::map<std::string, std::map<std::string, Digest>> book_;
};

/// The digests the count passes recorded under `--print-digests`.
std::string recorded_digests_json();

/// Shared state of one workload run.
struct Context {
  const Options& opt;
  Report& report;
  Tracer& tracer;
  DigestBook& digests;
};

/// Count pass: verify one executed point (its output already compared
/// with the host reference) against the recorded digest, or record the
/// digest under --print-digests.
void check_executed(Context& ctx, const std::string& workload,
                    const std::string& label, const hmm::RunReport& report,
                    bool output_ok);

/// Timed path: a run_point outcome must carry the recorded makespan and
/// global stages and print the host reference's summary.
void check_outcome(Context& ctx, const std::string& workload,
                   const std::string& label,
                   const hmm::run::PointOutcome& outcome,
                   const std::string& summary);

/// A grid point with its digest label.
struct GridPoint {
  hmm::run::Point point;
  std::string label;
};

/// What a count pass learned: exact counts and each point's host
/// reference summary (what run_point must print for it).
struct CountPass {
  Counts counts;
  std::vector<std::string> summaries;
};

/// Execute every point through the span drivers on `jobs` workers,
/// compare each output with its host reference and check (or record)
/// its digest.  `metrics` attaches a fresh MetricsRegistry per point.
CountPass count_pass(Context& ctx, const std::string& workload,
                     const std::vector<GridPoint>& points,
                     hmm::alg::WorkloadCache& workloads, std::int64_t jobs,
                     bool metrics = false);

/// Machine/mm per-layer metrics from a count pass (run twice; the counts
/// must repeat exactly).
void report_counts(Context& ctx, const Counts& first, const Counts& second,
                   double point_ms);

/// Every per-layer metric name with its unit, in output order.  Layers a
/// workload does not exercise report 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();
/// Every end-to-end metric name with its unit.
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();

/// The end-to-end time metrics on the reference core.  wall_s is the
/// median over the units of fixed work, each holding `ops` operations, of
/// to_ref(walls_ms[i], probes_ms[i]), probes_ms[i] being the probe taken
/// just before unit i; ops_per_s follows from it.  p50_ms and p99_ms are
/// quantiles of `latencies_ref_ms`, each already scaled by the probe
/// before it.  setup_s is scaled by the median probe.  The unscaled
/// median wall time and the median probe go to the table.
void report_times(Context& ctx, double setup_ms,
                  const std::vector<double>& walls_ms,
                  const std::vector<double>& probes_ms, double ops,
                  const std::vector<double>& latencies_ref_ms);

/// Per-layer self times from the tracer, divided by `passes`.
void report_self_times(Context& ctx, double passes);

// ---- workloads --------------------------------------------------------------

void paper_sweep(Context& ctx);
void explain_run(Context& ctx);
void service_mix(Context& ctx);

}  // namespace bench
