// hmmsim — command-line driver for the library.
//
//   hmmsim <algorithm> [--model umm|hmm] [--n N[,N...]] [--m M[,M...]]
//          [--p P[,P...]] [--w W[,W...]] [--l L[,L...]] [--d D[,D...]]
//          [--seed S] [--jobs J] [--csv]
//
// Algorithms: sum, scan, conv, sort, matmul (n = rows), match (m =
// pattern length).  Prints the result summary, simulated time and the
// pipeline utilisation; --csv emits one machine-readable line instead.
//
// Every numeric option accepts a comma-separated list; giving more than
// one value turns the invocation into a PARAMETER SWEEP over the
// cartesian grid, evaluated across `--jobs` worker threads (grid points
// are independent simulations, so any job count produces identical
// rows).  Sweeps always emit CSV, one row per grid point in grid order.
//
// This is the "downstream user" entry point: measure a workload at any
// (n, m, p, w, l, d) operating point — or a whole grid of them — without
// writing C++.  With --connect=ADDR the same vocabulary runs against a
// hmmsimd daemon instead of in-process, with byte-identical sweep output
// (docs/OBSERVABILITY.md "The simulation service").
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "alg/plans.hpp"
#include "alg/sum.hpp"
#include "alg/sort.hpp"
#include "alg/workload.hpp"
#include "analysis/checker.hpp"
#include "analysis/static/diff.hpp"
#include "analysis/static/evaluate.hpp"
#include "core/version.hpp"
#include "machine/topology_spec.hpp"
#include "report/analysis_static.hpp"
#include "report/findings.hpp"
#include "report/metrics.hpp"
#include "report/sweep_csv.hpp"
#include "run/point.hpp"
#include "run/shard.hpp"
#include "run/sweep.hpp"
#include "service/client.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/fanout.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/sink.hpp"

using namespace hmm;

namespace {

/// The command line: the sweep itself (algorithm, model, axes, seed,
/// fast-forward, metrics, analyze, --machine) as one run::GridSpec, plus
/// the runner and output choices around it.
struct Cli {
  run::GridSpec grid;
  std::int64_t jobs = 1;
  bool csv = false;
  bool check = false;
  analysis::CheckerConfig check_cfg;
  bool analyze_plan = false;                ///< --analyze[=plan,diff]
  bool analyze_diff = false;
  std::string trace_path;                   ///< empty: no trace export
  std::int64_t trace_capacity = 1 << 16;    ///< ring sink window (events)
  bool metrics_csv = false;                 ///< --metrics=csv
  bool metrics_json = false;                ///< --metrics=json
  std::string connect;                      ///< --connect=ADDR: client mode
  std::int64_t telemetry = 0;               ///< --telemetry=N (connect only)
  std::string machine_preset;               ///< --machine-preset=NAME (connect)
  bool dry_run = false;                     ///< --dry-run: print + exit
  /// --p/--w/--l/--d given explicitly (a --machine file replaces these
  /// axes, so mixing the two spellings is a usage error, not a merge).
  bool shape_given = false;
  std::string emit_manifest_path;           ///< --emit-manifest=FILE
  std::int64_t shards = 0;                  ///< --shards=K (with emit)
  bool sharded = false;                     ///< --shard=i/K given
  run::ShardPlan shard;                     ///< default {0, 1}: every point
};

// Shared immutable workload cache: grid points differing only in machine
// shape reuse one buffer per distinct (n, seed) instead of regenerating
// it per point (thread-safe; sweep workers only read the buffers).
alg::WorkloadCache workloads;

// hmmsim --check / --analyze exit codes (documented in docs/ANALYSIS.md).
constexpr int kExitRace = 3;
constexpr int kExitBounds = 4;
constexpr int kExitConflict = 5;
constexpr int kExitRefuted = 6;   ///< static certificate exceeds a claim
constexpr int kExitMismatch = 7;  ///< static and dynamic verdicts disagree
constexpr int kExitDeadlock = 8;  ///< engine no-progress watchdog tripped
constexpr int kExitBadMachine = 9;  ///< --machine file missing or invalid

int usage(const char* argv0) {
  std::printf(
      "hmm-sim %s — memory machine model simulator "
      "(Nakano, IPDPSW 2013)\n\n"
      "usage: %s <sum|scan|conv|sort|matmul|match> [options]\n"
      "  --model umm|hmm   machine to run on (default hmm)\n"
      "  --n N[,N...]      input size / matrix rows (default 65536)\n"
      "  --m M[,M...]      filter / pattern length (default 32)\n"
      "  --p P[,P...]      total threads (default 2048)\n"
      "  --w W[,W...]      width / warp size (default 32)\n"
      "  --l L[,L...]      global memory latency (default 400)\n"
      "  --d D[,D...]      number of DMMs for --model hmm (default 16)\n"
      "  --machine=FILE    declarative machine topology: a JSON document\n"
      "                    replacing the --p/--w/--l/--d flags (per-DMM\n"
      "                    thread/latency/size overrides, multiple HMMs\n"
      "                    joined by interconnect links; docs/TOPOLOGY.md\n"
      "                    is the executable schema reference).  Excludes\n"
      "                    explicit --p/--w/--l/--d; a missing or invalid\n"
      "                    file exits 9.\n"
      "  --dry-run         validate the machine description and print its\n"
      "                    normalized document — with plain flags, print\n"
      "                    the equivalent JSON — then exit 0 without\n"
      "                    simulating\n"
      "  --machine-preset=NAME  with --connect: run a preset served from\n"
      "                    the daemon's --machines directory\n"
      "  --seed S          workload seed (default 1)\n"
      "  --jobs J          worker threads for sweeps; 0 = all cores "
      "(default 1)\n"
      "  --csv             one CSV line: algorithm,model,n,m,p,w,l,d,"
      "time,global_stages,ff_rounds\n"
      "  --fast-forward=on|off  round-pattern memoization and verified\n"
      "                    replay of periodic warps (default on).  Results\n"
      "                    are identical either way; off forces full\n"
      "                    simulation of every round (A/B timing, see\n"
      "                    docs/PERF.md).\n"
      "  --check[=KINDS]   run the access checker (sum and sort only;\n"
      "                    single operating point).  KINDS is a comma list\n"
      "                    of race,bounds,conflict (default: all).  Exit\n"
      "                    codes: 3 race, 4 bounds/uninit, 5 certification\n"
      "                    failure.  Composes with --metrics/--trace: one\n"
      "                    checked run can also emit both.\n"
      "  --analyze[=MODES] static access-plan analysis.  MODES is a comma\n"
      "                    list of plan (price the symbolic plan, print the\n"
      "                    per-round certificate) and diff (also replay the\n"
      "                    verdict against the dynamic AccessChecker);\n"
      "                    default: both.  Adds algorithms transpose,\n"
      "                    transpose-naive, permute (--model dmm) and\n"
      "                    stencil (--model umm).  Sweeps append the\n"
      "                    static_degree_max/static_groups_max/\n"
      "                    static_verdict columns instead of printing\n"
      "                    tables.  Exit codes: 6 claim refuted, 7\n"
      "                    static/dynamic mismatch, 8 engine deadlock.\n"
      "  --emit-manifest=FILE  with --shards=K: write a JSON job manifest\n"
      "                    splitting the grid round-robin into K shards\n"
      "                    (one entry per shard with the exact argv to run)\n"
      "                    and exit without simulating.  See docs/API.md.\n"
      "  --shards=K        shard count for --emit-manifest (K >= 1)\n"
      "  --shard=i/K       run only shard i of K (grid indices congruent\n"
      "                    to i mod K) and emit CSV with a header plus\n"
      "                    grid_index,shard,fingerprint columns, ready for\n"
      "                    tools/hmm-merge.  Excludes --check/--trace.\n"
      "  --trace=FILE      export a Chrome trace-event JSON of the run\n"
      "                    (open in chrome://tracing or Perfetto; single\n"
      "                    operating point only)\n"
      "  --trace-capacity=N  ring-buffer window for --trace: keep the\n"
      "                    last N events, O(N) memory (default 65536)\n"
      "  --metrics[=table|csv|json]  collect model metrics (conflict-\n"
      "                    degree / address-group histograms, stall\n"
      "                    breakdown, occupancy, latency hiding).  Single\n"
      "                    point: prints tables, CSV, or one JSON object\n"
      "                    (the service's metrics-frame schema); sweeps:\n"
      "                    appends metric columns to every CSV row.\n"
      "  --version         print the version and compiled-in features\n"
      "  --connect=ADDR    run against a hmmsimd daemon (unix:PATH or\n"
      "                    tcp:[HOST:]PORT) instead of in-process.  Sweep\n"
      "                    output is byte-identical to the same local\n"
      "                    sweep.  Control verbs instead of an algorithm:\n"
      "                    --ping, --stats, --version, --drain.\n"
      "  --telemetry=N     with --connect: stream up to N live trace\n"
      "                    events per grid point to stderr as NDJSON\n"
      "                    (events past the budget are counted in drop\n"
      "                    frames, never buffered)\n\n"
      "Comma-separated values sweep the cartesian grid in parallel, e.g.\n"
      "  %s sum --n 4096,65536 --l 100,400 --jobs 0\n",
      kVersionString, argv0, argv0);
  return 2;
}

void print_version(const char* name) {
  std::printf("%s %s\n", name, kVersionString);
  std::printf("features:");
  for (std::size_t i = 0; i < kFeatureCount; ++i) {
    std::printf(" %s", kFeatures[i]);
  }
  std::printf("\n");
}

/// Hand each comma-separated token of `s` (empty ones included) to
/// `take`; false as soon as `take` rejects one.
template <class Take>
bool for_each_token(std::string_view s, Take take) {
  for (std::size_t comma; (comma = s.find(',')) != std::string_view::npos;
       s.remove_prefix(comma + 1)) {
    if (!take(s.substr(0, comma))) return false;
  }
  return take(s);
}

/// Parse a comma list of names (--check kinds, --analyze modes) into the
/// flags they set, clearing the others first; false on an unknown name.
bool parse_names(const char* s,
                 std::initializer_list<std::pair<std::string_view, bool*>>
                     names) {
  for (const auto& [name, flag] : names) *flag = false;
  return for_each_token(s, [&](std::string_view token) {
    for (const auto& [name, flag] : names) {
      if (token == name) return *flag = true;
    }
    return false;
  });
}

/// Parse a comma list of integers.  Rejects — by returning false, which
/// the caller maps to the documented usage exit code — empty tokens,
/// trailing garbage, anything that overflows int64 (std::from_chars
/// reports out_of_range instead of saturating) and lists that break the
/// shared axis rule run::axis_error with `min_value` (axes must be >= 1;
/// --jobs and --seed accept 0).
bool parse_list(const char* s, std::vector<std::int64_t>& out,
                std::int64_t min_value = 1) {
  out.clear();
  const bool numeric = for_each_token(s, [&](std::string_view token) {
    std::int64_t value = 0;
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    out.push_back(value);
    return ec == std::errc{} && end == token.data() + token.size();
  });
  return numeric && run::axis_error(out, min_value).empty();
}

/// One value under parse_list's rules.
bool parse_scalar(const char* s, std::int64_t& out, std::int64_t min_value) {
  std::vector<std::int64_t> one;
  if (!parse_list(s, one, min_value) || one.size() != 1) return false;
  out = one[0];
  return true;
}

bool parse(int argc, char** argv, Cli& cli) {
  if (argc < 2) return false;
  run::GridSpec& grid = cli.grid;
  grid.algorithm = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // Whether `a` spells "KEY=VALUE" for `key` ("--trace="); points `v`
    // at the VALUE.
    const char* v = nullptr;
    auto keyed = [&](const char* key) {
      if (a.rfind(key, 0) != 0) return false;
      v = a.c_str() + std::strlen(key);
      return true;
    };
    if (a == "--csv") {
      cli.csv = true;
    } else if (a == "--fast-forward=on") {
      grid.fast_forward = true;
    } else if (a == "--fast-forward=off") {
      grid.fast_forward = false;
    } else if (a.rfind("--fast-forward", 0) == 0) {
      // "--fast-forward" bare or with any other value is a usage error,
      // not a silently ignored axis name.
      return false;
    } else if (a == "--metrics" || a == "--metrics=table") {
      grid.metrics = true;
      cli.metrics_csv = false;
    } else if (a == "--metrics=csv") {
      grid.metrics = true;
      cli.metrics_csv = true;
    } else if (a == "--metrics=json") {
      grid.metrics = true;
      cli.metrics_json = true;
    } else if (keyed("--connect=")) {
      cli.connect = v;
      if (cli.connect.empty()) return false;
    } else if (keyed("--machine=")) {
      grid.machine_path = v;
      if (grid.machine_path.empty()) return false;
    } else if (keyed("--machine-preset=")) {
      cli.machine_preset = v;
      if (cli.machine_preset.empty()) return false;
    } else if (a == "--dry-run") {
      cli.dry_run = true;
    } else if (keyed("--telemetry=")) {
      if (!parse_scalar(v, cli.telemetry, 0)) return false;
    } else if (keyed("--trace=")) {
      cli.trace_path = v;
      if (cli.trace_path.empty()) return false;
    } else if (keyed("--trace-capacity=")) {
      // A zero-capacity ring would silently keep no events; reject it.
      if (!parse_scalar(v, cli.trace_capacity, 1)) return false;
    } else if (keyed("--emit-manifest=")) {
      cli.emit_manifest_path = v;
      if (cli.emit_manifest_path.empty()) return false;
    } else if (keyed("--shards=")) {
      if (!parse_scalar(v, cli.shards, 1)) return false;
    } else if (keyed("--shard=")) {
      if (!run::parse_shard_spec(v, cli.shard)) return false;
      cli.sharded = true;
    } else if (a == "--analyze") {
      grid.analyze = cli.analyze_plan = cli.analyze_diff = true;
    } else if (keyed("--analyze=")) {
      grid.analyze = true;
      if (!parse_names(v, {{"plan", &cli.analyze_plan},
                           {"diff", &cli.analyze_diff}})) {
        return false;
      }
    } else if (a == "--check") {
      cli.check = true;
    } else if (keyed("--check=")) {
      cli.check = true;
      analysis::CheckerConfig& cfg = cli.check_cfg;
      if (!parse_names(v, {{"race", &cfg.race},
                           {"bounds", &cfg.bounds},
                           {"conflict", &cfg.conflict}})) {
        return false;
      }
    } else if (a == "--model") {
      v = next();
      if (!v) return false;
      grid.model = v;
    } else {
      v = next();
      if (!v) return false;
      std::vector<std::int64_t>* axis = nullptr;
      if (a == "--n") axis = &grid.n;
      else if (a == "--m") axis = &grid.m;
      else if (a == "--p") { axis = &grid.p; cli.shape_given = true; }
      else if (a == "--w") { axis = &grid.w; cli.shape_given = true; }
      else if (a == "--l") { axis = &grid.l; cli.shape_given = true; }
      else if (a == "--d") { axis = &grid.d; cli.shape_given = true; }
      else if (a == "--seed" || a == "--jobs") {
        std::vector<std::int64_t> one;
        if (!parse_list(v, one, 0)) return false;
        if (one.size() != 1) {
          // A comma list here used to silently take the first value;
          // these options are scalars, not sweep axes.
          throw PreconditionError(a + " takes a single value, not a sweep "
                                      "list (got \"" + v + "\")");
        }
        if (a == "--seed") grid.seed = static_cast<std::uint64_t>(one[0]);
        else cli.jobs = one[0];
      }
      else return false;
      if (axis && !parse_list(v, *axis)) return false;
    }
  }
  // A --machine file REPLACES the machine-shape axes; mixing the two
  // spellings would silently make one of them win, so it is a usage
  // error instead (docs/TOPOLOGY.md "Flags and JSON are one vocabulary").
  if (!grid.machine_path.empty() && cli.shape_given) return false;
  // Presets live on the daemon: the name is meaningless locally, and a
  // preset already IS a machine description.
  if (!cli.machine_preset.empty() &&
      (cli.connect.empty() || !grid.machine_path.empty())) {
    return false;
  }
  // --dry-run prints ONE machine document; sweep lists on the shape axes
  // have no single JSON equivalent, and client mode never simulates
  // locally anyway.
  if (cli.dry_run &&
      (!cli.connect.empty() || grid.p.size() != 1 || grid.w.size() != 1 ||
       grid.l.size() != 1 || grid.d.size() != 1)) {
    return false;
  }
  // --shards only modifies --emit-manifest, which in turn requires it;
  // half a sharding request is a usage error, as is asking one process
  // to both plan shards and run one.
  if (cli.emit_manifest_path.empty() != (cli.shards == 0)) return false;
  if (!cli.emit_manifest_path.empty() && cli.sharded) return false;
  // --analyze and --check are distinct drivers with distinct exit-code
  // vocabularies; composing them would make a nonzero exit ambiguous.
  if (grid.analyze && cli.check) return false;
  // Live telemetry streaming only exists on the service wire.
  if (cli.telemetry > 0 && cli.connect.empty()) return false;
  // Client mode ships the sweep vocabulary to the daemon; the local-only
  // drivers (checker, analyzer, trace export, sharding) stay local.
  if (!cli.connect.empty() &&
      (cli.check || grid.analyze || !cli.trace_path.empty() || cli.sharded ||
       !cli.emit_manifest_path.empty())) {
    return false;
  }
  // "dmm" is an analyze-only model: the shared-memory workloads
  // (transpose, permute) have no span driver in the sweep vocabulary.
  if (grid.model == "dmm") return grid.analyze && cli.jobs >= 0;
  return (grid.model == "umm" || grid.model == "hmm") && cli.jobs >= 0;
}

/// The static analyzer's operating point for one grid point.
alg::PlanPoint plan_point(const run::Point& o) {
  return {.algorithm = o.algorithm, .model = o.model, .n = o.n, .m = o.m,
          .p = o.p, .w = o.w, .l = o.l, .d = o.d, .seed = o.seed};
}

/// The three static CSV columns for one sweep point; "none" when the
/// (algorithm, model) pair has no registered plan twin (matmul, match).
SweepStaticVerdict static_verdict_for(const run::Point& o) {
  SweepStaticVerdict v;
  const auto plan = alg::build_access_plan(plan_point(o));
  if (!plan) return v;
  const analysis::StaticReport report = analysis::evaluate(*plan);
  v.degree_max = report.max_degree;
  v.groups_max = report.max_groups;
  v.verdict =
      analysis::satisfies_claims(*plan, report) ? "ok" : "refuted";
  return v;
}

/// One evaluated grid point: the shared dispatcher's outcome plus what
/// --metrics and --analyze add to its row.
struct Outcome {
  run::PointOutcome result;
  std::optional<MetricsSnapshot> metrics;
  std::optional<SweepStaticVerdict> analyze;
};

/// Execute one grid point through the shared dispatcher (run/point.hpp)
/// — the same code path the hmmsimd service runs, which is what makes
/// `--connect` output byte-identical to a local run — collecting what
/// the grid's metrics and analyze flags ask for.  `trace`, when
/// non-null, observes the run too.
Outcome evaluate(const run::Point& point, const run::GridSpec& grid,
                 EngineObserver* trace = nullptr) {
  telemetry::MetricsRegistry registry;
  telemetry::ObserverFanout fanout;
  fanout.add(trace);
  if (grid.metrics) fanout.add(&registry);
  Outcome out;
  out.result = run::run_point(point, workloads,
                              fanout.empty() ? nullptr : &fanout);
  if (grid.metrics) out.metrics = registry.snapshot();
  if (grid.analyze) out.analyze = static_verdict_for(point);
  return out;
}

/// One sweep CSV row through the shared schema (report/sweep_csv.hpp),
/// so sharded and single-process rows can never drift apart.
void print_csv_row(const run::Point& o, const Outcome& out,
                   const ShardTag* tag = nullptr) {
  const SweepPoint point{o.algorithm, o.model, o.n, o.m,
                         o.p,         o.w,     o.l, o.d};
  SweepMeasurement measured{out.result.time, out.result.global_stages,
                            out.result.ff_rounds,
                            out.metrics ? &*out.metrics : nullptr};
  if (out.analyze) measured.analyze = &*out.analyze;
  std::printf("%s\n", sweep_csv_row(point, measured, tag).c_str());
}

/// The "sum on hmm(n=.., m=.., p=.., w=.., l=.., d=..)" line that opens
/// single-point reports, followed by `suffix`.
void print_point_line(const run::Point& o, const char* suffix) {
  std::printf("%s on %s(n=%lld, m=%lld, p=%lld, w=%lld, l=%lld, d=%lld)%s",
              o.algorithm.c_str(), o.model.c_str(),
              static_cast<long long>(o.n), static_cast<long long>(o.m),
              static_cast<long long>(o.p), static_cast<long long>(o.w),
              static_cast<long long>(o.l), static_cast<long long>(o.d),
              suffix);
}

/// The human single-point report, local and --connect alike.
void print_point(const run::Point& o, const run::PointOutcome& out) {
  print_point_line(o, "\n");
  std::printf("  %s\n", out.summary.c_str());
  std::printf("  time: %lld time units, global pipeline stages: %lld"
              ", fast-forwarded rounds: %lld\n",
              static_cast<long long>(out.time),
              static_cast<long long>(out.global_stages),
              static_cast<long long>(out.ff_rounds));
}

void write_trace_file(const std::string& path,
                      const telemetry::RingBufferSink& sink);
void print_metrics(const MetricsSnapshot& snapshot, bool csv);
void print_metrics_mode(const Cli& cli, const MetricsSnapshot& snapshot);

/// Print a table with its title line ("== checker findings (...) =="),
/// so runs that emit several tables stay self-describing.
void print_table(const Table& table) {
  std::ostringstream os;
  table.print(os);
  std::printf("%s", os.str().c_str());
}

/// --check driver: builds the algorithm's machine explicitly, attaches an
/// AccessChecker before the run, prints the findings and histogram tables
/// and maps the verdict to an exit code.  Telemetry composes instead of
/// conflicting: --metrics and --trace ride along through an
/// ObserverFanout, so one checked run can also produce the metrics
/// tables and a Chrome trace.
int run_checked(const run::Point& o, const Cli& cli) {
  const analysis::CheckerConfig& cfg = cli.check_cfg;
  const bool hmm_model = o.model == "hmm";
  // The DMMs come from the same overlay run_point installs; the per-DMM
  // thread count (the largest DMM's) only sizes the shared memory, which
  // the overlay max-combines with each DMM's floor.
  const run::HmmShape shape(o);
  const std::int64_t pd = shape.threads_per_dmm();
  if (o.algorithm != "sum" && o.algorithm != "sort") {
    throw PreconditionError("--check supports algorithms: sum, sort");
  }

  // Paper-optimal cost bounds to certify against: the sum kernels are
  // fully conflict-free and coalesced (Theorem 7); every bitonic stage
  // touches at most two contiguous runs per warp (sort.hpp), so degree
  // and group counts up to 2 are on-model for sort.
  const std::int64_t cert_bound = o.algorithm == "sum" ? 1 : 2;

  Machine machine = [&] {
    if (o.algorithm == "sum") {
      return hmm_model ? Machine::hmm(o.w, o.l, o.d, pd,
                                      std::max(pd, o.d), o.n + o.d)
                       : Machine::umm(o.w, o.l, o.p, o.n);
    }
    if (hmm_model && (o.d < 1 || o.n % o.d != 0)) {
      throw PreconditionError("sort --check: --d must divide --n");
    }
    return hmm_model ? Machine::hmm(o.w, o.l, o.d, pd, o.n / o.d, o.n)
                     : Machine::umm(o.w, o.l, o.p, o.n);
  }();

  const auto xs = workloads.random_words(o.n, o.seed);
  machine.global_memory().load(0, *xs);
  // The checker attaches as an observer, so the replay shortcut disables
  // itself for the run; this switch still governs the profile cache and
  // keeps --fast-forward=off runs honestly cache-free.
  machine.set_fast_forward(o.fast_forward);

  analysis::AccessChecker checker(machine, cfg);
  checker.declare_initialized(MemorySpace::kGlobal, 0, o.n);

  // The checker no longer owns the observer slot exclusively: fan out to
  // any telemetry consumers requested alongside it.
  telemetry::RingBufferSink sink(cli.trace_capacity);
  telemetry::MetricsRegistry registry;
  telemetry::ObserverFanout fanout;
  fanout.add(&checker);
  if (!cli.trace_path.empty()) fanout.add(&sink);
  if (cli.grid.metrics) fanout.add(&registry);
  machine.set_observer(fanout.size() > 1
                           ? static_cast<EngineObserver*>(&fanout)
                           : static_cast<EngineObserver*>(&checker));

  run::PointOutcome out;
  if (o.algorithm == "sum") {
    const auto r = hmm_model ? alg::sum_hmm(machine, o.n)
                             : alg::sum_mm(machine, MemorySpace::kGlobal, 0,
                                           o.n);
    out.time = r.report.makespan;
    out.summary = "sum = " + std::to_string(r.sum);
  } else {
    const auto r = hmm_model ? alg::sort_hmm(machine, o.n)
                             : alg::sort_mm(machine, MemorySpace::kGlobal,
                                            o.n);
    out.time = r.report.makespan;
    out.summary = "min = " + std::to_string(r.sorted.front()) +
                  ", max = " + std::to_string(r.sorted.back());
  }
  machine.set_observer(nullptr);

  std::printf("%s on %s(n=%lld, p=%lld, w=%lld, l=%lld, d=%lld) under "
              "--check\n",
              o.algorithm.c_str(), o.model.c_str(),
              static_cast<long long>(o.n), static_cast<long long>(o.p),
              static_cast<long long>(o.w), static_cast<long long>(o.l),
              static_cast<long long>(o.d));
  std::printf("  %s\n  time: %lld time units\n\n", out.summary.c_str(),
              static_cast<long long>(out.time));
  print_table(findings_table(checker));
  std::printf("\n");
  if (cfg.conflict) {
    print_table(conflict_histogram_table(checker));
    std::printf("\n");
  }
  // Telemetry output rides along even when findings map to a nonzero
  // exit code below — a failed check is exactly when the trace helps.
  if (!cli.trace_path.empty()) write_trace_file(cli.trace_path, sink);
  if (cli.grid.metrics) print_metrics_mode(cli, registry.snapshot());

  using analysis::FindingKind;
  if (checker.count(FindingKind::kRace) > 0) return kExitRace;
  if (checker.count(FindingKind::kOutOfBounds) > 0 ||
      checker.count(FindingKind::kUninitializedRead) > 0) {
    return kExitBounds;
  }
  if (cfg.conflict) {
    const bool certified = checker.certify_conflict_free(cert_bound) &&
                           checker.certify_coalesced(cert_bound) &&
                           checker.count(FindingKind::kWarpWriteWrite) == 0;
    if (!certified) return kExitConflict;
    std::printf("certified: conflict degree <= %lld, address groups <= "
                "%lld, no warp write-write\n",
                static_cast<long long>(cert_bound),
                static_cast<long long>(cert_bound));
  }
  return 0;
}

/// --analyze driver for a single operating point: build the workload's
/// symbolic access plan, price it with the number-theoretic evaluator
/// and print the per-round certificate (plan mode); then replay the
/// verdict against the dynamic AccessChecker on a real run and compare
/// histograms batch-for-batch (diff mode).  Exit codes: a static/
/// dynamic disagreement (a bug in the twin or the evaluator) beats a
/// refuted claim (a property of the workload) beats success.
int run_analyze(const run::Point& o, const Cli& cli) {
  const alg::PlanPoint point = plan_point(o);
  const auto plan = alg::build_access_plan(point);
  if (!plan.has_value()) {
    std::string known;
    for (const auto& [a, m] : alg::registered_plans()) {
      if (!known.empty()) known += ", ";
      known += a + "/" + m;
    }
    throw PreconditionError("--analyze: no access plan registered for '" +
                            o.algorithm + "' / model '" + o.model +
                            "'; registered: " + known);
  }
  const analysis::StaticReport report = analysis::evaluate(*plan);
  const bool refuted = !analysis::satisfies_claims(*plan, report);

  print_point_line(o, " under --analyze\n\n");
  if (cli.analyze_plan) {
    print_table(certificate_table(report));
    std::printf("\n");
  }
  if (plan->claimed_degree > 0 || plan->claimed_groups > 0) {
    std::printf("claims:");
    if (plan->claimed_degree > 0) {
      std::printf(" conflict degree <= %lld",
                  static_cast<long long>(plan->claimed_degree));
    }
    if (plan->claimed_groups > 0) {
      std::printf("%s address groups <= %lld",
                  plan->claimed_degree > 0 ? "," : "",
                  static_cast<long long>(plan->claimed_groups));
    }
    std::printf(" — %s\n", refuted ? "REFUTED" : "proven");
  } else {
    std::printf("claims: none registered\n");
  }

  bool mismatch = false;
  if (cli.analyze_diff) {
    const analysis::PlanDiff diff = analysis::diff_point(point);
    mismatch = !diff.match;
    std::printf("\n");
    print_table(static_dynamic_table(diff));
    std::printf("\ndynamic run: %lld time units, %lld shared / %lld global "
                "batches observed\n",
                static_cast<long long>(diff.dynamic_report.makespan),
                static_cast<long long>(diff.dynamic_shared.batches),
                static_cast<long long>(diff.dynamic_global.batches));
  }

  if (mismatch) return kExitMismatch;
  if (refuted) return kExitRefuted;
  std::printf("\nstatically certified: conflict degree <= %lld, address "
              "groups <= %lld%s\n",
              static_cast<long long>(std::max<std::int64_t>(
                  report.max_degree, 1)),
              static_cast<long long>(std::max<std::int64_t>(
                  report.max_groups, 1)),
              cli.analyze_diff ? ", confirmed dynamically" : "");
  return 0;
}

/// Export the ring sink's kept window as a Chrome trace and report what
/// was captured.
void write_trace_file(const std::string& path,
                      const telemetry::RingBufferSink& sink) {
  std::ofstream out(path);
  if (!out) throw PreconditionError("cannot open trace file: " + path);
  const std::vector<TraceEvent> events = sink.events_in_order();
  telemetry::write_chrome_trace(out, events);
  if (!out) throw PreconditionError("failed writing trace file: " + path);
  std::printf("  trace: %s (kept %lld of %lld events, dropped %lld)\n",
              path.c_str(), static_cast<long long>(sink.size()),
              static_cast<long long>(sink.events_seen()),
              static_cast<long long>(sink.dropped()));
}

void print_metrics(const MetricsSnapshot& snapshot, bool csv) {
  const Table summary = metrics_summary_table(snapshot);
  const Table histogram = metrics_histogram_table(snapshot);
  if (csv) {
    std::printf("%s\n%s", summary.to_csv().c_str(),
                histogram.to_csv().c_str());
  } else {
    std::printf("\n");
    print_table(summary);
    std::printf("\n");
    print_table(histogram);
  }
}

/// Metrics output in the requested spelling.  --metrics=json emits ONE
/// JSON object in the exact schema of the service's metrics frames
/// (report/metrics.hpp metrics_json), so a dashboard consumes local runs
/// and daemon streams with the same parser.
void print_metrics_mode(const Cli& cli, const MetricsSnapshot& snapshot) {
  if (cli.metrics_json) {
    std::printf("%s\n", json::to_string(metrics_json(snapshot)).c_str());
  } else {
    print_metrics(snapshot, cli.metrics_csv);
  }
}

/// --connect control verbs (--ping / --stats / --version / --drain):
/// one request, wait for its answer frame, print it.
int client_control(const std::string& spec, const std::string& verb) {
  service::Client client;
  client.connect(service::parse_address(spec));
  if (verb == "--ping") {
    client.send(service::PingRequest{"cli"});
  } else if (verb == "--stats") {
    client.send(service::StatsRequest{"cli"});
  } else if (verb == "--version") {
    client.send(service::VersionRequest{"cli"});
  } else {
    client.send(service::DrainRequest{"cli"});
  }
  while (true) {
    const auto frame = client.read_frame();
    if (!frame) {
      std::fprintf(stderr, "error: server closed the connection\n");
      return 1;
    }
    if (const auto* pong = std::get_if<service::PongFrame>(&*frame)) {
      (void)pong;
      std::printf("pong\n");
      return 0;
    }
    if (const auto* stats = std::get_if<service::StatsFrame>(&*frame)) {
      std::printf("%s\n",
                  json::to_string(service::stats_json(stats->stats)).c_str());
      return 0;
    }
    if (const auto* version = std::get_if<service::VersionFrame>(&*frame)) {
      std::printf("hmmsimd %s\nfeatures:", version->version.c_str());
      for (const std::string& f : version->features) {
        std::printf(" %s", f.c_str());
      }
      std::printf("\n");
      return 0;
    }
    if (const auto* bye = std::get_if<service::ByeFrame>(&*frame)) {
      std::printf("drained (served %lld run requests on this connection)\n",
                  static_cast<long long>(bye->served));
      return 0;
    }
    if (const auto* error = std::get_if<service::ErrorFrame>(&*frame)) {
      std::fprintf(stderr, "error: %s\n", error->message.c_str());
      return 1;
    }
    // Any other frame: keep reading until the answer arrives.
  }
}

/// --connect run mode: ship the sweep vocabulary to the daemon and
/// reassemble its result frames into EXACTLY the byte stream the same
/// invocation produces locally (rows print in grid order as soon as the
/// contiguous prefix is complete, so a --jobs=1 daemon streams rows
/// live).  Telemetry and drop frames go to stderr as raw NDJSON; stdout
/// stays byte-identical (locked by tools/service_roundtrip.sh).
int client_run(const Cli& cli) {
  service::Client client;
  client.connect(service::parse_address(cli.connect));
  service::RunRequest request = service::run_request(cli.grid);
  request.id = "cli";
  request.telemetry = cli.telemetry;
  // A local --machine file travels as its normalized inline document;
  // --machine-preset ships just the name and the daemon resolves it
  // against its --machines directory.  Either way the daemon re-derives
  // p/w/l/d from the spec, exactly as this process would locally.
  if (!cli.machine_preset.empty()) {
    request.machine_preset = cli.machine_preset;
  } else if (cli.grid.topology != nullptr) {
    request.machine = cli.grid.topology->document();
  }
  client.send(request);

  std::int64_t grid_points = -1;
  std::vector<std::string> rows;
  std::vector<bool> have;
  std::int64_t next_print = 0;
  std::optional<service::ResultFrame> single_result;
  std::optional<MetricsSnapshot> single_metrics;
  int exit_code = 0;
  const auto print_ready_prefix = [&] {
    while (next_print < grid_points && have[static_cast<std::size_t>(
                                          next_print)]) {
      std::printf("%s\n", rows[static_cast<std::size_t>(next_print)].c_str());
      ++next_print;
    }
  };

  while (true) {
    const auto frame = client.read_frame();
    if (!frame) {
      std::fprintf(stderr, "error: server closed the connection "
                           "mid-stream\n");
      return 1;
    }
    if (const auto* accepted = std::get_if<service::AcceptedFrame>(&*frame)) {
      grid_points = accepted->grid_points;
      rows.resize(static_cast<std::size_t>(grid_points));
      have.assign(static_cast<std::size_t>(grid_points), false);
      // Sweeps print a header unless --csv asked for bare rows — the
      // same rule the local sweep path follows.
      if (grid_points > 1 && !cli.csv) {
        std::printf("%s\n", sweep_csv_header(cli.grid.metrics, false).c_str());
      }
    } else if (const auto* result =
                   std::get_if<service::ResultFrame>(&*frame)) {
      if (grid_points == 1) {
        single_result = *result;
      } else if (result->grid_index >= 0 && result->grid_index < grid_points) {
        rows[static_cast<std::size_t>(result->grid_index)] = result->row;
        have[static_cast<std::size_t>(result->grid_index)] = true;
        print_ready_prefix();
      }
    } else if (const auto* metrics =
                   std::get_if<service::MetricsFrame>(&*frame)) {
      if (grid_points == 1) single_metrics = metrics->metrics;
    } else if (std::holds_alternative<service::TelemetryFrame>(*frame) ||
               std::holds_alternative<service::DropFrame>(*frame)) {
      std::fprintf(stderr, "%s\n", service::frame_line(*frame).c_str());
    } else if (const auto* error = std::get_if<service::ErrorFrame>(&*frame)) {
      std::fprintf(stderr, "error: %s\n", error->message.c_str());
      exit_code = 1;
      if (grid_points < 0) return exit_code;  // rejected before accepted
    } else if (const auto* done = std::get_if<service::DoneFrame>(&*frame)) {
      if (done->skipped > 0) {
        std::fprintf(stderr, "error: server skipped %lld grid points\n",
                     static_cast<long long>(done->skipped));
        exit_code = 1;
      }
      break;
    }
    // Hello was consumed by connect(); any other frame is ignored.
  }

  if (grid_points == 1) {
    if (!single_result) {
      std::fprintf(stderr, "error: no result frame received\n");
      return 1;
    }
    if (cli.csv) {
      std::printf("%s\n", single_result->row.c_str());
    } else {
      print_point(cli.grid.expand().front(),
                  {single_result->time, single_result->global_stages,
                   single_result->ff_rounds, single_result->summary});
      if (cli.grid.metrics && single_metrics) {
        print_metrics_mode(cli, *single_metrics);
      }
    }
  }
  return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
  // --version and the service control verbs bypass the sweep parser:
  // they take no algorithm.
  std::string connect_spec;
  std::string verb;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--connect=", 0) == 0) {
      connect_spec = a.substr(std::strlen("--connect="));
    } else if (a == "--ping" || a == "--stats" || a == "--drain" ||
               a == "--version") {
      verb = a;
    }
  }
  Cli cli;
  try {
    if (verb == "--version" && connect_spec.empty()) {
      if (argc != 2) return usage(argv[0]);
      print_version("hmm-sim");
      return 0;
    }
    if (!verb.empty()) {
      if (connect_spec.empty() || argc != 3) return usage(argv[0]);
      return client_control(connect_spec, verb);
    }
    if (!parse(argc, argv, cli)) return usage(argv[0]);

    run::GridSpec& grid = cli.grid;

    // Resolve --machine before anything consumes the axes: the spec
    // REPLACES the flat tuple, so every downstream surface (sweeps,
    // shards, --check, --connect, fingerprints) sees one vocabulary.
    std::shared_ptr<const topo::TopologySpec> machine;
    if (!grid.machine_path.empty()) {
      machine = std::make_shared<const topo::TopologySpec>(
          topo::parse_topology_file(grid.machine_path));
    }
    if (cli.dry_run) {
      // Validation mode: print the normalized document — for plain flags,
      // the synthesized equivalent, which is how docs/TOPOLOGY.md
      // demonstrates that flags and JSON are the same machine.
      const topo::TopologySpec spec =
          machine != nullptr
              ? *machine
              : topo::synthesize_topology("machine", grid.p[0], grid.w[0],
                                          grid.l[0], grid.d[0]);
      std::printf("%s\n", spec.document().c_str());
      return 0;
    }
    if (!grid.adopt(machine)) {
      std::fprintf(stderr,
                   "error: --machine topologies with per-DMM overrides or "
                   "links require --model hmm\n");
      return 2;
    }
    // The digest is set only for a topology the flags cannot express.
    if (!grid.machine.empty() && grid.analyze) {
      std::fprintf(stderr,
                   "error: --analyze prices the flat paper machine; it "
                   "does not compose with a non-trivial --machine "
                   "topology\n");
      return 2;
    }

    // --metrics=json is the single-run JSON mode; a sweep's metrics ride
    // the CSV columns instead.
    if (cli.metrics_json && (grid.points() != 1 || cli.sharded)) {
      std::fprintf(stderr,
                   "error: --metrics=json prints one object for a single "
                   "operating point, not a sweep\n");
      return 2;
    }
    if (!cli.connect.empty()) return client_run(cli);
    const std::vector<run::Point> points = grid.expand();

    // Plan-only mode: write the K-shard job manifest and exit without
    // simulating anything.
    if (!cli.emit_manifest_path.empty()) {
      if (cli.check || !cli.trace_path.empty()) {
        std::fprintf(stderr,
                     "error: --emit-manifest only composes with sweep flags "
                     "(not --check/--trace)\n");
        return 2;
      }
      const run::Manifest manifest = run::plan_manifest(
          grid, cli.shards, "hmmsim",
          sweep_csv_header(grid.metrics, true, grid.analyze));
      std::ofstream out(cli.emit_manifest_path);
      if (!out) {
        throw PreconditionError("cannot open manifest file: " +
                                cli.emit_manifest_path);
      }
      out << run::manifest_json(manifest);
      if (!out) {
        throw PreconditionError("failed writing manifest file: " +
                                cli.emit_manifest_path);
      }
      std::printf("manifest: %s (%lld grid points, %lld shards, "
                  "fingerprint %s)\n",
                  cli.emit_manifest_path.c_str(),
                  static_cast<long long>(manifest.grid_points),
                  static_cast<long long>(manifest.shards),
                  manifest.fingerprint.c_str());
      return 0;
    }

    if (cli.check) {
      if (cli.sharded) {
        std::fprintf(stderr,
                     "error: --check does not compose with --shard\n");
        return 2;
      }
      if (points.size() != 1) {
        std::fprintf(stderr,
                     "error: --check needs a single operating point, not a "
                     "sweep\n");
        return 2;
      }
      return run_checked(points.front(), cli);
    }

    // The dmm model exists only in the analyzer's vocabulary, and its
    // workloads are single-point (no span driver to sweep).
    if (grid.model == "dmm" && (points.size() != 1 || cli.sharded)) {
      std::fprintf(stderr,
                   "error: --model dmm analyzes a single operating point, "
                   "not a sweep\n");
      return 2;
    }

    // Single-point --analyze prints the certificate (and diff) tables;
    // with --csv it instead rides the sweep row format, static columns
    // included, so scripts get one schema whatever the grid size.
    if (grid.analyze && points.size() == 1 && !cli.sharded && !cli.csv) {
      return run_analyze(points.front(), cli);
    }

    if (points.size() == 1 && !cli.sharded) {
      const run::Point& point = points.front();
      telemetry::RingBufferSink sink(cli.trace_capacity);
      const Outcome out =
          evaluate(point, grid, cli.trace_path.empty() ? nullptr : &sink);
      if (cli.csv) {
        print_csv_row(point, out);
      } else {
        print_point(point, out.result);
      }
      if (!cli.trace_path.empty()) write_trace_file(cli.trace_path, sink);
      if (grid.metrics && !cli.csv) print_metrics_mode(cli, *out.metrics);
      return 0;
    }

    if (!cli.trace_path.empty()) {
      std::fprintf(stderr,
                   "error: --trace needs a single operating point, not a "
                   "%s\n",
                   cli.sharded ? "shard run" : "sweep");
      return 2;
    }

    // Sweep: evaluate every owned grid point (all of them unless --shard
    // picked a round-robin share) across the pool, then print rows in
    // grid order — results are deterministic at any job count.  Shard
    // runs always print a header and tag rows with grid_index, shard and
    // fingerprint for hmm-merge, which checks header consistency across
    // every shard file.
    const std::vector<std::int64_t> own =
        cli.shard.indices(static_cast<std::int64_t>(points.size()));
    std::vector<Outcome> outcomes(own.size());
    const run::SweepRunner pool(cli.jobs);
    pool.for_each(static_cast<std::int64_t>(own.size()), [&](std::int64_t i) {
      const auto k = static_cast<std::size_t>(i);
      outcomes[k] = evaluate(points[static_cast<std::size_t>(own[k])], grid);
    });
    if (cli.sharded || !cli.csv) {
      std::printf("%s\n", sweep_csv_header(grid.metrics, cli.sharded,
                                            grid.analyze)
                              .c_str());
    }
    const std::string fingerprint = grid.fingerprint();
    for (std::size_t i = 0; i < own.size(); ++i) {
      const ShardTag tag{own[i], cli.shard.shard, fingerprint};
      print_csv_row(points[static_cast<std::size_t>(own[i])], outcomes[i],
                    cli.sharded ? &tag : nullptr);
    }
    return 0;
  } catch (const topo::TopologySpecError& e) {
    // A bad --machine file is a distinct, scriptable failure class
    // (CI validates every preset with --dry-run; docs/TOPOLOGY.md).
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitBadMachine;
  } catch (const DeadlockError& e) {
    // The engine's no-progress watchdog: its own exit code, so harnesses
    // can tell "the kernel hung" from any other failure.
    std::fprintf(stderr, "error: %s\n", e.what());
    return kExitDeadlock;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
