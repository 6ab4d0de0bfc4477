// service_mix — hmmsimd over a unix socket, default admission caps,
// driven from this process.
//
//  * set-up: start the daemon, connect, send every request template once
//    so worker arenas, pattern caches and the daemon's WorkloadCache are
//    warm (repeated kSetupReps times; the last daemon is measured);
//  * open loop: Poisson arrivals at a fixed offered rate below capacity,
//    spread over kConnections connections; latency runs from when each
//    request was due, so generator lateness counts against it;
//  * closed loop: kConnections clients each keeping one request
//    outstanding, as `hmmsim --connect` clients do, in batches of the
//    same composition for every seed.
//
// Latencies and batch times are scaled by a probe of the daemon's core
// (core_probe_ms) taken just before their segment or batch.
//
// The mix is mostly single points, some small sweeps that stream rows and
// a few requests with a telemetry budget, from a small pool, in fixed
// shares.  Every result row must be byte-identical to the row a local
// run_point renders.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <variant>

#include "common.hpp"
#include "core/error.hpp"
#include "core/rng.hpp"
#include "report/sweep_csv.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "telemetry/metrics.hpp"

namespace bench {
namespace {

namespace svc = hmm::service;

constexpr int kConnections = 4;         ///< open- and closed-loop clients
constexpr int kDaemonJobs = 1;          ///< hmmsimd --jobs (its default)
constexpr double kOfferedRate = 100.0;  ///< open-loop requests per second
constexpr double kSloMs = 25.0;         ///< fixed p99 latency limit
constexpr int kRounds = 8;              ///< open/closed alternations per run

// ---- the daemon ---------------------------------------------------------------

/// One hmmsimd process.  The destructor kills and reaps it if it is still
/// running, so no exit path leaves it behind.
class Daemon {
 public:
  Daemon(const Options& opt, int index) {
    const std::string stem = opt.out_dir + "/hmmsimd-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(index);
    address_ = svc::parse_address("unix:" + stem + ".sock");
    log_ = stem + ".log";
    const std::string listen = "--listen=" + address_.spec();
    const std::string jobs = "--jobs=" + std::to_string(kDaemonJobs);
    const std::string machines = "--machines=" + opt.machines_dir;
    std::vector<char*> argv = {const_cast<char*>(opt.daemon.c_str()),
                               const_cast<char*>(listen.c_str()),
                               const_cast<char*>(jobs.c_str()),
                               const_cast<char*>(machines.c_str()), nullptr};
    // A log left by an earlier process with the same pid must not be
    // read as this daemon's "listening" line.
    ::unlink(log_.c_str());
    pid_ = ::fork();
    if (pid_ < 0) throw hmm::PreconditionError("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    // The daemon prints "... listening on ADDR" once it accepts.
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    for (;;) {
      std::ifstream in(log_);
      std::stringstream text;
      text << in.rdbuf();
      if (text.str().find("listening on") != std::string::npos) break;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw hmm::PreconditionError("hmmsimd exited at start: " + text.str());
      }
      if (Clock::now() > deadline) {
        kill();
        throw hmm::PreconditionError("hmmsimd did not start listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  ~Daemon() { kill(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const svc::Address& address() const { return address_; }
  int pid() const { return pid_; }

  /// Move every daemon thread onto the k-th of `cpus`, and the calling
  /// thread (so every client thread it starts) onto the others.  With
  /// --jobs=1 the daemon's work is serial, and its thread handoffs cost
  /// far less, and far more steadily, on one core of a virtual machine
  /// than across cores.  Rotating k between segments makes one run sample
  /// every core: the cores of a shared host run at different, drifting
  /// speeds.  Needs at least two CPUs; does nothing otherwise.
  void pin(const std::vector<int>& cpus, std::size_t k) const {
    if (pid_ < 0 || cpus.size() < 2) return;
    const int cpu = cpus[k % cpus.size()];
    std::vector<int> rest;
    for (const int c : cpus) {
      if (c != cpu) rest.push_back(c);
    }
    std::error_code ec;
    for (const auto& task : std::filesystem::directory_iterator(
             "/proc/" + std::to_string(pid_) + "/task", ec)) {
      set_cpus(std::stoi(task.path().filename().string()), {cpu});
    }
    set_cpus(0, rest);
  }

  /// Graceful drain; returns false if the daemon had to be killed.
  bool drain() {
    if (pid_ < 0) return true;
    try {
      svc::Client c;
      c.connect(address_);
      c.send(svc::DrainRequest{"drain"});
      while (auto f = c.read_frame()) {
        if (std::holds_alternative<svc::ByeFrame>(*f)) break;
      }
    } catch (const std::exception&) {
      // Fall through to the bounded wait below.
    }
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill();
    return false;
  }

  void kill() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  svc::Address address_;
  std::string log_;
  pid_t pid_ = -1;
};

// ---- the request pool -------------------------------------------------------

struct Template {
  svc::RunRequest request;
  std::string cls;                ///< point, sweep or telemetry
  std::vector<GridPoint> points;  ///< expand_grid order
  std::vector<std::string> rows;  ///< expected result rows, by grid index
  double local_ms = 0.0;          ///< local run_point time of its points
};

std::vector<Template> make_pool(const Options& opt) {
  std::vector<Template> pool;
  auto add = [&](std::string cls, std::string alg, std::string model,
                 std::vector<std::int64_t> n, std::int64_t m,
                 std::vector<std::int64_t> l, std::int64_t d,
                 std::int64_t telemetry = 0) {
    Template t;
    t.cls = std::move(cls);
    svc::RunRequest& r = t.request;
    r.algorithm = std::move(alg);
    r.model = std::move(model);
    r.n = std::move(n);
    r.m = {m};
    r.p = {256};
    r.w = {32};
    r.l = std::move(l);
    r.d = {d};
    r.seed = opt.seed;
    r.telemetry = telemetry;
    for (const hmm::run::Point& p : svc::expand_grid(r)) {
      t.points.push_back({p, point_label(p, "")});
    }
    pool.push_back(std::move(t));
  };
  add("point", "sum", "hmm", {4096}, 32, {400}, 4);
  add("point", "sum", "umm", {4096}, 32, {400}, 4);
  add("point", "scan", "hmm", {2048}, 32, {400}, 8);
  add("point", "scan", "umm", {2048}, 32, {400}, 8);
  add("point", "conv", "hmm", {1024}, 16, {400}, 4);
  add("point", "conv", "umm", {1024}, 16, {400}, 4);
  add("point", "sort", "hmm", {512}, 32, {400}, 4);
  add("point", "sort", "umm", {512}, 32, {400}, 4);
  add("point", "matmul", "hmm", {16}, 32, {400}, 4);
  add("point", "matmul", "umm", {16}, 32, {400}, 4);
  add("point", "match", "hmm", {512}, 8, {400}, 4);
  add("point", "match", "umm", {256}, 8, {400}, 4);
  add("sweep", "sum", "hmm", {1024, 4096}, 32, {100, 400}, 4);
  add("sweep", "scan", "umm", {1024, 2048}, 32, {100, 400}, 4);
  add("telemetry", "sum", "hmm", {2048}, 32, {400}, 4, 256);
  add("telemetry", "sort", "umm", {512}, 32, {400}, 4, 256);
  return pool;
}

/// Template indices, each `copies(class)` times, shuffled by `rng`.
template <typename Copies>
std::vector<int> shuffled(const std::vector<Template>& pool, Copies copies,
                          hmm::Rng& rng) {
  std::vector<int> order;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (int k = 0; k < copies(pool[i].cls); ++k) {
      order.push_back(static_cast<int>(i));
    }
  }
  for (std::size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[static_cast<std::size_t>(rng.next_below(i + 1))]);
  }
  return order;
}

/// The open-loop draws: decks of 120 holding every point template 8
/// times, every sweep template 9 times and every telemetry template 3
/// times (80% / 15% / 5%), each shuffled by `rng` and dealt in turn.  A
/// fixed composition keeps the mix, and so the latency tail, the same
/// for every seed; only the order varies with it.
class Deck {
 public:
  explicit Deck(const std::vector<Template>& pool) : pool_(pool) {}
  int deal(hmm::Rng& rng) {
    if (next_ == cards_.size()) {
      cards_ = shuffled(
          pool_,
          [](const std::string& cls) {
            return cls == "point" ? 8 : cls == "sweep" ? 9 : 3;
          },
          rng);
      next_ = 0;
    }
    return cards_[next_++];
  }

 private:
  const std::vector<Template>& pool_;
  std::vector<int> cards_;
  std::size_t next_ = 0;
};

/// The closed-loop batch order: every point and sweep template twice and
/// every telemetry template once (80% / 13% / 7%), shuffled by `rng`.  A
/// fixed composition keeps the batch's work the same for every seed, so
/// only the order varies with it.
std::vector<int> closed_order(const std::vector<Template>& pool, hmm::Rng& rng) {
  return shuffled(
      pool, [](const std::string& cls) { return cls == "telemetry" ? 1 : 2; },
      rng);
}

// ---- one request on the wire -------------------------------------------------

struct Record {
  int tmpl = 0;
  int conn = 0;
  double probe_ms = 0.0;  ///< open loop: core_probe_ms before its segment
  Clock::time_point due, sent, accepted, first_row, done;
  bool accepted_seen = false;
  bool first_seen = false;
  bool finished = false;
  bool failed = false;
  std::string why;
  std::vector<std::string> rows;
  std::int64_t telemetry_frames = 0;
  std::int64_t done_rows = 0;
  std::int64_t done_telemetry = 0;
  std::int64_t done_dropped = 0;  ///< events past the telemetry budget
  std::vector<std::pair<Clock::time_point, Clock::time_point>> parses;
};

/// Parse one frame line, timing json::parse + frame_from_json.
svc::Frame parse_frame(const std::string& line, Clock::time_point* t0,
                       Clock::time_point* t1) {
  *t0 = Clock::now();
  svc::Frame f = svc::frame_from_json(hmm::json::parse(line));
  *t1 = Clock::now();
  return f;
}

std::string req_of(const svc::Frame& f) {
  return std::visit(
      [](const auto& x) -> std::string {
        if constexpr (requires { x.req; }) {
          return x.req;
        } else {
          return "";
        }
      },
      f);
}

/// Fold one frame into its request's record; true once the request is
/// finished (done frame, or an error before acceptance: a refusal).
bool apply(Record& r, const svc::Frame& f, Clock::time_point at) {
  if (std::holds_alternative<svc::AcceptedFrame>(f)) {
    r.accepted = at;
    r.accepted_seen = true;
  } else if (const auto* res = std::get_if<svc::ResultFrame>(&f)) {
    if (!r.first_seen) {
      r.first_row = at;
      r.first_seen = true;
    }
    const auto i = static_cast<std::size_t>(res->grid_index);
    if (i >= r.rows.size()) r.rows.resize(i + 1);
    r.rows[i] = res->row;
  } else if (std::holds_alternative<svc::TelemetryFrame>(f)) {
    ++r.telemetry_frames;
  } else if (const auto* e = std::get_if<svc::ErrorFrame>(&f)) {
    r.failed = true;
    r.why = e->message;
    if (!r.accepted_seen) {
      r.done = at;
      r.finished = true;
    }
  } else if (const auto* d = std::get_if<svc::DoneFrame>(&f)) {
    r.done = at;
    r.done_rows = d->rows;
    r.done_telemetry = d->telemetry_frames;
    r.done_dropped = d->telemetry_dropped;
    r.finished = true;
  }
  return r.finished;
}

/// Verify a finished request: streamed rows byte-identical to the local
/// rows, nothing refused or failed, telemetry frames all accounted for.
void check_record(Context& ctx, const std::vector<Template>& pool,
                  const Record& r, const std::string& id) {
  const Template& t = pool[static_cast<std::size_t>(r.tmpl)];
  std::string why;
  if (!r.finished) {
    why = "no done frame";
  } else if (r.failed) {
    why = "error: " + r.why;
  } else if (r.rows != t.rows) {
    why = "rows differ from the local rows";
  } else if (r.done_rows != static_cast<std::int64_t>(t.rows.size())) {
    why = "done frame counted " + std::to_string(r.done_rows) + " rows";
  } else if (r.telemetry_frames != r.done_telemetry) {
    why = "telemetry frames read " + std::to_string(r.telemetry_frames) +
          " != done frame's " + std::to_string(r.done_telemetry);
  }
  ctx.report.op(why.empty(), "service_mix request " + id + " (" +
                                 t.request.algorithm + "/" + t.request.model +
                                 "): " + why);
}

svc::RunRequest with_id(const Template& t, std::string id) {
  svc::RunRequest r = t.request;
  r.id = std::move(id);
  return r;
}

/// Turn finished records into spans: request -> late/admit/first_row/
/// stream phases, with each frame parse under the phase it fell in.
void record_spans(Tracer& tr, const std::vector<Record>& records,
                  std::int64_t req_base) {
  if (!tr.enabled()) return;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const Record& r = records[i];
    if (!r.finished) continue;
    const auto req = req_base + static_cast<std::int64_t>(i);
    const std::int64_t root = tr.add("bench", "bench.request", r.due, r.done, -1, req);
    const Clock::time_point first = r.first_seen ? r.first_row : r.done;
    const Clock::time_point acc = r.accepted_seen ? r.accepted : r.done;
    struct Phase {
      const char* name;
      Clock::time_point a, b;
      std::int64_t id;
    };
    Phase phases[] = {{"service.gen_late", r.due, r.sent, -1},
                      {"service.admit", r.sent, acc, -1},
                      {"service.first_row", acc, first, -1},
                      {"service.stream", first, r.done, -1}};
    for (Phase& p : phases) p.id = tr.add("service", p.name, p.a, p.b, root, req);
    for (const auto& [a, b] : r.parses) {
      std::int64_t parent = root;
      for (const Phase& p : phases) {
        if (a >= p.a && a <= p.b) parent = p.id;
      }
      tr.add("core", "core.json_parse", a, b, parent, req);
    }
  }
}

/// Read frames for `open` requests until each is finished or the
/// connection ends.  `parse_us` accumulates the parse cost.  Runs on its
/// own thread, so a socket or parse error only ends the reading: the
/// requests left unfinished count as failures.
void read_until_done(svc::Client& client, std::vector<Record>& records,
                     std::size_t open, std::mutex& mu, bool keep_parses,
                     double* parse_us, std::int64_t* frames) noexcept {
  try {
    while (open > 0) {
      const auto line = client.read_line();
      if (!line) break;
      const auto at = Clock::now();
      Clock::time_point t0, t1;
      const svc::Frame f = parse_frame(*line, &t0, &t1);
      *parse_us += std::chrono::duration<double, std::micro>(t1 - t0).count();
      ++*frames;
      const std::string req = req_of(f);
      if (req.size() < 2) continue;  // heartbeat, hello, ...
      const auto i = static_cast<std::size_t>(std::stoll(req.substr(1)));
      if (i >= records.size()) continue;
      const std::lock_guard<std::mutex> lock(mu);
      Record& r = records[i];
      if (keep_parses) r.parses.emplace_back(t0, t1);
      if (!r.finished && apply(r, f, at)) --open;
    }
  } catch (const std::exception&) {
    // Unfinished requests are reported by check_record.
  }
}

// ---- phases ------------------------------------------------------------------

struct Service {
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<svc::Client>> clients;
  std::int64_t warmup_dropped = 0;  ///< telemetry drops of the warm-up
};

/// Start a daemon, connect every client and warm every template once.
Service start_service(const Options& opt, const std::vector<Template>& pool,
                      int index) {
  Service s;
  s.daemon = std::make_unique<Daemon>(opt, index);
  for (int c = 0; c < kConnections; ++c) {
    s.clients.push_back(std::make_unique<svc::Client>());
    s.clients.back()->connect(s.daemon->address());
  }
  svc::Client& c0 = *s.clients.front();
  for (std::size_t i = 0; i < pool.size(); ++i) {
    c0.send(with_id(pool[i], "w" + std::to_string(i)));
    for (;;) {
      const auto f = c0.read_frame();
      if (!f) throw hmm::PreconditionError("daemon closed during warm-up");
      if (const auto* e = std::get_if<svc::ErrorFrame>(&*f)) {
        throw hmm::PreconditionError("warm-up refused: " + e->message);
      }
      if (const auto* d = std::get_if<svc::DoneFrame>(&*f)) {
        s.warmup_dropped += d->telemetry_dropped;
        break;
      }
    }
  }
  return s;
}

struct OpenLoop {
  std::vector<Record> records;
  double parse_us = 0.0;
  std::int64_t frames = 0;
};

OpenLoop open_loop(Service& s, const std::vector<Template>& pool, Deck& deck,
                   hmm::Rng& rng, double seconds, bool keep_parses) {
  OpenLoop ol;
  double t = 0.0;
  std::vector<double> due_s;
  while (true) {
    t += -std::log(1.0 - rng.next_double()) / kOfferedRate;
    if (t >= seconds) break;
    due_s.push_back(t);
  }
  ol.records.resize(due_s.size());
  std::vector<std::size_t> mine(kConnections, 0);  // requests per connection
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    Record& r = ol.records[i];
    r.tmpl = deck.deal(rng);
    r.conn = static_cast<int>(i % kConnections);
    ++mine[static_cast<std::size_t>(r.conn)];
  }

  std::mutex mu[kConnections];
  double parse_us[kConnections] = {};
  std::int64_t frames[kConnections] = {};
  std::atomic<int> readers_done{0};
  std::vector<std::thread> readers;
  for (int c = 0; c < kConnections; ++c) {
    readers.emplace_back([&, c] {
      read_until_done(*s.clients[static_cast<std::size_t>(c)], ol.records,
                      mine[static_cast<std::size_t>(c)], mu[c], keep_parses,
                      &parse_us[c], &frames[c]);
      readers_done.fetch_add(1);
    });
  }
  const auto origin = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    Record& r = ol.records[i];
    const auto due = origin + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(due_s[i]));
    std::this_thread::sleep_until(due);
    {
      const std::lock_guard<std::mutex> lock(mu[r.conn]);
      r.due = due;
      r.sent = Clock::now();
    }
    try {
      s.clients[static_cast<std::size_t>(r.conn)]->send(with_id(
          pool[static_cast<std::size_t>(r.tmpl)], "o" + std::to_string(i)));
    } catch (const std::exception&) {
      break;  // the daemon is gone; the tail wait below ends the readers
    }
  }
  // Bounded wait for the tail; a hung daemon is killed, which ends every
  // reader with EOF and leaves its requests unfinished (failures).
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  while (readers_done.load() < kConnections && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (readers_done.load() < kConnections) s.daemon->kill();
  for (std::thread& th : readers) th.join();
  for (int c = 0; c < kConnections; ++c) {
    ol.parse_us += parse_us[c];
    ol.frames += frames[c];
  }
  return ol;
}

struct Batch {
  double wall_ms = 0.0;
  double probe_ms = 0.0;  ///< core_probe_ms on its core just before it
  std::vector<Record> records;
};

/// kConnections clients, each sending `order` one request at a time.
Batch closed_batch(Service& s, const std::vector<Template>& pool,
                   const std::vector<int>& order, bool keep_parses) {
  Batch b;
  b.records.resize(order.size() * kConnections);
  std::mutex mu[kConnections];
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      svc::Client& client = *s.clients[static_cast<std::size_t>(c)];
      double parse_us = 0.0;
      std::int64_t frames = 0;
      for (std::size_t k = 0; k < order.size(); ++k) {
        const std::size_t i = k * kConnections + static_cast<std::size_t>(c);
        Record& r = b.records[i];
        r.tmpl = order[k];
        r.conn = c;
        r.due = r.sent = Clock::now();
        try {
          client.send(with_id(pool[static_cast<std::size_t>(r.tmpl)],
                              "c" + std::to_string(i)));
        } catch (const std::exception&) {
          break;  // connection lost: the rest stay unfinished (failures)
        }
        read_until_done(client, b.records, 1, mu[c], keep_parses, &parse_us,
                        &frames);
        if (!r.finished) break;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  b.wall_ms = ms_since(t0);
  return b;
}

double latency_ms(const Record& r) { return ms_between(r.due, r.done); }

}  // namespace

void service_mix(Context& ctx) {
  const Options& opt = ctx.opt;
  std::vector<Template> pool = make_pool(opt);

  // Expected rows and local cost, from run_point in this process.
  hmm::alg::WorkloadCache workloads;
  std::vector<GridPoint> distinct;
  std::set<std::string> seen;
  double fill_ms = 0.0;
  {
    const auto t0 = Clock::now();
    for (const Template& t : pool) {
      for (const GridPoint& g : t.points) prefill_inputs(g.point, workloads);
    }
    fill_ms = ms_since(t0);
  }
  double point_ms = 0.0;
  for (Template& t : pool) {
    for (const GridPoint& g : t.points) {
      std::vector<double> reps;
      hmm::run::PointOutcome o;
      // The daemon's telemetry sink is an observer, and any observer
      // turns replay off (ff_rounds 0); a registry does the same here.
      hmm::telemetry::MetricsRegistry registry;
      hmm::EngineObserver* observer =
          t.request.telemetry > 0 ? &registry : nullptr;
      for (int rep = 0; rep < 3; ++rep) {
        const auto t0 = Clock::now();
        o = hmm::run::run_point(g.point, workloads, observer);
        reps.push_back(ms_since(t0));
      }
      t.local_ms += median(reps);
      const hmm::run::Point& p = g.point;
      t.rows.push_back(hmm::sweep_csv_row(
          {p.algorithm, p.model, p.n, p.m, p.p, p.w, p.l, p.d},
          {o.time, o.global_stages, o.ff_rounds}));
      check_outcome(ctx, "service_mix", g.label, o,
                    host_reference(p, workloads).summary);
      if (seen.insert(g.label).second) {
        distinct.push_back(g);
        point_ms += median(reps);
      }
    }
  }
  if (opt.print_digests) {
    count_pass(ctx, "service_mix", distinct, workloads, 1);
    return;
  }

  // Set-up, kSetupReps times; the last daemon is measured.
  std::vector<double> setup_ms;
  Service s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (s.daemon) ctx.report.op(s.daemon->drain(), "daemon did not drain cleanly");
    const auto t0 = Clock::now();
    s = start_service(opt, pool, rep);
    setup_ms.push_back(ms_since(t0));
  }

  // kRounds rounds of an open-loop segment followed by closed-loop
  // batches, so both phases sample the whole run.  Each closed-loop batch
  // sends a fresh order of the same composition; a traced run alternates
  // untraced and traced batches.  A batch runs its clients on the
  // daemon's core, so its time is that core's work alone, with no
  // wake-ups across cores; open-loop clients run on the other cores, so
  // the generator keeps its schedule while the daemon is busy.  The
  // daemon's core is probed (core_probe_ms) before each segment and
  // batch, and their times are scaled by that probe.
  hmm::Rng arrivals(opt.seed * 0x9E3779B97F4A7C15ULL + 11);
  hmm::Rng rng(opt.seed * 0xD1B54A32D192ED03ULL + 29);
  std::vector<int> order;
  Deck deck(pool);
  OpenLoop ol;
  std::vector<Batch> plain, traced;
  std::int64_t req_base = 0;
  const std::vector<int> cpus = allowed_cpus();
  const auto onto = [&](std::size_t k) {
    if (cpus.size() >= 2) set_cpus(0, {cpus[k % cpus.size()]});
  };
  for (int round = 0; round < kRounds; ++round) {
    ctx.tracer.set_enabled(opt.trace);
    onto(static_cast<std::size_t>(round));
    const double seg_probe_ms = core_probe_ms();
    s.daemon->pin(cpus, static_cast<std::size_t>(round));
    OpenLoop seg = open_loop(s, pool, deck, arrivals,
                             opt.seconds * 0.6 / kRounds, opt.trace);
    record_spans(ctx.tracer, seg.records, req_base);
    ctx.tracer.set_enabled(false);
    req_base += static_cast<std::int64_t>(seg.records.size());
    ol.parse_us += seg.parse_us;
    ol.frames += seg.frames;
    for (Record& r : seg.records) {
      r.probe_ms = seg_probe_ms;
      ol.records.push_back(std::move(r));
    }

    const auto closed_start = Clock::now();
    for (int i = 0;; ++i) {
      const bool trace_this = opt.trace && i % 2 == 1;
      ctx.tracer.set_enabled(trace_this);
      const auto core = static_cast<std::size_t>(round + i);
      s.daemon->pin(cpus, core);
      onto(core);
      order = closed_order(pool, rng);
      const double probe_ms = core_probe_ms();
      Batch b = closed_batch(s, pool, order, trace_this);
      b.probe_ms = probe_ms;
      record_spans(ctx.tracer, b.records, req_base);
      ctx.tracer.set_enabled(false);
      req_base += static_cast<std::int64_t>(b.records.size());
      (trace_this ? traced : plain).push_back(std::move(b));
      if (i >= (opt.trace ? 1 : 0) &&
          ms_since(closed_start) >= opt.seconds * 0.4 * 1000.0 / kRounds) {
        break;
      }
    }
  }
  set_cpus(0, cpus);

  // Service-side counters, then a clean drain.
  svc::ServiceStatsSnapshot stats;
  {
    svc::Client c;
    c.connect(s.daemon->address());
    c.send(svc::StatsRequest{"stats"});
    while (auto f = c.read_frame()) {
      if (const auto* sf = std::get_if<svc::StatsFrame>(&*f)) {
        stats = sf->stats;
        break;
      }
    }
  }
  const double daemon_rss = process_peak_rss_mib(s.daemon->pid());
  s.clients.clear();
  ctx.report.op(s.daemon->drain(), "daemon did not drain cleanly");

  // Correctness of every request, then the latency figures.
  std::vector<double> open_lat, late;
  std::int64_t misses = 0, failures = 0;
  std::set<int> drawn;
  for (std::size_t i = 0; i < ol.records.size(); ++i) {
    const Record& r = ol.records[i];
    check_record(ctx, pool, r, "o" + std::to_string(i));
    drawn.insert(r.tmpl);
    if (!r.finished || r.failed) {
      ++failures;
      ++misses;
      continue;
    }
    open_lat.push_back(to_ref(latency_ms(r), r.probe_ms));
    late.push_back(ms_between(r.due, r.sent));
    if (latency_ms(r) > kSloMs) ++misses;
  }
  std::vector<double> walls, probes;
  for (const auto* batches : {&plain, &traced}) {
    for (const Batch& b : *batches) {
      for (std::size_t i = 0; i < b.records.size(); ++i) {
        const Record& r = b.records[i];
        check_record(ctx, pool, r, "c" + std::to_string(i));
        if (!r.finished || r.failed) ++failures;
      }
      if (batches == &plain) {
        walls.push_back(b.wall_ms);
        probes.push_back(b.probe_ms);
      }
    }
  }
  ctx.report.op(stats.requests_rejected == 0 && stats.requests_failed == 0,
                "daemon rejected " + std::to_string(stats.requests_rejected) +
                    " and failed " + std::to_string(stats.requests_failed) +
                    " requests");
  // The daemon's drop counter must equal the drops its done frames
  // reported.  The open loop's share is fixed by the seed (the closed
  // loop's batch count is not), so that share is the exact count.
  std::int64_t open_dropped = 0, all_dropped = s.warmup_dropped;
  for (const Record& r : ol.records) open_dropped += r.done_dropped;
  all_dropped += open_dropped;
  for (const auto* batches : {&plain, &traced}) {
    for (const Batch& b : *batches) {
      for (const Record& r : b.records) all_dropped += r.done_dropped;
    }
  }
  ctx.report.op(stats.telemetry_dropped == all_dropped,
                "stats count " + std::to_string(stats.telemetry_dropped) +
                    " dropped telemetry events, done frames " +
                    std::to_string(all_dropped));

  const auto n_open = static_cast<std::int64_t>(ol.records.size());
  const double batch_ms = median(walls);
  const double batch_requests =
      static_cast<double>(order.size()) * kConnections;
  const auto attempted =
      static_cast<double>(n_open) +
      batch_requests * static_cast<double>(plain.size() + traced.size());
  ctx.report.extra("fail_frac", static_cast<double>(failures) / attempted,
                   "ratio", static_cast<std::int64_t>(attempted));
  ctx.report.extra("svc_slo_miss_frac",
                   static_cast<double>(misses) / static_cast<double>(n_open),
                   "ratio", n_open);
  ctx.report.extra("gen_late_p99_ms", quantile(late, 0.99), "ms",
                   static_cast<std::int64_t>(late.size()));
  ctx.report.extra("gen_late_max_ms", quantile(late, 1.0), "ms",
                   static_cast<std::int64_t>(late.size()));
  ctx.report.extra("offered_rate", kOfferedRate, "1/s", n_open);  ctx.report.extra("repeat_share",
                   n_open > 0 ? 1.0 - static_cast<double>(drawn.size()) /
                                          static_cast<double>(n_open)
                              : 0.0,
                   "ratio", n_open);
  ctx.report.note("slo", "p99 limit " + std::to_string(kSloMs) + " ms");
  ctx.report.note("load", "open loop " + std::to_string(n_open) +
                              " requests over " + std::to_string(kConnections) +
                              " connections; closed loop " +
                              std::to_string(kConnections) + " clients x " +
                              std::to_string(order.size()) + " per batch");

  if (!opt.trace) {
    report_times(ctx, median(setup_ms), walls, probes, batch_requests,
                 open_lat);
    ctx.report.metric("peak_rss_mb", daemon_rss, "MiB", 1);
    return;
  }

  const CountPass first = count_pass(ctx, "service_mix", distinct, workloads, 1);
  const CountPass second = count_pass(ctx, "service_mix", distinct, workloads, 1);
  // Per-phase medians and the service's cost over local execution, from
  // the open loop (below capacity, so queueing adds little).
  std::vector<double> admit, first_row, stream;
  double service_ms = 0.0, local_ms = 0.0;
  for (const Record& r : ol.records) {
    if (!r.finished || r.failed) continue;
    service_ms += ms_between(r.sent, r.done);
    local_ms += pool[static_cast<std::size_t>(r.tmpl)].local_ms;
    admit.push_back(ms_between(r.sent, r.accepted));
    first_row.push_back(ms_between(r.accepted, r.first_row));
    stream.push_back(ms_between(r.first_row, r.done));
  }
  const auto n = static_cast<std::int64_t>(admit.size());
  ctx.report.metric("run.point_ms", point_ms, "ms",
                    static_cast<std::int64_t>(distinct.size()));
  ctx.report.metric("alg.workload_ms", fill_ms, "ms", 1);
  report_counts(ctx, first.counts, second.counts, point_ms);
  ctx.report.metric("service.admit_ms", median(admit), "ms", n);
  ctx.report.metric("service.first_row_ms", median(first_row), "ms", n);
  ctx.report.metric("service.stream_ms", median(stream), "ms", n);
  ctx.report.metric("service.overhead_ratio", service_ms / local_ms, "ratio",
                    n);
  ctx.report.metric("service.rejected",
                    static_cast<double>(stats.requests_rejected), "count", 1);
  ctx.report.metric("service.telemetry_dropped",
                    static_cast<double>(open_dropped), "count", n_open);
  ctx.report.metric("service.gen_late_ms", quantile(late, 0.99), "ms",
                    static_cast<std::int64_t>(late.size()));
  ctx.report.metric("core.json_parse_us",
                    ol.frames > 0 ? ol.parse_us / static_cast<double>(ol.frames)
                                  : 0.0,
                    "us", ol.frames);
  std::vector<double> traced_walls;
  for (const Batch& b : traced) traced_walls.push_back(b.wall_ms);
  ctx.report.metric("trace.overhead_ms", median(traced_walls) - batch_ms, "ms",
                    static_cast<std::int64_t>(traced.size()));
  report_self_times(
      ctx, static_cast<double>(n_open) +
               batch_requests * static_cast<double>(traced.size()));
  ctx.tracer.write_chrome_trace(opt.out_dir + "/service_mix-seed" +
                                std::to_string(opt.seed) + "-spans.json");
}

}  // namespace bench
