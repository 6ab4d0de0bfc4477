#include "service/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <map>
#include <optional>
#include <utility>

#include "core/error.hpp"
#include "core/version.hpp"
#include "machine/machine.hpp"
#include "machine/topology_spec.hpp"
#include "report/sweep_csv.hpp"
#include "run/sweep.hpp"
#include "telemetry/fanout.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/ndjson.hpp"

namespace hmm::service {
namespace {

std::vector<std::string> feature_list() {
  return std::vector<std::string>(kFeatures, kFeatures + kFeatureCount);
}

// Preset names index into the daemon's --machines directory, so they are
// restricted to a single path component: [A-Za-z0-9._-]+ with no "..".
bool valid_preset_name(const std::string& name) {
  if (name.empty() || name.find("..") != std::string::npos) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

// Resolve a run request's machine topology (inline object or server-side
// preset) to a spec, or null when the request uses the flat axes.
// Throws TopologySpecError / PreconditionError; admission turns that
// into an error frame.
std::shared_ptr<const topo::TopologySpec> resolve_machine(
    const RunRequest& request, const std::string& machines_dir) {
  if (!request.machine_preset.empty()) {
    if (machines_dir.empty()) {
      throw PreconditionError(
          "machine_preset: this daemon was started without --machines");
    }
    if (!valid_preset_name(request.machine_preset)) {
      throw PreconditionError("machine_preset: invalid name \"" +
                              request.machine_preset +
                              "\" (want [A-Za-z0-9._-]+)");
    }
    return std::make_shared<const topo::TopologySpec>(topo::parse_topology_file(
        machines_dir + "/" + request.machine_preset + ".json"));
  }
  if (!request.machine.empty()) {
    return std::make_shared<const topo::TopologySpec>(
        topo::parse_topology_text(request.machine, "run request machine"));
  }
  return nullptr;
}

// Lends a RunScratch from the server's idle list to the calling thread
// (Machine::set_thread_scratch) for one grid point, and gives it back
// even when the point throws.  A new one is made only when every
// scratch is lent out; the executor runs at most `jobs` points at once,
// so at most `jobs` ever exist.
class ScratchLease {
 public:
  using IdleList = std::vector<std::unique_ptr<RunScratch>>;

  ScratchLease(std::mutex& mu, IdleList& idle) : mu_(mu), idle_(idle) {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      if (!idle_.empty()) {
        scratch_ = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    if (scratch_ == nullptr) scratch_ = std::make_unique<RunScratch>();
    Machine::set_thread_scratch(scratch_.get());
  }
  ~ScratchLease() {
    Machine::set_thread_scratch(nullptr);
    const std::lock_guard<std::mutex> lk(mu_);
    idle_.push_back(std::move(scratch_));  // capacity reserved: no throw
  }
  ScratchLease(const ScratchLease&) = delete;
  ScratchLease& operator=(const ScratchLease&) = delete;

 private:
  std::mutex& mu_;
  IdleList& idle_;
  std::unique_ptr<RunScratch> scratch_;
};

}  // namespace

// ---- Server --------------------------------------------------------------

Server::Connection::~Connection() {
  if (reader.joinable()) reader.join();  // normally joined by the server
  if (fd >= 0) ::close(fd);
}

Server::Server(ServerConfig config) : config_(std::move(config)) {
  HMM_REQUIRE(config_.jobs >= 1, "server: jobs must be >= 1");
  HMM_REQUIRE(config_.max_queue >= 1, "server: max_queue must be >= 1");
  HMM_REQUIRE(config_.client_budget >= 1,
              "server: client_budget must be >= 1");
  idle_scratch_.reserve(static_cast<std::size_t>(config_.jobs));
  conns_.reserve(kMaxConnections);
}

Server::~Server() {
  request_drain();
  if (executor_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(queue_mu_);
      executor_stop_ = true;
    }
    queue_cv_.notify_all();
    executor_.join();
  }
  shutdown_connections();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    unlink_address(config_.listen);
  }
  for (int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::start() {
  HMM_REQUIRE(listen_fd_ < 0, "server: already started");
  listen_fd_ = listen_address(config_.listen, /*backlog=*/16);
  if (::pipe(wake_pipe_) != 0) {
    throw PreconditionError(std::string("pipe: ") + std::strerror(errno));
  }
  executor_ = std::thread([this] { executor_loop(); });
}

void Server::request_drain() {
  draining_.store(true, std::memory_order_relaxed);
  stats_.draining.store(true, std::memory_order_relaxed);
  if (wake_pipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  }
}

void Server::serve() {
  HMM_REQUIRE(listen_fd_ >= 0, "server: start() before serve()");
  while (true) {
    // Sleep until a connection or a wake byte arrives; while draining,
    // wake every 50 ms to check whether the executor went idle.
    const int timeout_ms = draining_.load(std::memory_order_relaxed) ? 50 : -1;
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw PreconditionError(std::string("poll: ") + std::strerror(errno));
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char sink[16];
      [[maybe_unused]] const ssize_t n = ::read(wake_pipe_[0], sink, sizeof(sink));
    }

    // Reap connections whose reader finished (EOF or write failure),
    // before accepting, so they leave room under kMaxConnections: join
    // outside the lock, then let the shared_ptr decide when the fd
    // actually closes (the executor may still hold a reference).
    std::vector<ConnectionPtr> reaped;
    {
      std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto it = conns_.begin(); it != conns_.end();) {
        if ((*it)->dead.load(std::memory_order_relaxed)) {
          reaped.push_back(*it);
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const ConnectionPtr& conn : reaped) {
      if (conn->reader.joinable()) conn->reader.join();
      stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
    }
    if ((fds[0].revents & POLLIN) != 0) accept_one();

    if (draining_.load(std::memory_order_relaxed)) {
      bool queue_empty;
      {
        std::lock_guard<std::mutex> lk(queue_mu_);
        queue_empty = queue_.empty();
      }
      if (queue_empty && stats_.in_flight.load(std::memory_order_relaxed) == 0) {
        break;
      }
    }
  }

  // Drained: stop accepting, finish the executor, say goodbye.
  ::close(listen_fd_);
  listen_fd_ = -1;
  unlink_address(config_.listen);
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    executor_stop_ = true;
  }
  queue_cv_.notify_all();
  executor_.join();
  shutdown_connections();
}

void Server::shutdown_connections() {
  std::vector<ConnectionPtr> all;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    all.swap(conns_);
  }
  for (const ConnectionPtr& conn : all) {
    send_frame(conn, ByeFrame{true, conn->served.load(std::memory_order_relaxed)});
    ::shutdown(conn->fd, SHUT_RDWR);
  }
  for (const ConnectionPtr& conn : all) {
    if (conn->reader.joinable()) conn->reader.join();
    stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::accept_one() {
  const int fd = ::accept(listen_fd_, nullptr, nullptr);
  if (fd < 0) return;  // transient (ECONNABORTED etc.); keep serving
  auto conn = std::make_shared<Connection>();
  conn->fd = fd;
  // A refused connection gets one error frame; returning drops the last
  // reference, which closes the fd.
  const auto refuse = [&](const std::string& why) {
    stats_.connections_refused.fetch_add(1, std::memory_order_relaxed);
    send_frame(conn, ErrorFrame{"", why});
  };
  std::size_t open = 0;
  {
    std::lock_guard<std::mutex> lk(conns_mu_);
    open = conns_.size();  // only this thread adds or removes
  }
  if (open >= kMaxConnections) {
    refuse("too many connections: the daemon serves at most " +
           std::to_string(kMaxConnections) + " at once");
    return;
  }
  conn->id = next_client_id_.fetch_add(1, std::memory_order_relaxed);
  HelloFrame hello;
  hello.version = kVersionString;
  hello.features = feature_list();
  hello.client = conn->id;
  send_frame(conn, hello);
  try {
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  } catch (const std::exception& e) {
    refuse(std::string("cannot start a reader for this connection: ") +
           e.what());
    return;
  }
  stats_.connections_total.fetch_add(1, std::memory_order_relaxed);
  stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(conns_mu_);
  conns_.push_back(conn);  // capacity reserved: no throw
}

void Server::reader_loop(ConnectionPtr conn) {
  std::string buffer;
  char chunk[4096];
  while (!conn->dead.load(std::memory_order_relaxed)) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) break;  // client closed its sending side
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t start = 0;
    std::size_t nl;
    while ((nl = buffer.find('\n', start)) != std::string::npos &&
           nl - start <= kMaxRequestLine) {
      const std::string line = buffer.substr(start, nl - start);
      start = nl + 1;
      if (!line.empty()) dispatch_line(conn, line);
    }
    buffer.erase(0, start);
    if (buffer.size() > kMaxRequestLine) {  // the next line is too long
      stats_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
      send_frame(conn, ErrorFrame{"", "request line longer than " +
                                          std::to_string(kMaxRequestLine) +
                                          " bytes; closing the connection"});
      ::shutdown(conn->fd, SHUT_RDWR);
      break;
    }
  }
  conn->dead.store(true, std::memory_order_relaxed);
}

void Server::dispatch_line(const ConnectionPtr& conn, const std::string& line) {
  conn->requests.fetch_add(1, std::memory_order_relaxed);
  std::string req_id;
  try {
    const json::Value v = json::parse(line);
    if (v.kind() == json::Value::Kind::kObject) {
      if (const json::Value* id = v.find("id")) {
        if (id->kind() == json::Value::Kind::kString) req_id = id->as_string();
      }
    }
    Request request = request_from_json(v);
    if (auto* run = std::get_if<RunRequest>(&request)) {
      enqueue_run(conn, std::move(*run));
    } else if (auto* ping = std::get_if<PingRequest>(&request)) {
      send_frame(conn, PongFrame{ping->id});
    } else if (auto* version = std::get_if<VersionRequest>(&request)) {
      send_frame(conn,
                 VersionFrame{version->id, kVersionString, feature_list()});
    } else if (auto* stats = std::get_if<StatsRequest>(&request)) {
      send_frame(conn, StatsFrame{stats->id, stats_snapshot()});
    } else {
      request_drain();  // DrainRequest; the bye frame is the answer
    }
  } catch (const std::exception& e) {
    stats_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
    send_frame(conn, ErrorFrame{req_id, e.what()});
  }
}

void Server::enqueue_run(const ConnectionPtr& conn, RunRequest request) {
  const std::string id = request.id;
  const auto reject = [&](const std::string& why) {
    stats_.requests_rejected.fetch_add(1, std::memory_order_relaxed);
    send_frame(conn, ErrorFrame{id, why});
  };
  if (draining_.load(std::memory_order_relaxed)) {
    reject("draining: not accepting new run requests");
    return;
  }
  if (conn->queued.load(std::memory_order_relaxed) >= config_.client_budget) {
    reject("client budget exceeded (" +
           std::to_string(config_.client_budget) + " queued run requests)");
    return;
  }
  // A declarative topology replaces the flat p/w/l/d axes: the spec is
  // resolved ONCE at admission (bad presets and malformed documents are
  // error frames, not queue entries) and adopted by the request's grid
  // before expansion, exactly as `hmmsim --machine` does locally.
  run::GridSpec grid = grid_spec(request);
  bool adopted = false;
  try {
    adopted = grid.adopt(resolve_machine(request, config_.machines_dir));
  } catch (const std::exception& e) {
    reject(e.what());
    return;
  }
  if (!adopted) {
    reject("machine topologies with per-DMM overrides or links require "
           "the hmm model");
    return;
  }
  QueuedRun job;
  job.conn = conn;
  job.grid = grid.expand();
  job.request = std::move(request);
  const std::int64_t grid_points =
      static_cast<std::int64_t>(job.grid.size());
  std::int64_t ahead;
  {
    std::lock_guard<std::mutex> lk(queue_mu_);
    if (static_cast<int>(queue_.size()) >= config_.max_queue) {
      reject("queue full (" + std::to_string(config_.max_queue) +
             " run requests)");
      return;
    }
    ahead = static_cast<std::int64_t>(queue_.size());
    queue_.push_back(std::move(job));
    conn->queued.fetch_add(1, std::memory_order_relaxed);
    stats_.queue_depth.fetch_add(1, std::memory_order_relaxed);
    stats_.requests_accepted.fetch_add(1, std::memory_order_relaxed);
    send_frame(conn, AcceptedFrame{id, grid_points, ahead});
  }
  queue_cv_.notify_one();
}

void Server::executor_loop() {
  while (true) {
    QueuedRun job;
    {
      std::unique_lock<std::mutex> lk(queue_mu_);
      queue_cv_.wait(lk, [this] { return executor_stop_ || !queue_.empty(); });
      if (queue_.empty()) break;  // stop requested and nothing left
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    stats_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    job.conn->queued.fetch_sub(1, std::memory_order_relaxed);
    stats_.in_flight.fetch_add(1, std::memory_order_relaxed);
    execute_run(std::move(job));
    stats_.in_flight.fetch_sub(1, std::memory_order_relaxed);
  }
}

void Server::execute_run(QueuedRun job) {
  const std::string rid = job.request.id;
  const bool want_metrics = job.request.metrics;
  const std::int64_t budget = std::min(job.request.telemetry,
                                       kMaxTelemetryBudget);
  std::atomic<std::int64_t> rows{0};
  std::atomic<std::int64_t> skipped{0};
  std::atomic<std::int64_t> telemetry_frames{0};
  std::atomic<std::int64_t> telemetry_dropped{0};
  std::atomic<std::int64_t> failed{0};

  const auto run_one = [&](std::int64_t i) {
    const ConnectionPtr& conn = job.conn;
    if (conn->dead.load(std::memory_order_relaxed)) {
      skipped.fetch_add(1, std::memory_order_relaxed);
      stats_.points_skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const run::Point& point = job.grid[static_cast<std::size_t>(i)];
    try {
      const ScratchLease lease(scratch_mu_, idle_scratch_);
      telemetry::MetricsRegistry registry;
      telemetry::ObserverFanout fanout;
      std::optional<telemetry::NdjsonStreamSink> sink;
      if (want_metrics) fanout.add(&registry);
      if (budget > 0) {
        sink.emplace(
            [&, conn](std::string_view line) {
              if (send_line(conn, line, /*telemetry=*/true)) {
                telemetry_frames.fetch_add(1, std::memory_order_relaxed);
              }
            },
            budget,
            [rid, i](json::Value event) {
              std::map<std::string, json::Value> o;
              o["frame"] = json::Value::make_string("telemetry");
              o["req"] = json::Value::make_string(rid);
              o["grid_index"] = json::Value::make_int(i);
              o["event"] = std::move(event);
              return json::Value::make_object(std::move(o));
            });
        fanout.add(&*sink);
      }
      EngineObserver* observer = fanout.empty() ? nullptr : &fanout;
      const run::PointOutcome out = run::run_point(point, workloads_, observer);
      stats_.points_run.fetch_add(1, std::memory_order_relaxed);

      SweepPoint sweep_point{point.algorithm, point.model, point.n,
                             point.m,         point.p,     point.w,
                             point.l,         point.d};
      MetricsSnapshot snapshot;
      SweepMeasurement measurement;
      measurement.time = out.time;
      measurement.global_stages = out.global_stages;
      measurement.ff_rounds = out.ff_rounds;
      if (want_metrics) {
        snapshot = registry.snapshot();
        measurement.metrics = &snapshot;
      }

      ResultFrame result;
      result.req = rid;
      result.grid_index = i;
      result.row = sweep_csv_row(sweep_point, measurement);
      result.summary = out.summary;
      result.time = out.time;
      result.global_stages = out.global_stages;
      result.ff_rounds = out.ff_rounds;
      if (send_frame(conn, result)) {
        rows.fetch_add(1, std::memory_order_relaxed);
      }
      if (want_metrics) {
        send_frame(conn, MetricsFrame{rid, i, snapshot});
      }
      if (sink && sink->dropped() > 0) {
        const std::int64_t dropped = sink->dropped();
        telemetry_dropped.fetch_add(dropped, std::memory_order_relaxed);
        stats_.telemetry_dropped.fetch_add(dropped, std::memory_order_relaxed);
        conn->telemetry_dropped.fetch_add(dropped, std::memory_order_relaxed);
        send_frame(conn, DropFrame{rid, i, dropped});
      }
    } catch (const std::exception& e) {
      failed.fetch_add(1, std::memory_order_relaxed);
      send_frame(conn, ErrorFrame{rid, "grid point " + std::to_string(i) +
                                           ": " + e.what()});
    }
  };
  run::SweepRunner(config_.jobs)
      .for_each(static_cast<std::int64_t>(job.grid.size()), run_one);

  DoneFrame done;
  done.req = rid;
  done.rows = rows.load(std::memory_order_relaxed);
  done.telemetry_frames = telemetry_frames.load(std::memory_order_relaxed);
  done.telemetry_dropped = telemetry_dropped.load(std::memory_order_relaxed);
  done.skipped = skipped.load(std::memory_order_relaxed);
  // Count the request before the client can see its done frame, so a
  // stats request sent after it already includes this one.
  job.conn->served.fetch_add(1, std::memory_order_relaxed);
  if (failed.load(std::memory_order_relaxed) > 0) {
    stats_.requests_failed.fetch_add(1, std::memory_order_relaxed);
  } else {
    stats_.requests_completed.fetch_add(1, std::memory_order_relaxed);
  }
  send_frame(job.conn, done);
}

ServiceStatsSnapshot Server::stats_snapshot() {
  ServiceStatsSnapshot s = stats_.snapshot();
  std::lock_guard<std::mutex> lk(conns_mu_);
  for (const ConnectionPtr& conn : conns_) {
    if (conn->dead.load(std::memory_order_relaxed)) continue;
    ClientEntry entry;
    entry.client = conn->id;
    entry.requests = conn->requests.load(std::memory_order_relaxed);
    entry.frames = conn->frames.load(std::memory_order_relaxed);
    entry.telemetry_dropped =
        conn->telemetry_dropped.load(std::memory_order_relaxed);
    s.clients.push_back(entry);
  }
  return s;
}

bool Server::send_frame(const ConnectionPtr& conn, const Frame& frame) {
  return send_line(conn, frame_line(frame), /*telemetry=*/false);
}

bool Server::send_line(const ConnectionPtr& conn, std::string_view line,
                       bool telemetry) {
  if (conn->dead.load(std::memory_order_relaxed)) return false;
  std::string buf(line);
  buf.push_back('\n');
  std::lock_guard<std::mutex> lk(conn->write_mu);
  std::size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t n =
        ::send(conn->fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Broken pipe: the client vanished.  Mark the connection dead and
      // unblock its reader so the serve loop can reap it; the executor
      // will skip this client's remaining grid points.
      conn->dead.store(true, std::memory_order_relaxed);
      ::shutdown(conn->fd, SHUT_RDWR);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  conn->frames.fetch_add(1, std::memory_order_relaxed);
  stats_.frames_sent.fetch_add(1, std::memory_order_relaxed);
  if (telemetry) {
    stats_.telemetry_frames.fetch_add(1, std::memory_order_relaxed);
  }
  return true;
}

}  // namespace hmm::service
