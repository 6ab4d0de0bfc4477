// The hmmsimd server — a persistent simulation service over NDJSON.
//
// One Server owns three kinds of threads, one WorkloadCache and an idle
// list of RunScratch:
//
//  * the SERVE loop (the caller's thread): poll()s the listening socket,
//    accepts connections (at most kMaxConnections at once), reaps dead
//    ones and supervises graceful drain;
//  * one READER thread per connection: splits the byte stream into
//    NDJSON lines, answers ping/version/stats inline and enqueues run
//    requests (admission control: per-client budget, global queue cap,
//    drain refusals);
//  * one EXECUTOR thread: pops run requests FIFO and hands each one's
//    grid to run::SweepRunner(config.jobs) — results, metrics, telemetry
//    and drop frames interleave on the wire as points finish, each tagged
//    with (req, grid_index).  With jobs == 1, or a one-point grid, the
//    executor runs the points itself.
//
// Warmth: each grid point borrows a RunScratch (FrameArena +
// PatternCache) from the server's idle list and registers it with
// Machine::set_thread_scratch for that point only, so arenas and pattern
// caches stay WARM across requests — the latency edge a daemon has over
// forking `hmmsim` per sweep, measured by bench_service.  At most `jobs`
// points run at once, so at most `jobs` RunScratch ever exist.
//
// Determinism: every grid point runs run::run_point — the same dispatch
// the CLI uses — and result frames carry the finished sweep-CSV row, so
// a client reassembling rows by grid_index reproduces the local `--csv`
// byte stream exactly (locked by tools/service_roundtrip.sh).
//
// Failure containment: a write error marks the connection dead; the
// executor then skips that client's remaining grid points (counted in
// ServiceStats::points_skipped and the done frame it can no longer
// deliver) instead of simulating into a closed socket.  A mid-stream
// disconnect therefore never ties up the executor.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "alg/workload.hpp"
#include "machine/machine.hpp"
#include "service/address.hpp"
#include "service/protocol.hpp"
#include "service/stats.hpp"

namespace hmm::service {

/// Most connections the daemon serves at once, each with its own reader
/// thread.  One past the cap, like one whose reader thread cannot start,
/// gets an error frame and is closed (ServiceStats::connections_refused).
inline constexpr std::size_t kMaxConnections = 128;

struct ServerConfig {
  Address listen;
  int jobs = 1;           ///< grid points of one request run at once
  int max_queue = 64;     ///< global cap on queued run requests
  int client_budget = 8;  ///< per-client cap on queued run requests
  /// Directory of machine-topology presets (`<name>.json`) that clients
  /// may select by `machine_preset` name.  Empty = presets disabled;
  /// inline `machine` objects are always accepted (docs/TOPOLOGY.md).
  std::string machines_dir;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen and start the executor thread.  After start()
  /// returns, address() is fully resolved (tcp:0 has its real port).
  /// Throws PreconditionError on bind failure.
  void start();

  /// Accept and serve until drain completes.  Blocks; returns once every
  /// queued request finished, every client got a bye frame and all
  /// threads joined.
  void serve();

  /// Begin graceful drain: reject new run requests, finish the queue,
  /// then shut down.  Safe to call from any thread and from signal
  /// handlers (it only flips an atomic and writes one byte to a pipe).
  void request_drain();

  const Address& address() const { return config_.listen; }
  const ServerConfig& config() const { return config_; }

  /// Aggregate counters plus the per-active-client breakdown.
  ServiceStatsSnapshot stats_snapshot();

 private:
  struct Connection {
    int fd = -1;
    std::int64_t id = 0;
    std::mutex write_mu;
    std::atomic<bool> dead{false};
    std::atomic<std::int64_t> queued{0};  ///< its run requests in queue
    std::atomic<std::int64_t> requests{0};
    std::atomic<std::int64_t> frames{0};
    std::atomic<std::int64_t> telemetry_dropped{0};
    std::atomic<std::int64_t> served{0};  ///< run requests completed
    std::thread reader;

    ~Connection();
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  struct QueuedRun {
    ConnectionPtr conn;
    RunRequest request;
    std::vector<run::Point> grid;
  };

  void accept_one();
  void reader_loop(ConnectionPtr conn);
  void dispatch_line(const ConnectionPtr& conn, const std::string& line);
  void enqueue_run(const ConnectionPtr& conn, RunRequest request);
  void executor_loop();
  void execute_run(QueuedRun job);
  void shutdown_connections();

  /// Serialize + write one frame; returns false (and marks the
  /// connection dead) on any socket error.
  bool send_frame(const ConnectionPtr& conn, const Frame& frame);
  bool send_line(const ConnectionPtr& conn, std::string_view line,
                 bool telemetry);

  ServerConfig config_;
  ServiceStats stats_;
  alg::WorkloadCache workloads_;

  std::mutex scratch_mu_;
  /// RunScratch no grid point holds (guarded by scratch_mu_).
  std::vector<std::unique_ptr<RunScratch>> idle_scratch_;

  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};  ///< self-pipe: request_drain -> serve loop
  std::atomic<bool> draining_{false};
  std::atomic<std::int64_t> next_client_id_{1};

  std::mutex conns_mu_;
  std::vector<ConnectionPtr> conns_;  // guarded by conns_mu_

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<QueuedRun> queue_;  // guarded by queue_mu_
  bool executor_stop_ = false;   // guarded by queue_mu_
  std::thread executor_;
};

}  // namespace hmm::service
