// bench_service — self-timing benchmark of the hmmsimd service path,
// writing machine-readable BENCH_service.json so successive PRs can
// track the daemon's request throughput and streaming overhead.
//
//   bench_service [--smoke] [--jobs J] [--out PATH]
//
// The server runs in-process on a unix socket with a real Client on the
// other end, so every number includes the full production path: NDJSON
// parse, admission, queueing, SweepRunner grids over a warm workload cache,
// frame serialisation and socket I/O.  Four measurements:
//   1. sequential requests/sec — single-point run requests issued
//      request/response over one connection (the latency view);
//   2. pipelined requests/sec — the same requests all written first,
//      then all done frames read (the queueing/throughput view);
//   3. streaming overhead — one sweep request against the daemon vs the
//      identical grid evaluated locally through run::run_point; the
//      ratio is the price of the wire, and the GUARD: the service must
//      stay within a small factor of local execution (exit nonzero when
//      it drifts — the acceptance criterion of ISSUE 8);
//   4. telemetry streaming — a run with a large telemetry budget;
//      reports NDJSON telemetry frames/sec through the full sink ->
//      socket -> parse path.
//
// --smoke shrinks everything to finish in well under a second; ctest
// runs it under the `bench-smoke` label.
#include <unistd.h>

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "alg/workload.hpp"
#include "core/version.hpp"
#include "run/point.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace hmm {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Read frames until the done frame for `id`; returns it.  Exits on an
/// error frame or EOF — the bench workload must never be rejected.
service::DoneFrame await_done(service::Client& client, const std::string& id,
                              std::int64_t* telemetry_frames = nullptr) {
  for (;;) {
    auto frame = client.read_frame();
    if (!frame.has_value()) {
      std::fprintf(stderr, "FATAL: connection closed awaiting done(%s)\n",
                   id.c_str());
      std::exit(1);
    }
    if (auto* error = std::get_if<service::ErrorFrame>(&*frame)) {
      std::fprintf(stderr, "FATAL: service error for %s: %s\n",
                   error->req.c_str(), error->message.c_str());
      std::exit(1);
    }
    if (telemetry_frames != nullptr &&
        std::get_if<service::TelemetryFrame>(&*frame) != nullptr) {
      ++*telemetry_frames;
    }
    if (auto* done = std::get_if<service::DoneFrame>(&*frame)) {
      if (done->req == id) return *done;
    }
  }
}

service::RunRequest point_request(std::string id, std::int64_t n,
                                  std::int64_t p) {
  service::RunRequest run;
  run.id = std::move(id);
  run.algorithm = "sum";
  run.n = {n};
  run.p = {p};
  return run;
}

struct RequestRateResult {
  std::int64_t requests = 0;
  double sequential_seconds = 0.0;
  double sequential_per_sec = 0.0;
  double pipelined_seconds = 0.0;
  double pipelined_per_sec = 0.0;
};

/// Single-point run requests over one connection, request/response and
/// then fully pipelined.  Small points on purpose: the service path —
/// parse, admission, dispatch, frame write — is the thing under test,
/// not the simulation.
RequestRateResult measure_request_rate(service::Client& client,
                                       std::int64_t requests, std::int64_t n,
                                       std::int64_t p) {
  RequestRateResult r;
  r.requests = requests;

  // Warm-up: the first request pays the workload-cache fill.
  client.send(point_request("warm", n, p));
  await_done(client, "warm");

  const auto t_seq = Clock::now();
  for (std::int64_t i = 0; i < requests; ++i) {
    const std::string id = "seq" + std::to_string(i);
    client.send(point_request(id, n, p));
    await_done(client, id);
  }
  r.sequential_seconds = seconds_since(t_seq);
  r.sequential_per_sec =
      static_cast<double>(requests) / r.sequential_seconds;

  const auto t_pipe = Clock::now();
  for (std::int64_t i = 0; i < requests; ++i) {
    client.send(point_request("pipe" + std::to_string(i), n, p));
  }
  for (std::int64_t i = 0; i < requests; ++i) {
    await_done(client, "pipe" + std::to_string(i));
  }
  r.pipelined_seconds = seconds_since(t_pipe);
  r.pipelined_per_sec = static_cast<double>(requests) / r.pipelined_seconds;
  return r;
}

struct StreamingOverheadResult {
  std::int64_t grid_points = 0;
  std::int64_t n = 0;
  double local_seconds = 0.0;    // run::run_point over the same grid
  double service_seconds = 0.0;  // one sweep request, frames streamed back
  double overhead_ratio = 0.0;   // service / local
};

/// The acceptance guard: the daemon streaming a sweep must stay within a
/// small factor of evaluating the identical grid in-process.
StreamingOverheadResult measure_streaming_overhead(service::Client& client,
                                                   std::int64_t n,
                                                   std::int64_t reps) {
  StreamingOverheadResult r;
  r.n = n;

  service::RunRequest sweep;
  sweep.id = "sweep";
  sweep.algorithm = "sum";
  sweep.n = {n, 2 * n};
  sweep.l = {100, 200, 400};
  sweep.d = {4, 16};
  sweep.p = {512};
  const std::vector<run::Point> grid = service::expand_grid(sweep);
  r.grid_points = static_cast<std::int64_t>(grid.size());

  alg::WorkloadCache workloads;
  for (const run::Point& point : grid) run::run_point(point, workloads);

  double local = 0.0;
  for (std::int64_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    for (const run::Point& point : grid) run::run_point(point, workloads);
    const double t = seconds_since(t0);
    if (i == 0 || t < local) local = t;  // best-of-reps, noise-robust
  }
  r.local_seconds = local;

  double service = 0.0;
  for (std::int64_t i = 0; i < reps; ++i) {
    const std::string id = "sweep" + std::to_string(i);
    sweep.id = id;
    const auto t0 = Clock::now();
    client.send(sweep);
    const service::DoneFrame done = await_done(client, id);
    const double t = seconds_since(t0);
    if (i == 0 || t < service) service = t;
    if (done.rows != r.grid_points || done.skipped != 0) {
      std::fprintf(stderr, "FATAL: sweep streamed %lld/%lld rows\n",
                   static_cast<long long>(done.rows),
                   static_cast<long long>(r.grid_points));
      std::exit(1);
    }
  }
  r.service_seconds = service;
  r.overhead_ratio = r.service_seconds / r.local_seconds;
  return r;
}

struct TelemetryStreamResult {
  std::int64_t budget = 0;
  std::int64_t frames_streamed = 0;
  std::int64_t dropped = 0;
  double seconds = 0.0;
  double frames_per_sec = 0.0;
};

/// One run with the trace channel wide open: every TraceEvent is
/// serialised, framed, written to the socket and parsed back — the
/// NDJSON path's frames/sec.
TelemetryStreamResult measure_telemetry_stream(service::Client& client,
                                               std::int64_t n,
                                               std::int64_t budget) {
  TelemetryStreamResult r;
  r.budget = budget;
  service::RunRequest run = point_request("tele", n, 512);
  run.telemetry = budget;
  const auto t0 = Clock::now();
  client.send(run);
  const service::DoneFrame done =
      await_done(client, "tele", &r.frames_streamed);
  r.seconds = seconds_since(t0);
  r.dropped = done.telemetry_dropped;
  if (done.telemetry_frames != r.frames_streamed) {
    std::fprintf(stderr,
                 "FATAL: done frame counted %lld telemetry frames, client "
                 "read %lld\n",
                 static_cast<long long>(done.telemetry_frames),
                 static_cast<long long>(r.frames_streamed));
    std::exit(1);
  }
  r.frames_per_sec = static_cast<double>(r.frames_streamed) / r.seconds;
  return r;
}

int run_bench(int argc, char** argv) {
  bool smoke = false;
  std::int64_t jobs = 2;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      const char* v = argv[++i];
      const auto [end, ec] = std::from_chars(v, v + std::strlen(v), jobs);
      if (ec != std::errc{} || *end != '\0' || jobs < 1) {
        std::fprintf(stderr, "invalid --jobs value: %s\n", v);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(
          stderr, "usage: bench_service [--smoke] [--jobs J] [--out PATH]\n");
      return 2;
    }
  }

  std::printf("service benchmark (hmm-sim %s, server jobs=%lld)\n",
              kVersionString, static_cast<long long>(jobs));

  const std::int64_t requests = smoke ? 20 : 200;
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_bench_" + std::to_string(::getpid()) + ".sock");
  config.jobs = static_cast<int>(jobs);
  // The pipelined section intentionally floods the queue; lift the
  // admission caps so nothing is rejected.
  config.max_queue = static_cast<int>(requests) + 8;
  config.client_budget = static_cast<int>(requests) + 8;
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  service::Client client;
  client.connect(config.listen);

  const std::int64_t n_point = smoke ? 1024 : 4096;
  const RequestRateResult rate =
      measure_request_rate(client, requests, n_point, 256);
  std::printf(
      "requests   : %lld x sum n=%lld — sequential %.1f req/s, "
      "pipelined %.1f req/s\n",
      static_cast<long long>(rate.requests),
      static_cast<long long>(n_point), rate.sequential_per_sec,
      rate.pipelined_per_sec);

  const std::int64_t n_sweep = smoke ? (1 << 12) : (1 << 15);
  const StreamingOverheadResult overhead =
      measure_streaming_overhead(client, n_sweep, smoke ? 2 : 5);
  std::printf(
      "streaming  : %lld-point sweep — local %.3fs, service %.3fs, "
      "overhead %.2fx (best-of-reps)\n",
      static_cast<long long>(overhead.grid_points), overhead.local_seconds,
      overhead.service_seconds, overhead.overhead_ratio);

  const TelemetryStreamResult tele = measure_telemetry_stream(
      client, smoke ? 1024 : 8192, smoke ? 4096 : 65536);
  std::printf(
      "telemetry  : %lld frames streamed in %.3fs (%.3g frames/s, "
      "%lld dropped past budget %lld)\n",
      static_cast<long long>(tele.frames_streamed), tele.seconds,
      tele.frames_per_sec, static_cast<long long>(tele.dropped),
      static_cast<long long>(tele.budget));

  client.send(service::DrainRequest{"drain"});
  for (;;) {
    auto frame = client.read_frame();
    if (!frame.has_value() ||
        std::get_if<service::ByeFrame>(&*frame) != nullptr) {
      break;
    }
  }
  serve.join();
  const service::ServiceStatsSnapshot stats = server.stats_snapshot();
  std::printf(
      "stats      : %lld completed, %lld rejected, %lld failed, "
      "%lld frames sent, %lld points run\n",
      static_cast<long long>(stats.requests_completed),
      static_cast<long long>(stats.requests_rejected),
      static_cast<long long>(stats.requests_failed),
      static_cast<long long>(stats.frames_sent),
      static_cast<long long>(stats.points_run));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"bench\": \"service\",\n"
      "  \"version\": \"%s\",\n"
      "  \"smoke\": %s,\n"
      "  \"server_jobs\": %lld,\n"
      "  \"requests\": {\n"
      "    \"workload\": \"sum_point\",\n"
      "    \"n\": %lld, \"p\": 256,\n"
      "    \"count\": %lld,\n"
      "    \"sequential_seconds\": %.6g,\n"
      "    \"sequential_requests_per_sec\": %.6g,\n"
      "    \"pipelined_seconds\": %.6g,\n"
      "    \"pipelined_requests_per_sec\": %.6g\n"
      "  },\n"
      "  \"streaming_overhead\": {\n"
      "    \"workload\": \"sum_sweep\",\n"
      "    \"grid_points\": %lld,\n"
      "    \"n\": %lld,\n"
      "    \"local_seconds\": %.6g,\n"
      "    \"service_seconds\": %.6g,\n"
      "    \"overhead_ratio\": %.6g\n"
      "  },\n"
      "  \"telemetry_stream\": {\n"
      "    \"budget\": %lld,\n"
      "    \"frames_streamed\": %lld,\n"
      "    \"dropped\": %lld,\n"
      "    \"seconds\": %.6g,\n"
      "    \"frames_per_sec\": %.6g\n"
      "  },\n"
      "  \"service_stats\": {\n"
      "    \"requests_completed\": %lld,\n"
      "    \"requests_rejected\": %lld,\n"
      "    \"requests_failed\": %lld,\n"
      "    \"frames_sent\": %lld,\n"
      "    \"telemetry_frames\": %lld,\n"
      "    \"telemetry_dropped\": %lld,\n"
      "    \"points_run\": %lld,\n"
      "    \"points_skipped\": %lld\n"
      "  }\n"
      "}\n",
      kVersionString, smoke ? "true" : "false",
      static_cast<long long>(jobs), static_cast<long long>(n_point),
      static_cast<long long>(rate.requests), rate.sequential_seconds,
      rate.sequential_per_sec, rate.pipelined_seconds,
      rate.pipelined_per_sec,
      static_cast<long long>(overhead.grid_points),
      static_cast<long long>(overhead.n), overhead.local_seconds,
      overhead.service_seconds, overhead.overhead_ratio,
      static_cast<long long>(tele.budget),
      static_cast<long long>(tele.frames_streamed),
      static_cast<long long>(tele.dropped), tele.seconds,
      tele.frames_per_sec,
      static_cast<long long>(stats.requests_completed),
      static_cast<long long>(stats.requests_rejected),
      static_cast<long long>(stats.requests_failed),
      static_cast<long long>(stats.frames_sent),
      static_cast<long long>(stats.telemetry_frames),
      static_cast<long long>(stats.telemetry_dropped),
      static_cast<long long>(stats.points_run),
      static_cast<long long>(stats.points_skipped));
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  // Correctness guards: nothing rejected, nothing failed, nothing
  // skipped — the bench connection stayed healthy throughout.
  if (stats.requests_rejected != 0 || stats.requests_failed != 0 ||
      stats.points_skipped != 0) {
    std::fprintf(stderr,
                 "FATAL: bench requests were rejected/failed/skipped "
                 "(%lld/%lld/%lld)\n",
                 static_cast<long long>(stats.requests_rejected),
                 static_cast<long long>(stats.requests_failed),
                 static_cast<long long>(stats.points_skipped));
    return 1;
  }
  // Streaming-overhead guard (ISSUE 8 acceptance): the daemon path —
  // JSON in, queue, run, frames out — must stay within a small factor
  // of local in-process execution.  Smoke grids are tiny, so the fixed
  // per-request cost weighs more there; the full bound is the one that
  // matters for the perf trajectory.
  const double overhead_limit = smoke ? 6.0 : 1.5;
  if (overhead.overhead_ratio > overhead_limit) {
    std::fprintf(stderr,
                 "FATAL: service sweep is %.2fx the local sweep "
                 "(limit %.2fx) — the streaming path regressed\n",
                 overhead.overhead_ratio, overhead_limit);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hmm

int main(int argc, char** argv) { return hmm::run_bench(argc, argv); }
