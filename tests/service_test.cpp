// The hmmsimd service layer: NDJSON wire-protocol round trips (every
// frame and request type parses back to an equal struct through
// src/core/json), the metrics/trace-event JSON schemas, streaming-sink
// budgets and drop-counter accuracy under overflow, and one end-to-end
// daemon exchange over a real unix socket (connect → run → frames →
// drain → bye).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/json.hpp"
#include "core/version.hpp"
#include "machine/machine.hpp"
#include "machine/topology_spec.hpp"
#include "report/metrics.hpp"
#include "service/address.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/stats.hpp"
#include "telemetry/ndjson.hpp"
#include "telemetry/sink.hpp"

namespace hmm {
namespace {

using service::Frame;
using service::Request;

TraceEvent sample_event() {
  TraceEvent e;
  e.kind = TraceEvent::Kind::kMemory;
  e.warp = 7;
  e.dmm = 3;
  e.space = MemorySpace::kGlobal;
  e.requests = 32;
  e.stages = 2;
  e.begin = 100;
  e.end = 101;
  e.ready = 501;
  return e;
}

MetricsSnapshot sample_metrics() {
  MetricsSnapshot s;
  s.runs = 2;
  s.conflict_degree.batches_by_stages = {0, 10, 3};
  s.conflict_degree.batches = 13;
  s.conflict_degree.max_stages = 2;
  s.conflict_degree.total_stages = 16;
  s.address_groups.batches_by_stages = {0, 20};
  s.address_groups.batches = 20;
  s.address_groups.max_stages = 1;
  s.address_groups.total_stages = 20;
  s.shared_batches = 13;
  s.shared_requests = 416;
  s.global_batches = 20;
  s.global_requests = 640;
  s.memory_stall_cycles = 1234;
  s.barrier_stall_cycles = 56;
  s.barrier_releases = 4;
  s.warps_finished = 16;
  s.makespan = 7890;
  s.exec_issue_slots = 321;
  s.global_stages = 20;
  s.global_busy = 700;
  s.shared_stages = 16;
  s.shared_busy = 650;
  s.bottleneck_stages = 20;
  s.global_occupancy = 0.25;
  s.shared_occupancy = 0.125;
  s.latency_hiding = 0.1;
  return s;
}

service::ServiceStatsSnapshot sample_stats() {
  service::ServiceStatsSnapshot s;
  s.requests_accepted = 5;
  s.requests_completed = 4;
  s.requests_rejected = 1;
  s.requests_failed = 1;
  s.queue_depth = 2;
  s.in_flight = 1;
  s.connections_total = 3;
  s.connections_active = 2;
  s.connections_refused = 11;
  s.frames_sent = 99;
  s.telemetry_frames = 40;
  s.telemetry_dropped = 7;
  s.points_run = 60;
  s.points_skipped = 2;
  s.draining = true;
  s.clients = {{1, 3, 50, 7}, {2, 2, 49, 0}};
  return s;
}

/// Serialize → canonical line → parse → deserialize; the result must
/// compare equal AND re-serialize to the identical bytes (the canonical
/// form the daemon emits).
Frame frame_round_trip(const Frame& frame) {
  const std::string line = service::frame_line(frame);
  const Frame back = service::frame_from_json(json::parse(line));
  EXPECT_EQ(service::frame_line(back), line);
  return back;
}

// ---------------------------------------------------------------------------
// Wire-protocol round trips
// ---------------------------------------------------------------------------

TEST(ServiceProtocol, EveryFrameTypeRoundTrips) {
  service::HelloFrame hello{kVersionString, {"analyze", "service"}, 4};
  service::AcceptedFrame accepted{"r1", 12, 3};
  service::ResultFrame result{"r1", 5, "sum,hmm,1024", "sum = 42", 2855, 82,
                              4};
  service::MetricsFrame metrics{"r1", 5, sample_metrics()};
  service::TelemetryFrame telemetry{"r1", 5, sample_event()};
  service::DropFrame drop{"r1", 5, 549};
  service::DoneFrame done{"r1", 12, 40, 549, 0};
  service::StatsFrame stats{"s1", sample_stats()};
  service::PongFrame pong{"p1"};
  service::VersionFrame version{"v1", kVersionString, {"metrics"}};
  service::ErrorFrame error{"r2", "queue full"};
  service::ByeFrame bye{true, 7};

  EXPECT_EQ(std::get<service::HelloFrame>(frame_round_trip(hello)), hello);
  EXPECT_EQ(std::get<service::AcceptedFrame>(frame_round_trip(accepted)),
            accepted);
  EXPECT_EQ(std::get<service::ResultFrame>(frame_round_trip(result)), result);
  EXPECT_EQ(std::get<service::MetricsFrame>(frame_round_trip(metrics)),
            metrics);
  EXPECT_EQ(std::get<service::TelemetryFrame>(frame_round_trip(telemetry)),
            telemetry);
  EXPECT_EQ(std::get<service::DropFrame>(frame_round_trip(drop)), drop);
  EXPECT_EQ(std::get<service::DoneFrame>(frame_round_trip(done)), done);
  EXPECT_EQ(std::get<service::StatsFrame>(frame_round_trip(stats)), stats);
  EXPECT_EQ(std::get<service::PongFrame>(frame_round_trip(pong)), pong);
  EXPECT_EQ(std::get<service::VersionFrame>(frame_round_trip(version)),
            version);
  EXPECT_EQ(std::get<service::ErrorFrame>(frame_round_trip(error)), error);
  EXPECT_EQ(std::get<service::ByeFrame>(frame_round_trip(bye)), bye);
}

TEST(ServiceProtocol, UnknownFrameKindThrows) {
  EXPECT_THROW(service::frame_from_json(json::parse(R"({"frame":"warp"})")),
               PreconditionError);
}

TEST(ServiceProtocol, EveryRequestTypeRoundTrips) {
  service::RunRequest run;
  run.id = "r1";
  run.algorithm = "sort";
  run.model = "umm";
  run.n = {1024, 4096};
  run.m = {8};
  run.p = {256};
  run.w = {16, 32};
  run.l = {100};
  run.d = {4};
  run.seed = 9;
  run.fast_forward = false;
  run.metrics = true;
  run.telemetry = 64;
  const auto round = [](const Request& r) {
    return service::request_from_json(
        json::parse(json::to_string(service::request_json(r))));
  };
  EXPECT_EQ(std::get<service::RunRequest>(round(run)), run);
  EXPECT_EQ(std::get<service::StatsRequest>(round(service::StatsRequest{"s"})),
            service::StatsRequest{"s"});
  EXPECT_EQ(
      std::get<service::VersionRequest>(round(service::VersionRequest{"v"})),
      service::VersionRequest{"v"});
  EXPECT_EQ(std::get<service::PingRequest>(round(service::PingRequest{"p"})),
            service::PingRequest{"p"});
  EXPECT_EQ(std::get<service::DrainRequest>(round(service::DrainRequest{"d"})),
            service::DrainRequest{"d"});
}

TEST(ServiceProtocol, RunRequestDefaultsMatchTheCli) {
  // A minimal run request fills in exactly the hmmsim defaults, and a
  // scalar axis value means the same thing as a one-element list.
  const Request parsed = service::request_from_json(
      json::parse(R"({"type":"run","id":"x","algorithm":"sum","n":2048})"));
  const auto& run = std::get<service::RunRequest>(parsed);
  EXPECT_EQ(run.algorithm, "sum");
  EXPECT_EQ(run.model, "hmm");
  EXPECT_EQ(run.n, (std::vector<std::int64_t>{2048}));
  EXPECT_EQ(run.m, (std::vector<std::int64_t>{32}));
  EXPECT_EQ(run.p, (std::vector<std::int64_t>{2048}));
  EXPECT_EQ(run.w, (std::vector<std::int64_t>{32}));
  EXPECT_EQ(run.l, (std::vector<std::int64_t>{400}));
  EXPECT_EQ(run.d, (std::vector<std::int64_t>{16}));
  EXPECT_EQ(run.seed, 1u);
  EXPECT_TRUE(run.fast_forward);
  EXPECT_FALSE(run.metrics);
  EXPECT_EQ(run.telemetry, 0);
  // The retired "threads" key is ignored like any other unknown key.
  EXPECT_EQ(service::request_from_json(json::parse(
                R"({"type":"run","id":"x","algorithm":"sum","n":2048,)"
                R"("threads":4})")),
            parsed);
  // The wire expands exactly like the CLI's GridSpec over the same axes.
  run::GridSpec grid;
  grid.algorithm = "sum";
  grid.n = {2048};
  EXPECT_EQ(service::expand_grid(run), grid.expand());
}

TEST(ServiceProtocol, RunRequestRejectsBadAxes) {
  EXPECT_THROW(service::request_from_json(json::parse(
                   R"({"type":"run","id":"x","algorithm":"sum","n":[]})")),
               PreconditionError);
  EXPECT_THROW(service::request_from_json(json::parse(
                   R"({"type":"run","id":"x","algorithm":"sum","n":[0]})")),
               PreconditionError);
  EXPECT_THROW(
      service::request_from_json(json::parse(
          R"({"type":"run","id":"x","algorithm":"sum","telemetry":-1})")),
      PreconditionError);
  EXPECT_THROW(
      service::request_from_json(json::parse(
          R"({"type":"run","id":"x","algorithm":"sum","model":"dmm"})")),
      PreconditionError);
  // A negative seed would wrap to 2^64-1; the CLI rejects it too.
  EXPECT_THROW(service::request_from_json(json::parse(
                   R"({"type":"run","id":"x","algorithm":"sum","seed":-1})")),
               PreconditionError);
  // The message goes to a remote client in an error frame: it says what
  // is wrong and nothing about the server's source.
  try {
    service::request_from_json(json::parse(
        R"({"type":"run","id":"x","algorithm":"sum","n":"abc"})"));
    FAIL() << "a string axis was accepted";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.find("precondition failed"), std::string::npos) << what;
    EXPECT_EQ(what.find(".cpp"), std::string::npos) << what;
  }
}

TEST(ServiceProtocol, ExpandGridIsRowMajor) {
  service::RunRequest run;
  run.algorithm = "sum";
  run.n = {1, 2};
  run.l = {10, 20};
  const std::vector<run::Point> grid = service::expand_grid(run);
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].n, 1);
  EXPECT_EQ(grid[0].l, 10);
  EXPECT_EQ(grid[1].n, 1);
  EXPECT_EQ(grid[1].l, 20);
  EXPECT_EQ(grid[2].n, 2);
  EXPECT_EQ(grid[2].l, 10);
  EXPECT_EQ(grid[3].n, 2);
  EXPECT_EQ(grid[3].l, 20);
}

TEST(ServiceProtocol, TraceEventRoundTripsEveryKindAndSpace) {
  for (const auto kind :
       {TraceEvent::Kind::kMemory, TraceEvent::Kind::kCompute,
        TraceEvent::Kind::kBarrier}) {
    for (const auto space : {MemorySpace::kShared, MemorySpace::kGlobal}) {
      TraceEvent e = sample_event();
      e.kind = kind;
      e.space = space;
      const TraceEvent back = telemetry::trace_event_from_json(
          json::parse(json::to_string(telemetry::trace_event_json(e))));
      EXPECT_EQ(back, e);
    }
  }
}

TEST(ServiceProtocol, MetricsSnapshotRoundTripsEveryField) {
  const MetricsSnapshot s = sample_metrics();
  const MetricsSnapshot back =
      metrics_from_json(json::parse(json::to_string(metrics_json(s))));
  EXPECT_EQ(back, s);
}

TEST(ServiceProtocol, StatsSnapshotRoundTripsClients) {
  const service::ServiceStatsSnapshot s = sample_stats();
  const service::ServiceStatsSnapshot back = service::stats_from_json(
      json::parse(json::to_string(service::stats_json(s))));
  EXPECT_EQ(back, s);
}

// ---------------------------------------------------------------------------
// Streaming sinks: budgets and drop accounting
// ---------------------------------------------------------------------------

TEST(NdjsonStreamSink, StreamsUpToBudgetThenCountsDrops) {
  std::vector<std::string> lines;
  telemetry::NdjsonStreamSink sink(
      [&](std::string_view line) { lines.emplace_back(line); }, 3);
  for (int i = 0; i < 10; ++i) sink.on_trace_event(sample_event());
  EXPECT_EQ(sink.streamed(), 3);
  EXPECT_EQ(sink.dropped(), 7);
  EXPECT_EQ(sink.events_seen(), 10);
  ASSERT_EQ(lines.size(), 3u);
  // Each line is the bare event object (no wrap given) and parses back.
  EXPECT_EQ(telemetry::trace_event_from_json(json::parse(lines[0])),
            sample_event());
}

TEST(NdjsonStreamSink, WrapShapesTheEmittedLine) {
  std::vector<std::string> lines;
  telemetry::NdjsonStreamSink sink(
      [&](std::string_view line) { lines.emplace_back(line); }, 1,
      [](json::Value event) {
        std::map<std::string, json::Value> o;
        o["frame"] = json::Value::make_string("telemetry");
        o["event"] = std::move(event);
        return json::Value::make_object(std::move(o));
      });
  sink.on_trace_event(sample_event());
  ASSERT_EQ(lines.size(), 1u);
  const json::Value v = json::parse(lines[0]);
  EXPECT_EQ(v.get("frame").as_string(), "telemetry");
  EXPECT_EQ(telemetry::trace_event_from_json(v.get("event")), sample_event());
}

TEST(NdjsonStreamSink, BudgetResetsPerRunButEventsSeenPersists) {
  std::int64_t emitted = 0;
  telemetry::NdjsonStreamSink sink([&](std::string_view) { ++emitted; }, 2);
  for (int i = 0; i < 5; ++i) sink.on_trace_event(sample_event());
  EXPECT_EQ(sink.streamed(), 2);
  EXPECT_EQ(sink.dropped(), 3);
  const Machine machine = Machine::umm(4, 20, 4, 16);
  sink.on_run_begin(machine);
  EXPECT_EQ(sink.streamed(), 0);
  EXPECT_EQ(sink.dropped(), 0);
  EXPECT_EQ(sink.events_seen(), 5);  // offered count spans runs
  sink.on_trace_event(sample_event());
  EXPECT_EQ(sink.streamed(), 1);
  EXPECT_EQ(emitted, 3);
}

TEST(RingBufferSink, DropCounterIsExactUnderOverflow) {
  // The service's backpressure accounting leans on this arithmetic:
  // offered == kept + dropped at every capacity, including zero.
  for (const std::int64_t capacity : {0, 1, 7, 64}) {
    telemetry::RingBufferSink sink(capacity);
    const std::int64_t offered = 3 * capacity + 11;
    for (std::int64_t i = 0; i < offered; ++i) {
      sink.on_trace_event(sample_event());
    }
    EXPECT_EQ(sink.size() + sink.dropped(), offered) << capacity;
    EXPECT_EQ(sink.size(), std::min(capacity, offered)) << capacity;
    EXPECT_EQ(sink.storage_capacity(), capacity) << capacity;
  }
}

// ---------------------------------------------------------------------------
// End to end over a real unix socket
// ---------------------------------------------------------------------------

TEST(Service, EndToEndRunStreamDrain) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_test_" + std::to_string(::getpid()) + ".sock");
  config.jobs = 2;
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  service::Client client;
  const service::HelloFrame hello = client.connect(config.listen);
  EXPECT_EQ(hello.version, kVersionString);
  EXPECT_EQ(hello.features.size(), kFeatureCount);

  service::RunRequest run;
  run.id = "t1";
  run.algorithm = "sum";
  run.n = {1024, 2048};
  run.p = {256};
  run.metrics = true;
  run.telemetry = 4;
  client.send(run);

  std::int64_t results = 0;
  std::int64_t metrics = 0;
  std::int64_t telemetry_lines = 0;
  std::optional<service::DoneFrame> done;
  while (!done) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value()) << "connection closed before done";
    if (auto* accepted = std::get_if<service::AcceptedFrame>(&*frame)) {
      EXPECT_EQ(accepted->req, "t1");
      EXPECT_EQ(accepted->grid_points, 2);
    } else if (auto* result = std::get_if<service::ResultFrame>(&*frame)) {
      EXPECT_FALSE(result->row.empty());
      EXPECT_GT(result->time, 0);
      ++results;
    } else if (std::get_if<service::MetricsFrame>(&*frame)) {
      ++metrics;
    } else if (std::get_if<service::TelemetryFrame>(&*frame)) {
      ++telemetry_lines;
    } else if (auto* d = std::get_if<service::DoneFrame>(&*frame)) {
      done = *d;
    }
  }
  EXPECT_EQ(results, 2);
  EXPECT_EQ(metrics, 2);
  EXPECT_EQ(done->rows, 2);
  EXPECT_EQ(done->skipped, 0);
  // Budget 4 per grid point, two points: at most 8 streamed, the rest
  // counted — and everything offered is accounted for.
  EXPECT_LE(telemetry_lines, 8);
  EXPECT_EQ(done->telemetry_frames, telemetry_lines);
  EXPECT_GT(done->telemetry_dropped, 0);

  client.send(service::StatsRequest{"s1"});
  bool saw_stats = false;
  while (!saw_stats) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (auto* stats = std::get_if<service::StatsFrame>(&*frame)) {
      EXPECT_EQ(stats->stats.requests_completed, 1);
      EXPECT_EQ(stats->stats.points_run, 2);
      EXPECT_EQ(stats->stats.points_skipped, 0);
      ASSERT_EQ(stats->stats.clients.size(), 1u);
      EXPECT_EQ(stats->stats.clients[0].client, hello.client);
      saw_stats = true;
    }
  }

  client.send(service::DrainRequest{"d1"});
  bool drained = false;
  while (!drained) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (auto* bye = std::get_if<service::ByeFrame>(&*frame)) {
      EXPECT_TRUE(bye->drained);
      EXPECT_EQ(bye->served, 1);
      drained = true;
    }
  }
  serve.join();
}

TEST(Service, DrainingServerRejectsNewRunsAndFinishesQueuedWork) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_drain_" + std::to_string(::getpid()) + ".sock");
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  service::Client client;
  client.connect(config.listen);

  // Occupy the executor with a non-trivial run so the drain cannot
  // complete before the follow-up requests are dispatched.
  service::RunRequest busy;
  busy.id = "busy";
  busy.algorithm = "sort";
  busy.n = {1 << 16};
  busy.p = {256};
  client.send(busy);
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (auto* accepted = std::get_if<service::AcceptedFrame>(&*frame)) {
      EXPECT_EQ(accepted->req, "busy");
      break;
    }
  }

  // The reader handles a connection's lines strictly in order: the drain
  // flag is set before the late run is considered, so the late run must
  // be rejected while the busy run still completes and streams its done
  // frame before the bye.
  client.send(service::DrainRequest{"d"});
  service::RunRequest late;
  late.id = "late";
  late.algorithm = "sum";
  late.n = {1024};
  late.p = {256};
  client.send(late);

  bool rejected = false;
  bool busy_done = false;
  bool bye = false;
  while (!bye) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value()) << "connection closed before bye";
    if (auto* error = std::get_if<service::ErrorFrame>(&*frame)) {
      EXPECT_EQ(error->req, "late");
      rejected = true;
    } else if (auto* done = std::get_if<service::DoneFrame>(&*frame)) {
      EXPECT_EQ(done->req, "busy");
      EXPECT_EQ(done->rows, 1);
      busy_done = true;
    } else if (std::get_if<service::ByeFrame>(&*frame)) {
      bye = true;
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_TRUE(busy_done);
  serve.join();

  const service::ServiceStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_completed, 1);
  EXPECT_EQ(stats.requests_rejected, 1);
  EXPECT_TRUE(stats.draining);
}

TEST(Service, AdmissionAdoptsTheMachineTopology) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_machine_" + std::to_string(::getpid()) + ".sock");
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  service::Client client;
  client.connect(config.listen);

  // Two linked HMMs of two 32-thread DMMs: p/w/l/d come from the spec,
  // not from the request's (default) axes.
  service::RunRequest linked;
  linked.id = "linked";
  linked.algorithm = "sum";
  linked.n = {1024};
  linked.machine = topo::parse_topology_text(
                       R"({"hmms": [{"name": "a", "dmms": 2},
                                    {"name": "b", "dmms": 2}],
                           "links": [{"from": "b", "to": "a",
                                      "latency": 7}]})",
                       "<test>")
                       .document();
  service::RunRequest umm = linked;
  umm.id = "umm";
  umm.model = "umm";
  client.send(linked);
  client.send(umm);
  client.send(service::DrainRequest{"d"});

  bool rejected = false;
  std::string row;
  for (;;) {
    auto frame = client.read_frame();
    ASSERT_TRUE(frame.has_value()) << "connection closed before bye";
    if (auto* error = std::get_if<service::ErrorFrame>(&*frame)) {
      EXPECT_EQ(error->req, "umm");
      EXPECT_NE(error->message.find("require the hmm model"),
                std::string::npos);
      rejected = true;
    } else if (auto* result = std::get_if<service::ResultFrame>(&*frame)) {
      row = result->row;
    } else if (std::get_if<service::ByeFrame>(&*frame)) {
      break;
    }
  }
  EXPECT_TRUE(rejected);
  EXPECT_EQ(row.rfind("sum,hmm,1024,32,128,32,400,4,", 0), 0u) << row;
  serve.join();
}

// Admission on a server with one job, one queue slot and a budget of one
// queued run per client: while a sweep occupies the executor, client A's
// next run takes the slot, A's third run is over its budget, and client
// B's run finds the queue full.
TEST(Service, AdmissionRefusesPastTheClientBudgetAndTheQueueCap) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_admit_" + std::to_string(::getpid()) + ".sock");
  config.jobs = 1;
  config.max_queue = 1;
  config.client_budget = 1;
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  const auto run = [](const std::string& id, std::vector<std::int64_t> n) {
    service::RunRequest r;
    r.id = id;
    r.algorithm = "sort";
    r.n = std::move(n);
    r.p = {256};
    return r;
  };
  service::Client a;
  a.connect(config.listen);
  // Point 0 is small; point 1 keeps the executor busy for hundreds of ms
  // after point 0's result frame.
  a.send(run("busy", {1024, 32768}));
  for (;;) {
    auto frame = a.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (std::holds_alternative<service::ResultFrame>(*frame)) break;
  }

  // A's reader handles its lines in order: "second" takes the one queue
  // slot before "third" is considered.
  a.send(run("second", {1024}));
  a.send(run("third", {1024}));
  bool second_accepted = false;
  std::string third_error;
  while (!second_accepted || third_error.empty()) {
    auto frame = a.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (auto* accepted = std::get_if<service::AcceptedFrame>(&*frame)) {
      EXPECT_EQ(accepted->req, "second");
      second_accepted = true;
    } else if (auto* error = std::get_if<service::ErrorFrame>(&*frame)) {
      EXPECT_EQ(error->req, "third");
      third_error = error->message;
    }
  }
  EXPECT_NE(third_error.find("client budget exceeded"), std::string::npos)
      << third_error;

  service::Client b;
  b.connect(config.listen);
  b.send(run("other", {1024}));
  const auto refused = b.read_frame();
  ASSERT_TRUE(refused.has_value());
  ASSERT_TRUE(std::holds_alternative<service::ErrorFrame>(*refused));
  EXPECT_EQ(std::get<service::ErrorFrame>(*refused).req, "other");
  EXPECT_NE(std::get<service::ErrorFrame>(*refused).message.find("queue full"),
            std::string::npos);

  // Both accepted runs finish; then drain.
  std::vector<std::string> done;
  while (done.size() < 2) {
    auto frame = a.read_frame();
    ASSERT_TRUE(frame.has_value());
    if (auto* d = std::get_if<service::DoneFrame>(&*frame)) {
      done.push_back(d->req);
    }
  }
  EXPECT_EQ(done, (std::vector<std::string>{"busy", "second"}));
  a.send(service::DrainRequest{"d"});
  serve.join();

  const service::ServiceStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.requests_accepted, 2);
  EXPECT_EQ(stats.requests_completed, 2);
  EXPECT_EQ(stats.requests_rejected, 2);
}

/// A raw socket to the daemon, for request lines no Client would send.
class RawConnection {
 public:
  explicit RawConnection(const service::Address& address)
      : fd_(service::connect_address(address)) {}
  ~RawConnection() { ::close(fd_); }
  RawConnection(const RawConnection&) = delete;
  RawConnection& operator=(const RawConnection&) = delete;

  /// Write `bytes` verbatim; stops once the daemon closes its side.
  void write(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The next frame, or nullopt once the daemon closes the connection.
  std::optional<Frame> read_frame() {
    std::size_t nl = 0;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return std::nullopt;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return service::frame_from_json(json::parse(line));
  }

 private:
  int fd_;
  std::string buffer_;
};

std::string request_line(const Request& request) {
  return json::to_string(service::request_json(request)) + "\n";
}

// Hostile lines: one nested past json::kMaxDepth is an ordinary parse
// error on a connection that keeps serving; one longer than
// kMaxRequestLine is refused and its connection closed, while other
// clients are still answered.
TEST(Service, OverDeepLineGetsAnErrorFrameAndTheConnectionServesOn) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_deep_" + std::to_string(::getpid()) + ".sock");
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  RawConnection raw(config.listen);
  ASSERT_TRUE(raw.read_frame().has_value());  // hello
  raw.write(std::string(200000, '[') + "\n");
  const auto error = raw.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_TRUE(std::holds_alternative<service::ErrorFrame>(*error));
  EXPECT_NE(std::get<service::ErrorFrame>(*error).message.find("nesting"),
            std::string::npos);
  raw.write(request_line(service::PingRequest{"after"}));
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  ASSERT_TRUE(std::holds_alternative<service::PongFrame>(*pong));
  EXPECT_EQ(std::get<service::PongFrame>(*pong).req, "after");

  raw.write(request_line(service::DrainRequest{"d"}));
  serve.join();
  EXPECT_EQ(server.stats_snapshot().requests_rejected, 1);
}

// Ten values on each of the six axes are 1,000,000 grid points, far past
// run::kMaxGridPoints: the request is refused before anything expands
// them, and its connection keeps serving.
TEST(Service, OversizedGridGetsAnErrorFrameAndTheConnectionServesOn) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_grid_" + std::to_string(::getpid()) + ".sock");
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  service::RunRequest big;
  big.id = "big";
  big.algorithm = "sum";
  const std::vector<std::int64_t> ten = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  big.n = big.m = big.p = big.w = big.l = big.d = ten;
  RawConnection raw(config.listen);
  ASSERT_TRUE(raw.read_frame().has_value());  // hello
  raw.write(request_line(big));
  const auto error = raw.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_TRUE(std::holds_alternative<service::ErrorFrame>(*error));
  EXPECT_EQ(std::get<service::ErrorFrame>(*error).req, "big");
  EXPECT_NE(std::get<service::ErrorFrame>(*error).message.find("65536"),
            std::string::npos);
  raw.write(request_line(service::PingRequest{"after"}));
  const auto pong = raw.read_frame();
  ASSERT_TRUE(pong.has_value());
  ASSERT_TRUE(std::holds_alternative<service::PongFrame>(*pong));
  EXPECT_EQ(std::get<service::PongFrame>(*pong).req, "after");

  raw.write(request_line(service::DrainRequest{"d"}));
  serve.join();
  EXPECT_EQ(server.stats_snapshot().requests_rejected, 1);
  EXPECT_EQ(server.stats_snapshot().requests_accepted, 0);
}

TEST(Service, OverLongLineIsRefusedAndItsConnectionClosed) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_long_" + std::to_string(::getpid()) + ".sock");
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  service::Client other;
  other.connect(config.listen);

  RawConnection raw(config.listen);
  ASSERT_TRUE(raw.read_frame().has_value());  // hello
  raw.write(std::string(std::size_t{2} << 20, 'x'));  // no newline
  const auto error = raw.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_TRUE(std::holds_alternative<service::ErrorFrame>(*error));
  EXPECT_NE(std::get<service::ErrorFrame>(*error).message.find(
                std::to_string(service::kMaxRequestLine)),
            std::string::npos);
  EXPECT_FALSE(raw.read_frame().has_value()) << "connection left open";

  other.send(service::PingRequest{"still"});
  const auto pong = other.read_frame();
  ASSERT_TRUE(pong.has_value());
  ASSERT_TRUE(std::holds_alternative<service::PongFrame>(*pong));
  EXPECT_EQ(std::get<service::PongFrame>(*pong).req, "still");

  other.send(service::DrainRequest{"d"});
  serve.join();
  EXPECT_EQ(server.stats_snapshot().requests_rejected, 1);
}

// A connection flood: kMaxConnections clients are served, the next one
// gets an error frame and then EOF, and the daemon serves on.
TEST(Service, ConnectionPastTheCapIsRefusedAndOthersServeOn) {
  service::ServerConfig config;
  config.listen = service::parse_address(
      "unix:/tmp/hmmsvc_flood_" + std::to_string(::getpid()) + ".sock");
  service::Server server(config);
  server.start();
  std::thread serve([&] { server.serve(); });

  std::vector<service::Client> clients(service::kMaxConnections);
  for (service::Client& client : clients) client.connect(config.listen);

  RawConnection refused(config.listen);
  const auto error = refused.read_frame();
  ASSERT_TRUE(error.has_value());
  ASSERT_TRUE(std::holds_alternative<service::ErrorFrame>(*error));
  EXPECT_NE(std::get<service::ErrorFrame>(*error).message.find(
                std::to_string(service::kMaxConnections)),
            std::string::npos);
  EXPECT_FALSE(refused.read_frame().has_value()) << "connection left open";

  clients.front().send(service::PingRequest{"first"});
  const auto pong = clients.front().read_frame();
  ASSERT_TRUE(pong.has_value());
  ASSERT_TRUE(std::holds_alternative<service::PongFrame>(*pong));
  EXPECT_EQ(std::get<service::PongFrame>(*pong).req, "first");

  clients.back().send(service::DrainRequest{"d"});
  serve.join();
  const service::ServiceStatsSnapshot stats = server.stats_snapshot();
  EXPECT_EQ(stats.connections_refused, 1);
  EXPECT_EQ(stats.connections_total,
            static_cast<std::int64_t>(service::kMaxConnections));
}

}  // namespace
}  // namespace hmm
