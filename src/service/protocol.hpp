// The hmmsimd wire protocol — newline-delimited JSON in both directions.
//
// A client writes one REQUEST object per line; the daemon answers with a
// stream of FRAME objects, one per line, each tagged with the request id
// it belongs to (`req`), so several requests can interleave on one
// connection.  The full vocabulary (docs/OBSERVABILITY.md "Wire
// protocol"):
//
//   requests:  run | stats | version | ping | drain
//   frames:    hello | accepted | result | metrics | telemetry | drop |
//              done | stats | pong | version | error | bye
//
// Everything is built on src/core/json: requests and frames are
// json::Value objects serialised with json::to_string, and every frame
// type parses back into an identical struct (frame_from_json; locked by
// tests/service_test.cpp).  A run request carries the hmmsim sweep
// vocabulary verbatim — per-axis value LISTS that become a run::GridSpec
// and expand through the CLI's own GridSpec::expand — and each result
// frame carries the finished sweep-CSV row for its grid point, so
// `hmmsim --connect` output is byte-identical to a local `--csv` run by
// construction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/json.hpp"
#include "machine/report.hpp"
#include "run/point.hpp"
#include "run/shard.hpp"
#include "service/stats.hpp"

namespace hmm::service {

// ---- requests (client -> server) ----------------------------------------

/// Longest request line the daemon reads, in bytes without the newline.
/// A longer line gets an error frame, counts as rejected and closes its
/// connection, so a peer streaming bytes without a newline cannot grow
/// the daemon's memory.  The largest legitimate line, a run request with
/// an inline machine, is a few KB.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// Largest per-grid-point telemetry budget the daemon honours: a run
/// request's `telemetry` is clamped to it, and events past the budget
/// are counted in drop frames.
inline constexpr std::int64_t kMaxTelemetryBudget = std::int64_t{1} << 16;

/// Execute a run or sweep: the hmmsim axes, each a value list; more than
/// one value on any axis makes it a sweep over the cartesian grid.  The
/// defaults are run::Point's, like GridSpec's.
struct RunRequest {
  std::string id;         ///< echoed as `req` in every response frame
  std::string algorithm;  ///< sum, scan, conv, sort, matmul, match
  std::string model = run::Point{}.model;
  std::vector<std::int64_t> n{run::Point{}.n};
  std::vector<std::int64_t> m{run::Point{}.m};
  std::vector<std::int64_t> p{run::Point{}.p};
  std::vector<std::int64_t> w{run::Point{}.w};
  std::vector<std::int64_t> l{run::Point{}.l};
  std::vector<std::int64_t> d{run::Point{}.d};
  std::uint64_t seed = run::Point{}.seed;
  bool fast_forward = run::Point{}.fast_forward;
  bool metrics = false;  ///< stream a metrics frame per grid point
  /// Per-grid-point trace-event budget for live telemetry frames; 0
  /// disables the trace channel entirely.  The daemon clamps this to
  /// kMaxTelemetryBudget and counts everything past the budget in drop
  /// frames (backpressure, never unbounded buffering).
  std::int64_t telemetry = 0;
  /// Declarative machine topology: the NORMALIZED document text of a
  /// TopologySpec (json::to_string form), carried on the wire as an
  /// inline `machine` object.  Empty = the flat p/w/l/d axes above.
  /// When set, the daemon derives p/w/l/d from the spec (the request's
  /// own values for those axes are ignored; docs/TOPOLOGY.md).
  std::string machine;
  /// Server-side preset name (`machines/<name>.json` under the daemon's
  /// --machines directory).  Mutually exclusive with `machine`.
  std::string machine_preset;

  friend bool operator==(const RunRequest&, const RunRequest&) = default;
};

struct StatsRequest {
  std::string id;
  friend bool operator==(const StatsRequest&, const StatsRequest&) = default;
};

struct VersionRequest {
  std::string id;
  friend bool operator==(const VersionRequest&,
                         const VersionRequest&) = default;
};

struct PingRequest {
  std::string id;
  friend bool operator==(const PingRequest&, const PingRequest&) = default;
};

/// Graceful shutdown: stop accepting run requests, finish everything
/// already queued, send every client a bye frame, exit.
struct DrainRequest {
  std::string id;
  friend bool operator==(const DrainRequest&, const DrainRequest&) = default;
};

using Request =
    std::variant<RunRequest, StatsRequest, VersionRequest, PingRequest,
                 DrainRequest>;

json::Value request_json(const Request& request);
/// Throws PreconditionError on unknown type, missing fields, axes and a
/// seed that break run::axis_error, or a grid of more than
/// run::kMaxGridPoints points — the rules the CLI and manifests apply
/// too.
Request request_from_json(const json::Value& v);

/// The request's sweep fields as a GridSpec, and back: the two spell
/// algorithm, model, the six axes, seed, fast_forward and metrics alike.
run::GridSpec grid_spec(const RunRequest& request);
RunRequest run_request(const run::GridSpec& grid);

/// grid_spec(request).expand(): the exact expansion hmmsim performs, so
/// grid_index i here names the same operating point as row i of the
/// local sweep.
std::vector<run::Point> expand_grid(const RunRequest& request);

// ---- frames (server -> client) ------------------------------------------

/// First frame on every connection.
struct HelloFrame {
  std::string version;                ///< hmm::kVersionString
  std::vector<std::string> features;  ///< hmm::kFeatures
  std::int64_t client = 0;            ///< this connection's id
  friend bool operator==(const HelloFrame&, const HelloFrame&) = default;
};

/// A run request passed admission and joined the queue.
struct AcceptedFrame {
  std::string req;
  std::int64_t grid_points = 0;
  std::int64_t queue_depth = 0;  ///< requests ahead of this one
  friend bool operator==(const AcceptedFrame&, const AcceptedFrame&) = default;
};

/// One finished grid point.  `row` is the sweep-CSV row (metric columns
/// included when the request asked for metrics); the scalar fields
/// repeat the measurement for consumers that don't want to split CSV.
struct ResultFrame {
  std::string req;
  std::int64_t grid_index = 0;
  std::string row;
  std::string summary;
  Cycle time = 0;
  std::int64_t global_stages = 0;
  std::int64_t ff_rounds = 0;
  friend bool operator==(const ResultFrame&, const ResultFrame&) = default;
};

/// The full MetricsSnapshot of one grid point (same schema as
/// `hmmsim --metrics=json`, report/metrics.hpp).
struct MetricsFrame {
  std::string req;
  std::int64_t grid_index = 0;
  MetricsSnapshot metrics;
  friend bool operator==(const MetricsFrame&, const MetricsFrame&) = default;
};

/// One live TraceEvent (telemetry/ndjson.hpp), streamed while the grid
/// point is still running.
struct TelemetryFrame {
  std::string req;
  std::int64_t grid_index = 0;
  TraceEvent event;
  friend bool operator==(const TelemetryFrame&,
                         const TelemetryFrame&) = default;
};

/// Telemetry backpressure: `dropped` events of this grid point exceeded
/// the budget and were counted instead of streamed.
struct DropFrame {
  std::string req;
  std::int64_t grid_index = 0;
  std::int64_t dropped = 0;
  friend bool operator==(const DropFrame&, const DropFrame&) = default;
};

/// A run request finished; totals over all its grid points.
struct DoneFrame {
  std::string req;
  std::int64_t rows = 0;
  std::int64_t telemetry_frames = 0;
  std::int64_t telemetry_dropped = 0;
  std::int64_t skipped = 0;  ///< points not simulated (client vanished)
  friend bool operator==(const DoneFrame&, const DoneFrame&) = default;
};

struct StatsFrame {
  std::string req;
  ServiceStatsSnapshot stats;
  friend bool operator==(const StatsFrame&, const StatsFrame&) = default;
};

struct PongFrame {
  std::string req;
  friend bool operator==(const PongFrame&, const PongFrame&) = default;
};

struct VersionFrame {
  std::string req;
  std::string version;
  std::vector<std::string> features;
  friend bool operator==(const VersionFrame&, const VersionFrame&) = default;
};

/// Request-scoped failure (admission refusal, unknown algorithm, bad
/// shape).  `req` is empty when the line didn't parse far enough to
/// carry an id.
struct ErrorFrame {
  std::string req;
  std::string message;
  friend bool operator==(const ErrorFrame&, const ErrorFrame&) = default;
};

/// Last frame before the daemon closes the connection.
struct ByeFrame {
  bool drained = true;
  std::int64_t served = 0;  ///< run requests completed over the lifetime
  friend bool operator==(const ByeFrame&, const ByeFrame&) = default;
};

using Frame =
    std::variant<HelloFrame, AcceptedFrame, ResultFrame, MetricsFrame,
                 TelemetryFrame, DropFrame, DoneFrame, StatsFrame, PongFrame,
                 VersionFrame, ErrorFrame, ByeFrame>;

json::Value frame_json(const Frame& frame);
/// Throws PreconditionError on unknown `frame` tags or missing fields.
Frame frame_from_json(const json::Value& v);

/// Convenience: `json::to_string(frame_json(f))` — the exact NDJSON line
/// the daemon writes (no trailing newline).
std::string frame_line(const Frame& frame);

}  // namespace hmm::service
