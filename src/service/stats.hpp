// ServiceStats — the hmmsimd daemon's observability registry.
//
// Every lifecycle edge of the service increments a counter here:
// connections opened, refused and closed, requests accepted / completed /
// rejected / failed, queue depth and in-flight work, frames written,
// telemetry backpressure drops.  A `stats` request returns a stats frame
// with the full snapshot, including a per-active-client breakdown
// (docs/OBSERVABILITY.md "The simulation service"), and the daemon
// prints a summary of it when it drains.
//
// Counters are plain relaxed atomics: they are monotonic event counts
// (or instantaneous gauges) with no cross-counter invariant to protect,
// and the hot increments sit on the frame-writing path where a lock
// would serialise workers.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/json.hpp"

namespace hmm::service {

/// Per-client slice of a snapshot (active connections only).
struct ClientEntry {
  std::int64_t client = 0;   ///< connection id (hello frame `client`)
  std::int64_t requests = 0; ///< requests read from this connection
  std::int64_t frames = 0;   ///< frames written to it
  std::int64_t telemetry_dropped = 0;  ///< its events past telemetry budgets

  friend bool operator==(const ClientEntry&, const ClientEntry&) = default;
};

/// One coherent-enough picture of the service (individual counters are
/// exact; the set is collected without a global pause).
struct ServiceStatsSnapshot {
  std::int64_t requests_accepted = 0;   ///< run requests enqueued
  std::int64_t requests_completed = 0;  ///< run requests fully streamed
  std::int64_t requests_rejected = 0;   ///< parse/budget/queue/drain refusals
  std::int64_t requests_failed = 0;     ///< runs that raised errors
  std::int64_t queue_depth = 0;         ///< gauge: run requests waiting
  std::int64_t in_flight = 0;           ///< gauge: run requests executing
  std::int64_t connections_total = 0;   ///< served (refused not counted)
  std::int64_t connections_active = 0;  ///< gauge
  std::int64_t connections_refused = 0;  ///< error frame, then closed
  std::int64_t frames_sent = 0;         ///< every frame kind, all clients
  std::int64_t telemetry_frames = 0;    ///< telemetry frames among them
  std::int64_t telemetry_dropped = 0;   ///< events past per-point budgets
  std::int64_t points_run = 0;      ///< grid points simulated
  std::int64_t points_skipped = 0;  ///< points not run (client vanished)
  bool draining = false;
  std::vector<ClientEntry> clients;  ///< active connections

  friend bool operator==(const ServiceStatsSnapshot&,
                         const ServiceStatsSnapshot&) = default;
};

/// JSON round trip of the snapshot (the `stats` member of stats frames).
json::Value stats_json(const ServiceStatsSnapshot& s);
ServiceStatsSnapshot stats_from_json(const json::Value& v);

/// The live registry.  Increment the public counters directly; gauges
/// (queue_depth, in_flight, connections_active) go up and down.
class ServiceStats {
 public:
  std::atomic<std::int64_t> requests_accepted{0};
  std::atomic<std::int64_t> requests_completed{0};
  std::atomic<std::int64_t> requests_rejected{0};
  std::atomic<std::int64_t> requests_failed{0};
  std::atomic<std::int64_t> queue_depth{0};
  std::atomic<std::int64_t> in_flight{0};
  std::atomic<std::int64_t> connections_total{0};
  std::atomic<std::int64_t> connections_active{0};
  std::atomic<std::int64_t> connections_refused{0};
  std::atomic<std::int64_t> frames_sent{0};
  std::atomic<std::int64_t> telemetry_frames{0};
  std::atomic<std::int64_t> telemetry_dropped{0};
  std::atomic<std::int64_t> points_run{0};
  std::atomic<std::int64_t> points_skipped{0};
  std::atomic<bool> draining{false};

  /// The aggregate part of a snapshot (the caller owns the per-client
  /// breakdown — the server fills `clients` from its connection list).
  ServiceStatsSnapshot snapshot() const;
};

}  // namespace hmm::service
