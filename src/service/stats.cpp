#include "service/stats.hpp"

#include <map>
#include <string>
#include <utility>

namespace hmm::service {

json::Value stats_json(const ServiceStatsSnapshot& s) {
  std::map<std::string, json::Value> o;
  o["requests_accepted"] = json::Value::make_int(s.requests_accepted);
  o["requests_completed"] = json::Value::make_int(s.requests_completed);
  o["requests_rejected"] = json::Value::make_int(s.requests_rejected);
  o["requests_failed"] = json::Value::make_int(s.requests_failed);
  o["queue_depth"] = json::Value::make_int(s.queue_depth);
  o["in_flight"] = json::Value::make_int(s.in_flight);
  o["connections_total"] = json::Value::make_int(s.connections_total);
  o["connections_active"] = json::Value::make_int(s.connections_active);
  o["connections_refused"] = json::Value::make_int(s.connections_refused);
  o["frames_sent"] = json::Value::make_int(s.frames_sent);
  o["telemetry_frames"] = json::Value::make_int(s.telemetry_frames);
  o["telemetry_dropped"] = json::Value::make_int(s.telemetry_dropped);
  o["points_run"] = json::Value::make_int(s.points_run);
  o["points_skipped"] = json::Value::make_int(s.points_skipped);
  o["draining"] = json::Value::make_bool(s.draining);
  std::vector<json::Value> clients;
  clients.reserve(s.clients.size());
  for (const ClientEntry& c : s.clients) {
    std::map<std::string, json::Value> e;
    e["client"] = json::Value::make_int(c.client);
    e["requests"] = json::Value::make_int(c.requests);
    e["frames"] = json::Value::make_int(c.frames);
    e["telemetry_dropped"] = json::Value::make_int(c.telemetry_dropped);
    clients.push_back(json::Value::make_object(std::move(e)));
  }
  o["clients"] = json::Value::make_array(std::move(clients));
  return json::Value::make_object(std::move(o));
}

ServiceStatsSnapshot stats_from_json(const json::Value& v) {
  ServiceStatsSnapshot s;
  s.requests_accepted = v.get("requests_accepted").as_int64();
  s.requests_completed = v.get("requests_completed").as_int64();
  s.requests_rejected = v.get("requests_rejected").as_int64();
  s.requests_failed = v.get("requests_failed").as_int64();
  s.queue_depth = v.get("queue_depth").as_int64();
  s.in_flight = v.get("in_flight").as_int64();
  s.connections_total = v.get("connections_total").as_int64();
  s.connections_active = v.get("connections_active").as_int64();
  s.connections_refused = v.get("connections_refused").as_int64();
  s.frames_sent = v.get("frames_sent").as_int64();
  s.telemetry_frames = v.get("telemetry_frames").as_int64();
  s.telemetry_dropped = v.get("telemetry_dropped").as_int64();
  s.points_run = v.get("points_run").as_int64();
  s.points_skipped = v.get("points_skipped").as_int64();
  s.draining = v.get("draining").as_bool();
  for (const json::Value& e : v.get("clients").as_array()) {
    ClientEntry c;
    c.client = e.get("client").as_int64();
    c.requests = e.get("requests").as_int64();
    c.frames = e.get("frames").as_int64();
    c.telemetry_dropped = e.get("telemetry_dropped").as_int64();
    s.clients.push_back(c);
  }
  return s;
}

ServiceStatsSnapshot ServiceStats::snapshot() const {
  ServiceStatsSnapshot s;
  s.requests_accepted = requests_accepted.load(std::memory_order_relaxed);
  s.requests_completed = requests_completed.load(std::memory_order_relaxed);
  s.requests_rejected = requests_rejected.load(std::memory_order_relaxed);
  s.requests_failed = requests_failed.load(std::memory_order_relaxed);
  s.queue_depth = queue_depth.load(std::memory_order_relaxed);
  s.in_flight = in_flight.load(std::memory_order_relaxed);
  s.connections_total = connections_total.load(std::memory_order_relaxed);
  s.connections_active = connections_active.load(std::memory_order_relaxed);
  s.connections_refused = connections_refused.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent.load(std::memory_order_relaxed);
  s.telemetry_frames = telemetry_frames.load(std::memory_order_relaxed);
  s.telemetry_dropped = telemetry_dropped.load(std::memory_order_relaxed);
  s.points_run = points_run.load(std::memory_order_relaxed);
  s.points_skipped = points_skipped.load(std::memory_order_relaxed);
  s.draining = draining.load(std::memory_order_relaxed);
  return s;
}

}  // namespace hmm::service
