#include "service/protocol.hpp"

#include <map>
#include <utility>

#include "core/error.hpp"
#include "report/metrics.hpp"
#include "telemetry/ndjson.hpp"

namespace hmm::service {
namespace {

json::Value int_list_json(const std::vector<std::int64_t>& values) {
  std::vector<json::Value> items;
  items.reserve(values.size());
  for (std::int64_t v : values) items.push_back(json::Value::make_int(v));
  return json::Value::make_array(std::move(items));
}

// Enforces the shared axis rule (run::axis_error) on a request field.
void require_axis(const std::vector<std::int64_t>& values,
                  const std::string& axis, std::int64_t min = 1) {
  const std::string error = run::axis_error(values, min);
  if (!error.empty()) {
    throw PreconditionError("run request: axis '" + axis + "' " + error);
  }
}

// Accepts either a single integer or a list — `"n": 1024` and
// `"n": [1024]` mean the same thing.
std::vector<std::int64_t> int_list_from_json(const json::Value& v,
                                             const std::string& axis) {
  std::vector<std::int64_t> out;
  if (v.kind() == json::Value::Kind::kArray) {
    for (const json::Value& item : v.as_array()) out.push_back(item.as_int64());
  } else {
    out.push_back(v.as_int64());
  }
  require_axis(out, axis);
  return out;
}

// RunRequest and GridSpec spell the sweep fields alike; this is the one
// list of them, copied in either direction.
template <class From, class To>
void copy_sweep_fields(const From& from, To& to) {
  to.algorithm = from.algorithm;
  to.model = from.model;
  to.n = from.n;
  to.m = from.m;
  to.p = from.p;
  to.w = from.w;
  to.l = from.l;
  to.d = from.d;
  to.seed = from.seed;
  to.fast_forward = from.fast_forward;
  to.metrics = from.metrics;
}

json::Value string_list_json(const std::vector<std::string>& values) {
  std::vector<json::Value> items;
  items.reserve(values.size());
  for (const std::string& v : values) {
    items.push_back(json::Value::make_string(v));
  }
  return json::Value::make_array(std::move(items));
}

std::vector<std::string> string_list_from_json(const json::Value& v) {
  std::vector<std::string> out;
  for (const json::Value& item : v.as_array()) out.push_back(item.as_string());
  return out;
}

std::string id_from(const json::Value& v) {
  const json::Value* id = v.find("id");
  return id != nullptr ? id->as_string() : std::string();
}

json::Value run_request_json(const RunRequest& r) {
  std::map<std::string, json::Value> o;
  o["type"] = json::Value::make_string("run");
  o["id"] = json::Value::make_string(r.id);
  o["algorithm"] = json::Value::make_string(r.algorithm);
  o["model"] = json::Value::make_string(r.model);
  o["n"] = int_list_json(r.n);
  o["m"] = int_list_json(r.m);
  o["p"] = int_list_json(r.p);
  o["w"] = int_list_json(r.w);
  o["l"] = int_list_json(r.l);
  o["d"] = int_list_json(r.d);
  o["seed"] = json::Value::make_int(static_cast<std::int64_t>(r.seed));
  o["fast_forward"] = json::Value::make_bool(r.fast_forward);
  o["metrics"] = json::Value::make_bool(r.metrics);
  o["telemetry"] = json::Value::make_int(r.telemetry);
  // The machine rides as an inline OBJECT (r.machine is its normalized
  // text), so clients in other languages compose requests naturally.
  if (!r.machine.empty()) o["machine"] = json::parse(r.machine);
  if (!r.machine_preset.empty()) {
    o["machine_preset"] = json::Value::make_string(r.machine_preset);
  }
  return json::Value::make_object(std::move(o));
}

RunRequest run_request_from_json(const json::Value& v) {
  RunRequest r;
  r.id = id_from(v);
  r.algorithm = v.get("algorithm").as_string();
  if (const json::Value* f = v.find("model")) r.model = f->as_string();
  if (r.model != "hmm" && r.model != "umm") {
    throw PreconditionError("run request: model must be hmm or umm");
  }
  if (const json::Value* f = v.find("n")) r.n = int_list_from_json(*f, "n");
  if (const json::Value* f = v.find("m")) r.m = int_list_from_json(*f, "m");
  if (const json::Value* f = v.find("p")) r.p = int_list_from_json(*f, "p");
  if (const json::Value* f = v.find("w")) r.w = int_list_from_json(*f, "w");
  if (const json::Value* f = v.find("l")) r.l = int_list_from_json(*f, "l");
  if (const json::Value* f = v.find("d")) r.d = int_list_from_json(*f, "d");
  if (const json::Value* f = v.find("seed")) {
    const std::int64_t seed = f->as_int64();
    require_axis({seed}, "seed", 0);
    r.seed = static_cast<std::uint64_t>(seed);
  }
  if (const json::Value* f = v.find("fast_forward")) {
    r.fast_forward = f->as_bool();
  }
  if (const json::Value* f = v.find("metrics")) r.metrics = f->as_bool();
  if (const json::Value* f = v.find("telemetry")) {
    r.telemetry = f->as_int64();
    if (r.telemetry < 0) {
      throw PreconditionError("run request: telemetry budget must be >= 0");
    }
  }
  if (const json::Value* f = v.find("machine")) {
    if (f->kind() != json::Value::Kind::kObject) {
      throw PreconditionError("run request: machine must be an object");
    }
    r.machine = json::to_string(*f);
  }
  if (const json::Value* f = v.find("machine_preset")) {
    r.machine_preset = f->as_string();
  }
  if (!r.machine.empty() && !r.machine_preset.empty()) {
    throw PreconditionError(
        "run request: machine and machine_preset are mutually exclusive");
  }
  return r;
}

// The one-id request kinds share a shape.
json::Value tagged_id_json(const std::string& type, const std::string& id) {
  std::map<std::string, json::Value> o;
  o["type"] = json::Value::make_string(type);
  o["id"] = json::Value::make_string(id);
  return json::Value::make_object(std::move(o));
}

}  // namespace

json::Value request_json(const Request& request) {
  if (const auto* r = std::get_if<RunRequest>(&request)) {
    return run_request_json(*r);
  }
  if (const auto* r = std::get_if<StatsRequest>(&request)) {
    return tagged_id_json("stats", r->id);
  }
  if (const auto* r = std::get_if<VersionRequest>(&request)) {
    return tagged_id_json("version", r->id);
  }
  if (const auto* r = std::get_if<PingRequest>(&request)) {
    return tagged_id_json("ping", r->id);
  }
  const auto& r = std::get<DrainRequest>(request);
  return tagged_id_json("drain", r.id);
}

Request request_from_json(const json::Value& v) {
  const std::string type = v.get("type").as_string();
  if (type == "run") return run_request_from_json(v);
  if (type == "stats") return StatsRequest{id_from(v)};
  if (type == "version") return VersionRequest{id_from(v)};
  if (type == "ping") return PingRequest{id_from(v)};
  if (type == "drain") return DrainRequest{id_from(v)};
  throw PreconditionError("unknown request type: " + type);
}

run::GridSpec grid_spec(const RunRequest& request) {
  run::GridSpec grid;
  copy_sweep_fields(request, grid);
  return grid;
}

RunRequest run_request(const run::GridSpec& grid) {
  RunRequest request;
  copy_sweep_fields(grid, request);
  return request;
}

std::vector<run::Point> expand_grid(const RunRequest& request) {
  return grid_spec(request).expand();
}

namespace {

// Mutating an object Value after make_object would need non-const access
// the DOM doesn't offer, so each frame builds its full member map first.
json::Value make_frame(const std::string& kind,
                       std::map<std::string, json::Value> members) {
  members["frame"] = json::Value::make_string(kind);
  return json::Value::make_object(std::move(members));
}

}  // namespace

json::Value frame_json(const Frame& frame) {
  std::map<std::string, json::Value> o;
  if (const auto* f = std::get_if<HelloFrame>(&frame)) {
    o["version"] = json::Value::make_string(f->version);
    o["features"] = string_list_json(f->features);
    o["client"] = json::Value::make_int(f->client);
    return make_frame("hello", std::move(o));
  }
  if (const auto* f = std::get_if<AcceptedFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["grid_points"] = json::Value::make_int(f->grid_points);
    o["queue_depth"] = json::Value::make_int(f->queue_depth);
    return make_frame("accepted", std::move(o));
  }
  if (const auto* f = std::get_if<ResultFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["grid_index"] = json::Value::make_int(f->grid_index);
    o["row"] = json::Value::make_string(f->row);
    o["summary"] = json::Value::make_string(f->summary);
    o["time"] = json::Value::make_int(static_cast<std::int64_t>(f->time));
    o["global_stages"] = json::Value::make_int(f->global_stages);
    o["ff_rounds"] = json::Value::make_int(f->ff_rounds);
    return make_frame("result", std::move(o));
  }
  if (const auto* f = std::get_if<MetricsFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["grid_index"] = json::Value::make_int(f->grid_index);
    o["metrics"] = metrics_json(f->metrics);
    return make_frame("metrics", std::move(o));
  }
  if (const auto* f = std::get_if<TelemetryFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["grid_index"] = json::Value::make_int(f->grid_index);
    o["event"] = telemetry::trace_event_json(f->event);
    return make_frame("telemetry", std::move(o));
  }
  if (const auto* f = std::get_if<DropFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["grid_index"] = json::Value::make_int(f->grid_index);
    o["dropped"] = json::Value::make_int(f->dropped);
    return make_frame("drop", std::move(o));
  }
  if (const auto* f = std::get_if<DoneFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["rows"] = json::Value::make_int(f->rows);
    o["telemetry_frames"] = json::Value::make_int(f->telemetry_frames);
    o["telemetry_dropped"] = json::Value::make_int(f->telemetry_dropped);
    o["skipped"] = json::Value::make_int(f->skipped);
    return make_frame("done", std::move(o));
  }
  if (const auto* f = std::get_if<StatsFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["stats"] = stats_json(f->stats);
    return make_frame("stats", std::move(o));
  }
  if (const auto* f = std::get_if<PongFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    return make_frame("pong", std::move(o));
  }
  if (const auto* f = std::get_if<VersionFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["version"] = json::Value::make_string(f->version);
    o["features"] = string_list_json(f->features);
    return make_frame("version", std::move(o));
  }
  if (const auto* f = std::get_if<ErrorFrame>(&frame)) {
    o["req"] = json::Value::make_string(f->req);
    o["message"] = json::Value::make_string(f->message);
    return make_frame("error", std::move(o));
  }
  const auto& f = std::get<ByeFrame>(frame);
  o["drained"] = json::Value::make_bool(f.drained);
  o["served"] = json::Value::make_int(f.served);
  return make_frame("bye", std::move(o));
}

Frame frame_from_json(const json::Value& v) {
  const std::string kind = v.get("frame").as_string();
  if (kind == "hello") {
    HelloFrame f;
    f.version = v.get("version").as_string();
    f.features = string_list_from_json(v.get("features"));
    f.client = v.get("client").as_int64();
    return f;
  }
  if (kind == "accepted") {
    AcceptedFrame f;
    f.req = v.get("req").as_string();
    f.grid_points = v.get("grid_points").as_int64();
    f.queue_depth = v.get("queue_depth").as_int64();
    return f;
  }
  if (kind == "result") {
    ResultFrame f;
    f.req = v.get("req").as_string();
    f.grid_index = v.get("grid_index").as_int64();
    f.row = v.get("row").as_string();
    f.summary = v.get("summary").as_string();
    f.time = static_cast<Cycle>(v.get("time").as_int64());
    f.global_stages = v.get("global_stages").as_int64();
    f.ff_rounds = v.get("ff_rounds").as_int64();
    return f;
  }
  if (kind == "metrics") {
    MetricsFrame f;
    f.req = v.get("req").as_string();
    f.grid_index = v.get("grid_index").as_int64();
    f.metrics = metrics_from_json(v.get("metrics"));
    return f;
  }
  if (kind == "telemetry") {
    TelemetryFrame f;
    f.req = v.get("req").as_string();
    f.grid_index = v.get("grid_index").as_int64();
    f.event = telemetry::trace_event_from_json(v.get("event"));
    return f;
  }
  if (kind == "drop") {
    DropFrame f;
    f.req = v.get("req").as_string();
    f.grid_index = v.get("grid_index").as_int64();
    f.dropped = v.get("dropped").as_int64();
    return f;
  }
  if (kind == "done") {
    DoneFrame f;
    f.req = v.get("req").as_string();
    f.rows = v.get("rows").as_int64();
    f.telemetry_frames = v.get("telemetry_frames").as_int64();
    f.telemetry_dropped = v.get("telemetry_dropped").as_int64();
    f.skipped = v.get("skipped").as_int64();
    return f;
  }
  if (kind == "stats") {
    StatsFrame f;
    f.req = v.get("req").as_string();
    f.stats = stats_from_json(v.get("stats"));
    return f;
  }
  if (kind == "pong") {
    return PongFrame{v.get("req").as_string()};
  }
  if (kind == "version") {
    VersionFrame f;
    f.req = v.get("req").as_string();
    f.version = v.get("version").as_string();
    f.features = string_list_from_json(v.get("features"));
    return f;
  }
  if (kind == "error") {
    ErrorFrame f;
    f.req = v.get("req").as_string();
    f.message = v.get("message").as_string();
    return f;
  }
  if (kind == "bye") {
    ByeFrame f;
    f.drained = v.get("drained").as_bool();
    f.served = v.get("served").as_int64();
    return f;
  }
  throw PreconditionError("unknown frame kind: " + kind);
}

std::string frame_line(const Frame& frame) {
  return json::to_string(frame_json(frame));
}

}  // namespace hmm::service
