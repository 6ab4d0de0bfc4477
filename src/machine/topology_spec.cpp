#include "machine/topology_spec.hpp"

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include "core/json.hpp"

namespace hmm::topo {

namespace {

[[noreturn]] void fail(const std::string& source, const std::string& msg) {
  throw TopologySpecError("machine description " + source + ": " + msg);
}

/// Strict-schema guard: every key of `obj` must be in `allowed`.
void check_keys(const json::Value& obj,
                std::initializer_list<const char*> allowed, const char* where,
                const std::string& source) {
  for (const auto& [key, value] : obj.as_object()) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string msg(where);
      msg += ": unknown key \"" + key + "\" (allowed:";
      for (const char* a : allowed) {
        msg += ' ';
        msg += a;
      }
      msg += ')';
      fail(source, msg);
    }
  }
}

const json::Value& require_object(const json::Value& v, const char* where,
                                  const std::string& source) {
  if (v.kind() != json::Value::Kind::kObject) {
    fail(source, std::string(where) + ": expected an object");
  }
  return v;
}

/// Integer field with a range check; std::nullopt when absent.
std::optional<std::int64_t> read_int(const json::Value& obj, const char* key,
                                     std::int64_t lo, std::int64_t hi,
                                     const char* where,
                                     const std::string& source) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return std::nullopt;
  if (!v->is_integer()) {
    fail(source, std::string(where) + ": \"" + key + "\" must be an integer");
  }
  const std::int64_t x = v->as_int64();
  if (x < lo || x > hi) {
    fail(source, std::string(where) + ": \"" + key + "\" must be in [" +
                     std::to_string(lo) + ", " + std::to_string(hi) +
                     "], got " + std::to_string(x));
  }
  return x;
}

std::optional<std::string> read_string(const json::Value& obj, const char* key,
                                       const char* where,
                                       const std::string& source) {
  const json::Value* v = obj.find(key);
  if (v == nullptr) return std::nullopt;
  if (v->kind() != json::Value::Kind::kString) {
    fail(source, std::string(where) + ": \"" + key + "\" must be a string");
  }
  return v->as_string();
}

constexpr std::int64_t kMaxCount = std::int64_t{1} << 24;
constexpr std::int64_t kMaxCycle = std::int64_t{1} << 32;

/// "threads" / "warps" pair (HMM base: "threads_per_dmm" /
/// "warps_per_dmm"): at most one may appear; warps normalize to
/// warps * width.
std::optional<std::int64_t> read_threads(const json::Value& obj,
                                         const char* threads_key,
                                         const char* warps_key,
                                         std::int64_t width, const char* where,
                                         const std::string& source) {
  const std::optional<std::int64_t> threads =
      read_int(obj, threads_key, 1, kMaxCount, where, source);
  const std::optional<std::int64_t> warps =
      read_int(obj, warps_key, 1, kMaxCount / width, where, source);
  if (threads && warps) {
    fail(source, std::string(where) + ": give \"" + threads_key + "\" or \"" +
                     warps_key + "\", not both");
  }
  if (warps) return *warps * width;
  return threads;
}

}  // namespace

std::int64_t TopologySpec::total_threads() const {
  std::int64_t total = 0;
  for (const DmmShape& s : shapes) total += s.threads;
  return total;
}

std::int64_t TopologySpec::max_threads_per_dmm() const {
  std::int64_t mx = 0;
  for (const DmmShape& s : shapes) mx = std::max(mx, s.threads);
  return mx;
}

bool TopologySpec::is_trivial() const {
  if (hmms.size() != 1 || !links.empty()) return false;
  for (const DmmShape& s : shapes) {
    if (s.threads != shapes.front().threads || s.shared->latency != 1 ||
        s.shared->size != 0) {
      return false;
    }
  }
  return true;
}

MachineOverlay TopologySpec::overlay() const { return MachineOverlay{shapes}; }

std::string TopologySpec::canonical() const {
  // Fingerprint the RESOLVED machine, not the document: two spellings of
  // the same machine (renamed links, overrides folded into bases) must
  // canonicalize identically, and any engine-visible change must not.
  std::vector<json::Value> dmms;
  dmms.reserve(shapes.size());
  auto s = shapes.begin();
  for (std::size_t h = 0; h < hmms.size(); ++h) {
    for (std::int64_t j = 0; j < hmms[h].dmms; ++j, ++s) {
      std::map<std::string, json::Value> d;
      d.emplace("hmm", json::Value::make_int(static_cast<std::int64_t>(h)));
      d.emplace("threads", json::Value::make_int(s->threads));
      d.emplace("shared_latency", json::Value::make_int(s->shared->latency));
      d.emplace("shared_size", json::Value::make_int(s->shared->size));
      if (s->link.active()) {
        d.emplace("link",
                  json::Value::make_array({
                      json::Value::make_int(s->link.latency),
                      json::Value::make_int(s->link.words_per_stage),
                  }));
      }
      dmms.push_back(json::Value::make_object(std::move(d)));
    }
  }
  std::map<std::string, json::Value> top;
  top.emplace("v", json::Value::make_int(1));
  top.emplace("width", json::Value::make_int(width));
  top.emplace("global_latency", json::Value::make_int(global_latency));
  top.emplace("dmms", json::Value::make_array(std::move(dmms)));
  return json::to_string(json::Value::make_object(std::move(top)));
}

std::string TopologySpec::document() const {
  std::vector<json::Value> hs;
  hs.reserve(hmms.size());
  for (const HmmSpec& h : hmms) {
    std::map<std::string, json::Value> obj;
    obj.emplace("name", json::Value::make_string(h.name));
    obj.emplace("dmms", json::Value::make_int(h.dmms));
    obj.emplace("threads_per_dmm", json::Value::make_int(h.threads_per_dmm));
    obj.emplace("shared_latency", json::Value::make_int(h.shared_latency));
    if (h.shared_size > 0) {
      obj.emplace("shared_size", json::Value::make_int(h.shared_size));
    }
    if (!h.overrides.empty()) {
      std::vector<json::Value> ovs;
      ovs.reserve(h.overrides.size());
      for (const DmmOverride& o : h.overrides) {
        std::map<std::string, json::Value> oo;
        oo.emplace("dmm", json::Value::make_int(o.dmm));
        if (o.threads) {
          oo.emplace("threads", json::Value::make_int(*o.threads));
        }
        if (o.shared_latency) {
          oo.emplace("shared_latency",
                     json::Value::make_int(*o.shared_latency));
        }
        if (o.shared_size) {
          oo.emplace("shared_size", json::Value::make_int(*o.shared_size));
        }
        ovs.push_back(json::Value::make_object(std::move(oo)));
      }
      obj.emplace("dmm_overrides", json::Value::make_array(std::move(ovs)));
    }
    hs.push_back(json::Value::make_object(std::move(obj)));
  }
  std::map<std::string, json::Value> top;
  top.emplace("name", json::Value::make_string(name));
  top.emplace("width", json::Value::make_int(width));
  top.emplace("global_latency", json::Value::make_int(global_latency));
  top.emplace("hmms", json::Value::make_array(std::move(hs)));
  if (!links.empty()) {
    std::vector<json::Value> ls;
    ls.reserve(links.size());
    for (const LinkSpec& l : links) {
      std::map<std::string, json::Value> lo;
      lo.emplace("name", json::Value::make_string(l.name));
      lo.emplace("from", json::Value::make_string(l.from));
      lo.emplace("to", json::Value::make_string(l.to));
      lo.emplace("latency", json::Value::make_int(l.latency));
      lo.emplace("words_per_stage", json::Value::make_int(l.words_per_stage));
      ls.push_back(json::Value::make_object(std::move(lo)));
    }
    top.emplace("links", json::Value::make_array(std::move(ls)));
  }
  top.emplace("home", json::Value::make_string(home));
  return json::to_string(json::Value::make_object(std::move(top)));
}

void TopologySpec::finalize() {
  const std::string source = "\"" + name + "\"";
  if (width < 1 || width > kMaxCount) {
    fail(source, "\"width\" must be in [1, " + std::to_string(kMaxCount) +
                     "], got " + std::to_string(width));
  }
  if (global_latency < 1 || global_latency > kMaxCycle) {
    fail(source, "\"global_latency\" must be in [1, " +
                     std::to_string(kMaxCycle) + "], got " +
                     std::to_string(global_latency));
  }
  if (hmms.empty()) fail(source, "\"hmms\" must contain at least one HMM");

  // Names: defaulted, non-empty, unique.
  for (std::size_t i = 0; i < hmms.size(); ++i) {
    HmmSpec& h = hmms[i];
    if (h.name.empty()) h.name = "hmm" + std::to_string(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (hmms[j].name == h.name) {
        fail(source, "duplicate hmm name \"" + h.name + "\"");
      }
    }
  }
  if (home.empty()) home = hmms.front().name;
  std::int64_t home_index = -1;
  for (std::size_t i = 0; i < hmms.size(); ++i) {
    if (hmms[i].name == home) home_index = static_cast<std::int64_t>(i);
  }
  if (home_index < 0) {
    fail(source, "\"home\" names unknown hmm \"" + home + "\"");
  }

  // Links: defaulted unique names, endpoints resolve to distinct HMMs.
  const auto hmm_index = [&](const std::string& n,
                             const std::string& what) -> std::int64_t {
    for (std::size_t i = 0; i < hmms.size(); ++i) {
      if (hmms[i].name == n) return static_cast<std::int64_t>(i);
    }
    fail(source, what + " names unknown hmm \"" + n + "\"");
  };
  struct Edge {
    std::int64_t a = 0;
    std::int64_t b = 0;
    Cycle latency = 0;
    std::int64_t words = 1;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < links.size(); ++i) {
    LinkSpec& l = links[i];
    if (l.name.empty()) l.name = "link" + std::to_string(i);
    for (std::size_t j = 0; j < i; ++j) {
      if (links[j].name == l.name) {
        fail(source, "duplicate link name \"" + l.name + "\"");
      }
    }
    const std::int64_t a = hmm_index(l.from, "link \"" + l.name + "\" from");
    const std::int64_t b = hmm_index(l.to, "link \"" + l.name + "\" to");
    if (a == b) {
      fail(source, "link \"" + l.name + "\" joins \"" + l.from +
                       "\" to itself");
    }
    if (l.latency < 0 || l.latency > kMaxCycle) {
      fail(source, "link \"" + l.name + "\": \"latency\" must be in [0, " +
                       std::to_string(kMaxCycle) + "]");
    }
    if (l.words_per_stage < 1 || l.words_per_stage > kMaxCount) {
      fail(source, "link \"" + l.name +
                       "\": \"words_per_stage\" must be in [1, " +
                       std::to_string(kMaxCount) + "]");
    }
    for (const Edge& e : edges) {
      if ((e.a == a && e.b == b) || (e.a == b && e.b == a)) {
        fail(source, "link \"" + l.name + "\" duplicates an existing link "
                         "between \"" + l.from + "\" and \"" + l.to + "\"");
      }
    }
    edges.push_back(Edge{a, b, l.latency, l.words_per_stage});
  }

  // Route every HMM to home: Dijkstra on summed latency (deterministic
  // lowest-index tie-break), bandwidth = min words_per_stage along the
  // chosen path.  An HMM with no route cannot reach the global memory.
  const std::size_t nh = hmms.size();
  std::vector<Cycle> dist(nh, std::numeric_limits<Cycle>::max());
  std::vector<std::int64_t> bw(nh, 0);
  std::vector<char> done(nh, 0);
  dist[static_cast<std::size_t>(home_index)] = 0;
  bw[static_cast<std::size_t>(home_index)] =
      std::numeric_limits<std::int64_t>::max();
  for (std::size_t iter = 0; iter < nh; ++iter) {
    std::int64_t u = -1;
    for (std::size_t i = 0; i < nh; ++i) {
      if (done[i] || dist[i] == std::numeric_limits<Cycle>::max()) continue;
      if (u < 0 || dist[i] < dist[static_cast<std::size_t>(u)]) {
        u = static_cast<std::int64_t>(i);
      }
    }
    if (u < 0) break;
    done[static_cast<std::size_t>(u)] = 1;
    for (const Edge& e : edges) {
      std::int64_t v = -1;
      if (e.a == u) v = e.b;
      if (e.b == u) v = e.a;
      if (v < 0 || done[static_cast<std::size_t>(v)]) continue;
      const Cycle nd = dist[static_cast<std::size_t>(u)] + e.latency;
      const std::int64_t nbw =
          std::min(bw[static_cast<std::size_t>(u)], e.words);
      auto& dv = dist[static_cast<std::size_t>(v)];
      auto& bv = bw[static_cast<std::size_t>(v)];
      if (nd < dv || (nd == dv && nbw > bv)) {
        dv = nd;
        bv = nbw;
      }
    }
  }

  // Resolve per-DMM shapes.
  shapes.clear();
  for (std::size_t i = 0; i < nh; ++i) {
    HmmSpec& h = hmms[i];
    const std::string where = "hmm \"" + h.name + "\"";
    if (h.dmms < 1 || h.dmms > kMaxCount) {
      fail(source, where + ": \"dmms\" must be in [1, " +
                       std::to_string(kMaxCount) + "]");
    }
    if (h.threads_per_dmm == 0) h.threads_per_dmm = width;  // one warp
    if (h.threads_per_dmm < 1 || h.threads_per_dmm > kMaxCount) {
      fail(source, where + ": \"threads_per_dmm\" must be in [1, " +
                       std::to_string(kMaxCount) + "]");
    }
    if (h.shared_latency < 1 || h.shared_latency > kMaxCycle) {
      fail(source, where + ": \"shared_latency\" must be in [1, " +
                       std::to_string(kMaxCycle) + "]");
    }
    if (h.shared_size < 0) {
      fail(source, where + ": \"shared_size\" must be >= 0");
    }
    if (static_cast<std::int64_t>(i) != home_index &&
        dist[i] == std::numeric_limits<Cycle>::max()) {
      fail(source, where + " has no route to the home hmm \"" + home + "\"");
    }
    DmmLink link;
    if (static_cast<std::int64_t>(i) != home_index) {
      link.latency = dist[i];
      link.words_per_stage = bw[i];
    }
    const std::size_t first = shapes.size();
    shapes.resize(first + static_cast<std::size_t>(h.dmms),
                  DmmShape{h.threads_per_dmm,
                           MemorySpec{h.shared_size, h.shared_latency}, link});
    std::vector<char> overridden(static_cast<std::size_t>(h.dmms), 0);
    for (const DmmOverride& o : h.overrides) {
      if (o.dmm < 0 || o.dmm >= h.dmms) {
        fail(source, where + ": override \"dmm\" index " +
                         std::to_string(o.dmm) + " out of range [0, " +
                         std::to_string(h.dmms - 1) + "]");
      }
      if (overridden[static_cast<std::size_t>(o.dmm)]) {
        fail(source, where + ": duplicate override for dmm " +
                         std::to_string(o.dmm));
      }
      overridden[static_cast<std::size_t>(o.dmm)] = 1;
      DmmShape& s = shapes[first + static_cast<std::size_t>(o.dmm)];
      if (o.threads) s.threads = *o.threads;
      if (o.shared_latency) s.shared->latency = *o.shared_latency;
      if (o.shared_size) s.shared->size = *o.shared_size;
    }
  }
  if (total_threads() > kMaxCount) {
    fail(source, "total thread count " + std::to_string(total_threads()) +
                     " exceeds the limit " + std::to_string(kMaxCount));
  }
}

TopologySpec parse_topology_text(std::string_view text,
                                 const std::string& source) {
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    fail(source, std::string("invalid JSON: ") + e.what());
  }
  require_object(doc, "top level", source);
  check_keys(doc, {"name", "width", "global_latency", "hmms", "links", "home"},
             "top level", source);

  TopologySpec spec;
  if (const auto v = read_string(doc, "name", "top level", source)) {
    spec.name = *v;
  }
  if (const auto v =
          read_int(doc, "width", 1, kMaxCount, "top level", source)) {
    spec.width = *v;
  }
  if (const auto v = read_int(doc, "global_latency", 1, kMaxCycle,
                              "top level", source)) {
    spec.global_latency = *v;
  }

  const json::Value* hmms = doc.find("hmms");
  if (hmms == nullptr || hmms->kind() != json::Value::Kind::kArray) {
    fail(source, "top level: \"hmms\" must be an array of objects");
  }
  for (std::size_t i = 0; i < hmms->as_array().size(); ++i) {
    const json::Value& hv = hmms->as_array()[i];
    const std::string where_s = "hmms[" + std::to_string(i) + "]";
    const char* where = where_s.c_str();
    require_object(hv, where, source);
    check_keys(hv,
               {"name", "width", "dmms", "threads_per_dmm", "warps_per_dmm",
                "shared_latency", "shared_size", "dmm_overrides"},
               where, source);
    HmmSpec h;
    if (const auto v = read_string(hv, "name", where, source)) h.name = *v;
    // Per-HMM width appears in the schema for forward compatibility, but
    // warp width is machine-global in this engine (Topology, batch
    // pricing and the lane lists all assume one w): a deviating value is
    // rejected, not silently ignored.
    if (const auto v = read_int(hv, "width", 1, kMaxCount, where, source)) {
      if (*v != spec.width) {
        fail(source, where_s +
                         ": per-hmm \"width\" must equal the machine width " +
                         std::to_string(spec.width) +
                         " (width is machine-global; see docs/TOPOLOGY.md)");
      }
    }
    const auto dmms = read_int(hv, "dmms", 1, kMaxCount, where, source);
    if (!dmms) fail(source, where_s + ": \"dmms\" is required");
    h.dmms = *dmms;
    if (const auto v = read_threads(hv, "threads_per_dmm", "warps_per_dmm",
                                    spec.width, where, source)) {
      h.threads_per_dmm = *v;
    }
    if (const auto v =
            read_int(hv, "shared_latency", 1, kMaxCycle, where, source)) {
      h.shared_latency = *v;
    }
    if (const auto v =
            read_int(hv, "shared_size", 0, kMaxCount, where, source)) {
      h.shared_size = *v;
    }
    if (const json::Value* ovs = hv.find("dmm_overrides")) {
      if (ovs->kind() != json::Value::Kind::kArray) {
        fail(source, where_s + ": \"dmm_overrides\" must be an array");
      }
      for (std::size_t j = 0; j < ovs->as_array().size(); ++j) {
        const json::Value& ov = ovs->as_array()[j];
        const std::string owhere_s =
            where_s + ".dmm_overrides[" + std::to_string(j) + "]";
        const char* owhere = owhere_s.c_str();
        require_object(ov, owhere, source);
        check_keys(ov, {"dmm", "threads", "warps", "shared_latency",
                        "shared_size"},
                   owhere, source);
        DmmOverride o;
        const auto idx = read_int(ov, "dmm", 0, kMaxCount, owhere, source);
        if (!idx) fail(source, owhere_s + ": \"dmm\" is required");
        o.dmm = *idx;
        o.threads =
            read_threads(ov, "threads", "warps", spec.width, owhere, source);
        o.shared_latency =
            read_int(ov, "shared_latency", 1, kMaxCycle, owhere, source);
        o.shared_size =
            read_int(ov, "shared_size", 0, kMaxCount, owhere, source);
        h.overrides.push_back(std::move(o));
      }
    }
    spec.hmms.push_back(std::move(h));
  }

  if (const json::Value* ls = doc.find("links")) {
    if (ls->kind() != json::Value::Kind::kArray) {
      fail(source, "top level: \"links\" must be an array of objects");
    }
    for (std::size_t i = 0; i < ls->as_array().size(); ++i) {
      const json::Value& lv = ls->as_array()[i];
      const std::string where_s = "links[" + std::to_string(i) + "]";
      const char* where = where_s.c_str();
      require_object(lv, where, source);
      check_keys(lv, {"name", "from", "to", "latency", "words_per_stage"},
                 where, source);
      LinkSpec l;
      if (const auto v = read_string(lv, "name", where, source)) l.name = *v;
      const auto from = read_string(lv, "from", where, source);
      const auto to = read_string(lv, "to", where, source);
      if (!from || !to) {
        fail(source, where_s + ": \"from\" and \"to\" are required");
      }
      l.from = *from;
      l.to = *to;
      if (const auto v = read_int(lv, "latency", 0, kMaxCycle, where, source)) {
        l.latency = *v;
      }
      if (const auto v =
              read_int(lv, "words_per_stage", 1, kMaxCount, where, source)) {
        l.words_per_stage = *v;
      }
      spec.links.push_back(std::move(l));
    }
  }

  if (const auto v = read_string(doc, "home", "top level", source)) {
    spec.home = *v;
  }

  // Error messages from finalize() name the document's "name"; prefer the
  // caller-supplied source (the file path) when the two differ.
  try {
    spec.finalize();
  } catch (const TopologySpecError& e) {
    const std::string_view what = e.what();
    const std::string prefix = "machine description \"" + spec.name + "\": ";
    if (what.substr(0, prefix.size()) == prefix) {
      fail(source, std::string(what.substr(prefix.size())));
    }
    throw;
  }
  return spec;
}

TopologySpec parse_topology_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw TopologySpecError("machine description " + path +
                            ": cannot open file");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse_topology_text(buf.str(), path);
}

TopologySpec synthesize_topology(const std::string& name, std::int64_t p,
                                 std::int64_t w, Cycle l, std::int64_t d) {
  HMM_REQUIRE(d >= 1 && p >= 1 && p % d == 0,
              "synthesize_topology: p must be a positive multiple of d");
  TopologySpec spec;
  spec.name = name;
  spec.width = w;
  spec.global_latency = l;
  HmmSpec h;
  h.name = "hmm0";
  h.dmms = d;
  h.threads_per_dmm = p / d;
  spec.hmms.push_back(std::move(h));
  spec.finalize();
  return spec;
}

}  // namespace hmm::topo
