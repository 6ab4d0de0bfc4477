#include "run/shard.hpp"

#include <charconv>
#include <cstdio>
#include <utility>

#include "core/error.hpp"
#include "core/json.hpp"

namespace hmm::run {

namespace {

std::string join(const std::vector<std::int64_t>& xs) {
  std::string out;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(xs[i]);
  }
  return out;
}

void append_axis_json(std::string& out, const char* name,
                      const std::vector<std::int64_t>& xs) {
  out += "      \"";
  out += name;
  out += "\": [";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(xs[i]);
  }
  out += "]";
}

std::vector<std::int64_t> parse_axis(const json::Value& axes,
                                     const std::string& name) {
  std::vector<std::int64_t> out;
  for (const json::Value& v : axes.get(name).as_array()) {
    out.push_back(v.as_int64());
  }
  const std::string error = axis_error(out);
  HMM_REQUIRE(error.empty(), "manifest: axis \"" + name + "\" " + error);
  return out;
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV offset basis
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;  // FNV prime
  }
  return h;
}

std::string axis_error(const std::vector<std::int64_t>& values,
                       std::int64_t min) {
  if (values.empty()) return "is empty";
  for (const std::int64_t value : values) {
    if (value < min) return "values must be >= " + std::to_string(min);
  }
  return {};
}

std::int64_t ShardPlan::count(std::int64_t grid_points) const {
  HMM_REQUIRE(grid_points >= 0, "ShardPlan: grid_points must be >= 0");
  // Indices {shard, shard+shards, ...} below grid_points.
  if (grid_points <= shard) return 0;
  return (grid_points - shard - 1) / shards + 1;
}

std::vector<std::int64_t> ShardPlan::indices(std::int64_t grid_points) const {
  std::vector<std::int64_t> out;
  out.reserve(static_cast<std::size_t>(count(grid_points)));
  for (std::int64_t i = shard; i < grid_points; i += shards) out.push_back(i);
  return out;
}

bool parse_shard_spec(std::string_view spec, ShardPlan& plan) {
  const std::size_t slash = spec.find('/');
  if (slash == std::string_view::npos || slash == 0 ||
      slash + 1 >= spec.size()) {
    return false;
  }
  const std::string_view lhs = spec.substr(0, slash);
  const std::string_view rhs = spec.substr(slash + 1);
  std::int64_t shard = 0;
  std::int64_t shards = 0;
  const auto [lend, lec] = std::from_chars(lhs.data(), lhs.data() + lhs.size(),
                                           shard);
  const auto [rend, rec] = std::from_chars(rhs.data(), rhs.data() + rhs.size(),
                                           shards);
  if (lec != std::errc{} || lend != lhs.data() + lhs.size() ||
      rec != std::errc{} || rend != rhs.data() + rhs.size()) {
    return false;
  }
  if (shards < 1 || shard < 0 || shard >= shards) return false;
  plan.shard = shard;
  plan.shards = shards;
  return true;
}

std::int64_t GridSpec::points() const {
  std::int64_t total = 1;
  for (const auto* axis : {&n, &m, &p, &w, &l, &d}) {
    total *= static_cast<std::int64_t>(axis->size());
  }
  return total;
}

std::vector<Point> GridSpec::expand() const {
  std::vector<Point> grid;
  grid.reserve(static_cast<std::size_t>(points()));
  for (const std::int64_t nv : n)
    for (const std::int64_t mv : m)
      for (const std::int64_t pv : p)
        for (const std::int64_t wv : w)
          for (const std::int64_t lv : l)
            for (const std::int64_t dv : d) {
              grid.push_back({.algorithm = algorithm, .model = model,
                              .n = nv, .m = mv, .p = pv, .w = wv, .l = lv,
                              .d = dv, .seed = seed,
                              .fast_forward = fast_forward,
                              .machine = topology});
            }
  return grid;
}

bool GridSpec::adopt(std::shared_ptr<const topo::TopologySpec> spec) {
  if (spec == nullptr) return true;
  // Only a topology the engine can OBSERVE joins the fingerprint: a
  // trivial spec is the same machine as its flags, so it hashes the same.
  const bool trivial = spec->is_trivial();
  if (!trivial && model != "hmm") return false;
  p = {spec->total_threads()};
  w = {spec->width};
  l = {spec->global_latency};
  d = {spec->total_dmms()};
  machine = trivial ? std::string() : spec->canonical();
  topology = std::move(spec);
  return true;
}

std::string GridSpec::canonical() const {
  std::string s = "hmm-sweep-v1|alg=";
  s += algorithm;
  s += "|model=";
  s += model;
  const std::vector<std::int64_t>* axes[] = {&n, &m, &p, &w, &l, &d};
  const char* axis_names[] = {"n", "m", "p", "w", "l", "d"};
  for (int i = 0; i < 6; ++i) {
    s += '|';
    s += axis_names[i];
    s += '=';
    s += join(*axes[i]);
  }
  s += "|seed=";
  s += std::to_string(seed);
  s += "|metrics=";
  s += metrics ? '1' : '0';
  s += "|ff=";
  s += fast_forward ? '1' : '0';
  s += "|analyze=";
  s += analyze ? '1' : '0';
  // Topology digest: appended ONLY when non-empty so every pre-topology
  // grid keeps its historical fingerprint, and a trivial --machine file
  // (machine == "") fingerprints identically to its flag spelling.
  if (!machine.empty()) {
    s += "|machine=";
    s += machine;
  }
  return s;
}

std::string GridSpec::fingerprint() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(canonical())));
  return buf;
}

Manifest plan_manifest(const GridSpec& spec, std::int64_t shards,
                       const std::string& tool, const std::string& header) {
  HMM_REQUIRE(shards >= 1, "plan_manifest: shards must be >= 1");
  HMM_REQUIRE(!spec.algorithm.empty(), "plan_manifest: empty algorithm");
  Manifest manifest;
  manifest.tool = tool;
  manifest.fingerprint = spec.fingerprint();
  manifest.grid_points = spec.points();
  manifest.shards = shards;
  manifest.header = header;
  manifest.grid = spec;
  for (std::int64_t i = 0; i < shards; ++i) {
    ManifestEntry entry;
    entry.shard = i;
    entry.grid_points = ShardPlan{i, shards}.count(manifest.grid_points);
    entry.argv = {tool, spec.algorithm, "--model", spec.model,
                  "--n", join(spec.n), "--m", join(spec.m)};
    if (spec.machine_path.empty()) {
      const std::vector<std::int64_t>* shape[] = {&spec.p, &spec.w, &spec.l,
                                                  &spec.d};
      const char* shape_names[] = {"--p", "--w", "--l", "--d"};
      for (int a = 0; a < 4; ++a) {
        entry.argv.push_back(shape_names[a]);
        entry.argv.push_back(join(*shape[a]));
      }
    } else {
      // --machine pins p/w/l/d (and is mutually exclusive with them on
      // the CLI), so the shard re-reads the file instead.
      entry.argv.push_back("--machine=" + spec.machine_path);
    }
    entry.argv.push_back("--seed");
    entry.argv.push_back(std::to_string(spec.seed));
    if (spec.metrics) entry.argv.push_back("--metrics");
    if (!spec.fast_forward) entry.argv.push_back("--fast-forward=off");
    if (spec.analyze) entry.argv.push_back("--analyze=plan");
    entry.argv.push_back("--shard=" + std::to_string(i) + "/" +
                         std::to_string(shards));
    manifest.entries.push_back(std::move(entry));
  }
  return manifest;
}

std::string manifest_json(const Manifest& manifest) {
  const auto field = [](std::string& s, const char* key,
                        const std::string& value, bool quoted) {
    s += '"';
    s += key;
    s += "\": ";
    if (quoted) s += '"';
    s += quoted ? json::escape(value) : value;
    if (quoted) s += '"';
  };
  std::string out = "{\n  ";
  field(out, "version", std::to_string(manifest.version), false);
  out += ",\n  ";
  field(out, "tool", manifest.tool, true);
  out += ",\n  ";
  field(out, "fingerprint", manifest.fingerprint, true);
  out += ",\n  ";
  field(out, "grid_points", std::to_string(manifest.grid_points), false);
  out += ",\n  ";
  field(out, "shards", std::to_string(manifest.shards), false);
  out += ",\n  ";
  field(out, "header", manifest.header, true);
  out += ",\n  \"grid\": {\n    ";
  field(out, "algorithm", manifest.grid.algorithm, true);
  out += ",\n    ";
  field(out, "model", manifest.grid.model, true);
  out += ",\n    ";
  field(out, "seed", std::to_string(manifest.grid.seed), false);
  out += ",\n    \"metrics\": ";
  out += manifest.grid.metrics ? "true" : "false";
  out += ",\n    \"fast_forward\": ";
  out += manifest.grid.fast_forward ? "true" : "false";
  out += ",\n    \"analyze\": ";
  out += manifest.grid.analyze ? "true" : "false";
  // Topology fields only when present: pre-topology manifests keep their
  // historical bytes, and old readers never see unknown keys.
  if (!manifest.grid.machine.empty()) {
    out += ",\n    ";
    field(out, "machine", manifest.grid.machine, true);
  }
  if (!manifest.grid.machine_path.empty()) {
    out += ",\n    ";
    field(out, "machine_path", manifest.grid.machine_path, true);
  }
  out += ",\n    \"axes\": {\n";
  const std::vector<std::int64_t>* axes[] = {
      &manifest.grid.n, &manifest.grid.m, &manifest.grid.p,
      &manifest.grid.w, &manifest.grid.l, &manifest.grid.d};
  const char* axis_names[] = {"n", "m", "p", "w", "l", "d"};
  for (int i = 0; i < 6; ++i) {
    append_axis_json(out, axis_names[i], *axes[i]);
    out += i + 1 < 6 ? ",\n" : "\n";
  }
  out += "    }\n  },\n";
  out += "  \"entries\": [\n";
  for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
    const ManifestEntry& e = manifest.entries[i];
    out += "    {\"shard\": ";
    out += std::to_string(e.shard);
    out += ", \"grid_points\": ";
    out += std::to_string(e.grid_points);
    out += ", \"argv\": [";
    for (std::size_t j = 0; j < e.argv.size(); ++j) {
      if (j > 0) out += ", ";
      out += '"';
      out += json::escape(e.argv[j]);
      out += '"';
    }
    out += "]}";
    out += i + 1 < manifest.entries.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

Manifest parse_manifest_json(const std::string& text) {
  const json::Value doc = json::parse(text);
  Manifest manifest;
  manifest.version = doc.get("version").as_int64();
  HMM_REQUIRE(manifest.version == 1,
              "manifest: unsupported version " +
                  std::to_string(manifest.version));
  manifest.tool = doc.get("tool").as_string();
  manifest.fingerprint = doc.get("fingerprint").as_string();
  manifest.grid_points = doc.get("grid_points").as_int64();
  manifest.shards = doc.get("shards").as_int64();
  manifest.header = doc.get("header").as_string();

  const json::Value& grid = doc.get("grid");
  manifest.grid.algorithm = grid.get("algorithm").as_string();
  manifest.grid.model = grid.get("model").as_string();
  const std::int64_t seed = grid.get("seed").as_int64();
  const std::string seed_error = axis_error({seed}, 0);
  HMM_REQUIRE(seed_error.empty(), "manifest: seed " + seed_error);
  manifest.grid.seed = static_cast<std::uint64_t>(seed);
  manifest.grid.metrics = grid.get("metrics").as_bool();
  manifest.grid.fast_forward = grid.get("fast_forward").as_bool();
  manifest.grid.analyze = grid.get("analyze").as_bool();
  if (const json::Value* v = grid.find("machine")) {
    manifest.grid.machine = v->as_string();
  }
  if (const json::Value* v = grid.find("machine_path")) {
    manifest.grid.machine_path = v->as_string();
  }
  const json::Value& axes = grid.get("axes");
  manifest.grid.n = parse_axis(axes, "n");
  manifest.grid.m = parse_axis(axes, "m");
  manifest.grid.p = parse_axis(axes, "p");
  manifest.grid.w = parse_axis(axes, "w");
  manifest.grid.l = parse_axis(axes, "l");
  manifest.grid.d = parse_axis(axes, "d");

  for (const json::Value& e : doc.get("entries").as_array()) {
    ManifestEntry entry;
    entry.shard = e.get("shard").as_int64();
    entry.grid_points = e.get("grid_points").as_int64();
    for (const json::Value& a : e.get("argv").as_array()) {
      entry.argv.push_back(a.as_string());
    }
    manifest.entries.push_back(std::move(entry));
  }

  // Internal consistency: a manifest that disagrees with itself must not
  // drive a merge.
  HMM_REQUIRE(manifest.shards >= 1, "manifest: shards must be >= 1");
  HMM_REQUIRE(
      manifest.grid_points == manifest.grid.points(),
      "manifest: grid_points does not match the grid axes");
  HMM_REQUIRE(
      manifest.fingerprint == manifest.grid.fingerprint(),
      "manifest: fingerprint does not match the embedded grid spec");
  HMM_REQUIRE(static_cast<std::int64_t>(manifest.entries.size()) ==
                  manifest.shards,
              "manifest: entry count does not match shards");
  std::int64_t covered = 0;
  for (std::size_t i = 0; i < manifest.entries.size(); ++i) {
    const ManifestEntry& entry = manifest.entries[i];
    HMM_REQUIRE(entry.shard == static_cast<std::int64_t>(i),
                "manifest: entries out of shard order");
    const ShardPlan plan{entry.shard, manifest.shards};
    HMM_REQUIRE(entry.grid_points == plan.count(manifest.grid_points),
                "manifest: entry grid_points disagrees with the round-robin "
                "plan");
    covered += entry.grid_points;
  }
  HMM_REQUIRE(covered == manifest.grid_points,
              "manifest: entries do not cover the grid");
  return manifest;
}

}  // namespace hmm::run
