// hmmbench — the hmm-sim benchmark driver (run through perfbench/run.py).
//
//   hmmbench --workload paper_sweep|explain_run|service_mix --seed N
//            --seconds S --trace 0|1 [--reduced] [--print-digests]
//            [--machines DIR] [--daemon PATH] [--digests FILE]
//            [--out-dir DIR] [--commit SHA] [--source-sha256 HEX]
//
// Prints a metric table and, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics
// with --trace 0, the per-layer metrics of a traced run with --trace 1.
// Exits 1 when any correctness check failed.
#include <sched.h>

#include <charconv>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "core/version.hpp"

namespace {

using bench::Metric;

int usage() {
  std::fprintf(stderr,
               "usage: hmmbench --workload paper_sweep|explain_run|service_mix "
               "--seed N --seconds S --trace 0|1 [--reduced] "
               "[--print-digests] [--machines DIR] [--daemon PATH] "
               "[--digests FILE] [--out-dir DIR] [--commit SHA] "
               "[--source-sha256 HEX]\n");
  return 2;
}

std::string number(double v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc{} ? std::string(buf, end) : "0";
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

bool parse_args(int argc, char** argv, bench::Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--reduced") {
      o.reduced = true;
    } else if (a == "--print-digests") {
      o.print_digests = true;
    } else if (a == "--workload") {
      if (!value(o.workload)) return false;
    } else if (a == "--seed") {
      if (!value(v)) return false;
      const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), o.seed);
      if (ec != std::errc{} || end != v.data() + v.size()) return false;
    } else if (a == "--seconds") {
      if (!value(v)) return false;
      o.seconds = std::atof(v.c_str());
      if (!(o.seconds > 0.0)) return false;
    } else if (a == "--trace") {
      if (!value(v) || (v != "0" && v != "1")) return false;
      o.trace = v == "1";
    } else if (a == "--machines") {
      if (!value(o.machines_dir)) return false;
    } else if (a == "--daemon") {
      if (!value(o.daemon)) return false;
    } else if (a == "--digests") {
      if (!value(o.digests)) return false;
    } else if (a == "--out-dir") {
      if (!value(o.out_dir)) return false;
    } else if (a == "--commit") {
      if (!value(o.commit)) return false;
    } else if (a == "--source-sha256") {
      if (!value(o.source_sha256)) return false;
    } else {
      return false;
    }
  }
  return o.print_digests || !o.workload.empty();
}

void print_rows(const char* title, const std::vector<Metric>& rows) {
  std::printf("%s\n  %-28s %16s  %-6s %8s\n", title, "metric", "value",
              "unit", "samples");
  for (const Metric& m : rows) {
    std::printf("  %-28s %16.6g  %-6s %8lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }
}

/// The result line's metric set, in canonical order; missing per-layer
/// metrics (layers the workload does not exercise) read 0.
std::vector<Metric> result_metrics(const bench::Options& o,
                                     const bench::Report& report,
                                     bench::Report& ledger) {
  const auto& names =
      o.trace ? bench::per_layer_metrics() : bench::end_to_end_metrics();
  std::vector<Metric> out;
  for (const auto& [name, unit] : names) {
    const Metric* found = nullptr;
    for (const Metric& m : report.metrics()) {
      if (m.name == name) found = &m;
    }
    if (found != nullptr) {
      ledger.op(found->unit == unit, name + ": unit " + found->unit +
                                         " != " + unit);
      out.push_back(*found);
    } else {
      ledger.op(o.trace, name + ": end-to-end metric not measured");
      out.push_back({name, 0.0, unit, 0});
    }
  }
  return out;
}

void write_result_file(const bench::Options& o, const std::string& provenance,
                       const std::vector<Metric>& metrics,
                       const bench::Report& report) {
  const std::string path = o.out_dir + "/" + o.workload + "-seed" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << "{\"provenance\":" << provenance << ",\n\"metrics\":{";
  bool first = true;
  for (const auto* list : {&metrics, &report.extras()}) {
    for (const Metric& m : *list) {
      out << (first ? "" : ",") << "\n  \"" << m.name
          << "\":{\"value\":" << number(m.value) << ",\"unit\":\"" << m.unit
          << "\",\"samples\":" << m.samples << "}";
      first = false;
    }
  }
  out << "},\n\"notes\":{";
  first = true;
  for (const auto& [k, v] : report.notes()) {
    out << (first ? "" : ",") << "\n  \"" << k << "\":\""
        << hmm::json::escape(v) << "\"";
    first = false;
  }
  out << "},\n\"attempted\":" << report.attempted()
      << ",\"failed\":" << report.failed() << "}\n";
}

int run(const bench::Options& o) {
  bench::Report report;
  bench::Tracer tracer(false);
  bench::DigestBook digests;
  if (!o.print_digests) digests.load(o.digests);
  bench::Context ctx{o, report, tracer, digests};

  if (o.print_digests) {
    bench::paper_sweep(ctx);
    bench::explain_run(ctx);
    bench::service_mix(ctx);
    std::printf("%s", bench::recorded_digests_json().c_str());
    for (const std::string& e : report.errors()) {
      std::fprintf(stderr, "FAILED: %s\n", e.c_str());
    }
    return report.failed() == 0 ? 0 : 1;
  }
  if (o.workload == "paper_sweep") {
    bench::paper_sweep(ctx);
  } else if (o.workload == "explain_run") {
    bench::explain_run(ctx);
  } else if (o.workload == "service_mix") {
    bench::service_mix(ctx);
  } else {
    return usage();
  }

  const std::string provenance =
      "{\"version\":\"" + std::string(hmm::kVersionString) +
      "\",\"build_type\":\"" HMMBENCH_BUILD_TYPE "\",\"hardware_concurrency\":" +
      std::to_string(std::thread::hardware_concurrency()) +
      ",\"nproc\":" + std::to_string(nproc()) + ",\"commit\":\"" +
      hmm::json::escape(o.commit) + "\",\"source_sha256\":\"" +
      hmm::json::escape(o.source_sha256) + "\",\"workload\":\"" + o.workload +
      "\",\"seed\":" + std::to_string(o.seed) +
      ",\"seconds\":" + number(o.seconds) +
      ",\"trace\":" + (o.trace ? "1" : "0") +
      ",\"validation\":\"none: the repository holds no reference hardware "
      "measurements, so simulated cycles are unvalidated and no accuracy "
      "figure is given\"}";

  bench::Report ledger;
  const std::vector<Metric> metrics = result_metrics(o, report, ledger);
  for (const std::string& e : ledger.errors()) report.op(false, e);

  std::printf("hmmbench %s seed=%llu trace=%d\nprovenance: %s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, provenance.c_str());
  print_rows(o.trace ? "per-layer metrics (traced run)"
                     : "end-to-end metrics",
             metrics);
  if (!report.extras().empty()) print_rows("table-only metrics", report.extras());
  for (const auto& [k, v] : report.notes()) {
    std::printf("note %s: %s\n", k.c_str(), v.c_str());
  }
  for (const std::string& e : report.errors()) {
    std::printf("FAILED: %s\n", e.c_str());
  }
  std::printf("correctness: %lld operations checked, %lld failed\n",
              static_cast<long long>(report.attempted()),
              static_cast<long long>(report.failed()));
  write_result_file(o, provenance, metrics, report);

  const bool correct = report.failed() == 0 && report.attempted() > 0;
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.attempted()) +
                     ", \"failed\": " + std::to_string(report.failed()) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options o;
  if (!parse_args(argc, argv, o)) return usage();
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "hmmbench: error: %s\n", e.what());
    return 1;
  }
}
