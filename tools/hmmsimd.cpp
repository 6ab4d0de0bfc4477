// hmmsimd — the simulation service daemon.
//
//   hmmsimd --listen=ADDR [--jobs=N] [--max-queue=N] [--client-budget=N]
//           [--machines=DIR]
//
// Accepts newline-delimited JSON requests (run/sweep, stats, version,
// ping, drain) over a unix or TCP socket and streams back incremental
// NDJSON frames: per-grid-point results, metrics snapshots and — opt-in,
// budget-bounded — live telemetry events.  Grid points reuse the
// daemon's frame arenas and pattern caches, warm across requests, which
// is the latency edge over forking `hmmsim` per sweep (measured by
// bench_service).
//
// `hmmsim --connect=ADDR` is the matching client; the wire protocol is
// documented in docs/OBSERVABILITY.md.  SIGINT/SIGTERM (or a client's
// drain request) trigger a graceful drain: queued requests finish, every
// client gets a bye frame, then the daemon exits 0.
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/version.hpp"
#include "service/server.hpp"

using namespace hmm;

namespace {

service::Server* g_server = nullptr;

// request_drain only flips atomics and writes one byte to the server's
// self-pipe — async-signal-safe by construction.
void handle_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

int usage() {
  std::printf(
      "hmmsimd %s — memory machine simulation service (NDJSON over a "
      "socket)\n\n"
      "usage: hmmsimd --listen=ADDR [options]\n"
      "  --listen=ADDR        unix:PATH or tcp:[HOST:]PORT (tcp:0 picks a\n"
      "                       free port and prints it)\n"
      "  --jobs=N             grid points of one request run N at a time\n"
      "                       (default 1)\n"
      "  --max-queue=N        global cap on queued run requests "
      "(default 64)\n"
      "  --client-budget=N    per-client cap on queued run requests\n"
      "                       (default 8)\n"
      "  --machines=DIR       serve machine-topology presets: a request's\n"
      "                       machine_preset NAME loads DIR/NAME.json\n"
      "                       (default: presets disabled)\n"
      "  --version            print the version and features\n\n"
      "Drain with SIGINT/SIGTERM or a {\"type\":\"drain\"} request "
      "(hmmsim --connect=ADDR --drain).\n",
      kVersionString);
  return 2;
}

/// `--NAME=VALUE` with VALUE a decimal int >= min_value: sets `out`.
/// Anything else — another option, trailing garbage, a value out of
/// int's range (std::from_chars reports it instead of wrapping) — is
/// false, which the caller maps to the usage exit code.
bool parse_int(const std::string& arg, const char* prefix, int& out,
               int min_value) {
  if (arg.rfind(prefix, 0) != 0) return false;
  const char* first = arg.c_str() + std::strlen(prefix);
  const char* last = arg.c_str() + arg.size();
  int value = 0;
  const auto [end, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || end != last || value < min_value) return false;
  out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  service::ServerConfig config;
  std::string listen_spec;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--version") {
      std::printf("hmmsimd %s\nfeatures:", kVersionString);
      for (std::size_t f = 0; f < kFeatureCount; ++f) {
        std::printf(" %s", kFeatures[f]);
      }
      std::printf("\n");
      return 0;
    } else if (a.rfind("--listen=", 0) == 0) {
      listen_spec = a.substr(std::strlen("--listen="));
    } else if (parse_int(a, "--jobs=", config.jobs, 1) ||
               parse_int(a, "--max-queue=", config.max_queue, 1) ||
               parse_int(a, "--client-budget=", config.client_budget, 1)) {
      continue;
    } else if (a.rfind("--machines=", 0) == 0) {
      config.machines_dir = a.substr(std::strlen("--machines="));
      if (config.machines_dir.empty()) return usage();
    } else {
      return usage();
    }
  }
  if (listen_spec.empty()) return usage();

  try {
    config.listen = service::parse_address(listen_spec);
    service::Server server(config);
    server.start();
    g_server = &server;
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    // Smoke scripts wait for this exact line before connecting; the
    // resolved spec matters for tcp:0.
    std::printf("hmmsimd %s listening on %s (jobs=%d)\n", kVersionString,
                server.address().spec().c_str(), config.jobs);
    std::fflush(stdout);

    server.serve();

    const service::ServiceStatsSnapshot s = server.stats_snapshot();
    g_server = nullptr;
    std::printf("drained: %lld completed, %lld rejected, %lld failed, "
                "%lld frames sent, %lld telemetry dropped, "
                "%lld points skipped\n",
                static_cast<long long>(s.requests_completed),
                static_cast<long long>(s.requests_rejected),
                static_cast<long long>(s.requests_failed),
                static_cast<long long>(s.frames_sent),
                static_cast<long long>(s.telemetry_dropped),
                static_cast<long long>(s.points_skipped));
    return 0;
  } catch (const std::exception& e) {
    g_server = nullptr;
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
