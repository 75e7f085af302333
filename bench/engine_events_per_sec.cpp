// Engine self-benchmark (ROADMAP item 1): how many simulated operations and
// simulator events per wall second does the discrete-event core sustain,
// and at what memory cost? Closed-loop clients drive the raw engine
// (consistency checker and span tracing off — this measures the engine, not
// the harness) across a small scale ladder, and the trajectory lands in
// BENCH_engine.json so successive engine changes have a committed
// before/after artifact.
//
// Compare `ops_per_second` across changes: the op count per scale is a
// simulation fact, while the event count falls whenever the engine stops
// running no-op events, so events/sec can read lower for a faster engine.
// `schedule_fingerprint` (Simulator::schedule_fingerprint() at the end of
// the scale) tells whether two artifacts ran the same event schedule.
//
// `--profile` enables the engine self-profiler (src/obs/profiler.hpp) and
// appends each scale's attribution table — per-subsystem event/allocation
// counts, per-wire-message-type delivery counts, queue telemetry — to the
// JSON. Attribution counts are simulation facts: they are byte-identical
// across same-seed reruns, and their per-subsystem sum equals the scale's
// event total (asserted by tests/profiler_test.cpp).
//
// Determinism: all simulation-derived fields (events, ops, messages,
// events per virtual second, schedule fingerprint, profile attribution) are
// byte-identical across same-seed reruns. Wall-derived fields (wall
// seconds, ops/sec, events/sec, RSS, profile wall_ns) are host facts; `--deterministic` zeroes them so
// the byte-identity gate can diff the artifact.
//
// Usage: engine_events_per_sec [--deterministic] [--profile] [--out <path>]
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "core/cluster.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace {

struct ScalePoint {
  const char* name;
  std::uint32_t num_storage;
  std::uint32_t num_proxies;
  std::uint32_t clients_per_proxy;
  int replication;
  qopt::Duration measure;
};

struct ScaleResult {
  ScalePoint scale;
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t messages_delivered = 0;
  double virtual_seconds = 0.0;
  double events_per_virtual_second = 0.0;
  std::uint64_t schedule_fingerprint = 0;
  // Wall-derived (zeroed under --deterministic).
  double wall_seconds = 0.0;
  double ops_per_second = 0.0;
  double events_per_second = 0.0;
  std::uint64_t rss_kb = 0;
  // --profile attribution (empty string otherwise).
  std::string profile_json;
};

/// Current resident set in KiB, from /proc/self/statm. getrusage's
/// ru_maxrss is a process-wide monotone high-water mark, so in a ladder of
/// scales every scale after the biggest-so-far would report a stale peak;
/// current RSS sampled while the scale's cluster is still live is a
/// per-scale fact.
std::uint64_t current_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages_total = 0;
  unsigned long long pages_resident = 0;
  const int matched =
      std::fscanf(f, "%llu %llu", &pages_total, &pages_resident);
  std::fclose(f);
  if (matched != 2) return 0;
  const long page_size = sysconf(_SC_PAGESIZE);
  if (page_size <= 0) return 0;
  return static_cast<std::uint64_t>(pages_resident) *
         static_cast<std::uint64_t>(page_size) / 1024;
}

ScaleResult run_scale(const ScalePoint& scale, bool deterministic,
                      bool profile) {
  qopt::ClusterConfig config;
  config.num_storage = scale.num_storage;
  config.num_proxies = scale.num_proxies;
  config.clients_per_proxy = scale.clients_per_proxy;
  config.replication = scale.replication;
  config.check_consistency = false;  // engine speed, not harness bookkeeping
  config.profile = profile;
  config.seed = 42;
  qopt::Cluster cluster(config);
  cluster.preload(4096, 4096);
  cluster.set_workload(qopt::workload::ycsb_b(4096));

  cluster.run_for(qopt::seconds(1));  // warmup: reach steady state
  const qopt::Time t0 = cluster.now();
  const std::uint64_t events_before = cluster.simulator().events_processed();
  // qopt-lint: allow(wall-clock) measuring host engine speed, not simulated time
  const auto wall_start = std::chrono::steady_clock::now();
  cluster.run_for(scale.measure);
  // qopt-lint: allow(wall-clock) measuring host engine speed, not simulated time
  const auto wall_end = std::chrono::steady_clock::now();
  const qopt::obs::RunReport report = cluster.report(t0, cluster.now());

  ScaleResult r;
  r.scale = scale;
  r.events = cluster.simulator().events_processed() - events_before;
  r.ops = report.ops;
  r.messages_delivered = report.messages_delivered;
  r.virtual_seconds =
      static_cast<double>(cluster.now() - t0) / 1e9;
  r.events_per_virtual_second =
      r.virtual_seconds > 0
          ? static_cast<double>(r.events) / r.virtual_seconds
          : 0.0;
  r.schedule_fingerprint = cluster.simulator().schedule_fingerprint();
  if (!deterministic) {
    r.wall_seconds =
        std::chrono::duration<double>(wall_end - wall_start).count();
    r.ops_per_second =
        r.wall_seconds > 0 ? static_cast<double>(r.ops) / r.wall_seconds
                           : 0.0;
    r.events_per_second =
        r.wall_seconds > 0 ? static_cast<double>(r.events) / r.wall_seconds
                           : 0.0;
    // Sampled while this scale's cluster is still allocated.
    r.rss_kb = current_rss_kb();
  }
  if (profile) {
    qopt::obs::ProfileReport prof = cluster.obs().profiler().report();
    if (deterministic) prof.zero_wall();
    r.profile_json = prof.to_json();
  }
  return r;
}

void append_json(std::string& out, const ScaleResult& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\n"
      "      \"scale\": \"%s\",\n"
      "      \"storage\": %u,\n"
      "      \"proxies\": %u,\n"
      "      \"clients\": %u,\n"
      "      \"replication\": %d,\n"
      "      \"virtual_seconds\": %.3f,\n"
      "      \"events\": %llu,\n"
      "      \"ops\": %llu,\n"
      "      \"messages_delivered\": %llu,\n"
      "      \"events_per_virtual_second\": %.1f,\n"
      "      \"schedule_fingerprint\": \"0x%016llx\",\n"
      "      \"wall_seconds\": %.3f,\n"
      "      \"ops_per_second\": %.1f,\n"
      "      \"events_per_second\": %.1f,\n"
      "      \"rss_kb\": %llu",
      r.scale.name, r.scale.num_storage, r.scale.num_proxies,
      r.scale.num_proxies * r.scale.clients_per_proxy, r.scale.replication,
      r.virtual_seconds, static_cast<unsigned long long>(r.events),
      static_cast<unsigned long long>(r.ops),
      static_cast<unsigned long long>(r.messages_delivered),
      r.events_per_virtual_second,
      static_cast<unsigned long long>(r.schedule_fingerprint),
      r.wall_seconds, r.ops_per_second, r.events_per_second,
      static_cast<unsigned long long>(r.rss_kb));
  out += buf;
  if (!r.profile_json.empty()) {
    out += ",\n      \"profile\": ";
    out += r.profile_json;
  }
  out += "\n    }";
}

}  // namespace

int main(int argc, char** argv) {
  bool deterministic = false;
  bool profile = false;
  std::string out_path = "BENCH_engine.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--deterministic") {
      deterministic = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: engine_events_per_sec [--deterministic] "
                   "[--profile] [--out <path>]\n");
      return 2;
    }
  }

  qopt::bench::print_header(
      "engine_events_per_sec — simulator engine throughput trajectory",
      "reproduction infrastructure (ROADMAP item 1): ops/sec, events/sec "
      "+ RSS per scale");

  const std::vector<ScalePoint> ladder = {
      {"paper_testbed", 10, 5, 10, 5, qopt::seconds(8)},
      {"single_proxy", 10, 1, 10, 5, qopt::seconds(8)},
      {"wide_proxies", 20, 10, 20, 5, qopt::seconds(4)},
  };

  std::string json = "{\n  \"bench\": \"engine_events_per_sec\",\n";
  json += std::string("  \"deterministic\": ") +
          (deterministic ? "true" : "false") + ",\n";
  json += std::string("  \"profiled\": ") + (profile ? "true" : "false") +
          ",\n";
  json += "  \"seed\": 42,\n  \"scales\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const ScaleResult r = run_scale(ladder[i], deterministic, profile);
    std::printf(
        "%-14s events %10llu  ops %8llu  evt/vsec %12.1f  "
        "ops/sec %10.1f  evt/sec %12.1f  rss %8llu KiB\n",
        r.scale.name, static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.ops), r.events_per_virtual_second,
        r.ops_per_second, r.events_per_second,
        static_cast<unsigned long long>(r.rss_kb));
    append_json(json, r);
    json += i + 1 < ladder.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  if (!qopt::bench::write_text_file(out_path, json)) return 1;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}
