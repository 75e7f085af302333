// qopt_perfbench — the repository benchmark program (see ../README.md).
//
//   qopt_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--model FILE]
//
// Each workload is a closed loop of simulated clients with zero think time,
// driven only through the public qopt::Cluster API. A trial builds a fresh
// cluster from a sub-seed, runs a warm-up, a measurement window and a
// drain, and checks the run: no consistency violation, no client stuck
// after stop_clients() and the drain, and the same simulated facts every
// time the same sub-seed runs.
//
// --trace 0 (end-to-end): the simulated KPIs pool the windows of the
// workload's fixed set of sub-seeds, so they are a function of --seed
// alone. Trials keep cycling through the sub-seeds until --seconds have
// passed (every sub-seed runs at least once and the first runs twice);
// the wall-clock metrics are medians over every trial, scaled by a host
// speed probe, and every repeat must reproduce its sub-seed's facts.
//
// --trace 1 (per layer): pairs of an untraced and a traced trial of the
// first sub-seed, wrapped by the probes in probes.hpp, until --seconds have
// passed; the traced trial must reproduce the untraced trial's facts.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. The exit code is 0 only when correct.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <queue>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "derived.hpp"
#include "obs/registry.hpp"
#include "oracle/oracle.hpp"
#include "probes.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace perfbench {
namespace {

using qopt::Duration;
using qopt::Time;
using qopt::milliseconds;
using qopt::seconds;

// ---------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  qopt::ClusterConfig config;
  std::uint64_t objects = 10'000;
  std::uint64_t object_bytes = 4096;
  std::function<std::shared_ptr<qopt::workload::OperationSource>()> source;
  Duration phase = 0;  // > 0: the source shifts every `phase`
  bool autotune = false;
  qopt::autonomic::AutonomicOptions tuning;
  bool anti_entropy = false;
  bool nemesis = false;
  qopt::NemesisOptions chaos;
  Duration warmup = 0;
  Duration window = 0;
  Duration drain = seconds(1);
  int sub_seeds = 1;  // the simulated KPIs pool the windows of these
};

std::vector<Workload> workloads() {
  std::vector<Workload> out;

  // Deep event queue and the most events per op: engine, network, proxy
  // and storage-read costs, bypassing AM, Oracle, RM, checker and faults.
  // Keys are uniform: zipfian keys at this scale saturate the hot key's
  // replicas, and the simulated numbers then depend on run length.
  Workload wide;
  wide.name = "wide_read";
  wide.config.num_storage = 100;
  wide.config.num_proxies = 100;
  wide.config.clients_per_proxy = 20;
  wide.config.check_consistency = false;
  wide.objects = 100'000;
  wide.source = [] {
    qopt::workload::WorkloadSpec spec;
    spec.write_ratio = 0.05;
    spec.keys = std::make_shared<qopt::workload::UniformKeys>(100'000);
    spec.name = "wide-read";
    return std::make_shared<qopt::workload::BasicWorkload>(spec);
  };
  wide.warmup = seconds(1);
  wide.window = seconds(3);
  wide.sub_seeds = 6;
  out.push_back(wide);

  // The paper's testbed running the full Q-OPT loop (top-k monitoring, AM
  // rounds, the decision-tree Oracle, RM NEWQ/CONFIRM rounds, per-object
  // overrides) while the workload alternates read-heavy YCSB-B and
  // write-heavy backup-C phases.
  Workload shift;
  shift.name = "autotune_shift";
  shift.phase = seconds(10);
  shift.autotune = true;
  shift.tuning.round_window = seconds(2);
  shift.warmup = seconds(10);
  shift.window = seconds(20);  // one shift each way
  // The AM's trajectory (which quorum it holds when a phase shifts) varies
  // a lot from seed to seed, so the KPIs pool many short runs.
  shift.sub_seeds = 50;
  shift.source = [phase = shift.phase] {
    return std::make_shared<qopt::workload::PhasedWorkload>(
        std::vector<qopt::workload::PhasedWorkload::Phase>{
            {phase, qopt::workload::ycsb_b(10'000)},
            {phase, qopt::workload::backup_c(10'000)}});
  };
  out.push_back(shift);

  // Fault handling under load: proxy retransmits, storage dedup, the
  // replicated RM's log and failover, and the replicator. The nemesis
  // injects the faults named here only (partitions, loss bursts, RM crashes
  // and partitions); its other kinds default to off. Autotuning stays off:
  // a quorum change racing lost and retransmitted messages ends in a
  // freshness violation in about one trajectory in a thousand (see
  // ../README.md, "Known failures"), and reconfiguration is measured
  // fault-free on autotune_shift.
  Workload chaos;
  chaos.name = "chaos_failover";
  chaos.config.rm_replicas = 3;
  chaos.config.net_loss = 0.01;
  chaos.config.client_retry_timeout = milliseconds(1000);
  chaos.source = [] { return qopt::workload::ycsb_a(10'000); };
  chaos.anti_entropy = true;
  chaos.nemesis = true;
  chaos.chaos.reconfigure = 0;
  chaos.chaos.per_object_reconfigure = 0;
  chaos.chaos.false_suspicion = 0;
  chaos.chaos.pause_heartbeats = 0;
  chaos.chaos.crash_proxy = 0;
  chaos.chaos.crash_storage = 0;
  chaos.chaos.partition = 1.0;
  chaos.chaos.loss_burst = 1.0;
  chaos.chaos.rm_crash = 1.0;
  chaos.chaos.rm_partition = 1.0;
  chaos.warmup = seconds(2);
  chaos.window = seconds(30);
  chaos.drain = seconds(20);  // past the longest retransmit ladder
  chaos.sub_seeds = 32;
  out.push_back(chaos);
  return out;
}

// ------------------------------------------------------------- client taps

/// Virtual-time latencies in ms, at 0.01% resolution from 1 us to 100 s, so
/// the windows of many sub-seeds pool in fixed memory.
qopt::LatencyHistogram latency_histogram() {
  return qopt::LatencyHistogram(0.001, 1.0001, 185'000);
}

/// Per-op completion log. A closed-loop client with zero think time asks
/// its source for the next op at the instant the previous one completes,
/// so a decorator around each client's source sees every completion.
struct OpLog {
  Time t0 = 0;  // window start
  std::vector<Nanos> completions;  // every completion, from t = 0
  qopt::LatencyHistogram read_ms = latency_histogram();  // in the window
  qopt::LatencyHistogram write_ms = latency_histogram();
};

class ClientTap final : public qopt::workload::OperationSource {
 public:
  ClientTap(std::shared_ptr<qopt::workload::OperationSource> inner,
            const qopt::Client& client, OpLog& log, LayerProbe* probe)
      : inner_(std::move(inner)), client_(client), log_(log), probe_(probe) {}

  qopt::workload::Operation next(qopt::Rng& rng, Time now) override {
    if (issued_) {
      // A previous op that the proxy reported failed is not a completion.
      if (client_.failures() == failures_) {
        log_.completions.push_back(now);
        if (now >= log_.t0) {
          (was_write_ ? log_.write_ms : log_.read_ms)
              .record(qopt::to_millis(now - issued_at_));
        }
      }
      failures_ = client_.failures();
    }
    qopt::workload::Operation op;
    if (probe_ != nullptr && probe_->active) {
      const std::uint64_t start = wall_ns();
      op = inner_->next(rng, now);
      probe_->workload.ns += wall_ns() - start;
      ++probe_->workload.calls;
      probe_->keys.push_back(op.oid);
    } else {
      op = inner_->next(rng, now);
    }
    issued_ = true;
    issued_at_ = now;
    was_write_ = op.is_write;
    return op;
  }
  std::string describe() const override { return inner_->describe(); }

 private:
  std::shared_ptr<qopt::workload::OperationSource> inner_;
  const qopt::Client& client_;
  OpLog& log_;
  LayerProbe* probe_;
  bool issued_ = false;
  Time issued_at_ = 0;
  bool was_write_ = false;
  std::uint64_t failures_ = 0;
};

// ------------------------------------------------------------------ trials

/// Simulated facts: a pure function of the sub-seed.
struct Facts {
  std::uint64_t events = 0;
  std::uint64_t ops = 0;
  std::uint64_t failures = 0;
  std::uint64_t delivered = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t violations = 0;
  bool operator==(const Facts&) const = default;
};

std::string to_string(const Facts& f) {
  std::ostringstream s;
  s << "events=" << f.events << " ops=" << f.ops << " failures=" << f.failures
    << " delivered=" << f.delivered
    << " reconfigurations=" << f.reconfigurations
    << " violations=" << f.violations;
  return s.str();
}

/// A trial's simulated KPIs over its window.
struct Kpis {
  qopt::LatencyHistogram read_ms = latency_histogram();
  qopt::LatencyHistogram write_ms = latency_histogram();
  std::vector<double> adapt_s;  // one per shift
  double max_outage_s = 0;
};

struct Trial {
  double setup_s = 0;
  double oracle_load_ms = 0;
  double window_wall_s = 0;
  double scaled_setup_s = 0;   // at the reference host speed
  double scaled_window_s = 0;  // at the reference host speed
  std::uint64_t window_events = 0;
  std::uint64_t window_allocs = 0;
  std::uint64_t window_ops = 0;
  std::uint64_t window_failed = 0;
  std::uint64_t stuck = 0;
  std::uint64_t client_retries = 0;  // in the window
  std::uint64_t reads_checked = 0;   // in the window
  std::uint64_t writes_tracked = 0;  // in the window
  double quorum_wait_p99_ms = 0;     // whole run up to the window's end
  double straggler_p99_ms = 0;       // whole run up to the window's end
  Facts facts;
  Kpis kpis;
  qopt::obs::Snapshot delta;  // registry counters over the window
  qopt::obs::ProfileReport profile_t0, profile_t1;  // traced trials only
};

/// Host speed probe: a fixed loop shaped like the engine's hot path (a
/// deep binary heap of closures, one small allocation and one random access
/// into a table larger than the caches per event), in the benchmark's own
/// code so no change to the program moves it. Other load on the host slows
/// the probe and the simulator alike, so the wall-clock metrics are scaled
/// by the probe's rate measured around each slice of work.
class HostProbe {
 public:
  /// The rate wall-clock metrics are scaled to: about what the probe runs
  /// at on an idle 4-vCPU x86 VM, so scaled figures still read as s, ops/s.
  static constexpr double kReferenceRate = 1.1e6;

  HostProbe() : table_(1u << 21) {
    for (int i = 0; i < 16'384; ++i) push(next() % 1'000'000);
  }
  // Queued closures hold `this`.
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Probe events per wall second over a short fixed run.
  double rate() {
    constexpr int kEvents = 20'000;
    const std::uint64_t start = wall_ns();
    for (int i = 0; i < kEvents; ++i) {
      Event event = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      event.fn();
      ++table_[next() & (table_.size() - 1)];
      push(event.time + next() % 1'000'000);
    }
    return kEvents / (static_cast<double>(wall_ns() - start) / 1e9);
  }

  /// Wall seconds that `elapsed_s` would have taken at the reference rate,
  /// given the probe rates just before and after it.
  static double scaled(double elapsed_s, double before, double after) {
    return elapsed_s * (before + after) / 2 / kReferenceRate;
  }

 private:
  struct Event {
    std::uint64_t time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };

  std::uint64_t next() {  // xorshift64
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  void push(std::uint64_t time) {
    auto payload = std::make_shared<std::array<char, 200>>();
    queue_.push({time, seq_++, [this, payload] { sink_ += (*payload)[0]; }});
  }

  std::vector<std::uint64_t> table_;  // 16 MiB
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::uint64_t seq_ = 0;
  std::uint64_t x_ = 88172645463325252ull;
  std::uint64_t sink_ = 0;
};

std::uint64_t sub_seed(std::uint64_t seed, int k) {
  return qopt::mix64(seed * 0x9E3779B97F4A7C15ull + static_cast<unsigned>(k));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(wall_ns() - start_ns) / 1e9;
}

/// p99 of the merged cumulative histograms proxy.<i>.<field>, in ms.
double merged_p99_ms(const qopt::obs::MetricRegistry& reg,
                     std::uint32_t proxies, const char* field) {
  qopt::LatencyHistogram merged;
  for (std::uint32_t i = 0; i < proxies; ++i) {
    if (const auto* h =
            reg.find_histogram(qopt::obs::instrument_name("proxy", i, field))) {
      merged.merge(*h);
    }
  }
  return merged.percentile(99) / 1e6;
}

/// `host`, when set, times set-up and the window against the host probe
/// (the window then runs in slices with a probe between them).
Trial run_trial(const Workload& w, std::uint64_t seed,
                const std::string& model_path, LayerProbe* probe,
                HostProbe* host) {
  Trial trial;
  OpLog log;
  log.t0 = w.warmup;
  qopt::ClusterConfig config = w.config;
  config.seed = seed;
  config.profile = probe != nullptr;

  const double rate_before_setup = host != nullptr ? host->rate() : 0;
  const std::uint64_t setup_start = wall_ns();
  auto cluster = std::make_unique<qopt::Cluster>(config);
  cluster->preload(w.objects, w.object_bytes);
  const std::shared_ptr<qopt::workload::OperationSource> source = w.source();
  for (std::uint32_t i = 0; i < cluster->num_clients(); ++i) {
    cluster->set_workload_for_client(
        i, std::make_shared<ClientTap>(source, cluster->client(i), log,
                                       probe));
  }
  if (w.autotune) {
    const std::uint64_t load_start = wall_ns();
    auto tree = std::make_shared<qopt::oracle::TreeOracle>(config.replication);
    tree->load_model(read_file(model_path));
    trial.oracle_load_ms = seconds_since(load_start) * 1e3;
    std::shared_ptr<qopt::oracle::Oracle> oracle = tree;
    if (probe != nullptr) oracle = std::make_shared<TimedOracle>(tree, *probe);
    cluster->enable_autotuning(w.tuning, oracle);
  }
  if (w.anti_entropy) cluster->enable_anti_entropy();
  std::unique_ptr<qopt::Nemesis> nemesis;
  if (w.nemesis) {
    qopt::NemesisOptions chaos = w.chaos;
    chaos.seed = qopt::mix64(seed ^ 0x6E656D);
    nemesis = std::make_unique<qopt::Nemesis>(*cluster, chaos);
    // Faults start with the window: the warm-up (and the cold-start ramp
    // adapt_s measures on this workload) runs fault-free.
    cluster->simulator().at(w.warmup, [n = nemesis.get()] { n->start(); });
  }
  trial.setup_s = seconds_since(setup_start);
  if (host != nullptr) {
    trial.scaled_setup_s =
        HostProbe::scaled(trial.setup_s, rate_before_setup, host->rate());
  }
  if (probe != nullptr) install_probes(*cluster, *probe);

  const auto over_clients = [&](std::uint64_t (qopt::Client::*count)()
                                     const noexcept) {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < cluster->num_clients(); ++i) {
      n += (cluster->client(i).*count)();
    }
    return n;
  };
  const auto failures = [&] { return over_clients(&qopt::Client::failures); };
  const auto retries = [&] { return over_clients(&qopt::Client::retries); };

  cluster->run_for(w.warmup);
  const qopt::obs::Snapshot before = cluster->obs().registry().snapshot();
  if (probe != nullptr) trial.profile_t0 = cluster->obs().profiler().report();
  const std::uint64_t failed_before = failures();
  const std::uint64_t retries_before = retries();
  const std::uint64_t checked_before = cluster->checker().reads_checked();
  const std::uint64_t tracked_before = cluster->checker().writes_tracked();
  const std::size_t completions_before = log.completions.size();
  const std::uint64_t events_before = cluster->simulator().events_processed();
  if (probe != nullptr) probe->active = true;
  const std::uint64_t allocs_before = allocations();
  if (host == nullptr) {
    const std::uint64_t window_start = wall_ns();
    cluster->run_for(w.window);
    trial.window_wall_s = seconds_since(window_start);
  } else {
    // Slicing run_for changes no event: bounded runs compose exactly.
    constexpr int kSlices = 8;
    double rate = host->rate();
    for (int i = 0; i < kSlices; ++i) {
      const std::uint64_t slice_start = wall_ns();
      cluster->run_for(w.window / kSlices);
      const double elapsed = seconds_since(slice_start);
      const double rate_after = host->rate();
      trial.window_wall_s += elapsed;
      trial.scaled_window_s += HostProbe::scaled(elapsed, rate, rate_after);
      rate = rate_after;
    }
  }
  trial.window_allocs = allocations() - allocs_before;
  if (probe != nullptr) probe->active = false;
  trial.window_events =
      cluster->simulator().events_processed() - events_before;
  trial.window_ops = log.completions.size() - completions_before;
  trial.window_failed = failures() - failed_before;
  trial.client_retries = retries() - retries_before;
  trial.reads_checked = cluster->checker().reads_checked() - checked_before;
  trial.writes_tracked = cluster->checker().writes_tracked() - tracked_before;
  const qopt::obs::MetricRegistry& reg = cluster->obs().registry();
  trial.quorum_wait_p99_ms =
      merged_p99_ms(reg, config.num_proxies, "quorum_wait_ns");
  trial.straggler_p99_ms =
      merged_p99_ms(reg, config.num_proxies, "straggler_excess_ns");
  trial.delta = cluster->obs().registry().snapshot().delta_since(before);
  if (probe != nullptr) trial.profile_t1 = cluster->obs().profiler().report();

  // The window [t0, t1) for the run-level KPIs.
  const Time t0 = w.warmup;
  const Time t1 = w.warmup + w.window;
  Kpis& k = trial.kpis;
  k.read_ms = std::move(log.read_ms);
  k.write_ms = std::move(log.write_ms);
  std::sort(log.completions.begin(), log.completions.end());
  const auto window_begin =
      std::lower_bound(log.completions.begin(), log.completions.end(), t0);
  k.max_outage_s = qopt::to_seconds(max_outage(
      std::span<const Nanos>(window_begin, log.completions.end()), t0, t1));
  // Shifts: every phase boundary in the window; a workload that never
  // shifts has one, the cold start at t = 0.
  std::vector<Phase> phases;
  if (w.phase > 0) {
    for (Time s = w.phase; s + w.phase <= t1; s += w.phase) {
      if (s >= t0) phases.push_back({s, s + w.phase});
    }
  } else {
    phases.push_back({0, t1});
  }
  const Duration length = phases.front().end - phases.front().start;
  const std::vector<Nanos> adapt =
      adapt_times(log.completions, phases,
                  std::min(milliseconds(500), length / 4), length / 2, 0.9);
  for (const Nanos a : adapt) k.adapt_s.push_back(qopt::to_seconds(a));

  // Drain: faults stop, partitions heal, clients stop; every in-flight op
  // must resolve.
  if (nemesis) nemesis->stop();
  cluster->heal_all_partitions();
  cluster->stop_clients();
  cluster->run_for(w.drain);
  for (std::uint32_t i = 0; i < cluster->num_clients(); ++i) {
    if (cluster->client(i).op_in_flight()) ++trial.stuck;
  }

  Facts& f = trial.facts;
  f.events = cluster->simulator().events_processed();
  for (std::uint32_t i = 0; i < cluster->num_clients(); ++i) {
    f.ops += cluster->client(i).ops_completed();
  }
  f.failures = failures();
  f.delivered = cluster->network_stats().messages_delivered;
  f.reconfigurations =
      cluster->obs().registry().counter_value("rm.reconfigurations_completed");
  f.violations = cluster->checker().violations().size() +
                 cluster->checker().quorum_violations().size();
  nemesis.reset();
  cluster.reset();
  return trial;
}

// ----------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t sum_counters(const qopt::obs::Snapshot& s,
                           const std::string& prefix,
                           const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      total += value;
    }
  }
  return total;
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string model = "perfbench/oracle_tree.model";
};

/// Checks one trial; reports each problem on stderr.
bool trial_ok(const Trial& t, const char* what) {
  bool ok = true;
  if (t.facts.violations != 0) {
    std::fprintf(stderr, "%s: %llu consistency violations\n", what,
                 static_cast<unsigned long long>(t.facts.violations));
    ok = false;
  }
  if (t.stuck != 0) {
    std::fprintf(stderr, "%s: %llu clients stuck after the drain\n", what,
                 static_cast<unsigned long long>(t.stuck));
    ok = false;
  }
  return ok;
}

bool same_facts(const Facts& a, const Facts& b, const char* what) {
  if (a == b) return true;
  std::fprintf(stderr,
               "%s: simulated facts differ\n  first:  %s\n  again:  %s\n",
               what, to_string(a).c_str(), to_string(b).c_str());
  return false;
}

int run_end_to_end(const Workload& w, const Options& opt) {
  const std::uint64_t start = wall_ns();
  std::vector<Facts> first;  // one per sub-seed
  // Wall-clock figures, raw and scaled to the reference host speed.
  std::vector<double> setup, ops_per_wall, raw_setup, raw_ops_per_wall;
  HostProbe host;
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  // Simulated KPIs pool the windows of the distinct sub-seeds.
  qopt::LatencyHistogram reads = latency_histogram();
  qopt::LatencyHistogram writes = latency_histogram();
  std::vector<double> adapt, outage;
  double window_ops = 0;
  for (int i = 0;; ++i) {
    const int k = i % w.sub_seeds;
    if (i > w.sub_seeds && seconds_since(start) >= opt.seconds) break;
    const Trial t = run_trial(w, sub_seed(opt.seed, k), opt.model, nullptr,
                              &host);
    const double ops = static_cast<double>(t.window_ops);
    std::fprintf(stderr,
                 "trial %d (sub-seed %d): setup %.4f s (scaled %.4f), window "
                 "%.3f s (scaled %.3f), %.0f ops, %s\n",
                 i, k, t.setup_s, t.scaled_setup_s, t.window_wall_s,
                 t.scaled_window_s, ops, to_string(t.facts).c_str());
    correct &= trial_ok(t, w.name);
    raw_setup.push_back(t.setup_s);
    raw_ops_per_wall.push_back(ops / t.window_wall_s);
    setup.push_back(t.scaled_setup_s);
    ops_per_wall.push_back(ops / t.scaled_window_s);
    attempted += t.window_ops + t.window_failed + t.stuck;
    failed += t.window_failed + t.stuck;
    if (i >= w.sub_seeds) {
      correct &= same_facts(first[static_cast<std::size_t>(k)], t.facts,
                            w.name);
      continue;
    }
    first.push_back(t.facts);
    reads.merge(t.kpis.read_ms);
    writes.merge(t.kpis.write_ms);
    adapt.insert(adapt.end(), t.kpis.adapt_s.begin(), t.kpis.adapt_s.end());
    outage.push_back(t.kpis.max_outage_s);
    window_ops += static_cast<double>(t.window_ops);
  }

  // Every latency percentile must have at least ten samples beyond it.
  if (!percentile_supported(reads.count(), 99) ||
      !percentile_supported(writes.count(), 99)) {
    std::fprintf(stderr,
                 "%s: too few samples for p99 (reads %llu, writes %llu)\n",
                 w.name, static_cast<unsigned long long>(reads.count()),
                 static_cast<unsigned long long>(writes.count()));
    correct = false;
  }
  const std::string reads_note = "n=" + std::to_string(reads.count());
  const std::string writes_note = "n=" + std::to_string(writes.count());
  const std::string trials_note = "median of " +
                                  std::to_string(setup.size()) +
                                  " trials, scaled to the reference host";
  const std::string seeds_note =
      "over " + std::to_string(first.size()) + " sub-seeds";
  const std::vector<Metric> metrics = {
      {"sim_ops_per_wall_s", median(ops_per_wall), "ops/s", trials_note},
      {"setup_s", median(setup), "s", trials_note},
      {"peak_rss_mb", peak_rss_mb(), "MB", "whole process"},
      {"sim_throughput_ops",
       window_ops /
           (qopt::to_seconds(w.window) * static_cast<double>(first.size())),
       "ops/virtual-s", seeds_note},
      {"sim_read_p50_ms", reads.percentile(50), "virtual-ms", reads_note},
      {"sim_read_p99_ms", reads.percentile(99), "virtual-ms", reads_note},
      {"sim_write_p50_ms", writes.percentile(50), "virtual-ms", writes_note},
      {"sim_write_p99_ms", writes.percentile(99), "virtual-ms", writes_note},
      {"max_outage_s", median(outage), "virtual-s", "median " + seeds_note},
      {"adapt_s", mean(adapt), "virtual-s",
       "mean of " + std::to_string(adapt.size()) + " shifts"},
  };
  std::printf("%-32s %16.6f %-10s %s\n", "raw_sim_ops_per_wall_s",
              median(raw_ops_per_wall), "ops/s", "unscaled");
  std::printf("%-32s %16.6f %-10s %s\n", "raw_setup_s", median(raw_setup),
              "s", "unscaled");
  std::printf("%-32s %16.6f %-10s %s\n", "op_failed_ratio",
              ratio(static_cast<double>(failed),
                    static_cast<double>(attempted)),
              "ratio", "carried by the result's failed/attempted");
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int run_traced(const Workload& w, const Options& opt) {
  const std::uint64_t start = wall_ns();
  const std::uint64_t seed = sub_seed(opt.seed, 0);
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  // Wall-clock figures: medians over the pairs.
  std::vector<double> overhead, events_per_wall, self_ns, proxy_ns,
      storage_ns, client_ns, am_ns, next_ns, predict_ns, load_ms;
  std::vector<Metric> counts;  // exact counts: from the first pair
  for (int pair = 0; pair == 0 || seconds_since(start) < opt.seconds; ++pair) {
    const Trial plain = run_trial(w, seed, opt.model, nullptr, nullptr);
    LayerProbe probe;
    const Trial traced = run_trial(w, seed, opt.model, &probe, nullptr);
    correct &= trial_ok(plain, w.name);
    correct &= trial_ok(traced, w.name);
    correct &= same_facts(plain.facts, traced.facts, w.name);
    attempted += plain.window_ops + plain.window_failed + plain.stuck;
    failed += plain.window_failed + plain.stuck;

    const qopt::obs::Snapshot& d = traced.delta;
    const auto counter = [&](const std::string& name) {
      const auto it = d.counters.find(name);
      return it == d.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    const auto sum = [&](const char* prefix, const char* suffix) {
      return static_cast<double>(sum_counters(d, prefix, suffix));
    };
    const auto per_call = [](std::uint64_t total, const CallStats& s) {
      return ratio(static_cast<double>(total), static_cast<double>(s.calls));
    };
    const double events = static_cast<double>(traced.window_events);
    const double ops = static_cast<double>(traced.window_ops);
    const double rounds = counter("am.rounds");

    overhead.push_back(traced.window_wall_s / plain.window_wall_s);
    events_per_wall.push_back(static_cast<double>(plain.window_events) /
                              plain.window_wall_s);
    // Queue and closure work, delivery and timer-driven work: the window's
    // wall time minus the time inside the wrapped handlers.
    self_ns.push_back((traced.window_wall_s * 1e9 -
                       static_cast<double>(probe.handler_ns())) /
                      events);
    proxy_ns.push_back(per_call(probe.proxy.ns, probe.proxy));
    storage_ns.push_back(per_call(probe.storage.ns, probe.storage));
    client_ns.push_back(per_call(probe.client.ns, probe.client));
    next_ns.push_back(per_call(probe.workload.ns, probe.workload));
    predict_ns.push_back(per_call(probe.oracle.ns, probe.oracle));
    am_ns.push_back(ratio(static_cast<double>(probe.am.ns), rounds));
    load_ms.push_back(plain.oracle_load_ms);
    if (pair > 0) continue;

    std::uint64_t repl_events = 0, repl_allocs = 0;
    for (std::size_t i = 0; i < traced.profile_t1.subsystems.size(); ++i) {
      if (traced.profile_t1.subsystems[i].name != "replicator") continue;
      repl_events = traced.profile_t1.subsystems[i].events -
                    traced.profile_t0.subsystems[i].events;
      repl_allocs = traced.profile_t1.subsystems[i].allocs -
                    traced.profile_t0.subsystems[i].allocs;
    }
    std::vector<double> depth = probe.depth_samples;
    const TopkReplay topk =
        replay_topk(probe.keys, w.config.proxy.topk_capacity,
                    w.tuning.topk_per_round, 1024);
    const double sent = counter("net.messages_sent");
    const double applied = sum("storage.", ".writes_applied");
    const double discarded = sum("storage.", ".writes_discarded");
    const double reconfigs = counter("rm.reconfigurations_completed");
    counts = {
        {"sim.events_per_op", ratio(events, ops), "events/op", ""},
        {"sim.allocs_per_event",
         ratio(static_cast<double>(plain.window_allocs),
               static_cast<double>(plain.window_events)),
         "allocs/event", "untraced run"},
        {"sim.queue_depth_p50", percentile(depth, 50), "events",
         "every 64th handler call"},
        {"sim.queue_depth_max", static_cast<double>(probe.depth_max),
         "events", "at handler calls"},
        {"net.messages_per_op", ratio(sent, ops), "msgs/op", ""},
        {"net.drop_ratio", ratio(sum("net.dropped.", ""), sent), "ratio", ""},
        {"proxy.calls_per_op",
         ratio(static_cast<double>(probe.proxy.calls), ops),
         "calls/op", ""},
        {"proxy.allocs_per_call", per_call(probe.proxy.allocs, probe.proxy),
         "allocs/call", ""},
        {"proxy.retries_per_op", ratio(sum("proxy.", ".retries"), ops),
         "retries/op", ""},
        {"proxy.quorum_wait_p99_ms", traced.quorum_wait_p99_ms, "virtual-ms",
         "whole run"},
        {"proxy.straggler_excess_p99_ms", traced.straggler_p99_ms,
         "virtual-ms", "whole run"},
        {"proxy.reply_use_ratio",
         ratio(static_cast<double>(probe.replies_used),
               static_cast<double>(probe.storage_replies)),
         "ratio", ""},
        {"proxy.repair_reads_per_read",
         ratio(sum("proxy.", ".repair_reads"), sum("proxy.", ".client_reads")),
         "ratio", ""},
        {"storage.calls_per_op",
         ratio(static_cast<double>(probe.storage.calls), ops), "calls/op", ""},
        {"storage.allocs_per_call",
         per_call(probe.storage.allocs, probe.storage), "allocs/call", ""},
        {"storage.writes_discarded_ratio",
         ratio(discarded, applied + discarded), "ratio", ""},
        {"storage.dup_writes_ignored", sum("storage.", ".dup_writes_ignored"),
         "count", ""},
        {"replicator.events", static_cast<double>(repl_events), "count",
         "profiler attribution"},
        {"replicator.allocs_per_event",
         ratio(static_cast<double>(repl_allocs),
               static_cast<double>(repl_events)),
         "allocs/event", "profiler attribution"},
        {"client.retries_per_op",
         ratio(static_cast<double>(traced.client_retries), ops), "retries/op",
         ""},
        {"client.failures", static_cast<double>(traced.window_failed), "count",
         ""},
        {"checker.reads_checked", static_cast<double>(traced.reads_checked),
         "count", ""},
        {"checker.writes_tracked", static_cast<double>(traced.writes_tracked),
         "count", ""},
        {"topk.add_ns", topk.add_ns, "ns", "replayed key stream"},
        {"topk.top_ns", topk.top_ns, "ns", "replayed key stream"},
        {"topk.recall", topk.recall, "ratio", "replayed key stream"},
        {"am.rounds", rounds, "count", ""},
        {"am.reconfigs_per_round", ratio(reconfigs, rounds), "reconfigs/round",
         ""},
        {"am.restarts", counter("am.restarts"), "count", ""},
        {"oracle.predicts", static_cast<double>(probe.oracle.calls), "count",
         ""},
        {"rm.reconfigurations", reconfigs, "count", ""},
        {"rm.reconfig_virtual_ms",
         ratio(counter("rm.reconfig_time_ns") / 1e6, reconfigs), "virtual-ms",
         ""},
        {"rm.retries", counter("rm.retries"), "count", ""},
        {"rm.epoch_changes", counter("rm.epoch_changes"), "count", ""},
        {"rm.leader_changes", counter("rm.leader_changes"), "count", ""},
        {"rm.rounds_resumed", counter("rm.rounds_resumed"), "count", ""},
    };
  }
  const std::string pairs_note =
      "median of " + std::to_string(overhead.size()) + " traced trials";
  std::vector<Metric> metrics = {
      {"sim.events_per_wall_s", median(events_per_wall), "events/s",
       "untraced run"},
      {"sim.self_ns_per_event", median(self_ns), "ns", pairs_note},
      {"proxy.handler_ns_per_call", median(proxy_ns), "ns", pairs_note},
      {"storage.handler_ns_per_call", median(storage_ns), "ns", pairs_note},
      {"client.handler_ns_per_call", median(client_ns), "ns", pairs_note},
      {"workload.next_ns", median(next_ns), "ns", pairs_note},
      {"am.handler_ns_per_round", median(am_ns), "ns", pairs_note},
      {"oracle.predict_ns", median(predict_ns), "ns", pairs_note},
      {"oracle.load_ms", median(load_ms), "ms", "inside setup_s"},
      {"obs.trace_overhead_ratio", median(overhead), "ratio", pairs_note},
  };
  metrics.insert(metrics.end(), counts.begin(), counts.end());
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: qopt_perfbench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--model FILE]\n"
               "workloads:");
  for (const Workload& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      opt.trace = value == "1";
      if (value != "0" && value != "1") return usage();
    } else if (flag == "--model") {
      opt.model = value;
    } else {
      return usage();
    }
    if (end != nullptr && (*end != '\0' || value.empty())) return usage();
  }
  if (argc % 2 == 0) return usage();
  for (const Workload& w : workloads()) {
    if (opt.workload != w.name) continue;
    try {
      return opt.trace ? run_traced(w, opt) : run_end_to_end(w, opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "qopt_perfbench: %s\n", e.what());
      return 1;
    }
  }
  return usage();
}
