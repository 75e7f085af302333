// Engine self-profiler (ROADMAP item 1): where do events/sec actually go?
//
// EngineProfiler attributes every simulator event to exactly one subsystem
// (network delivery, proxy, storage, client, replicator, RM, AM — or the
// engine itself when nothing claims it), counts heap allocations per
// subsystem, samples wall-time, and keeps event-queue telemetry (depth,
// dwell time, reschedule churn) in log-bucketed HDR-style histograms.
//
// Cost model — the engine sustains millions of events per wall second, so a
// 2% overhead budget is single-digit nanoseconds per event (enforced by
// tests/profiler_test.cpp):
//   * exact integer counters per event (events, allocations, claims);
//   * queue histograms sampled every kTelemetryEvery-th event;
//   * wall-clock read only around every kWallEvery-th event (two clock
//     reads bracketing that one event; the sampled share extrapolates).
//
// Attribution is *last wins*: Network::deliver claims kNet, the component
// handler it invokes overrides with its own subsystem, and end_event()
// charges the final claimant — so per-subsystem event counts always sum to
// the engine total. Events nobody claims (bare timers) stay kEngine.
//
// Zero-cost-when-off: the CMake option QOPT_PROFILE (default ON) defines
// QOPT_PROFILE_ENABLED; every hook call site compiles away under OFF while
// these *types* stay available, so exports build in both modes. At runtime
// the hooks are additionally gated on enabled() (off by default), keeping
// default runs byte-identical whether or not instruments are compiled in.
#pragma once

#ifndef QOPT_PROFILE_ENABLED
#define QOPT_PROFILE_ENABLED 1
#endif

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "util/time.hpp"

namespace qopt::obs {

namespace detail {
/// Process-wide allocation tick, incremented by the profiler's weak
/// global operator new (profiler.cpp). Stays zero when another translation
/// unit installs a strong replacement (tests/alloc_gate_test.cpp) or a
/// sanitizer runtime intercepts allocation.
extern std::atomic<std::uint64_t> g_profile_allocs;

inline std::uint64_t profiler_wall_ns() noexcept {
  // qopt-lint: allow(wall-clock) self-profiler measures host cost of the engine, not simulated behavior
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch)
          .count());
}
}  // namespace detail

/// The claimable engine phases. kEngine is the default (unclaimed timers and
/// the event loop itself); the rest mirror the component map in
/// docs/ARCHITECTURE.toml.
enum class ProfSubsystem : std::uint8_t {
  kEngine = 0,
  kNet,
  kProxy,
  kStorage,
  kClient,
  kReplicator,
  kRm,
  kAm,
};
inline constexpr std::size_t kProfSubsystemCount = 8;

const char* to_string(ProfSubsystem s) noexcept;

// ---------------------------------------------------------------- histogram

/// Fixed-footprint HDR-style histogram over unsigned 64-bit values: buckets
/// are power-of-two ranges split into 2^kSubBits linear sub-buckets (~12.5%
/// relative resolution), so record() is a shift and two increments — cheap
/// enough for per-event telemetry, unlike LatencyHistogram's std::log. The
/// last bucket absorbs the top of the u64 range (the overflow bucket);
/// percentile() reports a bucket upper bound clamped to the observed max.
class LogHistogram {
 public:
  static constexpr std::size_t kSubBits = 3;
  static constexpr std::size_t kBucketCount =
      ((64 - kSubBits) << kSubBits) + (std::size_t{1} << kSubBits);  // 496

  static constexpr std::size_t bucket_for(std::uint64_t v) noexcept {
    if (v < (std::uint64_t{1} << kSubBits)) return static_cast<std::size_t>(v);
    const auto exp = static_cast<std::size_t>(std::bit_width(v)) - 1;
    const auto sub = static_cast<std::size_t>(
        (v >> (exp - kSubBits)) & ((std::uint64_t{1} << kSubBits) - 1));
    return ((exp - kSubBits + 1) << kSubBits) + sub;
  }

  void record(std::uint64_t v) noexcept {
    ++buckets_[bucket_for(v)];
    ++count_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (count_ == 1 || v < min_) min_ = v;
  }

  void merge(const LogHistogram& other) noexcept;
  void reset() noexcept;

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t min() const noexcept { return count_ ? min_ : 0; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
  }

  /// Inclusive lower bound of a bucket's value range (exposed for tests).
  static std::uint64_t bucket_lower(std::size_t index) noexcept;
  /// Inclusive upper bound of a bucket's value range.
  static std::uint64_t bucket_upper(std::size_t index) noexcept;

  /// Value at percentile `pct` in [0, 100]: the upper bound of the bucket
  /// holding that rank, clamped to the observed max. 0 when empty.
  std::uint64_t percentile(double pct) const noexcept;

  /// Fixed-quantile digest in the registry's snapshot shape.
  HistogramSummary summary() const;

 private:
  std::array<std::uint64_t, kBucketCount> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
};

// ------------------------------------------------------------------ report

/// One subsystem's attribution row. `wall_ns` covers only the
/// `wall_samples` events the sampler bracketed; `events`/`allocs` are exact.
struct ProfilePhaseRow {
  std::string name;
  std::uint64_t events = 0;
  std::uint64_t allocs = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t wall_samples = 0;
};

struct ProfileMessageRow {
  std::string name;
  std::uint64_t count = 0;
};

/// Deterministic export of one profiling window. Every field except the
/// wall_* pair derives from simulation state, so after zero_wall() the
/// JSON/CSV forms are byte-identical across same-seed runs.
struct ProfileReport {
  bool compiled = false;  // QOPT_PROFILE compile option at build time
  std::uint64_t events_total = 0;
  std::vector<ProfilePhaseRow> subsystems;  // enum order; sums to total
  std::vector<ProfileMessageRow> messages;  // wire variant order
  // Event-queue telemetry over live events: schedules = events_total +
  // cancelled + events still pending (profiler on from the first schedule).
  std::uint64_t schedules = 0;
  std::uint64_t cancelled = 0;     // dropped before running; not events
  std::uint64_t requeues = 0;      // schedule-chooser re-pushes (test-only)
  std::uint64_t fifo_clamps = 0;   // deliveries bumped by the FIFO clamp
  std::uint64_t max_depth = 0;
  HistogramSummary queue_depth;    // sampled
  HistogramSummary dwell_ns;       // virtual ns between at() and execution
  std::uint64_t timeline_slices = 0;
  std::uint64_t timeline_dropped = 0;

  /// Zeroes the host-derived fields (per-subsystem wall_ns) so the export
  /// is byte-identical across same-seed reruns (`--deterministic`).
  void zero_wall();

  std::string to_json() const;
  std::string render() const;
  /// Flat "name,kind,value" rows matching Snapshot::to_csv()'s shape.
  std::string to_csv() const;
};

// ---------------------------------------------------------------- profiler

/// Owned by obs::Observability; Cluster binds it into the Simulator and the
/// hot hooks below are invoked from sim/net/component code. All hot methods
/// are exact-counter cheap; see the cost model at the top of this header.
class EngineProfiler {
 public:
  static constexpr std::size_t kMaxMessageTypes = 32;
  static constexpr std::uint64_t kTelemetryEvery = 32;  // queue histograms
  static constexpr std::uint64_t kWallEvery = 256;      // wall-clock probe

  static constexpr bool compiled_on() noexcept {
    return QOPT_PROFILE_ENABLED != 0;
  }

  bool enabled() const noexcept { return enabled_; }
  void enable() noexcept { enabled_ = true; }
  void disable() noexcept { enabled_ = false; }
  void reset() noexcept;

  // ---- hot hooks (call sites compiled out under QOPT_PROFILE=OFF)

  void note_schedule() noexcept { ++schedules_; }
  void note_cancel() noexcept { ++cancelled_; }
  void note_requeue() noexcept { ++requeues_; }
  void note_fifo_clamp() noexcept { ++fifo_clamps_; }

  /// The event about to run: `now` is the (monotone) execution instant,
  /// `enqueued_at` the instant at() staged it, `depth` the live events left.
  void begin_event(Time now, Time enqueued_at, std::size_t depth) noexcept {
    current_ = ProfSubsystem::kEngine;
    allocs_at_begin_ = detail::g_profile_allocs.load(std::memory_order_relaxed);
    if (depth > max_depth_) max_depth_ = depth;
    const std::uint64_t tick = tick_++;
    if ((tick & (kTelemetryEvery - 1)) == 0) {
      depth_.record(depth);
      dwell_.record(now >= enqueued_at
                        ? static_cast<std::uint64_t>(now - enqueued_at)
                        : 0);
    }
    wall_pending_ = (tick & (kWallEvery - 1)) == 0;
    if (wall_pending_) wall_begin_ = detail::profiler_wall_ns();
  }

  /// Charges the event (and its allocation delta) to the last claimant.
  void end_event() noexcept {
    Phase& p = phases_[static_cast<std::size_t>(current_)];
    ++p.events;
    p.allocs += detail::g_profile_allocs.load(std::memory_order_relaxed) -
                allocs_at_begin_;
    if (wall_pending_) {
      p.wall_ns += detail::profiler_wall_ns() - wall_begin_;
      ++p.wall_samples;
      wall_pending_ = false;
    }
  }

  /// Claims the current event for `s` (last claim before end_event wins).
  void enter(ProfSubsystem s) noexcept { current_ = s; }

  /// Per-wire-message-type delivery count (variant index).
  void count_message(std::size_t type_index) noexcept {
    if (type_index < kMaxMessageTypes) ++msg_counts_[type_index];
  }

  // ---- timeline (opt-in visualization; allowed to cost wall-clock reads)

  /// Starts recording wall-clock phase slices for a Chrome trace; at most
  /// `limit` slices are kept (the rest are counted as dropped).
  void enable_timeline(std::size_t limit);
  bool timeline_enabled() const noexcept { return timeline_on_; }
  void record_slice(ProfSubsystem s, std::uint64_t wall_begin_ns,
                    std::uint64_t wall_end_ns) noexcept;

  // ---- export

  /// Injects display names for count_message indices (the obs layer cannot
  /// see src/kv/wire.hpp; Cluster supplies kv::kMessageTypeNames).
  void set_message_names(const char* const* names, std::size_t count);

  ProfileReport report() const;

  /// Chrome trace_event JSON of the recorded timeline slices.
  std::string timeline_chrome_json() const;

 private:
  struct Phase {
    std::uint64_t events = 0;
    std::uint64_t allocs = 0;
    std::uint64_t wall_ns = 0;
    std::uint64_t wall_samples = 0;
  };
  struct Slice {
    ProfSubsystem sub;
    std::uint64_t begin_ns;
    std::uint64_t end_ns;
  };

  bool enabled_ = false;
  bool timeline_on_ = false;
  bool wall_pending_ = false;
  ProfSubsystem current_ = ProfSubsystem::kEngine;
  std::uint64_t tick_ = 0;
  std::uint64_t allocs_at_begin_ = 0;
  std::uint64_t wall_begin_ = 0;
  std::array<Phase, kProfSubsystemCount> phases_{};
  std::array<std::uint64_t, kMaxMessageTypes> msg_counts_{};
  std::uint64_t schedules_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t requeues_ = 0;
  std::uint64_t fifo_clamps_ = 0;
  std::uint64_t max_depth_ = 0;
  LogHistogram depth_;
  LogHistogram dwell_;
  std::vector<std::string> msg_names_;
  std::vector<Slice> timeline_;  // reserved up-front by enable_timeline
  std::size_t timeline_limit_ = 0;
  std::uint64_t timeline_dropped_ = 0;
};

/// RAII claim used by component dispatch code (via QOPT_PROFILE_SCOPE).
/// Claiming is a plain enter(); the destructor only works when the timeline
/// is on, appending a wall-clock slice for Chrome-trace export.
class ProfileScope {
 public:
  ProfileScope(EngineProfiler* profiler, ProfSubsystem s) noexcept {
    if (profiler == nullptr || !profiler->enabled()) return;
    profiler->enter(s);
    if (profiler->timeline_enabled()) {
      profiler_ = profiler;
      sub_ = s;
      begin_ns_ = detail::profiler_wall_ns();
    }
  }
  ~ProfileScope() {
    if (profiler_ != nullptr) {
      profiler_->record_slice(sub_, begin_ns_, detail::profiler_wall_ns());
    }
  }
  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  EngineProfiler* profiler_ = nullptr;
  ProfSubsystem sub_ = ProfSubsystem::kEngine;
  std::uint64_t begin_ns_ = 0;
};

}  // namespace qopt::obs

// Component-side claim: `obs_ptr` is the component's (nullable)
// obs::Observability*; compiles to nothing under QOPT_PROFILE=OFF.
#if QOPT_PROFILE_ENABLED
#define QOPT_PROFILE_SCOPE(obs_ptr, subsystem)                 \
  ::qopt::obs::ProfileScope qopt_profile_scope_ {              \
    (obs_ptr) != nullptr ? &(obs_ptr)->profiler() : nullptr,   \
        (subsystem)                                            \
  }
#else
#define QOPT_PROFILE_SCOPE(obs_ptr, subsystem) \
  do {                                         \
  } while (false)
#endif
