#include "obs/profiler.hpp"

#include <cstdio>
#include <cstdlib>
#include <new>

#include "obs/registry.hpp"

namespace qopt::obs {

namespace detail {
std::atomic<std::uint64_t> g_profile_allocs{0};
}  // namespace detail

const char* to_string(ProfSubsystem s) noexcept {
  switch (s) {
    case ProfSubsystem::kEngine:
      return "engine";
    case ProfSubsystem::kNet:
      return "net";
    case ProfSubsystem::kProxy:
      return "proxy";
    case ProfSubsystem::kStorage:
      return "storage";
    case ProfSubsystem::kClient:
      return "client";
    case ProfSubsystem::kReplicator:
      return "replicator";
    case ProfSubsystem::kRm:
      return "rm";
    case ProfSubsystem::kAm:
      return "am";
  }
  return "unknown";
}

// ---------------------------------------------------------------- histogram

void LogHistogram::merge(const LogHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t i = 0; i < kBucketCount; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0 || other.min_ < min_) min_ = other.min_;
  if (other.max_ > max_) max_ = other.max_;
  count_ += other.count_;
  sum_ += other.sum_;
}

void LogHistogram::reset() noexcept {
  buckets_.fill(0);
  count_ = sum_ = min_ = max_ = 0;
}

std::uint64_t LogHistogram::bucket_lower(std::size_t index) noexcept {
  if (index < (std::size_t{1} << kSubBits)) {
    return static_cast<std::uint64_t>(index);
  }
  const std::size_t exp = (index >> kSubBits) + kSubBits - 1;
  const std::size_t sub = index & ((std::size_t{1} << kSubBits) - 1);
  return (std::uint64_t{1} << exp) +
         (static_cast<std::uint64_t>(sub) << (exp - kSubBits));
}

std::uint64_t LogHistogram::bucket_upper(std::size_t index) noexcept {
  if (index < (std::size_t{1} << kSubBits)) {
    return static_cast<std::uint64_t>(index);
  }
  const std::size_t exp = (index >> kSubBits) + kSubBits - 1;
  return bucket_lower(index) + ((std::uint64_t{1} << (exp - kSubBits)) - 1);
}

std::uint64_t LogHistogram::percentile(double pct) const noexcept {
  if (count_ == 0) return 0;
  if (pct < 0.0) pct = 0.0;
  if (pct > 100.0) pct = 100.0;
  auto rank = static_cast<std::uint64_t>(
      (pct / 100.0) * static_cast<double>(count_) + 0.5);
  if (rank < 1) rank = 1;
  if (rank > count_) rank = count_;
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBucketCount; ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      const std::uint64_t upper = bucket_upper(i);
      return upper < max_ ? upper : max_;
    }
  }
  return max_;
}

HistogramSummary LogHistogram::summary() const {
  HistogramSummary s;
  s.count = count_;
  if (count_ == 0) return s;
  s.mean = mean();
  s.p50 = static_cast<double>(percentile(50.0));
  s.p95 = static_cast<double>(percentile(95.0));
  s.p99 = static_cast<double>(percentile(99.0));
  s.max = static_cast<double>(max_);
  return s;
}

// ------------------------------------------------------------------ report

namespace {

void summary_json(std::string& out, const char* name,
                  const HistogramSummary& s) {
  out.append(",\"");
  out.append(name);
  out.append("\":{\"count\":");
  out.append(std::to_string(s.count));
  out.append(",\"mean\":");
  out.append(format_double(s.mean));
  out.append(",\"p50\":");
  out.append(format_double(s.p50));
  out.append(",\"p95\":");
  out.append(format_double(s.p95));
  out.append(",\"p99\":");
  out.append(format_double(s.p99));
  out.append(",\"max\":");
  out.append(format_double(s.max));
  out.push_back('}');
}

void csv_counter(std::string& out, const std::string& name,
                 std::uint64_t value) {
  out.append(name);
  out.append(",counter,");
  out.append(std::to_string(value));
  out.push_back('\n');
}

}  // namespace

void ProfileReport::zero_wall() {
  for (ProfilePhaseRow& row : subsystems) row.wall_ns = 0;
}

std::string ProfileReport::to_json() const {
  std::string out = "{\"compiled\":";
  out.append(compiled ? "true" : "false");
  out.append(",\"events_total\":");
  out.append(std::to_string(events_total));
  out.append(",\"subsystems\":[");
  for (std::size_t i = 0; i < subsystems.size(); ++i) {
    const ProfilePhaseRow& row = subsystems[i];
    if (i) out.push_back(',');
    out.append("{\"name\":\"");
    out.append(row.name);
    out.append("\",\"events\":");
    out.append(std::to_string(row.events));
    out.append(",\"allocs\":");
    out.append(std::to_string(row.allocs));
    out.append(",\"wall_ns\":");
    out.append(std::to_string(row.wall_ns));
    out.append(",\"wall_samples\":");
    out.append(std::to_string(row.wall_samples));
    out.push_back('}');
  }
  out.append("],\"messages\":[");
  for (std::size_t i = 0; i < messages.size(); ++i) {
    if (i) out.push_back(',');
    out.append("{\"name\":\"");
    out.append(messages[i].name);
    out.append("\",\"count\":");
    out.append(std::to_string(messages[i].count));
    out.push_back('}');
  }
  out.append("],\"queue\":{\"schedules\":");
  out.append(std::to_string(schedules));
  out.append(",\"cancelled\":");
  out.append(std::to_string(cancelled));
  out.append(",\"requeues\":");
  out.append(std::to_string(requeues));
  out.append(",\"fifo_clamps\":");
  out.append(std::to_string(fifo_clamps));
  out.append(",\"max_depth\":");
  out.append(std::to_string(max_depth));
  summary_json(out, "depth", queue_depth);
  summary_json(out, "dwell_ns", dwell_ns);
  out.push_back('}');
  out.append(",\"timeline_slices\":");
  out.append(std::to_string(timeline_slices));
  out.append(",\"timeline_dropped\":");
  out.append(std::to_string(timeline_dropped));
  out.push_back('}');
  return out;
}

std::string ProfileReport::render() const {
  std::string out;
  char line[192];
  std::snprintf(line, sizeof(line),
                "profile             %llu events (instruments %s)\n",
                static_cast<unsigned long long>(events_total),
                compiled ? "compiled in" : "compiled OUT");
  out.append(line);
  // Wall share over the sampled events only; zeroed under --deterministic.
  std::uint64_t wall_total = 0;
  for (const ProfilePhaseRow& row : subsystems) wall_total += row.wall_ns;
  for (const ProfilePhaseRow& row : subsystems) {
    if (row.events == 0) continue;
    const double share =
        events_total
            ? 100.0 * static_cast<double>(row.events) /
                  static_cast<double>(events_total)
            : 0.0;
    const double wall_share =
        wall_total ? 100.0 * static_cast<double>(row.wall_ns) /
                         static_cast<double>(wall_total)
                   : 0.0;
    std::snprintf(line, sizeof(line),
                  "  %-12s events %10llu (%5.1f%%)  allocs %10llu  "
                  "wall%% %5.1f\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.events), share,
                  static_cast<unsigned long long>(row.allocs), wall_share);
    out.append(line);
  }
  std::snprintf(line, sizeof(line),
                "  queue        depth p50/p99/max %.0f/%.0f/%llu  "
                "dwell_ns p50/p99 %.0f/%.0f\n",
                queue_depth.p50, queue_depth.p99,
                static_cast<unsigned long long>(max_depth), dwell_ns.p50,
                dwell_ns.p99);
  out.append(line);
  std::snprintf(line, sizeof(line),
                "  churn        %llu schedules, %llu cancelled, "
                "%llu requeues, %llu fifo clamps\n",
                static_cast<unsigned long long>(schedules),
                static_cast<unsigned long long>(cancelled),
                static_cast<unsigned long long>(requeues),
                static_cast<unsigned long long>(fifo_clamps));
  out.append(line);
  for (const ProfileMessageRow& row : messages) {
    if (row.count == 0) continue;
    std::snprintf(line, sizeof(line), "  msg %-24s %10llu\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.count));
    out.append(line);
  }
  return out;
}

std::string ProfileReport::to_csv() const {
  std::string out;
  csv_counter(out, "profile.events_total", events_total);
  for (const ProfilePhaseRow& row : subsystems) {
    csv_counter(out, "profile." + row.name + ".events", row.events);
    csv_counter(out, "profile." + row.name + ".allocs", row.allocs);
    csv_counter(out, "profile." + row.name + ".wall_ns", row.wall_ns);
    csv_counter(out, "profile." + row.name + ".wall_samples",
                row.wall_samples);
  }
  for (const ProfileMessageRow& row : messages) {
    csv_counter(out, "profile.msg." + row.name, row.count);
  }
  csv_counter(out, "profile.queue.schedules", schedules);
  csv_counter(out, "profile.queue.cancelled", cancelled);
  csv_counter(out, "profile.queue.requeues", requeues);
  csv_counter(out, "profile.queue.fifo_clamps", fifo_clamps);
  csv_counter(out, "profile.queue.max_depth", max_depth);
  return out;
}

// ---------------------------------------------------------------- profiler

void EngineProfiler::reset() noexcept {
  current_ = ProfSubsystem::kEngine;
  tick_ = 0;
  allocs_at_begin_ = 0;
  wall_begin_ = 0;
  wall_pending_ = false;
  phases_.fill(Phase{});
  msg_counts_.fill(0);
  schedules_ = cancelled_ = requeues_ = fifo_clamps_ = max_depth_ = 0;
  depth_.reset();
  dwell_.reset();
  timeline_.clear();
  timeline_dropped_ = 0;
}

void EngineProfiler::enable_timeline(std::size_t limit) {
  timeline_on_ = limit > 0;
  timeline_limit_ = limit;
  timeline_.clear();
  timeline_.reserve(limit);
  timeline_dropped_ = 0;
}

void EngineProfiler::record_slice(ProfSubsystem s, std::uint64_t wall_begin_ns,
                                  std::uint64_t wall_end_ns) noexcept {
  if (timeline_.size() < timeline_limit_) {
    // qopt-perf: allow(vector-growth-hot) capacity reserved by enable_timeline; never grows here
    timeline_.push_back(Slice{s, wall_begin_ns, wall_end_ns});
  } else {
    ++timeline_dropped_;
  }
}

void EngineProfiler::set_message_names(const char* const* names,
                                       std::size_t count) {
  msg_names_.clear();
  if (count > kMaxMessageTypes) count = kMaxMessageTypes;
  msg_names_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) msg_names_.emplace_back(names[i]);
}

ProfileReport EngineProfiler::report() const {
  ProfileReport r;
  r.compiled = compiled_on();
  r.subsystems.reserve(kProfSubsystemCount);
  for (std::size_t i = 0; i < kProfSubsystemCount; ++i) {
    ProfilePhaseRow row;
    row.name = to_string(static_cast<ProfSubsystem>(i));
    row.events = phases_[i].events;
    row.allocs = phases_[i].allocs;
    row.wall_ns = phases_[i].wall_ns;
    row.wall_samples = phases_[i].wall_samples;
    r.events_total += row.events;
    r.subsystems.push_back(std::move(row));
  }
  const std::size_t named =
      msg_names_.size() < kMaxMessageTypes ? msg_names_.size()
                                           : kMaxMessageTypes;
  r.messages.reserve(named);
  for (std::size_t i = 0; i < named; ++i) {
    r.messages.push_back(ProfileMessageRow{msg_names_[i], msg_counts_[i]});
  }
  r.schedules = schedules_;
  r.cancelled = cancelled_;
  r.requeues = requeues_;
  r.fifo_clamps = fifo_clamps_;
  r.max_depth = max_depth_;
  r.queue_depth = depth_.summary();
  r.dwell_ns = dwell_.summary();
  r.timeline_slices = timeline_.size();
  r.timeline_dropped = timeline_dropped_;
  return r;
}

std::string EngineProfiler::timeline_chrome_json() const {
  // Same trace_event shape as SpanStore's exporter (src/obs/span_export.cpp):
  // complete events ("ph":"X") with microsecond ts/dur. Timestamps are
  // host-relative to the first slice; this export is a visualization aid and
  // is not covered by the determinism gates.
  std::string out = "{\"traceEvents\":[";
  const std::uint64_t origin = timeline_.empty() ? 0 : timeline_[0].begin_ns;
  for (std::size_t i = 0; i < timeline_.size(); ++i) {
    const Slice& s = timeline_[i];
    if (i) out.push_back(',');
    out.append("{\"name\":\"");
    out.append(to_string(s.sub));
    out.append("\",\"cat\":\"engine\",\"ph\":\"X\",\"pid\":1,\"tid\":1");
    out.append(",\"ts\":");
    const std::uint64_t ts_ns = s.begin_ns - origin;
    const std::uint64_t dur_ns = s.end_ns >= s.begin_ns
                                     ? s.end_ns - s.begin_ns
                                     : 0;
    out.append(std::to_string(ts_ns / 1000));
    out.push_back('.');
    out.append(std::to_string((ts_ns % 1000) / 100));
    out.append(",\"dur\":");
    out.append(std::to_string(dur_ns / 1000));
    out.push_back('.');
    out.append(std::to_string((dur_ns % 1000) / 100));
    out.push_back('}');
  }
  out.append("],\"displayTimeUnit\":\"ms\"}\n");
  return out;
}

}  // namespace qopt::obs

#if QOPT_PROFILE_ENABLED
// Allocation attribution hook: a *weak* replacement of the global allocation
// functions that ticks g_profile_allocs on every operator new. Weak linkage
// means any binary installing its own strong replacement — the alloc-gate
// test, a sanitizer runtime — wins cleanly and the profiler simply reports
// zero allocations. malloc-backed like libstdc++'s default operator new, so
// the (unreplaced) default operator delete frees it correctly.
namespace {

void* profiler_counted_alloc(std::size_t size) {
  qopt::obs::detail::g_profile_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  while (true) {
    if (void* p = std::malloc(size)) return p;
    if (std::new_handler handler = std::get_new_handler()) {
      handler();
    } else {
      throw std::bad_alloc();
    }
  }
}

}  // namespace

__attribute__((weak)) void* operator new(std::size_t size) {
  return profiler_counted_alloc(size);
}

__attribute__((weak)) void* operator new[](std::size_t size) {
  return profiler_counted_alloc(size);
}
#endif  // QOPT_PROFILE_ENABLED
