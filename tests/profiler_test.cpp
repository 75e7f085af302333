// Engine self-profiler: histogram edge cases, attribution accounting,
// byte-identity with profiling on vs off, deterministic exports, and the
// overhead gate (< 2% events/sec with the profiler enabled).
//
// Note on allocation counts: the profiler's per-subsystem `allocs` comes
// from a *weak* global operator new. Sanitizer runtimes (and the strong
// replacement in alloc_gate_test) legitimately preempt it, leaving the
// counter at zero — so nothing here asserts allocs > 0.
#include <algorithm>
#include <cstdint>
#include <ctime>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

// ------------------------------------------------------------- LogHistogram

TEST(ProfilerHistogramTest, EmptyHistogramReportsZeroes) {
  obs::LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.0), 0u);
  EXPECT_EQ(h.percentile(50.0), 0u);
  EXPECT_EQ(h.percentile(100.0), 0u);
  const obs::HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(ProfilerHistogramTest, SingleValueOwnsEveryPercentile) {
  obs::LogHistogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42u);
  EXPECT_EQ(h.max(), 42u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
  // Every percentile lands in the one occupied bucket; the result is the
  // bucket upper bound clamped to the observed max — exactly 42.
  EXPECT_EQ(h.percentile(0.0), 42u);
  EXPECT_EQ(h.percentile(50.0), 42u);
  EXPECT_EQ(h.percentile(99.0), 42u);
  EXPECT_EQ(h.percentile(100.0), 42u);
}

TEST(ProfilerHistogramTest, SmallValuesAreExact) {
  // Values below 2^kSubBits get one bucket each — no quantization.
  for (std::uint64_t v = 0;
       v < (std::uint64_t{1} << obs::LogHistogram::kSubBits); ++v) {
    EXPECT_EQ(obs::LogHistogram::bucket_for(v), v);
    EXPECT_EQ(obs::LogHistogram::bucket_lower(v), v);
    EXPECT_EQ(obs::LogHistogram::bucket_upper(v), v);
  }
}

TEST(ProfilerHistogramTest, BucketBoundsRoundTrip) {
  // For a spread of magnitudes: a value's bucket must cover the value, and
  // the bucket bounds must map back to the same bucket.
  for (const std::uint64_t v :
       {std::uint64_t{8}, std::uint64_t{9}, std::uint64_t{255},
        std::uint64_t{256}, std::uint64_t{1000}, std::uint64_t{4095},
        std::uint64_t{1} << 20, (std::uint64_t{1} << 32) + 12345,
        std::uint64_t{1} << 62}) {
    const std::size_t b = obs::LogHistogram::bucket_for(v);
    ASSERT_LT(b, obs::LogHistogram::kBucketCount) << "value " << v;
    EXPECT_LE(obs::LogHistogram::bucket_lower(b), v) << "value " << v;
    EXPECT_GE(obs::LogHistogram::bucket_upper(b), v) << "value " << v;
    EXPECT_EQ(obs::LogHistogram::bucket_for(obs::LogHistogram::bucket_lower(b)),
              b);
    EXPECT_EQ(obs::LogHistogram::bucket_for(obs::LogHistogram::bucket_upper(b)),
              b);
  }
}

TEST(ProfilerHistogramTest, OverflowValueLandsInLastBucket) {
  const std::uint64_t top = ~std::uint64_t{0};
  EXPECT_EQ(obs::LogHistogram::bucket_for(top),
            obs::LogHistogram::kBucketCount - 1);
  obs::LogHistogram h;
  h.record(top);
  EXPECT_EQ(h.max(), top);
  // The overflow bucket's upper bound is clamped to the observed max.
  EXPECT_EQ(h.percentile(100.0), top);
}

TEST(ProfilerHistogramTest, PercentilesAreMonotoneAndBracketed) {
  obs::LogHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  std::uint64_t prev = 0;
  for (const double pct : {1.0, 25.0, 50.0, 75.0, 95.0, 99.0, 100.0}) {
    const std::uint64_t value = h.percentile(pct);
    EXPECT_GE(value, prev) << "pct " << pct;
    EXPECT_GE(value, h.min());
    EXPECT_LE(value, h.max());
    prev = value;
  }
  // p50 of 1..1000 must sit near 500 within one bucket's ~12.5% resolution.
  EXPECT_GE(h.percentile(50.0), 440u);
  EXPECT_LE(h.percentile(50.0), 576u);
  EXPECT_EQ(h.percentile(100.0), 1000u);
}

TEST(ProfilerHistogramTest, MergeMatchesCombinedRecording) {
  obs::LogHistogram a;
  obs::LogHistogram b;
  obs::LogHistogram combined;
  for (std::uint64_t v = 1; v < 100; v += 2) {
    a.record(v);
    combined.record(v);
  }
  for (std::uint64_t v = 1000; v < 5000; v += 17) {
    b.record(v);
    combined.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.min(), combined.min());
  EXPECT_EQ(a.max(), combined.max());
  EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
  for (const double pct : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_EQ(a.percentile(pct), combined.percentile(pct)) << "pct " << pct;
  }
}

TEST(ProfilerHistogramTest, MergeWithEmptyIsIdentityBothWays) {
  obs::LogHistogram filled;
  filled.record(7);
  filled.record(70);

  obs::LogHistogram lhs = filled;
  const obs::LogHistogram empty;
  lhs.merge(empty);
  EXPECT_EQ(lhs.count(), 2u);
  EXPECT_EQ(lhs.min(), 7u);
  EXPECT_EQ(lhs.max(), 70u);

  obs::LogHistogram from_empty;
  from_empty.merge(filled);
  EXPECT_EQ(from_empty.count(), 2u);
  EXPECT_EQ(from_empty.min(), 7u);
  EXPECT_EQ(from_empty.max(), 70u);
}

TEST(ProfilerHistogramTest, ResetClearsEverything) {
  obs::LogHistogram h;
  h.record(5);
  h.record(500);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.percentile(99.0), 0u);
}

// -------------------------------------------------------------- attribution

ClusterConfig small_config(bool profile) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 4;
  config.replication = 3;
  config.seed = 1234;
  config.profile = profile;
  return config;
}

TEST(ProfilerAttributionTest, SubsystemEventsSumToEngineTotal) {
  if (!obs::EngineProfiler::compiled_on()) GTEST_SKIP();
  Cluster cluster(small_config(true));
  cluster.preload(512, 1024);
  cluster.set_workload(workload::ycsb_a(512));
  cluster.run_for(seconds(10));

  const obs::ProfileReport prof = cluster.obs().profiler().report();
  ASSERT_TRUE(prof.compiled);
  std::uint64_t by_subsystem = 0;
  for (const obs::ProfilePhaseRow& row : prof.subsystems) {
    by_subsystem += row.events;
  }
  EXPECT_EQ(by_subsystem, prof.events_total);
  EXPECT_EQ(prof.events_total, cluster.simulator().events_processed());
  // The workload actually exercised the attributed subsystems.
  EXPECT_GT(prof.subsystems[static_cast<std::size_t>(
                                obs::ProfSubsystem::kProxy)]
                .events,
            0u);
  EXPECT_GT(prof.subsystems[static_cast<std::size_t>(
                                obs::ProfSubsystem::kStorage)]
                .events,
            0u);
  EXPECT_GT(prof.subsystems[static_cast<std::size_t>(
                                obs::ProfSubsystem::kClient)]
                .events,
            0u);
}

TEST(ProfilerAttributionTest, MessageCountsSumToDeliveredTotal) {
  if (!obs::EngineProfiler::compiled_on()) GTEST_SKIP();
  Cluster cluster(small_config(true));
  cluster.preload(512, 1024);
  cluster.set_workload(workload::ycsb_a(512));
  cluster.run_for(seconds(10));

  const obs::ProfileReport prof = cluster.obs().profiler().report();
  const obs::RunReport report = cluster.report(0, cluster.now());
  std::uint64_t by_type = 0;
  for (const obs::ProfileMessageRow& row : prof.messages) {
    by_type += row.count;
  }
  EXPECT_EQ(by_type, report.messages_delivered);
  // Queue telemetry saw traffic.
  EXPECT_GT(prof.schedules, 0u);
  EXPECT_GT(prof.max_depth, 0u);
  EXPECT_GT(prof.queue_depth.count, 0u);
  EXPECT_GT(prof.dwell_ns.count, 0u);
}

TEST(ProfilerAttributionTest, SchedulesAreEventsPlusCancelledPlusPending) {
  if (!obs::EngineProfiler::compiled_on()) GTEST_SKIP();
  Cluster cluster(small_config(true));
  cluster.preload(512, 1024);
  cluster.set_workload(workload::ycsb_a(512));
  cluster.run_for(seconds(10));

  const obs::ProfileReport prof = cluster.obs().profiler().report();
  // Finished ops cancel their fallback and retransmit timers; those are not
  // events and leave the queue at once.
  EXPECT_GT(prof.cancelled, 0u);
  EXPECT_EQ(prof.schedules, prof.events_total + prof.cancelled +
                                cluster.simulator().pending());
}

// ------------------------------------------------------------ byte identity

std::string run_report_json(bool profile) {
  Cluster cluster(small_config(profile));
  cluster.preload(512, 1024);
  cluster.set_workload(workload::ycsb_a(512));
  cluster.run_for(seconds(10));
  obs::RunReport report = cluster.report(0, cluster.now());
  // Strip the profile section; everything else must match byte-for-byte.
  report.has_profile = false;
  return report.to_json();
}

TEST(ProfilerIdentityTest, ProfilingOnChangesNoSimulationBytes) {
  // The profiler observes, never steers: the full report of a profiled run
  // (minus the profile section itself) is byte-identical to an unprofiled
  // same-seed run. This is the runtime half of the zero-cost guarantee; the
  // CI diff of QOPT_PROFILE=OFF builds is the compile-time half.
  EXPECT_EQ(run_report_json(false), run_report_json(true));
}

TEST(ProfilerIdentityTest, DeterministicProfileExportIsStable) {
  if (!obs::EngineProfiler::compiled_on()) GTEST_SKIP();
  const auto run_profile_json = [] {
    Cluster cluster(small_config(true));
    cluster.preload(512, 1024);
    cluster.set_workload(workload::ycsb_a(512));
    cluster.run_for(seconds(10));
    obs::ProfileReport prof = cluster.obs().profiler().report();
    prof.zero_wall();
    return prof.to_json();
  };
  const std::string first = run_profile_json();
  const std::string second = run_profile_json();
  EXPECT_EQ(first, second);
  // Wall fields really are zeroed in the deterministic form.
  EXPECT_EQ(first.find("\"wall_ns\":0,"), first.find("\"wall_ns\":"));
}

// ------------------------------------------------------------ overhead gate

double process_cpu_seconds() {
  timespec ts{};
  // qopt-lint: allow(wall-clock) overhead gate measures host CPU cost of the profiler
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct PairTimes {
  double off = 0;  // process CPU seconds, profiler off
  double on = 0;   // the same run with the profiler on
};

// Process CPU seconds of one fixed 30-simulated-second run with the
// profiler off and of the same run with it on. CPU time rather than wall
// time: time the process spends descheduled counts against neither side.
// The two clusters advance in alternating one-second slices (alternating
// which goes first), so slow host drift — frequency changes, other
// tenants' cache pressure — lands on both sides alike instead of on
// whichever happened to run during it.
PairTimes timed_pair() {
  Cluster off(small_config(false));
  Cluster on(small_config(true));
  for (Cluster* cluster : {&off, &on}) {
    cluster->preload(512, 1024);
    cluster->set_workload(workload::ycsb_a(512));
  }
  PairTimes t;
  const auto slice = [](Cluster& cluster, double& total) {
    const double cpu0 = process_cpu_seconds();
    cluster.run_for(seconds(1));
    total += process_cpu_seconds() - cpu0;
  };
  for (int s = 0; s < 30; ++s) {
    if (s % 2 == 0) {
      slice(off, t.off);
      slice(on, t.on);
    } else {
      slice(on, t.on);
      slice(off, t.off);
    }
  }
  return t;
}

TEST(ProfilerOverheadTest, EnabledProfilerStaysUnderBudget) {
  if (!obs::EngineProfiler::compiled_on()) GTEST_SKIP();
  // Keep each side's least CPU time over the rounds: the minimum over
  // repetitions strips residual cache and scheduler noise from a CPU-bound
  // measurement (ctest runs this suite serially, see tests/CMakeLists.txt).
  // Budget is < 2% events/sec; on noisy hosts (off-side spread > 3%) the
  // gate relaxes to 5% instead of flaking.
  constexpr int kRounds = 9;
  double best_off = 1e300;
  double worst_off = 0;
  double best_on = 1e300;
  timed_pair();  // warm caches/allocator before measuring
  for (int i = 0; i < kRounds; ++i) {
    const PairTimes t = timed_pair();
    best_off = std::min(best_off, t.off);
    worst_off = std::max(worst_off, t.off);
    best_on = std::min(best_on, t.on);
  }
  ASSERT_GT(best_off, 0.0);
  const double noise = worst_off / best_off - 1.0;
  const double budget = noise > 0.03 ? 0.05 : 0.02;
  const double overhead = best_on / best_off - 1.0;
  EXPECT_LT(overhead, budget)
      << "profiler on: " << best_on << "s, off: " << best_off
      << "s (off-side noise " << noise * 100 << "%)";
}

}  // namespace
}  // namespace qopt
