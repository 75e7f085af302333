// Dynamic complement to the qopt_perf static linter: a counting global
// operator new hook runs a steady-state cluster workload and asserts the
// engine's per-event allocation count stays under an explicit budget.
// The static rules catch patterns; this gate catches what they cannot see
// (allocations behind aliases, library internals, growth that never
// plateaus). The budget is amortized per simulator event over a long
// window, so one-off warm-up growth does not dominate.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

// Replaceable global allocation functions: every `new` in the binary —
// engine, library internals, test harness — routes through here. Counting
// is gated so only the measurement window below is recorded.
void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

TEST(AllocGateTest, SteadyStateStaysWithinPerEventBudget) {
  qopt::ClusterConfig config;
  // The gate measures the engine, not the test harness: the consistency
  // checker's history log grows per operation by design and span tracing
  // is off by default.
  config.check_consistency = false;
  config.seed = 7;
  qopt::Cluster cluster(config);
  cluster.preload(1024, 4096);
  cluster.set_workload(qopt::workload::ycsb_b(1024));

  // Warm-up: dedup windows, vector capacities, metrics reservoirs, and the
  // placement scratch all reach their steady-state footprint.
  cluster.run_for(qopt::seconds(2));

  const std::uint64_t events_before = cluster.simulator().events_processed();
  g_alloc_count.store(0);
  g_counting.store(true);
  cluster.run_for(qopt::seconds(8));
  g_counting.store(false);

  const std::uint64_t events =
      cluster.simulator().events_processed() - events_before;
  const std::uint64_t allocs = g_alloc_count.load();
  ASSERT_GT(events, 10'000u) << "workload did not reach steady state";

  // Budget: at most 0.0005 heap allocations per simulated event, amortized.
  // The engine measures ~0.00047 (133 allocations over ~285k events): events
  // and in-flight messages live in recycled slabs, timer closures fit the
  // Task's inline buffer, the proxy recycles its pending-op records, the
  // version store and the Space-Saving index are flat tables sized up
  // front, and the write-dedup windows are flat buffers, so what remains is
  // the bounded growth of those windows (131 of the 133) and of the metric
  // buckets. Cancelled op timers are not events, so they do not dilute the
  // figure; the bound leaves ~6% headroom over it. The budget is one
  // allocation per ~170 operations (~12 events each), so a reintroduced
  // per-operation heap closure, node-container churn, a message copy or
  // per-event formatting fails the gate.
  const double per_event =
      static_cast<double>(allocs) / static_cast<double>(events);
  RecordProperty("allocs_per_event", std::to_string(per_event));
  std::printf("[alloc-gate] %llu allocations / %llu events = %.5f per event\n",
              static_cast<unsigned long long>(allocs),
              static_cast<unsigned long long>(events), per_event);
  EXPECT_LE(per_event, 0.0005)
      << allocs << " allocations over " << events << " events ("
      << per_event << " per event)";
}

}  // namespace
