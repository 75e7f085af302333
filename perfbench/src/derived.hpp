// Derived end-to-end metrics computed from a run's completion timeline.
//
// Pure functions over virtual-time stamps (nanoseconds), kept apart from the
// main program so derived_test.cpp can check them on synthetic timelines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

using Nanos = std::int64_t;

/// Longest stretch of [t0, t1] that holds no completion: the largest gap
/// between consecutive completions, counting the edges of the window.
/// `completions` must be sorted and lie inside [t0, t1].
Nanos max_outage(std::span<const Nanos> completions, Nanos t0, Nanos t1);

/// One workload phase that starts with a shift.
struct Phase {
  Nanos start = 0;
  Nanos end = 0;
};

/// Per phase: time from its start until the completions over a trailing
/// `window` first reach `fraction` of the phase's settled rate, the rate
/// over its last `settle` span. The trailing window never reaches back
/// before the shift, so the result is at least `window`; a phase that never
/// gets there reports its whole length. `completions` must be sorted.
std::vector<Nanos> adapt_times(std::span<const Nanos> completions,
                               std::span<const Phase> phases, Nanos window,
                               Nanos settle, double fraction);

/// A percentile is reported only when at least ten samples lie beyond it.
bool percentile_supported(std::size_t samples, double pct);

/// Nearest-rank percentile (pct in (0, 100]); reorders `values`. Zero when
/// `values` is empty.
double percentile(std::vector<double>& values, double pct);

/// Median (mean of the middle pair for an even count); zero when empty.
double median(std::vector<double> values);

/// Arithmetic mean; zero when empty.
double mean(const std::vector<double>& values);

}  // namespace perfbench
