#include "derived.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

Nanos max_outage(std::span<const Nanos> completions, Nanos t0, Nanos t1) {
  Nanos longest = 0;
  Nanos previous = t0;
  for (const Nanos t : completions) {
    longest = std::max(longest, t - previous);
    previous = t;
  }
  return std::max(longest, t1 - previous);
}

std::vector<Nanos> adapt_times(std::span<const Nanos> completions,
                               std::span<const Phase> phases, Nanos window,
                               Nanos settle, double fraction) {
  std::vector<Nanos> out;
  for (const Phase& phase : phases) {
    const auto first = [&](Nanos t) {
      return std::lower_bound(completions.begin(), completions.end(), t);
    };
    const auto settled_ops = first(phase.end) - first(phase.end - settle);
    const double target = fraction * static_cast<double>(settled_ops) *
                          static_cast<double>(window) /
                          static_cast<double>(settle);
    Nanos reached = phase.end;
    // Completions are the only instants the trailing count grows, so the
    // first one at which the window (t - window, t] holds the target is
    // the answer.
    auto tail = first(phase.start);
    for (auto it = first(phase.start + window);
         it != completions.end() && *it < phase.end; ++it) {
      while (*tail <= *it - window) ++tail;
      if (static_cast<double>(it - tail + 1) >= target) {
        reached = *it;
        break;
      }
    }
    out.push_back(reached - phase.start);
  }
  return out;
}

bool percentile_supported(std::size_t samples, double pct) {
  return static_cast<double>(samples) * (100.0 - pct) / 100.0 >= 10.0;
}

double percentile(std::vector<double>& values, double pct) {
  if (values.empty()) return 0.0;
  const double rank =
      std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      std::min(values.size() - 1,
               static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
