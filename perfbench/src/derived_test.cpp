// Derived-metric tests on synthetic completion timelines. Build and run:
//   cmake -S perfbench -B <dir> && cmake --build <dir> --target derived_test
//   <dir>/derived_test
#include "derived.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

constexpr Nanos kMs = 1'000'000;
constexpr Nanos kSec = 1'000 * kMs;

/// One completion every `step` in [from, to).
void steady(std::vector<Nanos>& out, Nanos from, Nanos to, Nanos step) {
  for (Nanos t = from; t < to; t += step) out.push_back(t);
}

TEST(MaxOutageTest, LongestGapIncludingWindowEdges) {
  std::vector<Nanos> times;
  steady(times, 0, 2 * kSec, 10 * kMs);
  steady(times, 3500 * kMs, 5 * kSec, 10 * kMs);  // 1.5 s without service
  EXPECT_EQ(max_outage(times, 0, 5 * kSec), 3500 * kMs - 1990 * kMs);
}

TEST(MaxOutageTest, EdgesCountAsOutage) {
  const std::vector<Nanos> times = {4 * kSec};
  EXPECT_EQ(max_outage(times, 0, 5 * kSec), 4 * kSec);
  EXPECT_EQ(max_outage({}, 0, 5 * kSec), 5 * kSec);
}

TEST(MaxOutageTest, SteadyServiceHasOnlyTheInterArrivalGap) {
  std::vector<Nanos> times;
  steady(times, 0, 5 * kSec, 2 * kMs);
  EXPECT_EQ(max_outage(times, 0, 5 * kSec - 2 * kMs), 2 * kMs);
}

TEST(AdaptTimesTest, StepToTheSettledRateAdaptsAfterTheStep) {
  // After the shift at 10 s the store runs at half rate for 3 s, then
  // settles at the full rate: adaptation ends once a trailing 0.5 s window
  // holds 90% of the settled rate's 500 ops, 0.4 s into the full-rate part
  // (251 + 500 x >= 450).
  std::vector<Nanos> times;
  steady(times, 10 * kSec, 13 * kSec, 2 * kMs);
  steady(times, 13 * kSec, 30 * kSec, 1 * kMs);
  const Phase phase{10 * kSec, 30 * kSec};
  const std::vector<Nanos> adapt =
      adapt_times(times, {&phase, 1}, 500 * kMs, 10 * kSec, 0.9);
  ASSERT_EQ(adapt.size(), 1u);
  EXPECT_NEAR(static_cast<double>(adapt[0]) / kSec, 3.4, 0.01);
}

TEST(AdaptTimesTest, AlreadySettledReportsTheWindowLength) {
  std::vector<Nanos> times;
  steady(times, 0, 20 * kSec, 1 * kMs);
  const Phase phase{5 * kSec, 20 * kSec};
  const std::vector<Nanos> adapt =
      adapt_times(times, {&phase, 1}, 500 * kMs, 5 * kSec, 0.9);
  ASSERT_EQ(adapt.size(), 1u);
  // The trailing window never reaches back before the shift.
  EXPECT_GE(adapt[0], 500 * kMs);
  EXPECT_LE(adapt[0], 500 * kMs + 1 * kMs);
}

TEST(AdaptTimesTest, LateRecoveryIsMeasuredFromTheShift) {
  // No service for 9 s after the shift, then the settled rate.
  std::vector<Nanos> times;
  steady(times, 9 * kSec, 10 * kSec, 1 * kMs);
  const Phase phase{0, 10 * kSec};
  const std::vector<Nanos> adapt =
      adapt_times(times, {&phase, 1}, 500 * kMs, 5 * kSec, 0.9);
  ASSERT_EQ(adapt.size(), 1u);
  EXPECT_NEAR(static_cast<double>(adapt[0]) / kSec, 9.09, 0.01);
}

TEST(AdaptTimesTest, NoServiceReportsThePhaseLength) {
  const std::vector<Nanos> none;
  const Phase phase{0, 10 * kSec};
  EXPECT_EQ(adapt_times(none, {&phase, 1}, 500 * kMs, 5 * kSec, 0.9)[0],
            10 * kSec);
}

TEST(AdaptTimesTest, OneResultPerPhase) {
  std::vector<Nanos> times;
  steady(times, 0, 40 * kSec, 1 * kMs);
  const std::vector<Phase> phases = {{0, 20 * kSec}, {20 * kSec, 40 * kSec}};
  EXPECT_EQ(adapt_times(times, phases, 500 * kMs, 10 * kSec, 0.9).size(), 2u);
}

TEST(PercentileTest, SampleCountRule) {
  // At least ten samples must lie beyond a reported percentile.
  EXPECT_FALSE(percentile_supported(999, 99));
  EXPECT_TRUE(percentile_supported(1000, 99));
  EXPECT_TRUE(percentile_supported(20, 50));
  EXPECT_FALSE(percentile_supported(19, 50));
  EXPECT_FALSE(percentile_supported(0, 50));
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> values;
  for (int i = 100; i >= 1; --i) values.push_back(i);
  EXPECT_EQ(percentile(values, 50), 50);
  EXPECT_EQ(percentile(values, 99), 99);
  EXPECT_EQ(percentile(values, 100), 100);
  std::vector<double> empty;
  EXPECT_EQ(percentile(empty, 50), 0);
}

TEST(MedianTest, OddEvenAndMean) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
  EXPECT_EQ(mean({1, 2, 6}), 3);
}

}  // namespace
}  // namespace perfbench
