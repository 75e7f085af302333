#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/flat_table.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace qopt {
namespace {

// ------------------------------------------------------------------- time

TEST(TimeTest, UnitConversions) {
  EXPECT_EQ(microseconds(1), 1000);
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(1.0), 1'000'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(7)), 7.0);
}

TEST(TimeTest, FractionalSeconds) {
  EXPECT_EQ(seconds(0.5), 500'000'000);
  EXPECT_EQ(seconds(0.001), milliseconds(1));
}

// -------------------------------------------------------------------- rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextBelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(RngTest, NextBelowOneAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0u);
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextBelowIsApproximatelyUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int n = 100'000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(RngTest, ChanceMatchesProbability) {
  Rng rng(23);
  int hits = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(29);
  double sum = 0;
  const int n = 200'000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, NormalMoments) {
  Rng rng(31);
  RunningStats stats;
  for (int i = 0; i < 200'000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(37);
  Rng child = parent.fork(1);
  Rng child2 = parent.fork(1);  // parent state advanced -> different child
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child.next() == child2.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(mix64(123), mix64(123));
  EXPECT_NE(mix64(123), mix64(124));
}

// ------------------------------------------------------------------ stats

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSequence) {
  RunningStats stats;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stats.add(v);
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 4.0);
  EXPECT_DOUBLE_EQ(stats.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesCombined) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  Rng rng(41);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    (i % 2 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(ReservoirSampleTest, ExactWhenUnderCapacity) {
  ReservoirSample sample(100);
  for (int i = 1; i <= 99; ++i) sample.add(i);
  EXPECT_DOUBLE_EQ(sample.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(sample.percentile(100), 99.0);
  EXPECT_DOUBLE_EQ(sample.median(), 50.0);
}

TEST(ReservoirSampleTest, ApproximatesLargeStream) {
  ReservoirSample sample(2048, 5);
  for (int i = 0; i < 100'000; ++i) sample.add(i % 1000);
  EXPECT_NEAR(sample.median(), 500.0, 50.0);
  EXPECT_NEAR(sample.percentile(90), 900.0, 50.0);
}

TEST(ReservoirSampleTest, EmptyReturnsZero) {
  ReservoirSample sample(10);
  EXPECT_DOUBLE_EQ(sample.percentile(50), 0.0);
}

TEST(MovingAverageTest, WindowEviction) {
  MovingAverage avg(3);
  avg.add(1);
  avg.add(2);
  avg.add(3);
  EXPECT_DOUBLE_EQ(avg.mean(), 2.0);
  avg.add(10);  // evicts 1
  EXPECT_DOUBLE_EQ(avg.mean(), 5.0);
  EXPECT_TRUE(avg.full());
}

TEST(MovingAverageTest, PartialWindow) {
  MovingAverage avg(10);
  avg.add(4);
  EXPECT_DOUBLE_EQ(avg.mean(), 4.0);
  EXPECT_FALSE(avg.full());
  avg.reset();
  EXPECT_DOUBLE_EQ(avg.mean(), 0.0);
  EXPECT_EQ(avg.size(), 0u);
}

TEST(ExactPercentileTest, Interpolates) {
  EXPECT_DOUBLE_EQ(exact_percentile({1, 2, 3, 4}, 50), 2.5);
  EXPECT_DOUBLE_EQ(exact_percentile({5}, 99), 5.0);
  EXPECT_DOUBLE_EQ(exact_percentile({}, 50), 0.0);
}

// -------------------------------------------------------------- histogram

TEST(HistogramTest, BasicStats) {
  LatencyHistogram hist;
  for (double v : {1000.0, 2000.0, 3000.0}) hist.record(v);
  EXPECT_EQ(hist.count(), 3u);
  EXPECT_DOUBLE_EQ(hist.mean(), 2000.0);
  EXPECT_DOUBLE_EQ(hist.min(), 1000.0);
  EXPECT_DOUBLE_EQ(hist.max(), 3000.0);
}

TEST(HistogramTest, PercentileWithinResolution) {
  LatencyHistogram hist;
  Rng rng(43);
  std::vector<double> values;
  for (int i = 0; i < 50'000; ++i) {
    const double v = rng.uniform(1e3, 1e7);
    values.push_back(v);
    hist.record(v);
  }
  for (double pct : {10.0, 50.0, 90.0, 99.0}) {
    const double expected = exact_percentile(values, pct);
    EXPECT_NEAR(hist.percentile(pct), expected, expected * 0.05)
        << "pct=" << pct;
  }
}

TEST(HistogramTest, MergeEquivalentToUnion) {
  LatencyHistogram a;
  LatencyHistogram b;
  LatencyHistogram all;
  Rng rng(47);
  for (int i = 0; i < 10'000; ++i) {
    const double v = rng.uniform(1e3, 1e6);
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.percentile(50), all.percentile(50), all.percentile(50) * 0.01);
  // Summation order differs between the two paths; allow float slack.
  EXPECT_NEAR(a.mean(), all.mean(), all.mean() * 1e-12);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram hist;
  hist.record(5000.0);
  hist.reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);
}

TEST(HistogramTest, ValuesBelowFloorClampToFirstBucket) {
  LatencyHistogram hist(100.0);
  hist.record(1.0);
  hist.record(50.0);
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_LE(hist.percentile(99), 100.0);
}

// ------------------------------------------------------------ flat table

/// The table's entries in for_each (slot) order.
std::vector<std::pair<std::uint64_t, std::uint64_t>> slot_order(
    const FlatTable<std::uint64_t>& table) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  table.for_each([&out](std::uint64_t key, std::uint64_t value) {
    out.emplace_back(key, value);
  });
  return out;
}

TEST(FlatTableTest, MatchesUnorderedMapUnderRandomChurn) {
  // Inserts, finds and erases over a key pool that holds both reserved-
  // looking values (0 and all ones) and far more keys than the initial
  // reserve, so the table grows several times and erases run across probe
  // chains of every shape.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  Rng rng(2024);
  std::vector<std::uint64_t> pool = {0, 1, kMax, kMax - 1};
  for (int i = 0; i < 1500; ++i) pool.push_back(rng.next());
  for (int i = 0; i < 500; ++i) pool.push_back(static_cast<std::uint64_t>(i));

  FlatTable<std::uint64_t> table;
  table.reserve(64);
  const std::size_t reserved = table.slot_count();
  std::unordered_map<std::uint64_t, std::uint64_t> model;
  for (int step = 0; step < 60'000; ++step) {
    // Bias toward inserts early so the table outgrows its reserve, then
    // toward erases so it drains through backward shifts.
    const std::uint64_t key = pool[rng.next_below(pool.size())];
    const double erase_share = step < 30'000 ? 0.25 : 0.6;
    if (rng.chance(erase_share)) {
      ASSERT_EQ(table.erase(key), model.erase(key) == 1) << key;
    } else {
      const std::uint64_t value = rng.next();
      const auto [stored, inserted] = table.try_emplace(key, value);
      const auto [it, model_inserted] = model.try_emplace(key, value);
      ASSERT_EQ(inserted, model_inserted) << key;
      ASSERT_EQ(*stored, it->second) << key;
      if (rng.chance(0.3)) *stored = it->second = value + 1;  // in place
    }
    ASSERT_EQ(table.size(), model.size());
    const std::uint64_t probe = pool[rng.next_below(pool.size())];
    const std::uint64_t* found = table.find(probe);
    const auto mit = model.find(probe);
    ASSERT_EQ(found != nullptr, mit != model.end()) << probe;
    if (found) {
      ASSERT_EQ(*found, mit->second) << probe;
    }
    if (step % 1000 == 0) {
      auto entries = slot_order(table);
      ASSERT_EQ(entries.size(), model.size());
      std::sort(entries.begin(), entries.end());
      for (std::size_t i = 1; i < entries.size(); ++i) {
        ASSERT_NE(entries[i - 1].first, entries[i].first);
      }
      for (const auto& [k, v] : entries) ASSERT_EQ(model.at(k), v);
    }
  }
  EXPECT_GT(table.slot_count(), reserved);
}

TEST(FlatTableTest, BackwardShiftEraseAcrossTheWrapAround) {
  FlatTable<std::uint64_t> table;
  table.reserve(4);
  ASSERT_EQ(table.slot_count(), 8u);
  // Keys whose probe run starts at the last slot (Fibonacci hashing: the
  // top three bits of key * 2^64/phi), and one that starts at slot 0.
  const auto home = [](std::uint64_t key) {
    return (key * 0x9E3779B97F4A7C15ull) >> 61;
  };
  std::vector<std::uint64_t> last;
  std::uint64_t first = 0;
  bool have_first = false;
  for (std::uint64_t k = 1; last.size() < 3 || !have_first; ++k) {
    if (home(k) == 7 && last.size() < 3) last.push_back(k);
    if (home(k) == 0 && !have_first) {
      first = k;
      have_first = true;
    }
  }
  const std::uint64_t k1 = last[0], k2 = last[1], k3 = last[2];
  for (std::uint64_t k : {k1, k2, k3, first}) table.try_emplace(k, k * 10);
  // k1 holds slot 7; k2, k3 wrapped to slots 0 and 1; `first` was pushed
  // to slot 2.
  using Entries = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  ASSERT_EQ(slot_order(table),
            (Entries{{k2, k2 * 10}, {k3, k3 * 10}, {first, first * 10},
                     {k1, k1 * 10}}));
  // Erasing k1 shifts every later entry back one slot, across the wrap.
  ASSERT_TRUE(table.erase(k1));
  EXPECT_EQ(slot_order(table),
            (Entries{{k3, k3 * 10}, {first, first * 10}, {k2, k2 * 10}}));
  EXPECT_EQ(table.find(k1), nullptr);
  for (std::uint64_t k : {k2, k3, first}) {
    ASSERT_NE(table.find(k), nullptr);
    EXPECT_EQ(*table.find(k), k * 10);
  }
  // Erasing the wrapped k3 lets `first` move back to its home slot.
  ASSERT_TRUE(table.erase(k3));
  EXPECT_EQ(slot_order(table),
            (Entries{{first, first * 10}, {k2, k2 * 10}}));
  EXPECT_FALSE(table.erase(k3));
  EXPECT_EQ(table.size(), 2u);
}

TEST(FlatTableTest, AllOnesKeyAndClearKeepCapacity) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  FlatTable<std::uint64_t> table;
  EXPECT_EQ(table.find(kMax), nullptr);
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_FALSE(table.erase(0));
  EXPECT_TRUE(table.try_emplace(kMax, 1).second);
  EXPECT_FALSE(table.try_emplace(kMax, 2).second);
  EXPECT_TRUE(table.try_emplace(0, 3).second);
  ASSERT_NE(table.find(kMax), nullptr);
  EXPECT_EQ(*table.find(kMax), 1u);
  EXPECT_EQ(*table.find(0), 3u);
  EXPECT_EQ(table.size(), 2u);
  table.reserve(100);
  const std::size_t slots = table.slot_count();
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.find(kMax), nullptr);
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.slot_count(), slots);
}

}  // namespace
}  // namespace qopt
