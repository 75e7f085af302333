#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "topk/space_saving.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace qopt::topk {
namespace {

TEST(SpaceSavingTest, ExactWhenUnderCapacity) {
  SpaceSaving summary(10);
  for (int i = 0; i < 5; ++i) {
    for (int rep = 0; rep <= i; ++rep) summary.add(static_cast<uint64_t>(i));
  }
  // key i appears i+1 times; all monitored exactly.
  const auto top = summary.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 4u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 3u);
  EXPECT_EQ(top[2].key, 2u);
}

TEST(SpaceSavingTest, EstimateReturnsZeroForUnknown) {
  SpaceSaving summary(4);
  summary.add(1);
  EXPECT_EQ(summary.estimate(1), 1u);
  EXPECT_EQ(summary.estimate(99), 0u);
}

TEST(SpaceSavingTest, EvictionInheritsMinCountAsError) {
  SpaceSaving summary(2);
  summary.add(1, 10);
  summary.add(2, 5);
  summary.add(3);  // evicts key 2 (count 5): key 3 gets count 6, error 5
  EXPECT_EQ(summary.estimate(3), 6u);
  EXPECT_EQ(summary.estimate(2), 0u);
  const auto top = summary.top(2);
  const auto it = std::find_if(top.begin(), top.end(),
                               [](const TopKEntry& e) { return e.key == 3; });
  ASSERT_NE(it, top.end());
  EXPECT_EQ(it->error, 5u);
}

TEST(SpaceSavingTest, CountUpperBoundsTrueFrequency) {
  // Space-Saving invariant: estimate(key) >= true frequency for monitored
  // keys, and count - error <= true frequency.
  SpaceSaving summary(20);
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(7);
  workload::ZipfianKeys zipf(500, 0.99, /*scramble=*/false);
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ++truth[key];
    summary.add(key);
  }
  for (const TopKEntry& entry : summary.top(20)) {
    const std::uint64_t actual = truth[entry.key];
    EXPECT_GE(entry.count, actual) << "key " << entry.key;
    EXPECT_LE(entry.count - entry.error, actual) << "key " << entry.key;
  }
}

TEST(SpaceSavingTest, FindsTrueHeavyHittersOnZipf) {
  SpaceSaving summary(64);
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(11);
  workload::ZipfianKeys zipf(10'000, 0.99, /*scramble=*/false);
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ++truth[key];
    summary.add(key);
  }
  // The true top-8 must all be monitored in the summary's top-16.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(truth.begin(),
                                                              truth.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const auto reported = summary.top(16);
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t key = sorted[static_cast<size_t>(i)].first;
    EXPECT_TRUE(std::any_of(
        reported.begin(), reported.end(),
        [&](const TopKEntry& e) { return e.key == key; }))
        << "true hot key " << key << " missing from summary top";
  }
}

TEST(SpaceSavingTest, StreamLengthTracksIncrements) {
  SpaceSaving summary(4);
  summary.add(1, 5);
  summary.add(2, 3);
  EXPECT_EQ(summary.stream_length(), 8u);
}

TEST(SpaceSavingTest, GuaranteedAboveUsesLowerBound) {
  SpaceSaving summary(2);
  summary.add(1, 100);
  summary.add(2, 5);
  summary.add(3, 10);  // count 15, error 5 -> lower bound 10
  EXPECT_TRUE(summary.guaranteed_above(1, 50));
  EXPECT_TRUE(summary.guaranteed_above(3, 9));
  EXPECT_FALSE(summary.guaranteed_above(3, 10));
  EXPECT_FALSE(summary.guaranteed_above(42, 0));
}

TEST(SpaceSavingTest, ClearResets) {
  SpaceSaving summary(4);
  summary.add(1);
  summary.clear();
  EXPECT_EQ(summary.size(), 0u);
  EXPECT_EQ(summary.stream_length(), 0u);
  EXPECT_EQ(summary.estimate(1), 0u);
}

TEST(SpaceSavingTest, TopMoreThanSizeReturnsAll) {
  SpaceSaving summary(8);
  summary.add(1);
  summary.add(2);
  EXPECT_EQ(summary.top(100).size(), 2u);
}

TEST(SpaceSavingTest, MergeAddsCountsForSharedKeys) {
  SpaceSaving a(8);
  SpaceSaving b(8);
  a.add(1, 10);
  a.add(2, 5);
  b.add(1, 7);
  b.add(3, 2);
  a.merge(b);
  EXPECT_EQ(a.estimate(1), 17u);
  EXPECT_EQ(a.stream_length(), 24u);
  EXPECT_GE(a.estimate(3), 2u);
}

TEST(SpaceSavingTest, MergePreservesHeavyHitterDetection) {
  // Split one zipfian stream across 4 summaries (as Q-OPT proxies do),
  // merge, and confirm the global hot keys surface.
  std::vector<SpaceSaving> parts(4, SpaceSaving(64));
  std::map<std::uint64_t, std::uint64_t> truth;
  Rng rng(13);
  workload::ZipfianKeys zipf(5'000, 0.99, /*scramble=*/false);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t key = zipf.sample(rng);
    ++truth[key];
    parts[static_cast<size_t>(i % 4)].add(key);
  }
  SpaceSaving merged(64);
  for (const auto& part : parts) merged.merge(part);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(truth.begin(),
                                                              truth.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  const auto reported = merged.top(32);
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t key = sorted[static_cast<size_t>(i)].first;
    EXPECT_TRUE(std::any_of(
        reported.begin(), reported.end(),
        [&](const TopKEntry& e) { return e.key == key; }))
        << "hot key " << key << " lost in merge";
  }
}

TEST(SpaceSavingTest, CapacityOneDegeneratesGracefully) {
  SpaceSaving summary(1);
  for (int i = 0; i < 100; ++i) summary.add(static_cast<uint64_t>(i % 3));
  EXPECT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary.stream_length(), 100u);
  EXPECT_EQ(summary.top(1).size(), 1u);
}

TEST(SpaceSavingTest, DeterministicTieBreakByKey) {
  SpaceSaving summary(8);
  summary.add(5, 3);
  summary.add(2, 3);
  summary.add(9, 3);
  const auto top = summary.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 2u);
  EXPECT_EQ(top[1].key, 5u);
  EXPECT_EQ(top[2].key, 9u);
}

/// Brute-force Space-Saving with the summary's exact tie rules: the
/// evicted key is the minimum by (count, key), top() ranks by count
/// descending then key ascending, and merge re-ranks the union the same way.
class ModelSummary {
 public:
  explicit ModelSummary(std::size_t capacity) : capacity_(capacity) {}

  void add(std::uint64_t key, std::uint64_t increment) {
    stream_ += increment;
    if (auto it = entries_.find(key); it != entries_.end()) {
      it->second.count += increment;
      return;
    }
    if (entries_.size() < capacity_) {
      entries_[key] = {key, increment, 0};
      return;
    }
    const auto victim = std::min_element(
        entries_.begin(), entries_.end(), [](const auto& a, const auto& b) {
          if (a.second.count != b.second.count) {
            return a.second.count < b.second.count;
          }
          return a.first < b.first;
        });
    const std::uint64_t min = victim->second.count;
    entries_.erase(victim);
    entries_[key] = {key, min + increment, min};
  }

  std::vector<TopKEntry> top(std::size_t k) const {
    std::vector<TopKEntry> out;
    for (const auto& [key, e] : entries_) out.push_back(e);
    std::sort(out.begin(), out.end(), by_rank);
    if (out.size() > k) out.resize(k);
    return out;
  }

  std::uint64_t estimate(std::uint64_t key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? 0 : it->second.count;
  }

  bool guaranteed_above(std::uint64_t key, std::uint64_t threshold) const {
    const auto it = entries_.find(key);
    return it != entries_.end() &&
           it->second.count - it->second.error > threshold;
  }

  void clear() {
    entries_.clear();
    stream_ = 0;
  }

  void merge(const ModelSummary& other) {
    const std::uint64_t my_min = full() ? top(capacity_).back().count : 0;
    const std::uint64_t other_min =
        other.full() ? other.top(other.capacity_).back().count : 0;
    std::map<std::uint64_t, TopKEntry> merged = entries_;
    for (const auto& [key, e] : other.entries_) {
      auto [it, inserted] = merged.emplace(key, e);
      if (!inserted) {
        it->second.count += e.count;
        it->second.error += e.error;
      } else {
        it->second.count += my_min;
        it->second.error += my_min;
      }
    }
    for (auto& [key, e] : merged) {
      if (other.entries_.count(key) == 0) {
        e.count += other_min;
        e.error += other_min;
      }
    }
    std::vector<TopKEntry> ranked;
    for (const auto& [key, e] : merged) ranked.push_back(e);
    std::sort(ranked.begin(), ranked.end(), by_rank);
    if (ranked.size() > capacity_) ranked.resize(capacity_);
    entries_.clear();
    for (const TopKEntry& e : ranked) entries_[e.key] = e;
    stream_ += other.stream_;
  }

  std::uint64_t stream_length() const { return stream_; }

 private:
  static bool by_rank(const TopKEntry& a, const TopKEntry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  }
  bool full() const { return entries_.size() == capacity_; }

  std::size_t capacity_;
  std::map<std::uint64_t, TopKEntry> entries_;
  std::uint64_t stream_ = 0;
};

void expect_same(const SpaceSaving& summary, const ModelSummary& model,
                 std::size_t capacity, std::uint64_t probe) {
  const auto got = summary.top(capacity + 1);
  const auto want = model.top(capacity + 1);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(summary.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].key, want[i].key) << "rank " << i;
    ASSERT_EQ(got[i].count, want[i].count) << "rank " << i;
    ASSERT_EQ(got[i].error, want[i].error) << "rank " << i;
  }
  ASSERT_EQ(summary.stream_length(), model.stream_length());
  ASSERT_EQ(summary.estimate(probe), model.estimate(probe)) << probe;
  for (std::uint64_t threshold : {0, 1, 3, 10}) {
    ASSERT_EQ(summary.guaranteed_above(probe, threshold),
              model.guaranteed_above(probe, threshold))
        << probe << " above " << threshold;
  }
}

TEST(SpaceSavingTest, MatchesBruteForceModelOnEvictingStreams) {
  // Key streams far wider than the capacity, so nearly every new key
  // evicts; a second summary (another capacity) is merged in and both are
  // cleared at random points. The keys include 0 and the all-ones id.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                     std::size_t{128}}) {
    SCOPED_TRACE(capacity);
    Rng rng(capacity * 7919);
    const std::uint64_t universe = capacity * 4 + 8;
    const auto draw = [&]() -> std::uint64_t {
      const std::uint64_t r = rng.next_below(universe + 2);
      if (r == universe) return kMax;
      if (r == universe + 1) return kMax - 1;
      // Skewed: half the draws come from a small hot set.
      return rng.chance(0.5) ? r % 4 : r;
    };
    SpaceSaving summary(capacity);
    SpaceSaving other(capacity + 3);
    ModelSummary model(capacity);
    ModelSummary other_model(capacity + 3);
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t key = draw();
      const std::uint64_t increment = rng.chance(0.1) ? 1 + rng.next_below(5)
                                                      : 1;
      if (rng.chance(0.3)) {
        other.add(key, increment);
        other_model.add(key, increment);
      } else {
        summary.add(key, increment);
        model.add(key, increment);
      }
      const double roll = rng.next_double();
      if (roll < 0.004) {
        summary.merge(other);
        model.merge(other_model);
      } else if (roll < 0.006) {
        summary.clear();
        model.clear();
      } else if (roll < 0.008) {
        other.clear();
        other_model.clear();
      }
      expect_same(summary, model, capacity, key);
      expect_same(summary, model, capacity, draw());
      expect_same(other, other_model, capacity + 3, key);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace qopt::topk
