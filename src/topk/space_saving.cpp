#include "topk/space_saving.hpp"

#include <algorithm>
#include <cassert>
#include <map>

namespace qopt::topk {

SpaceSaving::SpaceSaving(std::size_t capacity)
    : capacity_(capacity ? capacity : 1),
      slots_(capacity_),
      heap_(capacity_) {
  index_.reserve(capacity_ * 2);
}

bool SpaceSaving::heap_less(std::size_t a, std::size_t b) const {
  const Slot& sa = slots_[a];
  const Slot& sb = slots_[b];
  if (sa.count != sb.count) return sa.count < sb.count;
  return sa.key < sb.key;
}

void SpaceSaving::heap_swap(std::size_t i, std::size_t j) {
  std::swap(heap_[i], heap_[j]);
  slots_[heap_[i]].heap_pos = i;
  slots_[heap_[j]].heap_pos = j;
}

void SpaceSaving::sift_up(std::size_t i) {
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!heap_less(heap_[i], heap_[parent])) break;
    heap_swap(i, parent);
    i = parent;
  }
}

void SpaceSaving::sift_down(std::size_t i) {
  const std::size_t n = size_;
  for (;;) {
    std::size_t smallest = i;
    const std::size_t l = 2 * i + 1;
    const std::size_t r = 2 * i + 2;
    if (l < n && heap_less(heap_[l], heap_[smallest])) smallest = l;
    if (r < n && heap_less(heap_[r], heap_[smallest])) smallest = r;
    if (smallest == i) return;
    heap_swap(i, smallest);
    i = smallest;
  }
}

void SpaceSaving::append(std::uint64_t key, std::uint64_t count,
                         std::uint64_t error) {
  const std::size_t slot_idx = size_++;
  slots_[slot_idx] = Slot{key, count, error, slot_idx};
  heap_[slot_idx] = slot_idx;
  index_.try_emplace(key, slot_idx);
  sift_up(slot_idx);
}

void SpaceSaving::add(std::uint64_t key, std::uint64_t increment) {
  stream_length_ += increment;
  if (const std::size_t* slot_idx = index_.find(key)) {
    Slot& slot = slots_[*slot_idx];
    slot.count += increment;
    sift_down(slot.heap_pos);
    return;
  }
  if (size_ < capacity_) {
    append(key, increment, 0);
    return;
  }
  // Evict the minimum-count slot: the newcomer inherits its count as the
  // over-estimation error (the Space-Saving replacement rule).
  const std::size_t victim_idx = heap_[0];
  Slot& victim = slots_[victim_idx];
  index_.erase(victim.key);
  index_.try_emplace(key, victim_idx);
  victim.error = victim.count;
  victim.count += increment;
  victim.key = key;
  sift_down(victim.heap_pos);
}

std::vector<TopKEntry> SpaceSaving::top(std::size_t k) const {
  std::vector<TopKEntry> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    const Slot& slot = slots_[i];
    out.push_back(TopKEntry{slot.key, slot.count, slot.error});
  }
  std::sort(out.begin(), out.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

std::uint64_t SpaceSaving::estimate(std::uint64_t key) const {
  const std::size_t* slot_idx = index_.find(key);
  return slot_idx ? slots_[*slot_idx].count : 0;
}

bool SpaceSaving::guaranteed_above(std::uint64_t key,
                                   std::uint64_t threshold) const {
  const std::size_t* slot_idx = index_.find(key);
  if (!slot_idx) return false;
  const Slot& slot = slots_[*slot_idx];
  return slot.count - slot.error > threshold;
}

void SpaceSaving::clear() {
  size_ = 0;
  index_.clear();
  stream_length_ = 0;
}

void SpaceSaving::merge(const SpaceSaving& other) {
  // Rebuild from the union of entries: counts add; for keys monitored by
  // only one summary the other side's contribution is bounded by its
  // minimum count, which we fold into the error term (standard summary
  // merge, cf. Agarwal et al., "Mergeable summaries").
  std::uint64_t my_min = 0;
  if (size_ == capacity_) my_min = slots_[heap_[0]].count;
  std::uint64_t other_min = 0;
  if (other.size_ == other.capacity_) {
    other_min = other.slots_[other.heap_[0]].count;
  }

  // Ordered map: the merged entries are re-ranked below with a count/key
  // tiebreak, and equal-count runs must enter the sort in key order for the
  // result to be independent of hash layout.
  std::map<std::uint64_t, TopKEntry> merged;
  for (std::size_t i = 0; i < size_; ++i) {
    const Slot& slot = slots_[i];
    merged[slot.key] = TopKEntry{slot.key, slot.count, slot.error};
  }
  for (std::size_t i = 0; i < other.size_; ++i) {
    const Slot& slot = other.slots_[i];
    auto [it, inserted] =
        merged.emplace(slot.key, TopKEntry{slot.key, slot.count, slot.error});
    if (!inserted) {
      it->second.count += slot.count;
      it->second.error += slot.error;
    } else if (my_min > 0) {
      it->second.count += my_min;
      it->second.error += my_min;
    }
  }
  for (auto& [key, entry] : merged) {
    if (other.index_.find(key) == nullptr && other_min > 0) {
      entry.count += other_min;
      entry.error += other_min;
    }
  }

  std::vector<TopKEntry> entries;
  entries.reserve(merged.size());
  for (auto& [key, entry] : merged) entries.push_back(entry);
  std::sort(entries.begin(), entries.end(),
            [](const TopKEntry& a, const TopKEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  if (entries.size() > capacity_) entries.resize(capacity_);

  const std::uint64_t total = stream_length_ + other.stream_length_;
  clear();
  stream_length_ = total;
  for (const TopKEntry& entry : entries) {
    append(entry.key, entry.count, entry.error);
  }
}

}  // namespace qopt::topk
