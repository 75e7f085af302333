// Open-addressing hash table keyed by std::uint64_t, for per-operation state
// on the data plane (the storage node's version store, Space-Saving's key
// index).
//
// Linear probing over a power-of-two slot array with Fibonacci hashing, max
// load 7/8, values stored inline next to their key, and backward-shift
// erase: no tombstones, so probe runs never lengthen under churn, and a
// table that stays within its reserved size never allocates.
//
// Every key value is storable. An empty slot holds the key kEmptyKey
// (all ones); the one real entry with that key lives in a side slot beside
// the array, so a lookup of any other key is a single probe run.
//
// Iteration (for_each) visits entries in slot order, which depends on the
// hash and on insertion history: callers that derive a deterministic
// schedule from it must sort what they collect.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace qopt {

template <typename V>
class FlatTable {
  static_assert(std::is_trivially_copyable_v<V> &&
                    std::is_default_constructible_v<V>,
                "FlatTable stores values inline and moves them by copy");

 public:
  /// Grows the slot array so that `n` entries fit without a rehash.
  void reserve(std::size_t n) {
    std::size_t capacity = kMinCapacity;
    while (capacity * 7 < n * 8) capacity *= 2;
    if (capacity > slots_.size()) rehash(capacity);
  }

  /// The value stored under `key`, or nullptr.
  V* find(std::uint64_t key) noexcept {
    if (key == kEmptyKey) return has_side_ ? &side_ : nullptr;
    if (size_ == 0) return nullptr;
    Slot& slot = slots_[probe(key)];
    return slot.key == key ? &slot.value : nullptr;
  }
  const V* find(std::uint64_t key) const noexcept {
    return const_cast<FlatTable*>(this)->find(key);
  }

  /// Inserts `value` under `key` unless the key is present. Returns the
  /// stored value and whether it was inserted.
  std::pair<V*, bool> try_emplace(std::uint64_t key, const V& value) {
    if (key == kEmptyKey) {
      const bool inserted = !has_side_;
      if (inserted) side_ = value;
      has_side_ = true;
      return {&side_, inserted};
    }
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      rehash(slots_.empty() ? kMinCapacity : 2 * slots_.size());
    }
    Slot& slot = slots_[probe(key)];
    if (slot.key == key) return {&slot.value, false};
    slot.key = key;
    slot.value = value;
    ++size_;
    return {&slot.value, true};
  }

  /// Removes `key`; returns whether it was present. The entries after it in
  /// its probe run shift back into the hole, so no tombstone is left.
  bool erase(std::uint64_t key) noexcept {
    if (key == kEmptyKey) return std::exchange(has_side_, false);
    if (size_ == 0) return false;
    std::size_t hole = probe(key);
    if (slots_[hole].key != key) return false;
    for (std::size_t i = (hole + 1) & mask_; slots_[i].key != kEmptyKey;
         i = (i + 1) & mask_) {
      // The entry at i may fill the hole only if the hole lies on its probe
      // path, i.e. cyclically within [home, i).
      if (((i - home(slots_[i].key)) & mask_) >= ((i - hole) & mask_)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole].key = kEmptyKey;
    --size_;
    return true;
  }

  /// Removes every entry and keeps the slot array.
  void clear() noexcept {
    for (Slot& slot : slots_) slot.key = kEmptyKey;
    size_ = 0;
    has_side_ = false;
  }

  std::size_t size() const noexcept { return size_ + (has_side_ ? 1 : 0); }
  /// Slot-array length (entries fit up to 7/8 of it before a rehash).
  std::size_t slot_count() const noexcept { return slots_.size(); }

  /// Visits every (key, value) pair in slot order, the side slot last.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.key != kEmptyKey) fn(slot.key, slot.value);
    }
    if (has_side_) fn(kEmptyKey, side_);
  }

 private:
  static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};
  static constexpr std::size_t kMinCapacity = 8;

  struct Slot {
    std::uint64_t key = kEmptyKey;
    V value{};
  };

  std::size_t home(std::uint64_t key) const noexcept {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// Index of `key`'s slot, or of the empty slot that ends its probe run.
  /// The load bound guarantees an empty slot, so the run terminates.
  std::size_t probe(std::uint64_t key) const noexcept {
    std::size_t i = home(key);
    while (slots_[i].key != key && slots_[i].key != kEmptyKey) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void rehash(std::size_t capacity) {
    std::vector<Slot> old(capacity);
    old.swap(slots_);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (const Slot& slot : old) {
      if (slot.key != kEmptyKey) slots_[probe(slot.key)] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;  // entries in slots_ (the side slot excluded)
  std::size_t mask_ = 0;
  int shift_ = 64;
  bool has_side_ = false;
  V side_{};
};

}  // namespace qopt
