// Index-addressed object pool with stable addresses.
//
// Objects live in fixed-size chunks that never move, so a reference to a
// slot stays valid while other slots are acquired (an event handler may
// schedule new events, a delivered message's handler may send new ones).
// Released slots go on a LIFO free list and are handed out again before the
// pool grows; their objects are *not* destroyed on release, so a recycled
// slot keeps its buffers' capacity and the caller overwrites what it needs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace qopt::sim {

template <typename T, std::uint32_t kChunkBits = 9>
class Slab {
 public:
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  /// Returns a free slot: the most recently released one, else a fresh one.
  std::uint32_t acquire() {
    if (free_count_ > 0) return free_[--free_count_];
    if (used_ == capacity()) grow();
    return used_++;
  }

  /// Returns `slot` to the free list (its object stays constructed).
  void release(std::uint32_t slot) { free_[free_count_++] = slot; }

  T& operator[](std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  const T& operator[](std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  /// Slots the chunks hold; every slot index is below this.
  std::uint32_t capacity() const noexcept {
    return static_cast<std::uint32_t>(chunks_.size()) << kChunkBits;
  }

 private:
  void grow() {
    chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    // Every slot can be on the free list at once; sizing the stack here
    // keeps release() allocation-free.
    free_.resize(capacity());
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_;  // stack of released slots
  std::uint32_t free_count_ = 0;
  std::uint32_t used_ = 0;
};

}  // namespace qopt::sim
