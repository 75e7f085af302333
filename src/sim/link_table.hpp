// Last-delivery instant per ordered (from, to) link, for the network's FIFO
// clamp.
//
// An open-addressing hash table (linear probing, power-of-two capacity, load
// factor at most 1/2) keyed by the two packed node ids. It is probed once
// per message send and never iterated, so its slot order cannot leak into
// the deterministic schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/ids.hpp"
#include "util/time.hpp"

namespace qopt::sim {

class LinkTable {
 public:
  /// The link's last delivery instant; a link seen for the first time is
  /// inserted at 0.
  Time& last_delivery(const NodeId& from, const NodeId& to) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    return probe(pack(from), pack(to));
  }

  std::size_t size() const noexcept { return size_; }

 private:
  struct Slot {
    std::uint64_t from = kEmpty;
    std::uint64_t to = 0;
    Time last = 0;
  };
  // pack() keeps the kind in bits 32..39, so no node packs to all-ones.
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};

  static std::uint64_t pack(const NodeId& id) noexcept {
    return (static_cast<std::uint64_t>(id.kind) << 32) | id.index;
  }

  static std::size_t hash(std::uint64_t from, std::uint64_t to) noexcept {
    std::uint64_t h = from * 0x9E3779B97F4A7C15ull ^ to;
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }

  Time& probe(std::uint64_t from, std::uint64_t to) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(from, to) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.from == from && s.to == to) return s.last;
      if (s.from == kEmpty) {
        s.from = from;
        s.to = to;
        ++size_;
        return s.last;
      }
    }
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 64 : 2 * slots_.size());
    old.swap(slots_);
    size_ = 0;
    for (const Slot& s : old) {
      if (s.from != kEmpty) probe(s.from, s.to) = s.last;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace qopt::sim
