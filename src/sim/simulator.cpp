#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

namespace qopt::sim {

namespace {

/// One step of the schedule fingerprint (FxHash's rotate-xor-multiply).
std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return (std::rotl(h, 5) ^ v) * 0x517cc1b727220a95ull;
}

}  // namespace

EventHandle Simulator::at(Time t, Task fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = tasks_.acquire();
  tasks_[slot] = std::move(fn);
  if (live_tag_.size() < tasks_.capacity()) {
    live_tag_.resize(tasks_.capacity(), EventHandle::kNone);
#if QOPT_PROFILE_ENABLED
    enqueued_at_.resize(tasks_.capacity());
#endif
  }
  const std::uint64_t seq = next_seq_++;
  assert(seq < kSeqLimit && slot <= kSlotMask && t >= 0);
  const std::uint64_t tag = tag_of(seq, slot);
  live_tag_[slot] = tag;
#if QOPT_PROFILE_ENABLED
  enqueued_at_[slot] = now_;
  if (profiler_ && profiler_->enabled()) profiler_->note_schedule();
#endif
  push_key(Key{static_cast<std::uint64_t>(t), tag});
  return EventHandle{seq, slot};
}

bool Simulator::cancel(EventHandle h) noexcept {
  if (h.seq >= kSeqLimit || h.slot >= live_tag_.size() ||
      live_tag_[h.slot] != tag_of(h.seq, h.slot)) {
    return false;
  }
  live_tag_[h.slot] = EventHandle::kNone;
  tasks_[h.slot].reset();
  tasks_.release(h.slot);
  ++dead_;
#if QOPT_PROFILE_ENABLED
  if (profiler_ && profiler_->enabled()) profiler_->note_cancel();
#endif
  if (2 * dead_ > size_) sweep_dead();
  return true;
}

// ------------------------------------------------------------------ push

void Simulator::push_key(const Key& key) {
  ++size_;
  const std::uint64_t bucket = bucket_of(key.time);
  if (bucket <= cur_) {
    push_open(key);
  } else if (bucket - cur_ <= kRingSize) {
    push_ring(bucket, key);
  } else {
    push_far(key);
  }
}

void Simulator::append_open(const Key& key) {
  if (open_.size() == open_.capacity()) {
    open_.reserve(open_.empty() ? 256 : 2 * open_.capacity());
  }
  open_.push_back(key);
}

void Simulator::push_open(const Key& key) {
  // A new event carries the largest seq so far, so it usually belongs at
  // the end; a chooser re-queue belongs in front of everything.
  if (open_.empty() || !earlier(key, open_.back())) {
    append_open(key);
    return;
  }
  const auto first = open_.begin() + static_cast<std::ptrdiff_t>(open_pos_);
  if (open_pos_ > 0 && earlier(key, *first)) {
    open_[--open_pos_] = key;
    return;
  }
  const std::size_t at = static_cast<std::size_t>(
      std::upper_bound(first, open_.end(), key, earlier) - open_.begin());
  append_open(key);  // grows by one; then rotate the key into place
  std::rotate(open_.begin() + static_cast<std::ptrdiff_t>(at),
              open_.end() - 1, open_.end());
}

std::uint32_t Simulator::acquire_node() {
  if (free_node_ != kNil) {
    const std::uint32_t n = free_node_;
    free_node_ = nodes_[n].next;
    return n;
  }
  if (nodes_.size() == nodes_.capacity()) {
    nodes_.reserve(nodes_.empty() ? 1024 : 2 * nodes_.capacity());
  }
  nodes_.push_back(Node{});
  return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void Simulator::push_ring(std::uint64_t bucket, const Key& key) {
  const std::uint64_t pos = bucket & kRingMask;
  const std::uint32_t n = acquire_node();
  nodes_[n] = Node{key, ring_head_[pos]};
  ring_head_[pos] = n;
  occupied_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
  ++ring_keys_;
}

void Simulator::push_far(const Key& key) {
  if (far_.size() == far_.capacity()) {
    far_.reserve(far_.empty() ? 256 : 2 * far_.capacity());
  }
  // Sift up: move the hole from the new leaf towards the root.
  std::size_t hole = far_.size();
  far_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(key, far_[parent])) break;
    far_[hole] = far_[parent];
    hole = parent;
  }
  far_[hole] = key;
}

// ------------------------------------------------------------------- pop

bool Simulator::live_front(std::uint64_t limit) {
  while (true) {
    for (; open_pos_ < open_.size(); ++open_pos_) {
      if (live(open_[open_pos_])) return true;
      --size_;
      --dead_;
    }
    if (!advance(limit)) return false;
  }
}

Simulator::Key Simulator::pop_front() noexcept {
  const Key key = open_[open_pos_++];
  --size_;
  if (open_pos_ == open_.size()) {
    open_.clear();
    open_pos_ = 0;
  }
  return key;
}

std::uint64_t Simulator::next_occupied() const noexcept {
  constexpr std::size_t kWords = kRingSize / 64;
  const std::uint64_t start = (cur_ + 1) & kRingMask;
  std::size_t w = start >> 6;
  std::uint64_t bits = occupied_[w] & (~std::uint64_t{0} << (start & 63));
  // kWords + 1 words: the first one is seen again for the bits below start
  // (bucket cur_ + kRingSize sits at the open bucket's own position).
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      const std::uint64_t pos =
          (std::uint64_t{w} << 6) | static_cast<std::uint64_t>(
                                        std::countr_zero(bits));
      return cur_ + 1 + ((pos - start) & kRingMask);
    }
    w = (w + 1) % kWords;
    bits = occupied_[w];
  }
  assert(false && "next_occupied() on an empty ring");
  return cur_;
}

bool Simulator::advance(std::uint64_t limit) {
  open_.clear();
  open_pos_ = 0;
  std::uint64_t next = 0;
  if (ring_keys_ > 0) {
    next = next_occupied();
  } else if (!far_.empty()) {
    next = bucket_of(far_.front().time);  // idle gap: jump to the far keys
  } else {
    return false;
  }
  if ((next << kBucketShift) > limit) return false;
  cur_ = next;
  // The bucket's ring list becomes the open bucket.
  const std::uint64_t pos = cur_ & kRingMask;
  std::uint32_t n = ring_head_[pos];
  if (n != kNil) {
    ring_head_[pos] = kNil;
    occupied_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    while (n != kNil) {
      const Node& node = nodes_[n];
      const std::uint32_t next_node = node.next;
      --ring_keys_;
      if (live(node.key)) {
        append_open(node.key);
      } else {
        --size_;
        --dead_;
      }
      release_node(n);
      n = next_node;
    }
  }
  // Far keys the moved horizon now covers join the ring (or this bucket).
  while (!far_.empty() && bucket_of(far_.front().time) - cur_ <= kRingSize) {
    const Key key = pop_far();
    if (!live(key)) {
      --size_;
      --dead_;
    } else if (bucket_of(key.time) == cur_) {
      append_open(key);
    } else {
      push_ring(bucket_of(key.time), key);
    }
  }
  std::sort(open_.begin(), open_.end(), earlier);
  return true;
}

Simulator::Key Simulator::pop_far() noexcept {
  const Key top = far_.front();
  const Key last = far_.back();
  far_.pop_back();
  if (!far_.empty()) sift_down(0, last, far_.size());
  return top;
}

void Simulator::sift_down(std::size_t hole, Key key, std::size_t n) noexcept {
  // Move the hole towards the leaves, pulling up the earliest child until
  // `key` fits. The child pick is a select, not a branch.
  while (true) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      best = earlier(far_[c], far_[best]) ? c : best;
    }
    if (!earlier(far_[best], key)) break;
    far_[hole] = far_[best];
    hole = best;
  }
  far_[hole] = key;
}

void Simulator::sweep_dead() {
  const auto dead = [this](const Key& key) { return !live(key); };
  open_.erase(open_.begin(),
              open_.begin() + static_cast<std::ptrdiff_t>(open_pos_));
  open_pos_ = 0;
  open_.erase(std::remove_if(open_.begin(), open_.end(), dead), open_.end());
  for (std::size_t w = 0; w < occupied_.size(); ++w) {
    for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t pos =
          (w << 6) | static_cast<std::size_t>(std::countr_zero(bits));
      std::uint32_t* link = &ring_head_[pos];
      while (*link != kNil) {
        const std::uint32_t n = *link;
        if (live(nodes_[n].key)) {
          link = &nodes_[n].next;
        } else {
          *link = nodes_[n].next;
          release_node(n);
          --ring_keys_;
        }
      }
      if (ring_head_[pos] == kNil) {
        occupied_[w] &= ~(std::uint64_t{1} << (pos & 63));
      }
    }
  }
  far_.erase(std::remove_if(far_.begin(), far_.end(), dead), far_.end());
  const std::size_t n = far_.size();
  if (n >= 2) {
    for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) {
      sift_down(i, far_[i], n);
    }
  }
  size_ -= dead_;
  dead_ = 0;
}

// ------------------------------------------------------------------- run

void Simulator::set_schedule_chooser(ScheduleChooser chooser,
                                     std::size_t window) {
  chooser_ = std::move(chooser);
  chooser_window_ = window < 2 ? 2 : window;
  staged_.reserve(chooser_window_);
}

void Simulator::clear_schedule_chooser() {
  chooser_ = nullptr;
  chooser_window_ = 0;
  staged_.clear();
}

bool Simulator::step() {
  if (!live_front()) return false;
  Key key = pop_front();
  if (chooser_ && live_front()) {
    // Stage the earliest `window` live keys and let the chooser reorder them.
    staged_.clear();
    staged_.reserve(chooser_window_);
    staged_.push_back(key);
    while (staged_.size() < chooser_window_ && live_front()) {
      staged_.push_back(pop_front());
    }
    std::size_t pick = chooser_(staged_.size());
    if (pick >= staged_.size()) pick = 0;
    key = staged_[pick];
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      // Unchosen events keep their original (time, seq) and slot, so
      // removing the chooser restores the canonical order for everything
      // still queued.
      if (i != pick) {
        push_key(staged_[i]);
#if QOPT_PROFILE_ENABLED
        if (profiler_ && profiler_->enabled()) profiler_->note_requeue();
#endif
      }
    }
    staged_.clear();
  }
  if (open_pos_ < open_.size()) {
    // The next event's Task is a likely cache miss; start loading its two
    // lines while this event runs.
    const char* next =
        reinterpret_cast<const char*>(&tasks_[open_[open_pos_].slot()]);
    __builtin_prefetch(next);
    __builtin_prefetch(next + 64);
  }
  // Monotone clock: an event displaced behind a later one runs at the later
  // event's time (delivery was delayed; the clock never rewinds).
  const Time time = static_cast<Time>(key.time);
  if (time > now_) now_ = time;
  ++processed_;
  fingerprint_ = mix(mix(fingerprint_, static_cast<std::uint64_t>(now_)),
                     key.seq());
  // From here on the event is running: cancelling it (from its own body,
  // say) is a no-op.
  const std::uint32_t slot = key.slot();
  live_tag_[slot] = EventHandle::kNone;
#if QOPT_PROFILE_ENABLED
  const bool profiled = profiler_ && profiler_->enabled();
  if (profiled) {
    profiler_->begin_event(now_, enqueued_at_[slot], pending());
  }
#endif
  // The slab never moves a live Task, so the callable runs in place even
  // when it schedules further events; its slot is recycled afterwards.
  Task& task = tasks_[slot];
  task();
#if QOPT_PROFILE_ENABLED
  if (profiled) profiler_->end_event();
#endif
  task.reset();
  tasks_.release(slot);
  return true;
}

std::uint64_t Simulator::run(Time until) {
  stopped_ = false;
  // The ring never advances past the horizon's bucket, so events scheduled
  // after a bounded run land in the open bucket's range or later.
  const std::uint64_t limit =
      until < 0 ? 0 : static_cast<std::uint64_t>(until);
  std::uint64_t n = 0;
  while (!stopped_ && live_front(limit) &&
         static_cast<Time>(open_[open_pos_].time) <= until) {
    step();
    ++n;
  }
  if (!live_front(limit) || static_cast<Time>(open_[open_pos_].time) > until) {
    // Advance the clock to the horizon so repeated bounded runs compose.
    if (until != kForever && until > now_) now_ = until;
  }
  return n;
}

}  // namespace qopt::sim
