#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <utility>

namespace qopt::sim {

EventHandle Simulator::at(Time t, Task fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = tasks_.acquire();
  tasks_[slot] = std::move(fn);
  if (live_seq_.size() < tasks_.capacity()) {
    live_seq_.resize(tasks_.capacity(), EventHandle::kNone);
#if QOPT_PROFILE_ENABLED
    enqueued_at_.resize(tasks_.capacity());
#endif
  }
  const std::uint64_t seq = next_seq_++;
  live_seq_[slot] = seq;
#if QOPT_PROFILE_ENABLED
  enqueued_at_[slot] = now_;
  if (profiler_ && profiler_->enabled()) profiler_->note_schedule();
#endif
  push_key(Key{t, seq, slot});
  return EventHandle{seq, slot};
}

bool Simulator::cancel(EventHandle h) noexcept {
  if (h.seq == EventHandle::kNone || h.slot >= live_seq_.size() ||
      live_seq_[h.slot] != h.seq) {
    return false;
  }
  live_seq_[h.slot] = EventHandle::kNone;
  tasks_[h.slot].reset();
  tasks_.release(h.slot);
  ++dead_;
#if QOPT_PROFILE_ENABLED
  if (profiler_ && profiler_->enabled()) profiler_->note_cancel();
#endif
  if (2 * dead_ > heap_.size()) sweep_dead();
  return true;
}

void Simulator::push_key(const Key& key) {
  if (heap_.size() == heap_.capacity()) {
    heap_.reserve(heap_.empty() ? 1024 : 2 * heap_.capacity());
  }
  // Sift up: move the hole from the new leaf towards the root.
  std::size_t hole = heap_.size();
  heap_.push_back(key);
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!earlier(key, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = key;
}

Simulator::Key Simulator::pop_key() {
  const Key top = heap_.front();
  const Key last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0, last, heap_.size());
  return top;
}

void Simulator::sift_down(std::size_t hole, Key key,
                          std::size_t n) noexcept {
  // Move the hole towards the leaves, pulling up the earliest child until
  // `key` fits.
  while (true) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], key)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = key;
}

bool Simulator::live_front() noexcept {
  while (!heap_.empty()) {
    if (live(heap_.front())) return true;
    pop_key();
    --dead_;
  }
  return false;
}

void Simulator::sweep_dead() {
  heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                             [this](const Key& key) { return !live(key); }),
              heap_.end());
  dead_ = 0;
  const std::size_t n = heap_.size();
  if (n < 2) return;
  for (std::size_t i = (n - 2) / kArity + 1; i-- > 0;) {
    sift_down(i, heap_[i], n);
  }
}

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
  Key key = pop_key();
  if (chooser_ && live_front()) {
    // Stage the earliest `window` live keys and let the chooser reorder them.
    staged_.clear();
    staged_.reserve(chooser_window_);
    staged_.push_back(key);
    while (staged_.size() < chooser_window_ && live_front()) {
      staged_.push_back(pop_key());
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
  if (!heap_.empty()) {
    // The next event's Task is a likely cache miss; start loading its two
    // lines while this event runs.
    const char* next =
        reinterpret_cast<const char*>(&tasks_[heap_.front().slot]);
    __builtin_prefetch(next);
    __builtin_prefetch(next + 64);
  }
  // Monotone clock: an event displaced behind a later one runs at the later
  // event's time (delivery was delayed; the clock never rewinds).
  if (key.time > now_) now_ = key.time;
  ++processed_;
  // From here on the event is running: cancelling it (from its own body,
  // say) is a no-op.
  live_seq_[key.slot] = EventHandle::kNone;
#if QOPT_PROFILE_ENABLED
  const bool profiled = profiler_ && profiler_->enabled();
  if (profiled) {
    profiler_->begin_event(now_, enqueued_at_[key.slot], pending());
  }
#endif
  // The slab never moves a live Task, so the callable runs in place even
  // when it schedules further events; its slot is recycled afterwards.
  Task& task = tasks_[key.slot];
  task();
#if QOPT_PROFILE_ENABLED
  if (profiled) profiler_->end_event();
#endif
  task.reset();
  tasks_.release(key.slot);
  return true;
}

std::uint64_t Simulator::run(Time until) {
  stopped_ = false;
  std::uint64_t n = 0;
  while (!stopped_ && live_front() && heap_.front().time <= until) {
    step();
    ++n;
  }
  if (!live_front() || heap_.front().time > until) {
    // Advance the clock to the horizon so repeated bounded runs compose.
    if (until != kForever && until > now_) now_ = until;
  }
  return n;
}

}  // namespace qopt::sim
