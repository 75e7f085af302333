#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <utility>

namespace qopt::sim {

void Simulator::at(Time t, Task fn) {
  if (t < now_) t = now_;
  const std::uint32_t slot = tasks_.acquire();
  tasks_[slot] = std::move(fn);
#if QOPT_PROFILE_ENABLED
  if (enqueued_at_.size() < tasks_.capacity()) {
    enqueued_at_.resize(tasks_.capacity());
  }
  enqueued_at_[slot] = now_;
  if (profiler_ && profiler_->enabled()) profiler_->note_schedule();
#endif
  push_key(Key{t, next_seq_++, slot});
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
  const std::size_t n = heap_.size();
  if (n == 0) return top;
  // Sift down: move the hole from the root towards the leaves, pulling up
  // the earliest child until `last` fits.
  std::size_t hole = 0;
  while (true) {
    const std::size_t first = hole * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t best = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], last)) break;
    heap_[hole] = heap_[best];
    hole = best;
  }
  heap_[hole] = last;
  return top;
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
  if (heap_.empty()) return false;
  Key key = pop_key();
  if (chooser_ && !heap_.empty()) {
    // Stage the earliest `window` keys and let the chooser reorder them.
    staged_.clear();
    staged_.reserve(chooser_window_);
    staged_.push_back(key);
    while (staged_.size() < chooser_window_ && !heap_.empty()) {
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
  // Monotone clock: an event displaced behind a later one runs at the later
  // event's time (delivery was delayed; the clock never rewinds).
  if (key.time > now_) now_ = key.time;
  ++processed_;
#if QOPT_PROFILE_ENABLED
  const bool profiled = profiler_ && profiler_->enabled();
  if (profiled) {
    profiler_->begin_event(now_, enqueued_at_[key.slot], heap_.size());
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
  while (!stopped_ && !heap_.empty() && heap_.front().time <= until) {
    step();
    ++n;
  }
  if (heap_.empty() || heap_.front().time > until) {
    // Advance the clock to the horizon so repeated bounded runs compose.
    if (until != kForever && until > now_) now_ = until;
  }
  return n;
}

}  // namespace qopt::sim
