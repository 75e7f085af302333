// Deterministic discrete-event simulation kernel.
//
// A single virtual clock and a 4-ary min-heap of (time, seq, slot) keys.
// Events scheduled for the same instant are processed in scheduling order
// (a monotone sequence number breaks ties), which makes every run
// bit-for-bit reproducible from its seed. The callables themselves sit in a
// slot slab (stable, recycled storage) as small-buffer Tasks, so a heap
// sift moves 24-byte keys only and scheduling a typical closure allocates
// nothing.
//
// Events can be cancelled before they run (cancel()). A cancelled event's
// callable is destroyed and its slot recycled at once; its key stays in the
// heap, dead, until it reaches the top or a rebuild sweeps it out. Live
// events keep their (time, seq), so cancelling never reorders the rest.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/slab.hpp"
#include "sim/task.hpp"
#include "util/time.hpp"

namespace qopt::sim {

/// Names one scheduled event for Simulator::cancel(). A default handle names
/// none; a handle whose event already ran or was cancelled stays harmless,
/// even after its slot has been reused by another event.
struct EventHandle {
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};
  std::uint64_t seq = kNone;
  std::uint32_t slot = 0;
};

class Simulator {
 public:
  static constexpr Time kForever = std::numeric_limits<Time>::max();

  Time now() const noexcept { return now_; }

  /// Schedules `fn` at absolute virtual time `t` (clamped to now).
  EventHandle at(Time t, Task fn);

  /// Schedules `fn` after `d` nanoseconds of virtual time.
  EventHandle after(Duration d, Task fn) {
    return at(now_ + (d > 0 ? d : 0), std::move(fn));
  }

  /// Drops the event `h` names if it has not started running: its callable
  /// is destroyed now and it never runs. Returns whether an event was
  /// dropped (false for a ran, running, cancelled or default handle).
  bool cancel(EventHandle h) noexcept;

  /// Runs events until the queue empties, `until` is passed, or stop() is
  /// called. Returns the number of events processed.
  std::uint64_t run(Time until = kForever);

  /// Processes a single event; returns false if the queue is empty.
  bool step();

  /// Makes the innermost run() return after the current event.
  void stop() noexcept { stopped_ = true; }

  /// Live events only: cancelled ones are gone even while their keys wait.
  bool empty() const noexcept { return heap_.size() == dead_; }
  std::size_t pending() const noexcept { return heap_.size() - dead_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Attaches the engine self-profiler (owned by the obs bundle; Cluster
  /// wires it). Null detaches. Every hook call compiles away under
  /// QOPT_PROFILE=OFF, and a bound-but-disabled profiler costs one branch
  /// per event.
  void bind_profiler(obs::EngineProfiler* profiler) noexcept {
#if QOPT_PROFILE_ENABLED
    profiler_ = profiler;
#else
    (void)profiler;
#endif
  }

  // ---------------------------------------------------- schedule override
  //
  // Hook for exhaustive small-scope interleaving exploration (see
  // tests/interleave_gate_test.cpp). When installed, each step() stages the
  // up-to-`window` earliest pending events and asks the chooser which one
  // runs next; the others' keys go back on the heap with their original
  // time and sequence number, so clearing the chooser restores the
  // deterministic (time, seq) order exactly. Cancelled events are never
  // staged. The virtual clock never moves
  // backwards: running a later event first pins now() until the displaced
  // earlier events catch up. Off (null chooser) in every production run.

  /// Called with the number of staged candidates (>= 2, earliest first);
  /// must return the index of the event to run next.
  // qopt-perf: allow(heap-alloc-hot) test-only hook, assigned once per explored schedule
  using ScheduleChooser = std::function<std::size_t(std::size_t)>;

  void set_schedule_chooser(ScheduleChooser chooser, std::size_t window);
  void clear_schedule_chooser();
  bool schedule_chooser_active() const noexcept {
    return static_cast<bool>(chooser_);
  }

 private:
  /// Heap entry: the event's place in the (time, seq) order and the slab
  /// slot holding its callable.
  struct Key {
    Time time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static bool earlier(const Key& a, const Key& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }
  /// Children per heap node: a 4-ary heap halves the depth of a binary one
  /// and a node's children share about a cache line and a half.
  static constexpr std::size_t kArity = 4;

  bool live(const Key& key) const noexcept {
    return live_seq_[key.slot] == key.seq;
  }

  void push_key(const Key& key);
  /// Removes and returns the (time, seq)-least key.
  Key pop_key();
  /// Moves `key` down from `hole` to its place among the first `n` entries.
  void sift_down(std::size_t hole, Key key, std::size_t n) noexcept;
  /// Pops dead keys off the top; true when a live event is next.
  bool live_front() noexcept;
  /// Drops every dead key and re-heapifies (Floyd); (time, seq) is a total
  /// order, so the pop order is unchanged.
  void sweep_dead();

  std::vector<Key> heap_;  // kArity-ary min-heap under earlier()
  Slab<Task> tasks_;
  // Seq of the event waiting in each slot, kNone once it started running or
  // was cancelled; parallel to tasks_ so the Task records stay two cache
  // lines. A heap key is dead when its seq no longer matches.
  std::vector<std::uint64_t> live_seq_;
#if QOPT_PROFILE_ENABLED
  // Virtual instant at() staged each slot's event (dwell telemetry).
  std::vector<Time> enqueued_at_;
#endif
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::size_t dead_ = 0;  // cancelled keys still in heap_
  bool stopped_ = false;
  // qopt-perf: allow(heap-alloc-hot) null on production runs; step() sees a bool test
  ScheduleChooser chooser_;
  std::size_t chooser_window_ = 0;
  std::vector<Key> staged_;  // scratch reused across chooser steps
#if QOPT_PROFILE_ENABLED
  obs::EngineProfiler* profiler_ = nullptr;
#endif
};

}  // namespace qopt::sim
