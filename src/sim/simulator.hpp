// Deterministic discrete-event simulation kernel.
//
// A single virtual clock and a calendar queue of (time, seq, slot) keys.
// Events scheduled for the same instant are processed in scheduling order
// (a monotone sequence number breaks ties), which makes every run
// bit-for-bit reproducible from its seed. The callables themselves sit in a
// slot slab (stable, recycled storage) as small-buffer Tasks, so the queue
// moves 16-byte keys only and scheduling a typical closure allocates
// nothing.
//
// The queue (Brown's calendar queue, CACM 31(10), 1988) has three tiers,
// each holding keys later than the one before it:
//   * the open bucket: a sorted array of the keys due in the current
//     bucket, or earlier (an event scheduled behind the ring's position,
//     say after run(until) stopped short of it, is inserted in order);
//   * the ring: kRingSize buckets of 2^kBucketShift ns each, indexed by
//     `time >> kBucketShift`, each an unsorted list of pooled nodes, with
//     an occupancy bitmap; a bucket is sorted once, when the ring advances
//     onto it and it becomes the open bucket;
//   * the far heap: a 4-ary min-heap of keys beyond the ring's horizon,
//     which migrate into the ring as it advances.
// Scheduling delays cluster below the horizon (network hops, storage
// service, op timers), so push and pop are O(1) for almost every event and
// the far heap stays small. Pops follow the exact (time, seq) order a
// single heap would give.
//
// Events can be cancelled before they run (cancel()). A cancelled event's
// callable is destroyed and its slot recycled at once; its key stays
// queued, dead, until it is reached or a sweep drops it. Live events keep
// their (time, seq), so cancelling never reorders the rest.
#pragma once

#include <array>
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

  /// Calendar geometry, from the scheduling delays measured on the
  /// benchmark workloads: ~7% fall under 66 us (proxy CPU), ~56% in
  /// 262 us - 1 ms (network hops), most of the rest within 134 ms (storage
  /// queueing), 11-14% at 134-268 ms (op fallback and retransmit timers)
  /// and at most 8.5% beyond. A 32.8 us bucket takes about a dozen new
  /// keys on `wide_read`, and the ring reaches 268 ms past the open bucket,
  /// so op timers stay out of the far heap. Fixed: the pop order never
  /// depends on them.
  static constexpr unsigned kBucketShift = 15;
  static constexpr std::uint64_t kRingSize = std::uint64_t{1} << 13;

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
  bool empty() const noexcept { return size_ == dead_; }
  std::size_t pending() const noexcept { return size_ - dead_; }
  std::uint64_t events_processed() const noexcept { return processed_; }

  /// Running 64-bit mix of every processed event's (run instant, seq), in
  /// processing order; 0 before the first event. Two runs with equal
  /// fingerprints ran the same schedule, so an engine change can prove it
  /// left the schedule alone.
  std::uint64_t schedule_fingerprint() const noexcept { return fingerprint_; }

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
  // runs next; the others' keys go back in the queue with their original
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
  // Unsigned 128-bit integer: a key's place in the (time, seq) order.
  __extension__ typedef unsigned __int128 Order;

  /// Queue entry, 16 bytes: the event's virtual time and `seq << kSlotBits
  /// | slot`, its tag. Seqs are unique, so (time, tag) as one 128-bit
  /// number sorts exactly as (time, seq).
  struct Key {
    std::uint64_t time;
    std::uint64_t tag;
    std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(tag & kSlotMask);
    }
    std::uint64_t seq() const noexcept { return tag >> kSlotBits; }
    Order order() const noexcept {
      return (static_cast<Order>(time) << 64) | tag;
    }
  };
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr std::uint64_t kSeqLimit = std::uint64_t{1} << 40;
  static bool earlier(const Key& a, const Key& b) noexcept {
    return a.order() < b.order();
  }
  static std::uint64_t tag_of(std::uint64_t seq, std::uint32_t slot) noexcept {
    return (seq << kSlotBits) | slot;
  }

  static constexpr std::uint64_t kRingMask = kRingSize - 1;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  /// Children per far-heap node: a 4-ary heap halves the depth of a binary
  /// one and a node's children share one cache line.
  static constexpr std::size_t kArity = 4;

  /// A ring bucket's list cell, pooled in nodes_.
  struct Node {
    Key key;
    std::uint32_t next;
  };

  static std::uint64_t bucket_of(std::uint64_t time) noexcept {
    return time >> kBucketShift;
  }
  bool live(const Key& key) const noexcept {
    return live_tag_[key.slot()] == key.tag;
  }

  /// Queues `key` in the tier its bucket belongs to.
  void push_key(const Key& key);
  void push_open(const Key& key);
  void push_ring(std::uint64_t bucket, const Key& key);
  void push_far(const Key& key);
  /// Appends to the open bucket without ordering it (the caller sorts).
  void append_open(const Key& key);
  std::uint32_t acquire_node();
  void release_node(std::uint32_t n) noexcept {
    nodes_[n].next = free_node_;
    free_node_ = n;
  }
  /// Drops dead keys off the front; true when the open bucket's first key
  /// is live, and so the (time, seq)-least live event. Advances the ring
  /// only onto buckets that start at or before `limit`.
  bool live_front(std::uint64_t limit = ~std::uint64_t{0});
  /// Removes and returns the open bucket's first key.
  Key pop_front() noexcept;
  /// Makes the next non-empty bucket the open bucket (the open bucket must
  /// be used up): drains its ring list, pulls in far keys now within the
  /// horizon, and sorts it. False when the queue is empty or the next
  /// bucket starts after `limit`.
  bool advance(std::uint64_t limit);
  /// Bucket number of the first occupied ring bucket after the open one.
  std::uint64_t next_occupied() const noexcept;
  Key pop_far() noexcept;
  /// Moves `key` down from `hole` to its place among the first `n` entries.
  void sift_down(std::size_t hole, Key key, std::size_t n) noexcept;
  /// Drops every dead key: the open bucket, the occupied ring buckets (the
  /// bitmap skips empty ones) and the far heap, which is re-heapified
  /// (Floyd). (time, seq) is a total order, so the pop order is unchanged.
  void sweep_dead();

  // Open bucket: sorted, consumed from open_pos_; holds buckets <= cur_.
  std::vector<Key> open_;
  std::size_t open_pos_ = 0;
  std::uint64_t cur_ = 0;  // bucket number of the open bucket
  // Ring: buckets cur_ + 1 .. cur_ + kRingSize, at `bucket & kRingMask`.
  std::vector<std::uint32_t> ring_head_ =
      std::vector<std::uint32_t>(kRingSize, kNil);
  std::array<std::uint64_t, kRingSize / 64> occupied_{};
  std::vector<Node> nodes_;  // list cells; free ones chain from free_node_
  std::uint32_t free_node_ = kNil;
  std::size_t ring_keys_ = 0;
  std::vector<Key> far_;  // kArity-ary min-heap of buckets > cur_ + kRingSize
  std::size_t size_ = 0;  // keys in all tiers, dead ones included
  std::size_t dead_ = 0;  // cancelled keys still queued

  Slab<Task> tasks_;
  // Tag of the event waiting in each slot, kNone once it started running or
  // was cancelled; parallel to tasks_ so the Task records stay two cache
  // lines. A key is dead when its tag no longer matches.
  std::vector<std::uint64_t> live_tag_;
#if QOPT_PROFILE_ENABLED
  // Virtual instant at() staged each slot's event (dwell telemetry).
  std::vector<Time> enqueued_at_;
#endif
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t fingerprint_ = 0;
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
