// Simulated message-passing network.
//
// Models the paper's system assumptions (Section 3) — reliable channels with
// FIFO ordering per sender/receiver pair on an asynchronous system — plus an
// optional deterministic *link-fault plane* that deliberately departs from
// them (see docs/ROBUSTNESS.md): per-message drop probability, delay spikes,
// duplicate delivery, and one-way or symmetric partitions between node sets.
// Every fault is drawn from the network's seeded RNG (same seed, same
// faults) and counted under its own reason in NetworkStats / the registry.
// With the fault plane disabled (all probabilities zero, no partitions) the
// RNG stream is untouched, so baseline runs stay byte-identical.
//
// The class is a template over the message type so that the kernel stays
// independent of the Q-OPT wire protocol.
//
// The per-message path is flat: send() moves the message into a recycled
// in-flight slab slot and schedules a delivery event that captures only
// (network, slot); node state lives in dense per-kind vectors and the FIFO
// clamp in an open-addressing link table.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/ids.hpp"
#include "sim/link_table.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::sim {

namespace detail {
/// Detects std::variant message types so the profiler can count deliveries
/// per alternative (non-variant payloads skip the per-type table).
template <typename T>
inline constexpr bool is_variant_v = false;
template <typename... Ts>
inline constexpr bool is_variant_v<std::variant<Ts...>> = true;
}  // namespace detail

/// One-way link latency: base + uniform jitter in [0, jitter).
struct LatencyModel {
  Duration base = microseconds(300);   // LAN one-way incl. kernel/HTTP stack
  Duration jitter = microseconds(500);

  Duration sample(Rng& rng) const {
    const Duration j =
        jitter > 0 ? static_cast<Duration>(rng.next_below(
                         static_cast<std::uint64_t>(jitter)))
                   : 0;
    return base + j;
  }
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;  // total = sum of the reasons below
  // Drop reasons (each drop is counted exactly once):
  std::uint64_t dropped_sender_crashed = 0;    // refused at send time
  std::uint64_t dropped_receiver_crashed = 0;  // in flight, receiver dead
  std::uint64_t dropped_unroutable = 0;  // unregistered target / no handler
  std::uint64_t dropped_link_loss = 0;   // fault plane: random loss
  std::uint64_t dropped_partitioned = 0;  // fault plane: blocked direction
  // Fault-plane extras (not drops):
  std::uint64_t duplicates_delivered = 0;  // extra copies handed to receivers
  std::uint64_t delay_spikes = 0;          // messages given the spike extra
};

template <typename M>
class Network {
 public:
  using Handler = std::function<void(const NodeId& from, const M& msg)>;

  Network(Simulator& sim, LatencyModel latency, Rng rng)
      : sim_(sim), latency_(latency), rng_(rng) {}

  /// Registers (or re-registers, replacing the handler and clearing the
  /// crash flag) a node. Not from inside a message handler: the per-kind
  /// table is dense and may reallocate under the handler being invoked.
  void register_node(const NodeId& id, Handler handler) {
    std::vector<NodeState>& kind = nodes_.at(static_cast<std::size_t>(id.kind));
    if (id.index >= kind.size()) kind.resize(std::size_t{id.index} + 1);
    kind[id.index] = NodeState{std::move(handler), /*registered=*/true,
                               /*crashed=*/false};
  }

  /// A crashed node neither sends nor receives; messages already in flight
  /// to it are dropped at delivery time. Pass false to model a recovery
  /// (crash-recovery nodes re-attach with their durable state).
  void set_crashed(const NodeId& id, bool crashed = true) {
    if (NodeState* node = find_node(id)) node->crashed = crashed;
  }

  bool is_crashed(const NodeId& id) const {
    const NodeState* node = find_node(id);
    return node != nullptr && node->crashed;
  }

  // ------------------------------------------------------ link-fault plane

  /// Per-message drop probability in [0, 1): each non-refused send is lost
  /// with this probability (counted as dropped_link_loss).
  void set_loss(double p) { loss_ = clamp_probability(p); }
  double loss() const noexcept { return loss_; }

  /// Per-message duplication probability in [0, 1): the receiver gets a
  /// second copy, delivered after an independent latency draw (still FIFO
  /// per link).
  void set_duplication(double p) { duplication_ = clamp_probability(p); }

  /// With probability `p`, a message's latency grows by `extra` (tail-delay
  /// bursts; exercises timeout/retransmit paths without losing messages).
  void set_delay_spike(double p, Duration extra) {
    delay_spike_p_ = clamp_probability(p);
    delay_spike_ = extra;
  }

  /// Installs a partition blocking traffic from set `a` to set `b` (and from
  /// `b` to `a` when symmetric). In-flight messages crossing the cut are
  /// dropped at delivery time, like messages to a crashed receiver. Returns
  /// a handle for heal_partition(). Partitions stack; a message is blocked
  /// if any active partition blocks its direction.
  std::uint64_t add_partition(std::vector<NodeId> a, std::vector<NodeId> b,
                              bool symmetric = true) {
    Partition p;
    p.id = next_partition_id_++;
    p.a = std::move(a);
    p.b = std::move(b);
    p.symmetric = symmetric;
    std::sort(p.a.begin(), p.a.end());
    std::sort(p.b.begin(), p.b.end());
    // qopt-perf: allow(vector-growth-hot) fault-script control plane, not per-message
    partitions_.push_back(std::move(p));
    return partitions_.back().id;
  }

  /// Heals one partition; returns false when the handle is unknown
  /// (already healed).
  bool heal_partition(std::uint64_t id) {
    for (auto it = partitions_.begin(); it != partitions_.end(); ++it) {
      if (it->id == id) {
        partitions_.erase(it);
        return true;
      }
    }
    return false;
  }

  void heal_all_partitions() { partitions_.clear(); }
  std::size_t active_partitions() const noexcept { return partitions_.size(); }

  /// True when any active partition blocks from -> to.
  bool partitioned(const NodeId& from, const NodeId& to) const {
    for (const Partition& p : partitions_) {
      if (p.blocks(from, to)) return true;
    }
    return false;
  }

  /// Optional observer invoked for every send (message accounting in
  /// benches/tests; not part of the simulated system).
  using SendTap = std::function<void(const NodeId& from, const NodeId& to)>;
  void set_send_tap(SendTap tap) { tap_ = std::move(tap); }

  /// Mirror message accounting into a shared registry (instruments under
  /// `net.*`) and emit kNet drop traces. The internal NetworkStats stays
  /// authoritative so the template works standalone without an obs bundle.
  void bind_observability(obs::Observability* o) {
    obs_ = o;
    if (!obs_) {
      sent_ = delivered_ = drop_sender_ = drop_receiver_ = drop_unroutable_ =
          drop_loss_ = drop_partition_ = duplicated_ = nullptr;
      return;
    }
    auto& reg = obs_->registry();
    sent_ = &reg.counter("net.messages_sent");
    delivered_ = &reg.counter("net.messages_delivered");
    drop_sender_ = &reg.counter("net.dropped.sender_crashed");
    drop_receiver_ = &reg.counter("net.dropped.receiver_crashed");
    drop_unroutable_ = &reg.counter("net.dropped.unroutable");
    drop_loss_ = &reg.counter("net.dropped.link_loss");
    drop_partition_ = &reg.counter("net.dropped.partitioned");
    duplicated_ = &reg.counter("net.duplicated");
  }

  void send(const NodeId& from, const NodeId& to, M msg) {
    ++stats_.messages_sent;
    if (sent_) sent_->inc();
    if (tap_) tap_(from, to);
    if (is_crashed(from)) {
      ++stats_.messages_dropped;
      ++stats_.dropped_sender_crashed;
      if (drop_sender_) drop_sender_->inc();
      trace_drop("drop_sender_crashed", from, to);
      return;
    }
    // Fault-plane decisions happen at send time, in a fixed order, and only
    // when the corresponding fault is enabled — so a disabled plane consumes
    // no RNG and the baseline schedule is unchanged.
    if (loss_ > 0 && rng_.chance(loss_)) {
      ++stats_.messages_dropped;
      ++stats_.dropped_link_loss;
      if (drop_loss_) drop_loss_->inc();
      trace_drop("drop_link_loss", from, to);
      return;
    }
    Duration lat = latency_.sample(rng_);
    if (delay_spike_p_ > 0 && rng_.chance(delay_spike_p_)) {
      ++stats_.delay_spikes;
      lat += delay_spike_;
    }
    const std::uint32_t slot = schedule_delivery(from, to, lat);
    inflight_[slot].msg = std::move(msg);
    if (duplication_ > 0 && rng_.chance(duplication_)) {
      // The duplicate takes its own latency draw: it may arrive well after
      // the original (receivers must be idempotent), though never before it
      // on the same link thanks to the FIFO clamp.
      const std::uint32_t dup =
          schedule_delivery(from, to, lat + latency_.sample(rng_),
                            /*duplicate=*/true);
      inflight_[dup].msg = inflight_[slot].msg;
    }
  }

  template <typename Range>
  void broadcast(const NodeId& from, const Range& targets, const M& msg) {
    for (const NodeId& to : targets) send(from, to, msg);
  }

  const NetworkStats& stats() const noexcept { return stats_; }

 private:
  struct NodeState {
    Handler handler;
    bool registered = false;
    bool crashed = false;
  };

  /// A message between send() and its delivery event.
  struct InFlight {
    M msg{};
    NodeId from;
    NodeId to;
    bool duplicate = false;
  };

  static constexpr std::size_t kNodeKinds =
      static_cast<std::size_t>(NodeKind::kAutonomicManager) + 1;

  struct Partition {
    std::uint64_t id = 0;
    std::vector<NodeId> a;  // sorted
    std::vector<NodeId> b;  // sorted
    bool symmetric = true;

    static bool contains(const std::vector<NodeId>& set, const NodeId& id) {
      return std::binary_search(set.begin(), set.end(), id);
    }
    bool blocks(const NodeId& from, const NodeId& to) const {
      if (contains(a, from) && contains(b, to)) return true;
      return symmetric && contains(b, from) && contains(a, to);
    }
  };

  static double clamp_probability(double p) {
    return std::clamp(p, 0.0, 1.0);
  }

  NodeState* find_node(const NodeId& id) {
    const auto kind = static_cast<std::size_t>(id.kind);
    if (kind >= kNodeKinds || id.index >= nodes_[kind].size()) return nullptr;
    NodeState& node = nodes_[kind][id.index];
    return node.registered ? &node : nullptr;
  }
  const NodeState* find_node(const NodeId& id) const {
    return const_cast<Network*>(this)->find_node(id);
  }

  /// Claims an in-flight slot for a from -> to message and schedules its
  /// delivery; the caller stores the message in the returned slot.
  std::uint32_t schedule_delivery(const NodeId& from, const NodeId& to,
                                  Duration lat, bool duplicate = false) {
    // FIFO per ordered pair: clamp the delivery instant to strictly after
    // the previous delivery on this link.
    Time deliver_at = sim_.now() + lat;
    Time& last = last_delivery_.last_delivery(from, to);
    if (deliver_at <= last) {
      deliver_at = last + 1;
#if QOPT_PROFILE_ENABLED
      // Clamp churn feeds the queue-telemetry section: heavy clamping means
      // the latency model is finer than the link's message rate.
      if (obs_ && obs_->profiler().enabled()) {
        obs_->profiler().note_fifo_clamp();
      }
#endif
    }
    last = deliver_at;
    const std::uint32_t slot = inflight_.acquire();
    InFlight& flight = inflight_[slot];
    flight.from = from;
    flight.to = to;
    flight.duplicate = duplicate;
    sim_.at(deliver_at, [this, slot] { deliver(slot); });
    return slot;
  }

  void deliver(std::uint32_t slot) {
    // The slab keeps the slot's address stable while the handler runs (it
    // may send further messages); the slot is recycled afterwards.
    dispatch(inflight_[slot]);
    inflight_.release(slot);
  }

  void dispatch(const InFlight& flight) {
    const NodeId& from = flight.from;
    const NodeId& to = flight.to;
    const M& msg = flight.msg;
#if QOPT_PROFILE_ENABLED
    // Claim the event for the network layer; the component handler invoked
    // below overrides the claim with its own subsystem (last claim wins),
    // leaving kNet charged for drops and the delivery machinery itself.
    obs::EngineProfiler* prof =
        obs_ != nullptr ? &obs_->profiler() : nullptr;
    if (prof != nullptr && prof->enabled()) {
      prof->enter(obs::ProfSubsystem::kNet);
    } else {
      prof = nullptr;
    }
#endif
    NodeState* node = find_node(to);
    if (node == nullptr || !node->handler) {
      ++stats_.messages_dropped;
      ++stats_.dropped_unroutable;
      if (drop_unroutable_) drop_unroutable_->inc();
      trace_drop("drop_unroutable", from, to);
      return;
    }
    if (node->crashed) {
      ++stats_.messages_dropped;
      ++stats_.dropped_receiver_crashed;
      if (drop_receiver_) drop_receiver_->inc();
      trace_drop("drop_receiver_crashed", from, to);
      return;
    }
    // Partitions cut in-flight traffic too, so the check runs at delivery
    // time: a message sent before the partition and arriving during it is
    // lost, exactly like one addressed to a crashed receiver.
    if (!partitions_.empty() && partitioned(from, to)) {
      ++stats_.messages_dropped;
      ++stats_.dropped_partitioned;
      if (drop_partition_) drop_partition_->inc();
      trace_drop("drop_partitioned", from, to);
      return;
    }
    ++stats_.messages_delivered;
    if (delivered_) delivered_->inc();
    if (flight.duplicate) {
      ++stats_.duplicates_delivered;
      if (duplicated_) duplicated_->inc();
    }
#if QOPT_PROFILE_ENABLED
    if (prof != nullptr) {
      if constexpr (detail::is_variant_v<M>) {
        prof->count_message(msg.index());
      }
    }
#endif
    node->handler(from, msg);
  }

  void trace_drop(const char* name, const NodeId& from, const NodeId& to) {
    if (!obs_ || !obs_->tracer().enabled(obs::Category::kNet)) return;
    obs_->tracer().record(sim_.now(), obs::Category::kNet, name,
                          to_string(from), 0, 0, to_string(to));
  }

  Simulator& sim_;
  LatencyModel latency_;
  Rng rng_;
  // Dense per-kind node tables indexed by NodeId::index; `registered`
  // tells a hole from a node.
  std::array<std::vector<NodeState>, kNodeKinds> nodes_;
  LinkTable last_delivery_;
  Slab<InFlight> inflight_;
  NetworkStats stats_;
  SendTap tap_;
  double loss_ = 0.0;
  double duplication_ = 0.0;
  double delay_spike_p_ = 0.0;
  Duration delay_spike_ = 0;
  // Active partitions, in install order (decision paths iterate this, so it
  // must be an ordered container).
  std::vector<Partition> partitions_;
  std::uint64_t next_partition_id_ = 1;
  obs::Observability* obs_ = nullptr;
  obs::Counter* sent_ = nullptr;
  obs::Counter* delivered_ = nullptr;
  obs::Counter* drop_sender_ = nullptr;
  obs::Counter* drop_receiver_ = nullptr;
  obs::Counter* drop_unroutable_ = nullptr;
  obs::Counter* drop_loss_ = nullptr;
  obs::Counter* drop_partition_ = nullptr;
  obs::Counter* duplicated_ = nullptr;
};

}  // namespace qopt::sim
