// Proxy process — Algorithms 3 (reconfiguration), 4 (read logic) and
// 5 (write logic) of the paper, extended with the per-object quorum table of
// Section 5.4 and the workload monitoring that feeds the Autonomic Manager
// (Section 4).
//
// Key behaviours:
//  * quorum reads/writes: operations are forwarded to a quorum-sized subset
//    of the object's replicas (rotated by a hash of the proxy identifier for
//    load balancing, Section 2.1) with a timeout fallback to the remaining
//    replicas;
//  * reads select the freshest returned version; if that version was written
//    under an older quorum configuration, the read is repeated with the
//    largest read quorum installed since (Algorithm 4), and the value is
//    written back under the current configuration;
//  * during a reconfiguration the proxy switches to the transition quorum
//    (component-wise max of old and new) and acknowledges the NEWQ message
//    only after draining operations issued under the old quorum;
//  * storage NACKs (stale epoch) resynchronize the proxy's full quorum state
//    and re-execute the operation in the new epoch;
//  * while an Autonomic Manager round is open (NEWROUND until its stats
//    window closes), every client operation feeds a Space-Saving top-k
//    summary, per-object profiles for the currently monitored hotspot set,
//    and the aggregate tail profile reported to the AM for that round.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/slab.hpp"
#include "topk/space_saving.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

#include <memory>
#include <string>

namespace qopt::proxy {

struct ProxyOptions {
  kv::QuorumConfig initial = kv::QuorumConfig::of(1, 1);  // overwritten by cluster wiring
  Duration fallback_timeout = milliseconds(150);
  std::size_t servers = 8;                 // proxy CPU cores
  Duration op_cost = microseconds(60);     // per-op proxy CPU time
  std::size_t topk_capacity = 128;         // Space-Saving summary size
  // Per-operation timeout/retransmit plane (at-least-once RPC; see
  // docs/ROBUSTNESS.md). After `retry_base * retry_multiplier^k` (+/- the
  // jitter fraction) with the quorum still unmet, the k-th round re-sends
  // the request — same op id, storage dedups — to every contacted replica
  // that has not answered. After `retry_budget` rounds the operation is
  // reported failed to the client. 0 disables retransmits (and with them
  // op failures: an op then waits forever, the pre-fault-plane behavior).
  int retry_budget = 6;
  Duration retry_base = milliseconds(250);
  double retry_multiplier = 2.0;
  double retry_jitter = 0.2;
};

/// Legacy aggregate view; the authoritative instruments live in the shared
/// `obs::MetricRegistry` under `proxy.<index>.*`.
struct ProxyStats {
  std::uint64_t client_reads = 0;
  std::uint64_t client_writes = 0;
  std::uint64_t not_found_reads = 0;
  std::uint64_t repair_reads = 0;   // Algorithm 4 second-phase reads
  std::uint64_t writebacks = 0;     // repaired values rewritten
  std::uint64_t nacks_received = 0;
  std::uint64_t op_retries = 0;     // re-executions after a NACK
  std::uint64_t fallbacks = 0;      // timeout fan-outs to remaining replicas
  std::uint64_t reconfigurations = 0;
  std::uint64_t retries = 0;           // timeout retransmit rounds
  std::uint64_t timeouts = 0;          // ops failed after the retry budget
  std::uint64_t duplicate_replies = 0; // replies ignored by replica dedup
  std::uint64_t restarts = 0;
};

/// Completion record surfaced to the metrics layer.
struct OpRecord {
  kv::ObjectId oid = 0;
  bool is_write = false;
  Time start = 0;
  Time end = 0;
  std::uint32_t proxy = 0;
  /// Configuration number the operation's quorum was drawn under (0 when
  /// unknown, e.g. client-side records). The intersection audit only
  /// compares operations of the same generation — across generations the
  /// protocol reasons via read_q_history and read repair, not via static
  /// intersection.
  std::uint64_t cfno = 0;
  /// Storage indices whose replies formed the quorum (sorted); feeds the
  /// consistency checker's read/write intersection audit.
  std::vector<std::uint32_t> quorum;
};

class Proxy {
 public:
  using Net = sim::Network<kv::Message>;
  using OpCallback = std::function<void(const OpRecord&)>;

  /// `obs` is the cluster-wide observability bundle; when null the proxy
  /// allocates a private one (stand-alone component tests).
  Proxy(sim::Simulator& sim, Net& net, sim::NodeId self,
        const kv::Placement& placement, const ProxyOptions& options,
        obs::Observability* obs = nullptr);

  void on_message(const sim::NodeId& from, const kv::Message& msg);

  void crash();
  /// Crash-recovery: rejoins the network after a crash. Quorum state
  /// (lepno/lcfno, default and override quorums) is durable; in-flight
  /// operations were lost with the crash. A restarted proxy left behind by
  /// an epoch change re-learns the current configuration through the first
  /// NACK it receives (Algorithm 6) before any of its operations complete.
  /// Heartbeats resume if they were enabled.
  void restart();
  bool crashed() const noexcept { return crashed_; }

  /// Invoked on every completed client operation (metrics wiring).
  void set_op_callback(OpCallback cb) { on_complete_ = std::move(cb); }

  /// Starts emitting periodic liveness beacons to `target` (the heartbeat
  /// failure-detector mode). Crashing stops the beats, as does pausing
  /// (tests use pausing to provoke organic false suspicions).
  void enable_heartbeats(sim::NodeId target, Duration interval);
  void set_heartbeats_paused(bool paused) { heartbeats_paused_ = paused; }
  /// Redirects the beats (RM leader failover); the running loop picks the
  /// new target up on its next tick.
  void set_heartbeat_target(sim::NodeId target) { hb_target_ = target; }

  // ------------------------------------------------------------ inspection
  std::uint64_t epoch() const noexcept { return lepno_; }
  std::uint64_t cfno() const noexcept { return lcfno_; }
  bool in_transition() const noexcept { return in_transition_; }
  kv::QuorumConfig default_quorum() const noexcept {
    return default_q_.footprint();
  }
  const kv::QuorumStrategy& default_strategy() const noexcept {
    return default_q_;
  }
  /// Grid footprint of the quorum used for `oid` right now (includes
  /// transition logic); the sizes legacy call sites reason about.
  kv::QuorumConfig effective_quorum(kv::ObjectId oid) const;
  /// Full strategy in force for `oid` (transition quorums while draining).
  kv::QuorumStrategy effective_strategy(kv::ObjectId oid) const;
  /// Observability bundle in use (the shared one, or the private fallback).
  obs::Observability& observability() noexcept { return *obs_; }
  const obs::Observability& observability() const noexcept { return *obs_; }
  [[deprecated("query the metric registry (proxy.<i>.*) instead")]]
  ProxyStats stats() const;
  std::size_t pending_ops() const noexcept { return ops_.size(); }
  std::size_t override_count() const noexcept { return overrides_.size(); }

 private:
  /// Ordered set of replica indices on a flat vector. Reply fan-in is a
  /// handful of replicas per operation, so a binary-searched vector beats a
  /// node-allocating tree on the per-reply hot path: the buffer is grown
  /// once per operation and reused verbatim across retransmit attempts.
  class ReplicaSet {
   public:
    /// Returns true when `v` was newly inserted (false: already present).
    bool insert(std::uint32_t v) {
      const auto it = std::lower_bound(members_.begin(), members_.end(), v);
      if (it != members_.end() && *it == v) return false;
      members_.insert(it, v);
      return true;
    }
    bool contains(std::uint32_t v) const noexcept {
      return std::binary_search(members_.begin(), members_.end(), v);
    }
    void clear() noexcept { members_.clear(); }
    void reserve(std::size_t n) { members_.reserve(n); }
    auto begin() const noexcept { return members_.begin(); }
    auto end() const noexcept { return members_.end(); }

   private:
    std::vector<std::uint32_t> members_;  // sorted ascending
  };

  struct PendingOp {
    enum class Kind { kRead, kWrite, kWriteBack };
    Kind kind = Kind::kRead;
    kv::ObjectId oid = 0;
    sim::NodeId client;            // kRead/kWrite only
    std::uint64_t client_req = 0;  // kRead/kWrite only
    std::uint64_t epno_used = 0;
    std::uint64_t cfno_used = 0;  // lcfno when the quorum was (re)drawn
    int needed = 0;    // replies required in the current phase
    int received = 0;  // replies gathered in the current phase
    /// Counting threshold: this many *distinct* replies intersect every
    /// quorum of the strategy regardless of which replicas they came from.
    /// Equals `needed` on the majority path; for an op issued under an
    /// explicit strategy it is the strategy's footprint — see quorum_met().
    int footprint_needed = 0;
    /// Node indices of the drawn explicit quorum (empty on the majority
    /// path): the fast completion set of quorum_met().
    std::vector<std::uint32_t> drawn;
    bool repair = false;
    bool any_found = false;
    kv::Version best;           // freshest version seen (reads)
    kv::Version write_version;  // payload (writes / write-backs)
    std::vector<std::uint32_t> replica_order;
    int contacted = 0;  // prefix of replica_order already contacted
    /// Replicas whose reply was counted this attempt (ordered: the
    /// retransmit path iterates it). Network-duplicated replies and replies
    /// to retransmits from an already-counted replica are dropped so a
    /// quorum is always `needed` *distinct* replicas.
    ReplicaSet replied;
    Time start_time = 0;
    bool drains = false;  // counts toward the current NEWQ drain

    // Span-layer state (all dormant when the op's trace is not sampled).
    obs::SpanContext trace_ctx;  // root span of the op's trace
    obs::SpanContext wait_span;  // current quorum-wait / repair-wait span
    // Open per-replica RPC spans as a replica-index-sorted flat vector
    // (ordered: crash teardown iterates it; empty whenever the op's trace
    // is unsampled, so the common path never allocates).
    std::vector<std::pair<std::uint32_t, obs::SpanContext>> rpc_spans;

    /// Open RPC span for `replica`, or nullptr.
    obs::SpanContext* find_rpc_span(std::uint32_t replica) {
      const auto it = std::lower_bound(
          rpc_spans.begin(), rpc_spans.end(), replica,
          [](const auto& entry, std::uint32_t r) { return entry.first < r; });
      if (it == rpc_spans.end() || it->first != replica) return nullptr;
      return &it->second;
    }
    void put_rpc_span(std::uint32_t replica, const obs::SpanContext& ctx) {
      const auto it = std::lower_bound(
          rpc_spans.begin(), rpc_spans.end(), replica,
          [](const auto& entry, std::uint32_t r) { return entry.first < r; });
      rpc_spans.insert(it, {replica, ctx});
    }
    void drop_rpc_span(std::uint32_t replica) {
      const auto it = std::lower_bound(
          rpc_spans.begin(), rpc_spans.end(), replica,
          [](const auto& entry, std::uint32_t r) { return entry.first < r; });
      if (it != rpc_spans.end() && it->first == replica) rpc_spans.erase(it);
    }
    // Timers armed for this op: the fallback of each wait phase (a repair
    // phase arms its own while the first may still be pending) and the
    // next retransmit round. All are cancelled when the op leaves ops_, so
    // a timer that fires always finds its op in flight.
    sim::EventHandle fallback_timer;
    sim::EventHandle repair_fallback_timer;
    sim::EventHandle retransmit_timer;
    Time wait_start = 0;      // current wait phase began here
    Time prev_reply_at = 0;   // second-to-last counted reply
    Time last_reply_at = 0;   // last counted reply
    std::uint32_t last_replica = 0;  // replica of the last counted reply
  };

  /// In-flight operations keyed by op id. Records live in a slab and are
  /// recycled with their vectors' capacity, so issuing an operation
  /// allocates nothing once the table is warm. Op ids are issued in
  /// increasing order, so the index is a ring of slab slots over the live id
  /// window [base_, base_ + span_); for_each() walks it in issue order (the
  /// NEWQ drain and crash teardown depend on that order).
  class OpTable {
   public:
    /// Indexes a fresh record (default state, buffers kept) under `id`,
    /// which must exceed every id inserted before.
    PendingOp& insert(std::uint64_t id);
    PendingOp* find(std::uint64_t id);
    /// Unindexes `id` (which must be present) and returns its slot; the
    /// record stays valid until release(slot), so completion code can run
    /// on it while new operations are issued.
    std::uint32_t detach(std::uint64_t id);
    void release(std::uint32_t slot) { slab_.release(slot); }
    PendingOp& record(std::uint32_t slot) { return slab_[slot]; }
    /// Moves `old_id`'s record to the fresh id `new_id` (NACK re-execution).
    void rekey(std::uint64_t old_id, std::uint64_t new_id);
    /// Calls fn(PendingOp&) for every indexed op in id order.
    template <typename Fn>
    void for_each(Fn&& fn) {
      for (std::uint64_t id = base_; id < base_ + span_; ++id) {
        const std::uint32_t slot = cell(id);
        if (slot != kNone) fn(slab_[slot]);
      }
    }
    /// Unindexes and releases every op.
    void clear();
    std::size_t size() const noexcept { return live_; }

   private:
    static constexpr std::uint32_t kNone = ~std::uint32_t{0};
    std::uint32_t& cell(std::uint64_t id) {
      return ring_[id & (ring_.size() - 1)];
    }
    void index(std::uint64_t id, std::uint32_t slot);
    void grow(std::uint64_t span);

    // Small chunks: each proxy keeps only its own in-flight ops (tens).
    sim::Slab<PendingOp, 4> slab_;
    std::vector<std::uint32_t> ring_;  // power-of-two size
    std::uint64_t base_ = 0;           // lowest id in the window
    std::uint64_t span_ = 0;           // window length
    std::size_t live_ = 0;
  };

  // ----------------------------------------------------------- client ops
  void handle_client_read(const sim::NodeId& from, const kv::ClientReadReq&);
  void handle_client_write(const sim::NodeId& from,
                           const kv::ClientWriteReq&);
  void start_read(kv::ObjectId oid, sim::NodeId client,
                  std::uint64_t client_req, Time start_time,
                  obs::SpanContext trace_ctx);
  void start_write(kv::ObjectId oid, kv::Version version, sim::NodeId client,
                   std::uint64_t client_req, Time start_time,
                   PendingOp::Kind kind, obs::SpanContext trace_ctx);
  void launch_op(std::uint64_t op_id);
  void contact_replicas(std::uint64_t op_id, PendingOp& op, int upto);
  void send_request(std::uint64_t op_id, PendingOp& op, std::uint32_t replica,
                    bool open_span);
  sim::EventHandle arm_fallback(std::uint64_t op_id);
  sim::EventHandle arm_retransmit(std::uint64_t op_id, int attempt);
  void fire_retransmit(std::uint64_t op_id, int attempt);
  /// Cancels the op's pending timers; called wherever it leaves ops_.
  void cancel_timers(PendingOp& op);
  void fail_op(std::uint64_t op_id);
  void finish_op(std::uint64_t op_id, PendingOp& op);
  /// Hands a completed op to on_complete_ through the reused completed_
  /// record (its quorum buffer keeps its capacity across ops).
  void report_completion(const PendingOp& op, bool is_write);
  /// Whether the replies in hand form a quorum: the full drawn set answered,
  /// or footprint-many distinct replicas did (counting intersection). On the
  /// majority path this is exactly the pre-strategy `received >= needed`.
  bool quorum_met(const PendingOp& op) const;

  // ------------------------------------------------------ storage replies
  void handle_read_reply(const sim::NodeId& from, const kv::StorageReadResp&);
  void handle_write_reply(const sim::NodeId& from,
                          const kv::StorageWriteResp&);
  void handle_nack(const kv::EpochNack&);
  void maybe_complete_read(std::uint64_t op_id);
  void retry_op(std::uint64_t op_id);

  // ----------------------------------------------------------- span layer
  /// Opens the op's trace + queue span at client arrival (zero context when
  /// the kind is unsampled). `ready` is when the proxy CPU picks the op up.
  obs::SpanContext begin_op_trace(obs::TraceKind kind, const char* name,
                                  Time arrival, Time ready);
  /// Notes a counted storage reply: closes the replica's RPC span and
  /// updates straggler bookkeeping.
  void note_reply(PendingOp& op, std::uint32_t replica);
  /// Closes the current wait span when its quorum is met, recording the
  /// quorum-wait and straggler-excess instruments (first phase only).
  void on_quorum_satisfied(PendingOp& op);
  /// Tears down the op's open spans (NACK retry / crash).
  void abort_op_spans(PendingOp& op, Time at);

  // -------------------------------------------------- reconfiguration path
  void handle_new_quorum(const sim::NodeId& from, const kv::NewQuorumMsg&);
  void handle_confirm(const sim::NodeId& from, const kv::ConfirmMsg&);
  void commit_pending_change();
  void adopt_full_config(const kv::FullConfig& config);
  void record_history(std::uint64_t cfno, int max_read_q);
  int max_read_q_since(std::uint64_t cfno) const;
  int current_max_read_q() const;
  void op_completed_for_drain();

  // ------------------------------------------------------------ monitoring
  void handle_new_round(const sim::NodeId& from, const kv::NewRoundMsg&);
  void handle_new_topk(const kv::NewTopKMsg&);
  void send_round_stats(const sim::NodeId& am, std::uint64_t round);
  void note_access(kv::ObjectId oid, bool is_write, std::uint64_t size);

  const kv::QuorumStrategy& base_strategy(kv::ObjectId oid) const;
  const kv::QuorumStrategy& pending_strategy(kv::ObjectId oid) const;

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  const kv::Placement& placement_;
  ProxyOptions options_;
  kv::ServicePool pool_;
  bool crashed_ = false;
  /// Bumped on every crash: CPU-queue completions scheduled before the
  /// crash carry the old incarnation, so a quick restart cannot resurrect
  /// client operations the crash should have lost.
  std::uint64_t incarnation_ = 0;
  /// Proxy-local stream for retransmit jitter (deterministic per proxy
  /// index; draws never interleave with any other component's stream).
  Rng rng_;
  /// Separate stream for drawing quorums from explicit strategies. Majority
  /// strategies never touch it (their path is the pre-strategy prefix scan),
  /// and keeping it apart from rng_ means installing an explicit strategy
  /// cannot perturb the retransmit-jitter sequence of unrelated ops.
  Rng quorum_rng_;

  // Quorum state (Algorithm 3 variables).
  std::uint64_t lepno_ = 0;
  std::uint64_t lcfno_ = 0;
  kv::QuorumStrategy default_q_;
  // Ordered: reconfiguration paths iterate the override table, and the
  // iteration order feeds protocol decisions (read-quorum history).
  std::map<kv::ObjectId, kv::QuorumStrategy> overrides_;
  bool in_transition_ = false;
  kv::QuorumChange pending_change_;
  std::uint64_t pending_cfno_ = 0;
  std::map<std::uint64_t, int> read_q_history_;  // cfno -> max read quorum

  // Drain state for the NEWQ handshake.
  bool drain_waiting_ = false;
  int drain_remaining_ = 0;
  std::uint64_t drain_epno_ = 0;
  std::uint64_t drain_cfno_ = 0;
  sim::NodeId drain_reply_to_;
  obs::SpanContext drain_span_;  // child of the RM's NEWQ span

  // In-flight operations; iteration follows issue order (see OpTable).
  OpTable ops_;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t write_seq_ = 0;

  // Monitoring state (Section 4).
  topk::SpaceSaving summary_;
  std::unordered_set<kv::ObjectId> monitored_;
  struct ObjCounters {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    double size_sum = 0;
    std::uint64_t size_count = 0;
  };
  // Ordered: per-object rows are exported verbatim into RoundStatsMsg, so
  // iteration order is part of the wire payload the AM consumes.
  std::map<kv::ObjectId, ObjCounters> monitored_stats_;
  ObjCounters tail_;
  std::uint64_t round_ops_completed_ = 0;
  double round_latency_sum_ms_ = 0;
  Time round_started_ = 0;
  std::uint64_t current_round_ = 0;
  // From NEWROUND until that round's stats timer fires. Outside it no
  // monitoring state is gathered: the next NEWROUND would discard it.
  bool round_open_ = false;

  // Heartbeat emission. The generation counter kills a stale beat loop
  // whose timer straddled a crash/restart cycle (restart starts a fresh
  // loop; without the guard both would run).
  bool heartbeats_paused_ = false;
  std::uint64_t heartbeat_seq_ = 0;
  bool hb_enabled_ = false;
  sim::NodeId hb_target_;
  Duration hb_interval_ = 0;
  std::uint64_t hb_gen_ = 0;
  void heartbeat_loop(std::uint64_t gen);

  // Observability: counters cached at construction, bumped on the hot path.
  std::unique_ptr<obs::Observability> own_obs_;  // fallback when none shared
  obs::Observability* obs_ = nullptr;
  struct Instruments {
    obs::Counter* client_reads = nullptr;
    obs::Counter* client_writes = nullptr;
    obs::Counter* not_found_reads = nullptr;
    obs::Counter* repair_reads = nullptr;
    obs::Counter* writebacks = nullptr;
    obs::Counter* nacks_received = nullptr;
    obs::Counter* op_retries = nullptr;
    obs::Counter* fallbacks = nullptr;
    obs::Counter* reconfigurations = nullptr;
    obs::Counter* retries = nullptr;            // retransmit rounds
    obs::Counter* timeouts = nullptr;           // retry budget exhausted
    obs::Counter* duplicate_replies = nullptr;  // replica-dedup drops
    obs::Counter* restarts = nullptr;
    LatencyHistogram* read_latency_ns = nullptr;
    LatencyHistogram* write_latency_ns = nullptr;
    // Span-derived latency attribution (recorded for every op, sampled or
    // not): time from fan-out to quorum, and how long the quorum-completing
    // reply trailed the previous one (the straggler tax).
    LatencyHistogram* quorum_wait_ns = nullptr;
    LatencyHistogram* straggler_excess_ns = nullptr;
  };
  Instruments ins_;
  std::string node_name_;  // cached to_string(self_) for trace events

  void trace(obs::Category category, const char* name, std::uint64_t a = 0,
             std::uint64_t b = 0);

  OpCallback on_complete_;
  OpRecord completed_;
};

}  // namespace qopt::proxy
