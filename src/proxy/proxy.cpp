#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "obs/trace.hpp"
#include "proxy/proxy.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "topk/space_saving.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <cassert>

namespace qopt::proxy {

using kv::Message;
using kv::ObjectId;
using kv::QuorumConfig;
using kv::Version;

Proxy::Proxy(sim::Simulator& sim, Net& net, sim::NodeId self,
             const kv::Placement& placement, const ProxyOptions& options,
             obs::Observability* obs)
    : sim_(sim),
      net_(net),
      self_(self),
      placement_(placement),
      options_(options),
      pool_(options.servers),
      rng_(mix64(0x70727879ULL ^ self.index)),
      quorum_rng_(mix64(0x71756F72756DULL ^ self.index)),
      default_q_(options.initial),
      summary_(options.topk_capacity) {
  read_q_history_[0] = default_q_.read_footprint();
  if (!obs) {
    own_obs_ = std::make_unique<obs::Observability>();
    obs = own_obs_.get();
  }
  obs_ = obs;
  node_name_ = sim::to_string(self_);
  auto& reg = obs_->registry();
  const std::uint32_t i = self_.index;
  ins_.client_reads = &reg.counter(obs::instrument_name("proxy", i,
                                                        "client_reads"));
  ins_.client_writes = &reg.counter(obs::instrument_name("proxy", i,
                                                         "client_writes"));
  ins_.not_found_reads =
      &reg.counter(obs::instrument_name("proxy", i, "not_found_reads"));
  ins_.repair_reads = &reg.counter(obs::instrument_name("proxy", i,
                                                        "repair_reads"));
  ins_.writebacks = &reg.counter(obs::instrument_name("proxy", i,
                                                      "writebacks"));
  ins_.nacks_received =
      &reg.counter(obs::instrument_name("proxy", i, "nacks_received"));
  ins_.op_retries = &reg.counter(obs::instrument_name("proxy", i,
                                                      "op_retries"));
  ins_.fallbacks = &reg.counter(obs::instrument_name("proxy", i,
                                                     "fallbacks"));
  ins_.reconfigurations =
      &reg.counter(obs::instrument_name("proxy", i, "reconfigurations"));
  ins_.retries = &reg.counter(obs::instrument_name("proxy", i, "retries"));
  ins_.timeouts = &reg.counter(obs::instrument_name("proxy", i, "timeouts"));
  ins_.duplicate_replies =
      &reg.counter(obs::instrument_name("proxy", i, "duplicate_replies"));
  ins_.restarts = &reg.counter(obs::instrument_name("proxy", i, "restarts"));
  ins_.read_latency_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "read_latency_ns"));
  ins_.write_latency_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "write_latency_ns"));
  ins_.quorum_wait_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "quorum_wait_ns"));
  ins_.straggler_excess_ns =
      &reg.histogram(obs::instrument_name("proxy", i, "straggler_excess_ns"));
}

ProxyStats Proxy::stats() const {
  ProxyStats s;
  s.client_reads = ins_.client_reads->value();
  s.client_writes = ins_.client_writes->value();
  s.not_found_reads = ins_.not_found_reads->value();
  s.repair_reads = ins_.repair_reads->value();
  s.writebacks = ins_.writebacks->value();
  s.nacks_received = ins_.nacks_received->value();
  s.op_retries = ins_.op_retries->value();
  s.fallbacks = ins_.fallbacks->value();
  s.reconfigurations = ins_.reconfigurations->value();
  s.retries = ins_.retries->value();
  s.timeouts = ins_.timeouts->value();
  s.duplicate_replies = ins_.duplicate_replies->value();
  s.restarts = ins_.restarts->value();
  return s;
}

void Proxy::trace(obs::Category category, const char* name, std::uint64_t a,
                  std::uint64_t b) {
  obs::Tracer& tracer = obs_->tracer();
  if (!tracer.enabled(category)) return;
  tracer.record(sim_.now(), category, name, node_name_, a, b);
}

void Proxy::crash() {
  crashed_ = true;
  ++incarnation_;  // invalidates already-scheduled CPU-queue completions
  net_.set_crashed(self_);
  // The in-flight ops die with the crash, and their timers with them. End
  // their traces so the span store's live set stays bounded; their open
  // spans are force-closed at the crash instant.
  ops_.for_each([&](PendingOp& op) {
    cancel_timers(op);
    if (op.trace_ctx.valid()) obs_->spans().end_trace(op.trace_ctx, sim_.now());
  });
  ops_.clear();
  // An unanswered NEWQ drain dies with the in-flight ops; the RM's
  // retransmitted NEWQ after restart is re-answered from scratch.
  drain_waiting_ = false;
  drain_remaining_ = 0;
  if (drain_span_.valid()) {
    obs_->spans().close_span(drain_span_, sim_.now());
    drain_span_ = obs::SpanContext{};
  }
}

void Proxy::restart() {
  if (!crashed_) return;
  crashed_ = false;
  net_.set_crashed(self_, false);
  ins_.restarts->inc();
  trace(obs::Category::kMembership, "restart");
  if (hb_enabled_) heartbeat_loop(++hb_gen_);
}

void Proxy::enable_heartbeats(sim::NodeId target, Duration interval) {
  hb_enabled_ = true;
  hb_target_ = target;
  hb_interval_ = interval;
  heartbeat_loop(++hb_gen_);
}

void Proxy::heartbeat_loop(std::uint64_t gen) {
  if (crashed_ || gen != hb_gen_) return;
  if (!heartbeats_paused_) {
    net_.send(self_, hb_target_, kv::HeartbeatMsg{++heartbeat_seq_});
  }
  sim_.after(hb_interval_, [this, gen] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    heartbeat_loop(gen);
  });
}

// ---------------------------------------------------------------- quorums

const kv::QuorumStrategy& Proxy::base_strategy(ObjectId oid) const {
  auto it = overrides_.find(oid);
  return it != overrides_.end() ? it->second : default_q_;
}

const kv::QuorumStrategy& Proxy::pending_strategy(ObjectId oid) const {
  // The strategy `oid` will have once the pending change commits.
  if (pending_change_.is_global) {
    auto it = overrides_.find(oid);
    return it != overrides_.end() ? it->second : pending_change_.global;
  }
  for (const auto& [changed_oid, q] : pending_change_.overrides) {
    if (changed_oid == oid) return q;
  }
  return base_strategy(oid);
}

kv::QuorumStrategy Proxy::effective_strategy(ObjectId oid) const {
  const kv::QuorumStrategy& base = base_strategy(oid);
  if (!in_transition_) return base;
  // While draining, ops run under the transition quorum: the component-wise
  // max of the old and new grid footprints, which intersects every quorum of
  // both strategies.
  return kv::transition(base, pending_strategy(oid));
}

QuorumConfig Proxy::effective_quorum(ObjectId oid) const {
  return effective_strategy(oid).footprint();
}

int Proxy::current_max_read_q() const {
  int max_r = default_q_.read_footprint();
  for (const auto& [oid, q] : overrides_) {
    max_r = std::max(max_r, q.read_footprint());
  }
  return max_r;
}

void Proxy::record_history(std::uint64_t cfno, int max_read_q) {
  auto [it, inserted] = read_q_history_.emplace(cfno, max_read_q);
  if (!inserted) it->second = std::max(it->second, max_read_q);
}

int Proxy::max_read_q_since(std::uint64_t cfno) const {
  // max over configurations in [cfno, lcfno_]; the map holds every installed
  // configuration this proxy knows about (gaps are filled by FullConfig
  // resynchronization).
  int max_r = 1;
  for (auto it = read_q_history_.lower_bound(cfno);
       it != read_q_history_.end(); ++it) {
    max_r = std::max(max_r, it->second);
  }
  return max_r;
}

// ------------------------------------------------------------- dispatcher

void Proxy::on_message(const sim::NodeId& from, const Message& msg) {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
  if (crashed_) return;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, kv::ClientReadReq>) {
          handle_client_read(from, m);
        } else if constexpr (std::is_same_v<T, kv::ClientWriteReq>) {
          handle_client_write(from, m);
        } else if constexpr (std::is_same_v<T, kv::StorageReadResp>) {
          handle_read_reply(from, m);
        } else if constexpr (std::is_same_v<T, kv::StorageWriteResp>) {
          handle_write_reply(from, m);
        } else if constexpr (std::is_same_v<T, kv::EpochNack>) {
          handle_nack(m);
        } else if constexpr (std::is_same_v<T, kv::NewQuorumMsg>) {
          handle_new_quorum(from, m);
        } else if constexpr (std::is_same_v<T, kv::ConfirmMsg>) {
          handle_confirm(from, m);
        } else if constexpr (std::is_same_v<T, kv::NewRoundMsg>) {
          handle_new_round(from, m);
        } else if constexpr (std::is_same_v<T, kv::NewTopKMsg>) {
          handle_new_topk(m);
        }
      },
      msg);
}

// ------------------------------------------------------- in-flight table

Proxy::PendingOp& Proxy::OpTable::insert(std::uint64_t id) {
  const std::uint32_t slot = slab_.acquire();
  PendingOp& op = slab_[slot];
  // Reset to a fresh record but keep the per-op buffers' capacity.
  PendingOp fresh;
  fresh.drawn = std::move(op.drawn);
  fresh.drawn.clear();
  fresh.replica_order = std::move(op.replica_order);
  fresh.replica_order.clear();
  fresh.replied = std::move(op.replied);
  fresh.replied.clear();
  fresh.rpc_spans = std::move(op.rpc_spans);
  fresh.rpc_spans.clear();
  op = std::move(fresh);
  index(id, slot);
  return op;
}

void Proxy::OpTable::index(std::uint64_t id, std::uint32_t slot) {
  if (span_ == 0) base_ = id;
  assert(id >= base_ + span_ && "op ids must be issued in increasing order");
  const std::uint64_t span = id - base_ + 1;
  if (span > ring_.size()) grow(span);
  for (std::uint64_t gap = base_ + span_; gap < id; ++gap) cell(gap) = kNone;
  cell(id) = slot;
  span_ = span;
  ++live_;
}

void Proxy::OpTable::grow(std::uint64_t span) {
  std::size_t size = ring_.empty() ? 64 : 2 * ring_.size();
  while (size < span) size *= 2;
  std::vector<std::uint32_t> ring(size, kNone);
  for (std::uint64_t id = base_; id < base_ + span_; ++id) {
    ring[id & (size - 1)] = cell(id);
  }
  ring_.swap(ring);
}

Proxy::PendingOp* Proxy::OpTable::find(std::uint64_t id) {
  if (id < base_ || id >= base_ + span_) return nullptr;
  const std::uint32_t slot = cell(id);
  return slot == kNone ? nullptr : &slab_[slot];
}

std::uint32_t Proxy::OpTable::detach(std::uint64_t id) {
  std::uint32_t& entry = cell(id);
  const std::uint32_t slot = entry;
  assert(id >= base_ && id < base_ + span_ && slot != kNone);
  entry = kNone;
  --live_;
  // Slide the window past completed ids at its front.
  while (span_ > 0 && cell(base_) == kNone) {
    ++base_;
    --span_;
  }
  return slot;
}

void Proxy::OpTable::rekey(std::uint64_t old_id, std::uint64_t new_id) {
  index(new_id, detach(old_id));
}

void Proxy::OpTable::clear() {
  for (std::uint64_t id = base_; id < base_ + span_; ++id) {
    if (cell(id) != kNone) slab_.release(cell(id));
  }
  span_ = 0;
  live_ = 0;
}

// --------------------------------------------------------- client entries

void Proxy::handle_client_read(const sim::NodeId& from,
                               const kv::ClientReadReq& req) {
  ins_.client_reads->inc();
  trace(obs::Category::kOp, "read_start", req.oid);
  const Time arrival = sim_.now();
  const Time ready = pool_.submit(arrival, options_.op_cost);
  const obs::SpanContext trace_ctx =
      begin_op_trace(obs::TraceKind::kRead, "read", arrival, ready);
  sim_.at(ready, [this, from, req, arrival, trace_ctx, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    if (crashed_ || inc != incarnation_) {
      obs_->spans().end_trace(trace_ctx, sim_.now());
      return;
    }
    start_read(req.oid, from, req.req_id, arrival, trace_ctx);
  });
}

void Proxy::handle_client_write(const sim::NodeId& from,
                                const kv::ClientWriteReq& req) {
  ins_.client_writes->inc();
  trace(obs::Category::kOp, "write_start", req.oid);
  const Time arrival = sim_.now();
  const Time ready = pool_.submit(arrival, options_.op_cost);
  const obs::SpanContext trace_ctx =
      begin_op_trace(obs::TraceKind::kWrite, "write", arrival, ready);
  sim_.at(ready, [this, from, req, arrival, trace_ctx, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    if (crashed_ || inc != incarnation_) {
      obs_->spans().end_trace(trace_ctx, sim_.now());
      return;
    }
    Version version;
    version.ts = kv::Timestamp{sim_.now(), self_.index, ++write_seq_};
    version.cfno = lcfno_;
    version.value = req.value;
    version.size_bytes = req.size_bytes;
    start_write(req.oid, version, from, req.req_id, arrival,
                PendingOp::Kind::kWrite, trace_ctx);
  });
}

void Proxy::start_read(ObjectId oid, sim::NodeId client,
                       std::uint64_t client_req, Time start_time,
                       obs::SpanContext trace_ctx) {
  const std::uint64_t op_id = next_op_id_++;
  PendingOp& op = ops_.insert(op_id);
  op.kind = PendingOp::Kind::kRead;
  op.oid = oid;
  op.client = client;
  op.client_req = client_req;
  op.start_time = start_time;
  op.trace_ctx = trace_ctx;
  launch_op(op_id);
}

void Proxy::start_write(ObjectId oid, Version version, sim::NodeId client,
                        std::uint64_t client_req, Time start_time,
                        PendingOp::Kind kind, obs::SpanContext trace_ctx) {
  const std::uint64_t op_id = next_op_id_++;
  PendingOp& op = ops_.insert(op_id);
  op.kind = kind;
  op.oid = oid;
  op.client = client;
  op.client_req = client_req;
  op.write_version = version;
  op.start_time = start_time;
  op.trace_ctx = trace_ctx;
  launch_op(op_id);
}

void Proxy::launch_op(std::uint64_t op_id) {
  PendingOp& op = *ops_.find(op_id);
  op.epno_used = lepno_;
  op.cfno_used = lcfno_;
  op.received = 0;
  op.contacted = 0;
  op.replied.clear();
  op.any_found = false;
  op.repair = false;
  placement_.replicas_into(op.oid, op.replica_order);
  const std::size_t n = op.replica_order.size();
  op.replied.reserve(n);
  // Outside a transition the strategy is a stored object; bind a reference
  // instead of copying its weighted-quorum tables on every operation. The
  // transition composite only exists while a change is draining.
  kv::QuorumStrategy transitional;
  if (in_transition_) transitional = effective_strategy(op.oid);
  const kv::QuorumStrategy& strategy =
      in_transition_ ? transitional : base_strategy(op.oid);
  const bool is_read = op.kind == PendingOp::Kind::kRead;
  if (strategy.is_majority()) {
    // Load balancing: rotate the replica list by a hash of the proxy
    // identifier (Section 2.1) so different proxies spread load over
    // different quorum subsets.
    std::rotate(op.replica_order.begin(),
                op.replica_order.begin() +
                    static_cast<long>(mix64(self_.index) % n),
                op.replica_order.end());
    const QuorumConfig q = strategy.footprint();
    op.needed = is_read ? q.read_q : q.write_q;
    op.footprint_needed = op.needed;
    op.drawn.clear();
  } else {
    // Explicit strategy: draw one quorum from the selection distribution and
    // contact exactly its members first; load balancing comes from the
    // optimizer's weights, not from rotation. The non-members follow in the
    // order list so the fallback/retransmit plane can still fan out if a
    // drawn member is slow or down; quorum_met() then requires either the
    // full drawn set or footprint-many distinct replies (an arbitrary
    // |drawn|-sized reply set need not intersect every write quorum).
    const kv::WeightedQuorum& drawn = is_read
                                          ? strategy.sample_read(quorum_rng_)
                                          : strategy.sample_write(quorum_rng_);
    std::vector<std::uint32_t> order;
    order.reserve(n);
    std::vector<bool> taken(n, false);
    op.drawn.clear();
    for (std::uint32_t slot : drawn.members) {
      order.push_back(op.replica_order[slot]);
      op.drawn.push_back(op.replica_order[slot]);
      taken[slot] = true;
    }
    for (std::size_t slot = 0; slot < n; ++slot) {
      if (!taken[slot]) order.push_back(op.replica_order[slot]);
    }
    op.replica_order = std::move(order);
    op.needed = static_cast<int>(drawn.members.size());
    op.footprint_needed = is_read ? strategy.read_footprint()
                                  : strategy.write_footprint();
  }
  op.wait_start = sim_.now();
  op.prev_reply_at = 0;
  op.last_reply_at = 0;
  op.last_replica = 0;
  op.wait_span =
      obs_->spans().open_span(op.trace_ctx, obs::Phase::kQuorumWait,
                              "quorum_wait", node_name_, sim_.now());
  contact_replicas(op_id, op, op.needed);
  op.fallback_timer = arm_fallback(op_id);
  op.retransmit_timer = arm_retransmit(op_id, 0);
}

bool Proxy::quorum_met(const PendingOp& op) const {
  // Counting completion: footprint-many distinct replies intersect every
  // quorum of the opposite side, and — via the rmin + wmin <= n + 1
  // invariant QuorumStrategy::valid() enforces — the reply set of any other
  // counting-completed operation as well.
  if (op.received >= op.footprint_needed) return true;
  if (op.received < op.needed) return false;
  if (op.drawn.empty()) return true;  // majority path: needed IS the quorum
  for (std::uint32_t node : op.drawn) {
    if (!op.replied.contains(node)) return false;
  }
  return true;
}

void Proxy::contact_replicas(std::uint64_t op_id, PendingOp& op, int upto) {
  const int limit =
      std::min(upto, static_cast<int>(op.replica_order.size()));
  for (; op.contacted < limit; ++op.contacted) {
    send_request(op_id, op,
                 op.replica_order[static_cast<std::size_t>(op.contacted)],
                 /*open_span=*/true);
  }
}

void Proxy::send_request(std::uint64_t op_id, PendingOp& op,
                         std::uint32_t replica, bool open_span) {
  const bool is_read = op.kind == PendingOp::Kind::kRead;
  // The RPC span travels in the request so the storage node can attribute
  // its service time to this operation; replica_order holds each replica
  // once, so the rpc_spans key is unique. A retransmit (open_span false)
  // reuses the still-open span of the first send — it is the same logical
  // RPC, retried; the kRetransmit marker records the extra round.
  obs::SpanContext rpc;
  if (op.wait_span.valid()) {
    if (const obs::SpanContext* open = op.find_rpc_span(replica)) {
      rpc = *open;
    } else if (open_span) {
      rpc = obs_->spans().open_span(
          op.wait_span,
          is_read ? obs::Phase::kReplicaRead : obs::Phase::kReplicaWrite,
          is_read ? "replica_read" : "replica_write", node_name_, sim_.now());
      if (rpc.valid()) op.put_rpc_span(replica, rpc);
    }
  }
  const sim::NodeId target = sim::storage_id(replica);
  if (is_read) {
    net_.send(self_, target,
              kv::StorageReadReq{op.oid, op_id, op.epno_used, rpc});
  } else {
    net_.send(self_, target,
              kv::StorageWriteReq{op.oid, op_id, op.epno_used,
                                  op.write_version, rpc});
  }
}

sim::EventHandle Proxy::arm_fallback(std::uint64_t op_id) {
  // "If, after a timeout period, some replies are missing, the request is
  //  sent to the remaining replicas until the desired quorum is ensured"
  // (Section 2.1). Rare path, taken mainly under storage failures.
  return sim_.after(options_.fallback_timeout, [this, op_id] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    PendingOp* found = ops_.find(op_id);
    assert(found != nullptr && !crashed_ && "cancelled with its op");
    PendingOp& op = *found;
    if (quorum_met(op)) return;
    if (op.contacted >= static_cast<int>(op.replica_order.size())) return;
    ins_.fallbacks->inc();
    trace(obs::Category::kQuorum, "fallback", op.oid);
    contact_replicas(op_id, op, static_cast<int>(op.replica_order.size()));
  });
}

sim::EventHandle Proxy::arm_retransmit(std::uint64_t op_id, int attempt) {
  // At-least-once RPC plane: after an exponentially backed-off, jittered
  // timeout the op re-sends to contacted-but-silent replicas (same op id;
  // storage dedups applied writes). Disabled by retry_budget = 0.
  if (options_.retry_budget <= 0) return {};
  double delay = static_cast<double>(options_.retry_base);
  for (int k = 0; k < attempt; ++k) delay *= options_.retry_multiplier;
  delay *= 1.0 + options_.retry_jitter * (2.0 * rng_.next_double() - 1.0);
  return sim_.after(static_cast<Duration>(delay), [this, op_id, attempt] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    fire_retransmit(op_id, attempt);
  });
}

void Proxy::fire_retransmit(std::uint64_t op_id, int attempt) {
  PendingOp* found = ops_.find(op_id);
  assert(found != nullptr && !crashed_ && "cancelled with its op");
  PendingOp& op = *found;
  if (quorum_met(op)) return;
  if (attempt >= options_.retry_budget) {
    fail_op(op_id);
    return;
  }
  ins_.retries->inc();
  trace(obs::Category::kQuorum, "retransmit", op.oid,
        static_cast<std::uint64_t>(attempt));
  if (op.trace_ctx.valid()) {
    // Zero-duration marker: retransmit rounds show up on the op's trace.
    obs::SpanStore& spans = obs_->spans();
    const obs::SpanContext marker =
        spans.open_span(op.trace_ctx, obs::Phase::kRetransmit, "retransmit",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), op.oid,
                     static_cast<std::uint64_t>(attempt));
  }
  for (int i = 0; i < op.contacted; ++i) {
    const std::uint32_t replica =
        op.replica_order[static_cast<std::size_t>(i)];
    if (op.replied.contains(replica)) continue;
    send_request(op_id, op, replica, /*open_span=*/false);
  }
  op.retransmit_timer = arm_retransmit(op_id, attempt + 1);
}

void Proxy::cancel_timers(PendingOp& op) {
  sim_.cancel(op.fallback_timer);
  sim_.cancel(op.repair_fallback_timer);
  sim_.cancel(op.retransmit_timer);
}

void Proxy::fail_op(std::uint64_t op_id) {
  const std::uint32_t slot = ops_.detach(op_id);
  PendingOp& op = ops_.record(slot);
  cancel_timers(op);
  ins_.timeouts->inc();
  trace(obs::Category::kOp, "op_failed", op.oid);
  abort_op_spans(op, sim_.now());
  if (op.trace_ctx.valid()) {
    obs::SpanStore& spans = obs_->spans();
    const obs::SpanContext marker =
        spans.open_span(op.trace_ctx, obs::Phase::kOpFailed, "op_failed",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), op.oid);
  }
  if (op.kind == PendingOp::Kind::kRead) {
    kv::ClientReadResp resp;
    resp.req_id = op.client_req;
    resp.failed = true;
    net_.send(self_, op.client, resp);
  } else if (op.kind == PendingOp::Kind::kWrite) {
    kv::ClientWriteResp resp;
    resp.req_id = op.client_req;
    resp.failed = true;
    net_.send(self_, op.client, resp);
  }
  // A failed write-back vanishes silently: the repaired value stays
  // readable through the historical-quorum path, so nothing is lost.
  if (op.trace_ctx.valid()) obs_->spans().end_trace(op.trace_ctx, sim_.now());
  // A draining op that times out still drains — otherwise a single lost
  // replica would wedge the NEWQ handshake forever.
  if (op.drains) op_completed_for_drain();
  ops_.release(slot);
}

// ------------------------------------------------------------- span layer

obs::SpanContext Proxy::begin_op_trace(obs::TraceKind kind, const char* name,
                                       Time arrival, Time ready) {
  obs::SpanStore& spans = obs_->spans();
  const obs::SpanContext trace_ctx =
      spans.start_trace(kind, name, node_name_, arrival);
  if (trace_ctx.valid()) {
    const obs::SpanContext queue = spans.open_span(
        trace_ctx, obs::Phase::kProxyQueue, "proxy_queue", node_name_,
        arrival);
    spans.close_span(queue, ready);
  }
  return trace_ctx;
}

void Proxy::note_reply(PendingOp& op, std::uint32_t replica) {
  op.prev_reply_at = op.last_reply_at;
  op.last_reply_at = sim_.now();
  op.last_replica = replica;
  if (const obs::SpanContext* rpc = op.find_rpc_span(replica)) {
    obs_->spans().close_span(*rpc, sim_.now(), op.oid, replica);
    op.drop_rpc_span(replica);
  }
}

void Proxy::on_quorum_satisfied(PendingOp& op) {
  const Time now = sim_.now();
  // Straggler tax: how long the quorum-completing reply trailed the
  // previous one. Zero when a single reply sufficed.
  const Duration excess = (op.received >= 2 && op.prev_reply_at > 0)
                              ? op.last_reply_at - op.prev_reply_at
                              : 0;
  if (!op.repair) {
    ins_.quorum_wait_ns->record(static_cast<double>(now - op.wait_start));
    ins_.straggler_excess_ns->record(static_cast<double>(excess));
  }
  if (op.wait_span.valid()) {
    obs_->spans().close_span(op.wait_span, now, op.last_replica,
                             static_cast<std::uint64_t>(excess));
    op.wait_span = obs::SpanContext{};
  }
}

void Proxy::abort_op_spans(PendingOp& op, Time at) {
  obs::SpanStore& spans = obs_->spans();
  for (const auto& [replica, ctx] : op.rpc_spans) {
    spans.close_span(ctx, at, op.oid, replica);
  }
  op.rpc_spans.clear();
  if (op.wait_span.valid()) {
    spans.close_span(op.wait_span, at);
    op.wait_span = obs::SpanContext{};
  }
}

// --------------------------------------------------------- storage replies

void Proxy::handle_read_reply(const sim::NodeId& from,
                              const kv::StorageReadResp& resp) {
  PendingOp* found = ops_.find(resp.op_id);
  if (found == nullptr) return;  // stale attempt or already completed
  PendingOp& op = *found;
  if (!op.replied.insert(from.index)) {
    // Network duplicate or retransmit answer from an already-counted
    // replica: a quorum must be `needed` *distinct* replicas.
    ins_.duplicate_replies->inc();
    return;
  }
  ++op.received;
  note_reply(op, from.index);
  if (resp.found &&
      (!op.any_found || resp.version.ts > op.best.ts ||
       (resp.version.ts == op.best.ts && resp.version.cfno > op.best.cfno))) {
    op.best = resp.version;
    op.any_found = true;
  }
  maybe_complete_read(resp.op_id);
}

void Proxy::maybe_complete_read(std::uint64_t op_id) {
  PendingOp& op = *ops_.find(op_id);
  if (!quorum_met(op)) return;

  if (!op.repair && op.any_found && op.best.cfno < lcfno_) {
    // Algorithm 4 lines 10-17: the freshest version was created under an
    // older configuration; if the replies in hand are fewer than the largest
    // read-quorum footprint installed since, re-read with that quorum to
    // guarantee intersection with the writing quorum. The guarantee actually
    // in hand is op.received distinct replies — on the explicit path
    // quorum_met() can fire with only footprint_needed <= needed of them —
    // so the skip condition counts replies, not the drawn-quorum size:
    // received >= old_r replies intersect every write quorum of the writing
    // configuration by counting.
    const int old_r = max_read_q_since(op.best.cfno);
    if (old_r > op.received) {
      on_quorum_satisfied(op);  // the first-phase quorum is in hand
      op.repair = true;
      op.needed = old_r;
      // The repair phase is a pure counting read: ANY old_r distinct
      // replicas intersect the writing configuration's write quorums.
      op.footprint_needed = old_r;
      op.drawn.clear();
      ins_.repair_reads->inc();
      trace(obs::Category::kQuorum, "read_repair", op.oid,
            static_cast<std::uint64_t>(old_r));
      // Second wait phase: the historical-quorum re-read (Algorithm 4).
      op.wait_start = sim_.now();
      op.prev_reply_at = 0;
      op.last_reply_at = 0;
      op.wait_span =
          obs_->spans().open_span(op.trace_ctx, obs::Phase::kReadRepair,
                                  "read_repair", node_name_, sim_.now());
      if (op.received < op.needed) {
        contact_replicas(op_id, op, op.needed);
        op.repair_fallback_timer = arm_fallback(op_id);
        return;
      }
      // Fallback already contacted enough replicas; complete below.
    }
  }
  on_quorum_satisfied(op);
  finish_op(op_id, op);
}

void Proxy::handle_write_reply(const sim::NodeId& from,
                               const kv::StorageWriteResp& resp) {
  PendingOp* found = ops_.find(resp.op_id);
  if (found == nullptr) return;
  PendingOp& op = *found;
  if (!op.replied.insert(from.index)) {
    ins_.duplicate_replies->inc();
    return;
  }
  ++op.received;
  note_reply(op, from.index);
  if (quorum_met(op)) {
    on_quorum_satisfied(op);
    finish_op(resp.op_id, op);
  }
}

void Proxy::handle_nack(const kv::EpochNack& nack) {
  ins_.nacks_received->inc();
  trace(obs::Category::kQuorum, "nack", nack.op_id, nack.config.epno);
  if (nack.config.epno > lepno_) adopt_full_config(nack.config);
  if (ops_.find(nack.op_id) == nullptr) return;
  retry_op(nack.op_id);
}

void Proxy::retry_op(std::uint64_t op_id) {
  // Re-execute the operation in the (newly learned) epoch. A fresh op-id
  // fences replies belonging to the aborted attempt.
  ins_.op_retries->inc();
  PendingOp& op = *ops_.find(op_id);
  cancel_timers(op);  // launch_op arms the new attempt's own
  abort_op_spans(op, sim_.now());
  if (op.trace_ctx.valid()) {
    // Zero-duration marker: the NACK aborted the attempt here; launch_op
    // opens a fresh wait span for the re-execution.
    obs::SpanStore& spans = obs_->spans();
    const obs::SpanContext marker =
        spans.open_span(op.trace_ctx, obs::Phase::kNackRetry, "nack_retry",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), op.oid);
  }
  if (op.kind != PendingOp::Kind::kRead) {
    // Re-tag the version with the configuration it is (re)written under.
    op.write_version.cfno = lcfno_;
  }
  const std::uint64_t new_id = next_op_id_++;
  ops_.rekey(op_id, new_id);
  launch_op(new_id);
}

void Proxy::finish_op(std::uint64_t op_id, PendingOp& op) {
  // Unindexed first (late replies find nothing), recycled last: the record
  // stays intact while the completion below may issue a write-back.
  const std::uint32_t slot = ops_.detach(op_id);
  cancel_timers(op);

  const bool is_read = op.kind == PendingOp::Kind::kRead;
  if (is_read) {
    kv::ClientReadResp resp;
    resp.req_id = op.client_req;
    resp.found = op.any_found;
    if (op.any_found) resp.version = op.best;
    if (!op.any_found) ins_.not_found_reads->inc();
    net_.send(self_, op.client, resp);
  } else if (op.kind == PendingOp::Kind::kWrite) {
    net_.send(self_, op.client,
              kv::ClientWriteResp{op.client_req, op.write_version.ts});
  } else {
    ins_.writebacks->inc();
    // A write-back is a completed write: surface its quorum so the
    // consistency checker's intersection audit knows which replicas now
    // hold the repaired version.
    report_completion(op, /*is_write=*/true);
  }

  if (op.kind != PendingOp::Kind::kWriteBack) {
    const Duration latency = sim_.now() - op.start_time;
    if (round_open_) {
      const std::uint64_t size =
          is_read ? (op.any_found ? op.best.size_bytes : 0)
                  : op.write_version.size_bytes;
      note_access(op.oid, !is_read, size);
      round_latency_sum_ms_ += to_millis(latency);
    }
    auto* hist = is_read ? ins_.read_latency_ns : ins_.write_latency_ns;
    hist->record(static_cast<double>(latency));
    trace(obs::Category::kOp, is_read ? "read_finish" : "write_finish",
          op.oid, static_cast<std::uint64_t>(latency));
    report_completion(op, !is_read);
  }

  // Repaired reads are written back under the current quorum so future
  // reads need not repeat the historical-quorum read (Algorithm 4 line 27;
  // the write-back is asynchronous w.r.t. the client reply).
  if (is_read && op.repair && op.any_found) {
    Version wb = op.best;
    wb.cfno = lcfno_;
    // The write-back is its own trace: it outlives the client op and has no
    // queueing phase.
    const obs::SpanContext wb_trace = obs_->spans().start_trace(
        obs::TraceKind::kWriteback, "writeback", node_name_, sim_.now());
    start_write(op.oid, wb, sim::NodeId{}, 0, sim_.now(),
                PendingOp::Kind::kWriteBack, wb_trace);
  }

  if (op.trace_ctx.valid()) obs_->spans().end_trace(op.trace_ctx, sim_.now());
  // Only ops issued before the NEWQ count toward its drain; ops launched
  // under the transition quorum must not release the ACKNEWQ early.
  if (op.drains) op_completed_for_drain();
  ops_.release(slot);
}

void Proxy::report_completion(const PendingOp& op, bool is_write) {
  if (!on_complete_) return;
  completed_.oid = op.oid;
  completed_.is_write = is_write;
  completed_.start = op.start_time;
  completed_.end = sim_.now();
  completed_.proxy = self_.index;
  completed_.cfno = op.cfno_used;
  completed_.quorum.assign(op.replied.begin(), op.replied.end());
  on_complete_(completed_);
}

// ----------------------------------------------------- reconfiguration path

void Proxy::handle_new_quorum(const sim::NodeId& from,
                              const kv::NewQuorumMsg& msg) {
  if (msg.strategy_version > kv::QuorumStrategy::kWireVersion) {
    // Future strategy encoding this proxy cannot decode: stay silent (no
    // ack) so the install cannot take effect with a half-understood payload;
    // the RM keeps retransmitting and operators see the stalled handshake.
    trace(obs::Category::kReconfig, "proxy_newq_version_skew", msg.epno,
          msg.strategy_version);
    return;
  }
  if (msg.cfno <= lcfno_) {
    if (drain_waiting_ && msg.cfno == drain_cfno_) {
      // RM retransmission of the NEWQ whose drain is still in progress:
      // acking now would defeat the drain, so stay silent — the pending
      // drain acknowledges when it completes.
      return;
    }
    // Already known (learned via a NACK resync or a retransmission); the
    // acknowledgement is still required so the RM can make progress.
    net_.send(self_, from, kv::AckNewQuorumMsg{msg.epno, msg.cfno});
    return;
  }
  if (in_transition_) {
    // The previous reconfiguration was finalized via an epoch change we did
    // not observe directly; its transition quorum dominated both old and new
    // quorums, so committing it before adopting the next change is safe.
    commit_pending_change();
  }
  ins_.reconfigurations->inc();
  trace(obs::Category::kReconfig, "proxy_newq", msg.epno, msg.cfno);
  // Drain span, parented under the RM's NEWQ phase span; a stale one (the
  // previous drain was superseded before its ops completed) is closed here.
  if (drain_span_.valid()) obs_->spans().close_span(drain_span_, sim_.now());
  drain_span_ = obs_->spans().open_span(msg.span, obs::Phase::kProxyDrain,
                                        "proxy_drain", node_name_, sim_.now());
  pending_change_ = msg.change;
  pending_cfno_ = msg.cfno;
  in_transition_ = true;
  lcfno_ = msg.cfno;
  lepno_ = std::max(lepno_, msg.epno);

  // Record the read-quorum footprint of the configuration being installed
  // (set Q of Algorithm 3/4). For per-object changes we conservatively
  // record the max read footprint across the post-change state.
  int new_max_r;
  if (pending_change_.is_global) {
    new_max_r = pending_change_.global.read_footprint();
    for (const auto& [oid, q] : overrides_) {
      new_max_r = std::max(new_max_r, q.read_footprint());
    }
  } else {
    new_max_r = default_q_.read_footprint();
    for (const auto& [oid, q] : overrides_) {
      new_max_r = std::max(new_max_r, q.read_footprint());
    }
    for (const auto& [oid, q] : pending_change_.overrides) {
      new_max_r = std::max(new_max_r, q.read_footprint());
    }
  }
  record_history(msg.cfno, new_max_r);

  // Drain: acknowledge only when every operation issued under the old
  // quorum has completed (Algorithm 3 line 14). New operations proceed
  // immediately using the transition quorum — the protocol is non-blocking.
  drain_waiting_ = true;
  drain_epno_ = msg.epno;
  drain_cfno_ = msg.cfno;
  drain_reply_to_ = from;
  drain_remaining_ = 0;
  ops_.for_each([&](PendingOp& op) {
    op.drains = true;
    ++drain_remaining_;
  });
  if (drain_remaining_ == 0) {
    drain_waiting_ = false;
    if (drain_span_.valid()) {
      obs_->spans().close_span(drain_span_, sim_.now(), drain_cfno_);
      drain_span_ = obs::SpanContext{};
    }
    net_.send(self_, from, kv::AckNewQuorumMsg{msg.epno, msg.cfno});
  }
}

void Proxy::op_completed_for_drain() {
  if (!drain_waiting_) return;
  // finish_op only calls us once per op; ops launched after NEWQ have
  // drains=false and were not counted.
  if (--drain_remaining_ <= 0) {
    drain_waiting_ = false;
    if (drain_span_.valid()) {
      obs_->spans().close_span(drain_span_, sim_.now(), drain_cfno_);
      drain_span_ = obs::SpanContext{};
    }
    net_.send(self_, drain_reply_to_,
              kv::AckNewQuorumMsg{drain_epno_, drain_cfno_});
  }
}

void Proxy::handle_confirm(const sim::NodeId& from, const kv::ConfirmMsg& msg) {
  trace(obs::Category::kReconfig, "proxy_confirm", msg.epno, msg.cfno);
  if (msg.span.valid()) {
    // Zero-duration adoption marker under the RM's CONFIRM phase span.
    obs::SpanStore& spans = obs_->spans();
    const obs::SpanContext marker =
        spans.open_span(msg.span, obs::Phase::kProxyConfirm, "proxy_confirm",
                        node_name_, sim_.now());
    spans.close_span(marker, sim_.now(), msg.epno, msg.cfno);
  }
  if (in_transition_ && msg.cfno == pending_cfno_) {
    commit_pending_change();
    lepno_ = std::max(lepno_, msg.epno);
  }
  net_.send(self_, from, kv::AckConfirmMsg{msg.epno, msg.cfno});
}

void Proxy::commit_pending_change() {
  if (pending_change_.is_global) {
    default_q_ = pending_change_.global;
  } else {
    for (const auto& [oid, q] : pending_change_.overrides) {
      overrides_[oid] = q;
    }
  }
  in_transition_ = false;
}

void Proxy::adopt_full_config(const kv::FullConfig& config) {
  trace(obs::Category::kReconfig, "proxy_resync", config.epno, config.cfno);
  lepno_ = config.epno;
  if (config.cfno >= lcfno_) {
    lcfno_ = config.cfno;
    default_q_ = config.default_q;
    overrides_.clear();
    for (const auto& [oid, q] : config.overrides) overrides_.emplace(oid, q);
    if (config.transitional) {
      // Phase-1 epoch-change payload: we now run with the transition
      // quorums; commit the pending change when the CONFIRM arrives (or
      // when a later NEWQ supersedes it).
      in_transition_ = true;
      pending_change_ = config.pending;
      pending_cfno_ = config.cfno;
    } else {
      in_transition_ = false;
    }
  }
  for (const auto& [cfno, max_r] : config.read_q_history) {
    record_history(cfno, max_r);
  }
}

// ------------------------------------------------------------- monitoring

void Proxy::note_access(ObjectId oid, bool is_write, std::uint64_t size) {
  ++round_ops_completed_;
  summary_.add(oid);
  auto update = [&](ObjCounters& counters) {
    if (is_write) {
      ++counters.writes;
    } else {
      ++counters.reads;
    }
    if (size > 0) {
      counters.size_sum += static_cast<double>(size);
      ++counters.size_count;
    }
  };
  // monitored_stats_ holds exactly the monitored_ keys (handle_new_topk
  // pre-populates them), so a single find() replaces contains + operator[]
  // and never allocates on this per-operation path.
  if (auto it = monitored_stats_.find(oid); it != monitored_stats_.end()) {
    update(it->second);
  }
  if (!overrides_.contains(oid)) update(tail_);
}

void Proxy::handle_new_round(const sim::NodeId& from,
                             const kv::NewRoundMsg& msg) {
  // Monitoring runs only while a round is open: everything note_access()
  // gathers is reset here and read only by this round's send_round_stats().
  round_open_ = true;
  current_round_ = msg.round;
  round_started_ = sim_.now();
  round_ops_completed_ = 0;
  round_latency_sum_ms_ = 0;
  summary_.clear();
  tail_ = ObjCounters{};
  for (auto& [oid, counters] : monitored_stats_) counters = ObjCounters{};
  const std::uint64_t round = msg.round;
  sim_.after(msg.window, [this, from, round] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kProxy);
    if (current_round_ != round) return;  // superseded by a newer round
    round_open_ = false;
    if (crashed_) return;
    send_round_stats(from, round);
  });
}

void Proxy::send_round_stats(const sim::NodeId& am, std::uint64_t round) {
  kv::RoundStatsMsg msg;
  msg.round = round;
  // Candidate hotspots: heaviest keys that are not already individually
  // optimized or under monitoring (they go to the AM for the *next* round).
  for (const topk::TopKEntry& entry : summary_.top(summary_.capacity())) {
    if (overrides_.contains(entry.key) || monitored_.contains(entry.key)) {
      continue;
    }
    msg.topk.push_back(kv::TopKReport{entry.key, entry.count, entry.error});
  }
  for (const auto& [oid, counters] : monitored_stats_) {
    kv::ObjectStats object_stats;
    object_stats.oid = oid;
    object_stats.reads = counters.reads;
    object_stats.writes = counters.writes;
    object_stats.avg_size_bytes =
        counters.size_count
            ? counters.size_sum / static_cast<double>(counters.size_count)
            : 0.0;
    msg.stats_topk.push_back(object_stats);
  }
  msg.stats_tail.reads = tail_.reads;
  msg.stats_tail.writes = tail_.writes;
  msg.stats_tail.avg_size_bytes =
      tail_.size_count
          ? tail_.size_sum / static_cast<double>(tail_.size_count)
          : 0.0;
  const double window_s = to_seconds(sim_.now() - round_started_);
  msg.throughput_ops =
      window_s > 0 ? static_cast<double>(round_ops_completed_) / window_s
                   : 0.0;
  msg.avg_latency_ms =
      round_ops_completed_
          ? round_latency_sum_ms_ / static_cast<double>(round_ops_completed_)
          : 0.0;
  net_.send(self_, am, msg);
}

void Proxy::handle_new_topk(const kv::NewTopKMsg& msg) {
  monitored_.clear();
  monitored_stats_.clear();
  for (ObjectId oid : msg.monitored) {
    monitored_.insert(oid);
    monitored_stats_.emplace(oid, ObjCounters{});
  }
}

}  // namespace qopt::proxy
