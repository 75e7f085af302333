#include "kv/service_model.hpp"
#include "kv/quorum.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "obs/trace.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::kv {

StorageNode::StorageNode(sim::Simulator& sim, Net& net, sim::NodeId self,
                         const ServiceTimes& service, std::size_t servers,
                         Rng rng, obs::Observability* obs)
    : sim_(sim),
      net_(net),
      self_(self),
      service_(service),
      pool_(servers),
      rng_(rng) {
  if (!obs) {
    own_obs_ = std::make_unique<obs::Observability>();
    obs = own_obs_.get();
  }
  obs_ = obs;
  node_name_ = sim::to_string(self_);
  auto& reg = obs_->registry();
  const std::uint32_t i = self_.index;
  ins_.reads_served = &reg.counter(obs::instrument_name("storage", i,
                                                        "reads_served"));
  ins_.writes_applied =
      &reg.counter(obs::instrument_name("storage", i, "writes_applied"));
  ins_.writes_discarded =
      &reg.counter(obs::instrument_name("storage", i, "writes_discarded"));
  ins_.nacks_sent = &reg.counter(obs::instrument_name("storage", i,
                                                      "nacks_sent"));
  ins_.epoch_changes =
      &reg.counter(obs::instrument_name("storage", i, "epoch_changes"));
  ins_.dup_writes_ignored =
      &reg.counter(obs::instrument_name("storage", i, "dup_writes_ignored"));
  ins_.restarts = &reg.counter(obs::instrument_name("storage", i,
                                                    "restarts"));
}

StorageNodeStats StorageNode::stats() const {
  StorageNodeStats s;
  s.reads_served = ins_.reads_served->value();
  s.writes_applied = ins_.writes_applied->value();
  s.writes_discarded = ins_.writes_discarded->value();
  s.nacks_sent = ins_.nacks_sent->value();
  s.epoch_changes = ins_.epoch_changes->value();
  s.dup_writes_ignored = ins_.dup_writes_ignored->value();
  s.restarts = ins_.restarts->value();
  return s;
}

void StorageNode::on_message(const sim::NodeId& from, const Message& msg) {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
  if (crashed_) return;
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, StorageReadReq>) {
          handle_read(from, m);
        } else if constexpr (std::is_same_v<T, StorageWriteReq>) {
          handle_write(from, m);
        } else if constexpr (std::is_same_v<T, NewEpochMsg>) {
          handle_new_epoch(from, m);
        }
        // Other message kinds are not addressed to storage nodes.
      },
      msg);
}

void StorageNode::crash() {
  crashed_ = true;
  ++incarnation_;  // invalidates already-scheduled service completions
  net_.set_crashed(self_);
  // The dedup table is volatile: a retransmit arriving after restart is
  // re-applied, which the freshest-wins rule makes safe.
  applied_writes_.clear();
}

void StorageNode::restart() {
  if (!crashed_) return;
  crashed_ = false;
  net_.set_crashed(self_, false);
  ins_.restarts->inc();
}

const Version* StorageNode::peek(ObjectId oid) const {
  return store_.find(oid);
}

void StorageNode::send_nack(const sim::NodeId& to, std::uint64_t op_id) {
  ins_.nacks_sent->inc();
  net_.send(self_, to, EpochNack{op_id, config_});
}

void StorageNode::handle_read(const sim::NodeId& from,
                              const StorageReadReq& req) {
  if (req.epno < config_.epno) {
    // Operation from a stale epoch: reject without serving (Alg. 6 line 13).
    send_nack(from, req.op_id);
    return;
  }
  const Version* stored = store_.find(req.oid);
  const std::uint64_t size = stored ? stored->size_bytes : 0;
  const Time done = pool_.submit(sim_.now(), service_.read_time(size, rng_));
  if (req.span.valid()) {
    // Service interval is known up front, so the span opens and closes here
    // (no capture in the completion lambda): queueing + disk time attributed
    // to the originating op's trace.
    obs::SpanStore& spans = obs_->spans();
    const obs::SpanContext s =
        spans.open_span(req.span, obs::Phase::kStorageRead, "storage_read",
                        node_name_, sim_.now());
    spans.close_span(s, done, req.oid, self_.index);
  }
  const ObjectId oid = req.oid;
  const std::uint64_t op_id = req.op_id;
  sim_.at(done, [this, from, oid, op_id, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
    if (crashed_ || inc != incarnation_) return;
    ins_.reads_served->inc();
    StorageReadResp resp;
    resp.op_id = op_id;
    if (const Version* version = store_.find(oid)) {
      resp.found = true;
      resp.version = *version;  // cfno piggybacked inside the version
    }
    net_.send(self_, from, resp);
  });
}

StorageNode::AppliedWindow& StorageNode::applied_writes_for(
    std::uint32_t index) {
  // Grows only on the first write from a new proxy; afterwards the lookup
  // is a plain vector access.
  if (index >= applied_writes_.size()) applied_writes_.resize(index + 1);
  return applied_writes_[index];
}

void StorageNode::handle_write(const sim::NodeId& from,
                               const StorageWriteReq& req) {
  if (req.epno < config_.epno) {
    send_nack(from, req.op_id);
    return;
  }
  // At-least-once dedup (explicit, beyond timestamp idempotence): a write
  // whose apply already completed — retransmitted by the proxy or duplicated
  // by the network — is acknowledged again without re-paying service time.
  // Only *applied* ids are in the table, so the fast ack never races the
  // original apply; a copy arriving while the first is still queued goes
  // through the normal path and is discarded by the timestamp rule.
  auto& seen = applied_writes_for(from.index);
  if (seen.contains(req.op_id)) {
    ins_.dup_writes_ignored->inc();
    net_.send(self_, from, StorageWriteResp{req.op_id});
    return;
  }
  const Time done = pool_.submit(
      sim_.now(), service_.write_time(req.version.size_bytes, rng_));
  if (req.span.valid()) {
    obs::SpanStore& spans = obs_->spans();
    const obs::SpanContext s =
        spans.open_span(req.span, obs::Phase::kStorageWrite, "storage_write",
                        node_name_, sim_.now());
    spans.close_span(s, done, req.oid, self_.index);
  }
  sim_.at(done, [this, from, req, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
    if (crashed_ || inc != incarnation_) return;
    // Apply-or-discard at service completion: newer timestamps win; an older
    // write is discarded but still acknowledged (Section 2.1).
    auto [stored, inserted] = store_.try_emplace(req.oid, req.version);
    if (!inserted) {
      if (req.version.ts > stored->ts) {
        *stored = req.version;
        ins_.writes_applied->inc();
      } else if (req.version.ts == stored->ts &&
                 req.version.cfno > stored->cfno) {
        // Same write re-propagated under a newer configuration (the
        // read-repair write-back of Algorithm 4): refresh the cfno tag so
        // future reads need not repeat the historical-quorum read.
        stored->cfno = req.version.cfno;
        ins_.writes_applied->inc();
      } else {
        ins_.writes_discarded->inc();
      }
    } else {
      ins_.writes_applied->inc();
    }
    // The window is bounded; proxy op-ids grow monotonically, so evicting
    // the smallest ids loses only the oldest (least likely to re-arrive).
    applied_writes_for(from.index).insert(req.op_id);
    net_.send(self_, from, StorageWriteResp{req.op_id});
  });
}

Time StorageNode::replicate_in(ObjectId oid, const Version& version) {
  if (crashed_) return sim_.now();
  const Time done =
      pool_.submit(sim_.now(), service_.write_time(version.size_bytes, rng_));
  sim_.at(done, [this, oid, version, inc = incarnation_] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kStorage);
    if (crashed_ || inc != incarnation_) return;
    auto [stored, inserted] = store_.try_emplace(oid, version);
    if (!inserted) {
      if (version.ts > stored->ts) {
        *stored = version;
      } else if (version.ts == stored->ts && version.cfno > stored->cfno) {
        stored->cfno = version.cfno;
      }
    }
  });
  return done;
}

void StorageNode::handle_new_epoch(const sim::NodeId& from,
                                   const NewEpochMsg& msg) {
  // Future strategy encoding this node cannot decode: neither adopt nor ack
  // (acking would count toward the epoch quorum with a half-understood
  // configuration); the RM keeps retransmitting.
  if (msg.strategy_version > QuorumStrategy::kWireVersion) return;
  // Alg. 6 lines 5-10: adopt any epoch at least as recent as ours and ack.
  if (msg.config.epno >= config_.epno) {
    if (msg.config.epno > config_.epno) {
      ins_.epoch_changes->inc();
      if (obs_->tracer().enabled(obs::Category::kReconfig)) {
        obs_->tracer().record(sim_.now(), obs::Category::kReconfig,
                              "storage_epoch", node_name_, msg.config.epno,
                              msg.config.cfno);
      }
      if (msg.span.valid()) {
        // Zero-duration adoption marker under the RM's epoch-change span.
        obs::SpanStore& spans = obs_->spans();
        const obs::SpanContext s =
            spans.open_span(msg.span, obs::Phase::kStorageEpoch,
                            "storage_epoch", node_name_, sim_.now());
        spans.close_span(s, sim_.now(), msg.config.epno, msg.config.cfno);
      }
    }
    config_ = msg.config;
  }
  net_.send(self_, from, AckNewEpochMsg{msg.config.epno});
}

}  // namespace qopt::kv
