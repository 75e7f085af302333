#include "core/client.hpp"
#include "core/consistency.hpp"
#include "core/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "kv/wire.hpp"
#include "proxy/proxy.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt {

Client::Client(sim::Simulator& sim, Net& net, sim::NodeId self,
               sim::NodeId proxy, Rng rng, Metrics* metrics,
               ConsistencyChecker* checker, Duration think_time,
               std::uint32_t num_proxies, Duration retry_timeout)
    : sim_(sim),
      net_(net),
      self_(self),
      proxy_(proxy),
      rng_(rng),
      metrics_(metrics),
      checker_(checker),
      think_time_(think_time),
      num_proxies_(num_proxies ? num_proxies : 1),
      retry_timeout_(retry_timeout) {}

void Client::start() {
  if (running_ || !source_) return;
  running_ = true;
  if (!op_in_flight_) issue_next();
}

void Client::issue_next() {
  if (!running_) return;
  pending_op_ = source_->next(rng_, sim_.now());
  issued_at_ = sim_.now();
  op_in_flight_ = true;
  send_pending();
}

void Client::send_pending() {
  pending_req_ = next_req_++;
  if (pending_op_.is_write) {
    // Unique opaque value token: (client id, sequence).
    const std::uint64_t value =
        (static_cast<std::uint64_t>(self_.index) << 40) | ++value_seq_;
    net_.send(self_, proxy_,
              kv::ClientWriteReq{pending_op_.oid, pending_req_, value,
                                 pending_op_.size_bytes});
  } else {
    if (checker_) read_snapshot_ = checker_->snapshot(pending_op_.oid);
    net_.send(self_, proxy_,
              kv::ClientReadReq{pending_op_.oid, pending_req_});
  }
  arm_retry();
}

void Client::arm_retry() {
  if (retry_timeout_ <= 0 || num_proxies_ < 2) return;
  const std::uint64_t req = pending_req_;
  retry_timer_ = sim_.after(retry_timeout_, [this, req] {
    QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kClient);
    if (!op_in_flight_ || pending_req_ != req) return;
    // Unanswered: fail over to the next proxy and re-issue. A late reply to
    // the abandoned request id is ignored by the dispatch check.
    ++retries_;
    proxy_ = sim::proxy_id((proxy_.index + 1) % num_proxies_);
    send_pending();
  });
}

void Client::on_message(const sim::NodeId& /*from*/, const kv::Message& msg) {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kClient);
  if (const auto* read = std::get_if<kv::ClientReadResp>(&msg)) {
    handle_read_resp(*read);
  } else if (const auto* write = std::get_if<kv::ClientWriteResp>(&msg)) {
    handle_write_resp(*write);
  }
}

void Client::handle_read_resp(const kv::ClientReadResp& read) {
  // Request-id fencing doubles as at-least-once dedup: a duplicated reply,
  // or a late reply to a request abandoned by the proxy-failover retry,
  // carries a req_id != pending_req_ and is dropped here.
  if (!op_in_flight_ || read.req_id != pending_req_) return;
  if (checker_ && !read.failed) {
    checker_->read_completed(pending_op_.oid, issued_at_, sim_.now(),
                             read.found, read.version.ts, read_snapshot_);
    if (read.found) {
      checker_->observe(self_.index, pending_op_.oid, read.version.ts);
    }
  }
  complete_op(read.failed);
}

void Client::handle_write_resp(const kv::ClientWriteResp& write) {
  if (!op_in_flight_ || write.req_id != pending_req_) return;
  // A failed write is indeterminate (it may have reached some replicas);
  // the checker only lower-bounds the store by *completed* writes, so
  // skipping it is safe either way.
  if (checker_ && !write.failed) {
    checker_->write_completed(pending_op_.oid, write.ts);
    checker_->observe(self_.index, pending_op_.oid, write.ts);
  }
  complete_op(write.failed);
}

void Client::complete_op(bool failed) {
  op_in_flight_ = false;
  sim_.cancel(retry_timer_);  // answered: no failover
  if (failed) {
    // Reported-failed after the proxy's retry budget: not a completion, so
    // neither the latency metrics nor the checker see it; the closed loop
    // moves on to the next operation.
    ++failures_;
    if (!running_) return;
    if (think_time_ > 0) {
      sim_.after(think_time_, [this] {
        QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kClient);
        if (running_ && !op_in_flight_) issue_next();
      });
    } else {
      issue_next();
    }
    return;
  }
  ++ops_completed_;
  if (metrics_) {
    // Clients never learn the serving replica set; an empty quorum opts the
    // record out of the intersection audit.
    metrics_->record(proxy::OpRecord{pending_op_.oid, pending_op_.is_write,
                                     issued_at_, sim_.now(), proxy_.index, 0,
                                     {}});
  }
  if (!running_) return;
  if (think_time_ > 0) {
    sim_.after(think_time_, [this] {
      QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kClient);
      if (running_ && !op_in_flight_) issue_next();
    });
  } else {
    issue_next();
  }
}

}  // namespace qopt
