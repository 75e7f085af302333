#include "kv/placement.hpp"
#include "kv/replicator.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "obs/obs.hpp"
#include "obs/profiler.hpp"
#include "obs/span.hpp"
#include "obs/span_store.hpp"
#include "sim/ids.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace qopt::kv {

namespace {

/// Strict (ts, cfno) order: `a` is older than `b`.
bool older(const Version& a, const Version& b) {
  return a.ts < b.ts || (a.ts == b.ts && a.cfno < b.cfno);
}

}  // namespace

Replicator::Replicator(sim::Simulator& sim, const Placement& placement,
                       std::vector<StorageNode*> nodes,
                       const ReplicatorOptions& options,
                       obs::Observability* obs)
    : sim_(sim), placement_(placement), nodes_(std::move(nodes)),
      options_(options), obs_(obs), catalog_counts_(nodes_.size(), 0) {
  if (nodes_.empty()) throw std::invalid_argument("Replicator: no nodes");
}

void Replicator::start() {
  if (running_) return;
  running_ = true;
  tick_ = sim_.after(options_.interval, [this] { sweep(); });
}

void Replicator::stop() noexcept {
  running_ = false;
  sim_.cancel(tick_);
}

void Replicator::refresh_catalog() {
  // Stores only grow (StorageNode never erases), so equal counts mean equal
  // key sets and the catalog is still exact.
  bool changed = false;
  std::size_t total = 0;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const std::size_t count = nodes_[n]->object_count();
    assert(count >= catalog_counts_[n] && "a node's store shrank");
    changed = changed || count != catalog_counts_[n];
    catalog_counts_[n] = count;
    total += count;
  }
  if (!changed) return;

  // Crashed nodes too: their stores survive, and the sweep filters by
  // liveness at pass time.
  catalog_.clear();
  catalog_.reserve(total);
  ObjectId key_bits = 0;  // OR of every oid: its top byte bounds the passes
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    const auto node = static_cast<std::uint32_t>(n);
    nodes_[n]->for_each_version([&](ObjectId oid, const Version&) {
      catalog_.push_back({oid, node});
      key_bits |= oid;
    });
  }
  // Stable LSD radix sort on the oid's bytes. Holdings were appended in
  // node order, and every pass is stable, so ties stay in node order.
  radix_scratch_.resize(catalog_.size());
  for (unsigned shift = 0; shift < 64 && (key_bits >> shift) != 0;
       shift += 8) {
    std::array<std::size_t, 256> next{};
    for (const Holding& h : catalog_) ++next[(h.oid >> shift) & 0xff];
    std::size_t offset = 0;
    for (std::size_t& slot : next) offset += std::exchange(slot, offset);
    for (const Holding& h : catalog_) {
      radix_scratch_[next[(h.oid >> shift) & 0xff]++] = h;
    }
    catalog_.swap(radix_scratch_);
  }
}

void Replicator::sweep() {
  QOPT_PROFILE_SCOPE(obs_, obs::ProfSubsystem::kReplicator);
  ++stats_.sweeps;
  refresh_catalog();

  // One trace per sweep; each repair push is a child span covering the
  // write service time it induces on the receiving node.
  const obs::SpanContext sweep_trace =
      obs_ ? obs_->spans().start_trace(obs::TraceKind::kAntiEntropy,
                                       "anti_entropy_sweep", "replicator",
                                       sim_.now())
           : obs::SpanContext{};
  Time sweep_end = sim_.now();

  // Walk the catalog in ascending oid (the daemon's hash comparison pass).
  // The repair loop is throttled by max_repairs_per_sweep, so *which*
  // objects get repaired this sweep depends on this order. Per oid, the
  // freshest version among the live holders wins; ties go to the lowest
  // node index. Holders outside the oid's placement count too.
  std::size_t repairs = 0;
  for (std::size_t i = 0; i < catalog_.size();) {
    const ObjectId oid = catalog_[i].oid;
    const Version* freshest = nullptr;
    for (; i < catalog_.size() && catalog_[i].oid == oid; ++i) {
      const StorageNode* holder = nodes_[catalog_[i].node];
      if (holder->crashed()) continue;
      const Version* held = holder->peek(oid);
      assert(held != nullptr);
      if (!freshest || older(*freshest, *held)) freshest = held;
    }
    if (!freshest) continue;  // no live holder: nothing to compare
    ++stats_.objects_checked;
    if (repairs >= options_.max_repairs_per_sweep) break;
    const Version version = *freshest;

    // Push the freshest version to stale or missing replicas.
    placement_.replicas_into(oid, replica_scratch_);
    for (std::uint32_t replica : replica_scratch_) {
      StorageNode* node = nodes_[replica];
      if (node->crashed()) continue;
      const Version* held = node->peek(oid);
      if (!held || older(*held, version)) {
        obs::SpanContext push;
        if (sweep_trace.valid()) {
          push = obs_->spans().open_span(
              sweep_trace, obs::Phase::kRepairPush, "repair_push",
              sim::to_string(sim::storage_id(replica)), sim_.now());
        }
        const Time done = node->replicate_in(oid, version);
        if (push.valid()) {
          obs_->spans().close_span(push, done, oid, replica);
        }
        sweep_end = std::max(sweep_end, done);
        ++repairs;
        ++stats_.repairs_pushed;
      }
    }
  }

  if (sweep_trace.valid()) obs_->spans().end_trace(sweep_trace, sweep_end);

  tick_ = sim_.after(options_.interval, [this] { sweep(); });
}

}  // namespace qopt::kv
