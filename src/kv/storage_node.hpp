// Storage node process — Algorithm 6 of the paper.
//
// Responsibilities:
//  * serve quorum reads/writes from proxies, applying the classic
//    discard-older-writes rule (Section 2.1);
//  * tag versions with the configuration number under which they were
//    written and piggyback it on read replies (read-repair support);
//  * maintain the epoch number installed by the Reconfiguration Manager and
//    NACK any operation issued in an older epoch, returning the full current
//    configuration (Algorithm 6, lines 11-13);
//  * model service times: operations queue on a finite server pool with
//    disk-bound writes.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/flat_table.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::kv {

/// Legacy aggregate view; the authoritative instruments live in the shared
/// `obs::MetricRegistry` under `storage.<index>.*`.
struct StorageNodeStats {
  std::uint64_t reads_served = 0;
  std::uint64_t writes_applied = 0;
  std::uint64_t writes_discarded = 0;  // older than the stored version
  std::uint64_t nacks_sent = 0;
  std::uint64_t epoch_changes = 0;
  std::uint64_t dup_writes_ignored = 0;  // dedup hits (retransmit/dup)
  std::uint64_t restarts = 0;
};

class StorageNode {
 public:
  using Net = sim::Network<Message>;

  /// `obs` is the cluster-wide observability bundle; when null the node
  /// allocates a private one (stand-alone component tests).
  StorageNode(sim::Simulator& sim, Net& net, sim::NodeId self,
              const ServiceTimes& service, std::size_t servers, Rng rng,
              obs::Observability* obs = nullptr);

  /// Network message entry point (registered with the network by the
  /// cluster wiring).
  void on_message(const sim::NodeId& from, const Message& msg);

  void crash();
  /// Crash-recovery: rejoins the network with its durable state (store and
  /// installed epoch survive; in-flight requests and the dedup table do
  /// not). If the node's epoch went stale while it was down, the first
  /// operation it NACKs resynchronizes the issuing proxy (Algorithm 6).
  void restart();
  bool crashed() const noexcept { return crashed_; }

  std::uint64_t epoch() const noexcept { return config_.epno; }
  const FullConfig& config() const noexcept { return config_; }
  /// Observability bundle in use (the shared one, or the private fallback).
  obs::Observability& observability() noexcept { return *obs_; }
  const obs::Observability& observability() const noexcept { return *obs_; }
  [[deprecated("query the metric registry (storage.<i>.*) instead")]]
  StorageNodeStats stats() const;
  const ServicePool& service_pool() const noexcept { return pool_; }

  /// Number of distinct objects stored (tests/diagnostics).
  std::size_t object_count() const noexcept { return store_.size(); }

  /// Direct store inspection for tests; returns nullptr when absent.
  const Version* peek(ObjectId oid) const;

  /// Sizes the store for `objects` entries in total, so a bulk load of
  /// that many never rehashes.
  void reserve(std::size_t objects) { store_.reserve(objects); }

  /// Installs a version directly, bypassing the protocol (bulk load phase).
  void preload(ObjectId oid, const Version& version) {
    *store_.try_emplace(oid, version).first = version;
  }

  /// Full store contents as an oid-ordered snapshot (diagnostics/tests).
  /// The live store is a hash table for the hot path; exposing it directly
  /// would leak its slot order.
  std::map<ObjectId, Version> sorted_contents() const {
    std::map<ObjectId, Version> out;
    store_.for_each([&out](ObjectId oid, const Version& version) {
      out.emplace(oid, version);
    });
    return out;
  }

  /// Visits every stored (oid, version) pair without materializing a
  /// snapshot (anti-entropy sweeps). Iteration order is the hash table's
  /// slot order, so callers deriving schedules from it must sort what they
  /// collect (the replicator stable-sorts into its scratch).
  template <typename Fn>
  void for_each_version(Fn&& fn) const {
    store_.for_each(fn);
  }

  /// Anti-entropy push from the replicator daemon: pays write service time
  /// and applies under the normal freshest-wins rule (no epoch check — the
  /// daemon is internal and only ever moves existing versions). Returns the
  /// service-completion time (now when crashed) so the replicator can close
  /// its repair-push span.
  Time replicate_in(ObjectId oid, const Version& version);

 private:
  void handle_read(const sim::NodeId& from, const StorageReadReq& req);
  void handle_write(const sim::NodeId& from, const StorageWriteReq& req);
  void handle_new_epoch(const sim::NodeId& from, const NewEpochMsg& msg);
  void send_nack(const sim::NodeId& to, std::uint64_t op_id);

  sim::Simulator& sim_;
  Net& net_;
  sim::NodeId self_;
  ServiceTimes service_;
  ServicePool pool_;
  Rng rng_;
  /// oid -> version, inline in one open-addressing table: a lookup is one
  /// probe run over 56-byte slots.
  FlatTable<Version> store_;
  FullConfig config_;  // epno/cfno/current quorum state, from NEWEP messages
  bool crashed_ = false;
  /// Bumped on every crash: service-completion events scheduled before the
  /// crash carry the old incarnation and are discarded, so a quick restart
  /// cannot resurrect requests the crash should have lost.
  std::uint64_t incarnation_ = 0;
  /// One proxy's applied write op-ids: the kDedupWindow largest ids
  /// inserted, sorted ascending in one flat buffer. ids_[head_, end) are
  /// live; evicting the smallest id advances head_, and the dead prefix is
  /// compacted away once it reaches the window size. Op-ids grow
  /// monotonically per proxy, so inserts land at or near the tail, and once
  /// the buffer has reached its bounded size an insert allocates nothing.
  class AppliedWindow {
   public:
    static constexpr std::size_t kDedupWindow = 4096;

    bool contains(std::uint64_t id) const {
      return std::binary_search(live_begin(), ids_.cend(), id);
    }

    void insert(std::uint64_t id) {
      const auto pos = std::lower_bound(live_begin(), ids_.cend(), id);
      if (pos != ids_.cend() && *pos == id) return;
      ids_.insert(pos, id);
      if (ids_.size() - head_ > kDedupWindow) ++head_;
      if (head_ == kDedupWindow) {
        ids_.erase(ids_.cbegin(), live_begin());
        head_ = 0;
      }
    }

   private:
    std::vector<std::uint64_t>::const_iterator live_begin() const {
      return ids_.cbegin() + static_cast<std::ptrdiff_t>(head_);
    }

    std::vector<std::uint64_t> ids_;
    std::size_t head_ = 0;
  };

  /// At-least-once write dedup: per-proxy window of write op-ids whose apply
  /// already ran (inserted at service completion, so a dedup ack never
  /// precedes durability). Bounded by evicting the smallest ids; an evicted
  /// id that re-arrives is re-applied, which the freshest-wins rule makes
  /// idempotent. Volatile: cleared on crash (it is RAM, not disk).
  /// Indexed by the dense proxy index (grown on demand) so the per-write
  /// lookup is a vector access.
  std::vector<AppliedWindow> applied_writes_;

  /// The dedup window for proxy `index`, growing the table on first contact.
  AppliedWindow& applied_writes_for(std::uint32_t index);

  // Observability: counters cached at construction, bumped on the hot path.
  std::unique_ptr<obs::Observability> own_obs_;  // fallback when none shared
  obs::Observability* obs_ = nullptr;
  struct Instruments {
    obs::Counter* reads_served = nullptr;
    obs::Counter* writes_applied = nullptr;
    obs::Counter* writes_discarded = nullptr;
    obs::Counter* nacks_sent = nullptr;
    obs::Counter* epoch_changes = nullptr;
    obs::Counter* dup_writes_ignored = nullptr;
    obs::Counter* restarts = nullptr;
  };
  Instruments ins_;
  std::string node_name_;  // cached to_string(self_) for trace events
};

}  // namespace qopt::kv
