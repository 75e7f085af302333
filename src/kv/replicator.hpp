// Anti-entropy replicator — the background replication daemon of Swift-like
// stores. With W < N, a write leaves N - W replicas stale until the next
// overwriting write or read-repair; Swift's object replicator periodically
// walks the object space comparing replicas and pushing the freshest
// version to the laggards. This both restores full redundancy (a
// fault-tolerance concern) and lets future small-read-quorum reads find
// fresh data without historical-quorum repairs.
//
// The sweep itself models the daemon's local hash comparison (free at the
// simulation's level of abstraction); every repair push costs a real write
// service on the receiving node, so anti-entropy competes with foreground
// traffic for disk time exactly as it does in production.
//
// The sweep walks a persistent catalog of every (oid, node) holding, sorted
// by (oid, node). Stores only grow, so the catalog stays exact until some
// node's object count changes; only then is it rebuilt (one stable radix
// sort). A steady-state sweep is one linear pass over reused buffers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "kv/placement.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "obs/obs.hpp"
#include "sim/simulator.hpp"
#include "util/time.hpp"

namespace qopt::kv {

struct ReplicatorOptions {
  Duration interval = seconds(10);       // full sweep period
  std::size_t max_repairs_per_sweep = 1000;  // throttle background load
};

struct ReplicatorStats {
  std::uint64_t sweeps = 0;
  std::uint64_t objects_checked = 0;
  std::uint64_t repairs_pushed = 0;
};

class Replicator {
 public:
  /// `obs` (optional) enables per-sweep anti-entropy traces: one root span
  /// per sweep, one repair-push child per version pushed.
  Replicator(sim::Simulator& sim, const Placement& placement,
             std::vector<StorageNode*> nodes, const ReplicatorOptions& options,
             obs::Observability* obs = nullptr);

  void start();
  /// Cancels the pending sweep, so a later start() runs one sweep chain.
  void stop() noexcept;
  bool running() const noexcept { return running_; }

  const ReplicatorStats& stats() const noexcept { return stats_; }

 private:
  /// One replica held by one node; the catalog is sorted by (oid, node).
  struct Holding {
    ObjectId oid;
    std::uint32_t node;
  };

  void sweep();
  /// Rebuilds the catalog when some node's object count has changed since
  /// the last build; otherwise leaves it as it is.
  void refresh_catalog();

  sim::Simulator& sim_;
  const Placement& placement_;
  std::vector<StorageNode*> nodes_;
  ReplicatorOptions options_;
  ReplicatorStats stats_;
  bool running_ = false;
  sim::EventHandle tick_;  // the pending sweep while running
  obs::Observability* obs_ = nullptr;  // nullable: spans off when absent
  std::vector<Holding> catalog_;
  /// Each node's object_count() when the catalog was last built.
  std::vector<std::size_t> catalog_counts_;
  // Reused across sweeps, so only a catalog rebuild that outgrows them
  // allocates.
  std::vector<Holding> radix_scratch_;
  std::vector<std::uint32_t> replica_scratch_;
};

}  // namespace qopt::kv
