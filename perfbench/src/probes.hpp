// Outside-in instruments for the benchmark's traced pass.
//
// Everything here wraps the simulator's public surface from the benchmark's
// own files: component handlers are re-registered through
// Network::register_node, the Oracle and the workload source are wrapped
// by decorators, and allocations are counted by this binary's own global
// operator new. Nothing inside src/ is instrumented; the wrappers only
// forward, so a traced run reproduces the untraced run's simulated facts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "kv/types.hpp"
#include "oracle/oracle.hpp"

namespace perfbench {

/// Global operator new calls made by this process so far.
std::uint64_t allocations() noexcept;
/// Monotonic host clock in nanoseconds.
std::uint64_t wall_ns() noexcept;

struct CallStats {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t allocs = 0;
};

/// Per-layer accumulators of one traced window. Counting is off until
/// `active` is set at the window's start and off again at its end.
struct LayerProbe {
  bool active = false;
  CallStats proxy;
  CallStats storage;
  CallStats client;
  CallStats am;
  CallStats workload;  // OperationSource::next, nested inside client calls
  CallStats oracle;    // Oracle::predict_write_quorum, inside AM timers
  std::uint64_t storage_replies = 0;  // storage replies delivered to proxies
  std::uint64_t replies_used = 0;     // replies behind finished proxy ops
  std::uint64_t depth_max = 0;        // Simulator::pending() at each call
  std::vector<double> depth_samples;  // every 64th call
  std::vector<qopt::kv::ObjectId> keys;  // keys issued in the window
  std::uint64_t tick = 0;

  /// Wall time spent inside the wrapped top-level handlers.
  std::uint64_t handler_ns() const noexcept {
    return proxy.ns + storage.ns + client.ns + am.ns;
  }
};

/// Re-registers every proxy, storage node, client and (when autotuning is
/// on) the AM behind timing wrappers, and chains the proxies' completion
/// callbacks to count the storage replies each finished op used. Call after
/// set-up; the cluster must have no crashed node yet.
void install_probes(qopt::Cluster& cluster, LayerProbe& probe);

/// Times every prediction of the wrapped Oracle while the probe is active.
class TimedOracle final : public qopt::oracle::Oracle {
 public:
  TimedOracle(std::shared_ptr<qopt::oracle::Oracle> inner, LayerProbe& probe)
      : inner_(std::move(inner)), probe_(probe) {}
  int predict_write_quorum(
      const qopt::oracle::WorkloadFeatures& features) override;
  std::string describe() const override { return inner_->describe(); }

 private:
  std::shared_ptr<qopt::oracle::Oracle> inner_;
  LayerProbe& probe_;
};

struct TopkReplay {
  double add_ns = 0;  // per key
  double top_ns = 0;  // per top(capacity) report
  double recall = 0;  // exact top-k keys found in the summary's top-k
};

/// Replays `keys` through a Space-Saving summary of `capacity` slots, as a
/// proxy monitors its stream, taking a full report every `report_every`
/// keys, and compares the summary's top-k with the exact one.
TopkReplay replay_topk(const std::vector<qopt::kv::ObjectId>& keys,
                       std::size_t capacity, std::size_t k,
                       std::size_t report_every);

}  // namespace perfbench
