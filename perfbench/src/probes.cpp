#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <variant>

#include "kv/wire.hpp"
#include "sim/ids.hpp"
#include "topk/space_saving.hpp"

namespace perfbench {

using qopt::Cluster;
using qopt::kv::Message;
using qopt::sim::NodeId;

std::uint64_t wall_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

/// Runs `call` and, while the probe is active, charges its wall time and
/// allocations to `stats` and samples the event-queue depth.
template <typename F>
void timed(LayerProbe& probe, CallStats& stats, Cluster& cluster, F&& call) {
  if (!probe.active) {
    call();
    return;
  }
  const std::uint64_t depth = cluster.simulator().pending();
  probe.depth_max = std::max(probe.depth_max, depth);
  if ((probe.tick++ & 63) == 0) {
    probe.depth_samples.push_back(static_cast<double>(depth));
  }
  const std::uint64_t allocs = allocations();
  const std::uint64_t start = wall_ns();
  call();
  stats.ns += wall_ns() - start;
  stats.allocs += allocations() - allocs;
  ++stats.calls;
}

}  // namespace

void install_probes(Cluster& cluster, LayerProbe& probe) {
  auto& net = cluster.network();
  const qopt::ClusterConfig& config = cluster.config();
  for (std::uint32_t i = 0; i < config.num_proxies; ++i) {
    qopt::proxy::Proxy* proxy = &cluster.proxy(i);
    net.register_node(qopt::sim::proxy_id(i), [&, proxy](const NodeId& from,
                                                         const Message& msg) {
      if (probe.active && (std::holds_alternative<qopt::kv::StorageReadResp>(
                               msg) ||
                           std::holds_alternative<qopt::kv::StorageWriteResp>(
                               msg))) {
        ++probe.storage_replies;
      }
      timed(probe, probe.proxy, cluster,
            [&] { proxy->on_message(from, msg); });
    });
    // Replaces the cluster's own completion callback, so the checker's
    // intersection audit is fed here exactly as Cluster wires it.
    const bool audit = config.check_consistency;
    proxy->set_op_callback([&, audit](const qopt::proxy::OpRecord& rec) {
      if (probe.active) probe.replies_used += rec.quorum.size();
      if (audit) {
        cluster.checker().quorum_used(rec.oid, rec.is_write, rec.cfno, rec.end,
                                      rec.quorum);
      }
    });
  }
  for (std::uint32_t i = 0; i < config.num_storage; ++i) {
    qopt::kv::StorageNode* node = &cluster.storage(i);
    net.register_node(qopt::sim::storage_id(i),
                      [&, node](const NodeId& from, const Message& msg) {
                        timed(probe, probe.storage, cluster,
                              [&] { node->on_message(from, msg); });
                      });
  }
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    qopt::Client* client = &cluster.client(i);
    net.register_node(qopt::sim::client_id(i),
                      [&, client](const NodeId& from, const Message& msg) {
                        timed(probe, probe.client, cluster,
                              [&] { client->on_message(from, msg); });
                      });
  }
  if (qopt::autonomic::AutonomicManager* am = cluster.am()) {
    net.register_node(qopt::sim::am_id(),
                      [&, am](const NodeId& from, const Message& msg) {
                        timed(probe, probe.am, cluster,
                              [&] { am->on_message(from, msg); });
                      });
  }
}

int TimedOracle::predict_write_quorum(
    const qopt::oracle::WorkloadFeatures& features) {
  if (!probe_.active) return inner_->predict_write_quorum(features);
  const std::uint64_t start = wall_ns();
  const int w = inner_->predict_write_quorum(features);
  probe_.oracle.ns += wall_ns() - start;
  ++probe_.oracle.calls;
  return w;
}

TopkReplay replay_topk(const std::vector<qopt::kv::ObjectId>& keys,
                       std::size_t capacity, std::size_t k,
                       std::size_t report_every) {
  TopkReplay out;
  if (keys.empty()) return out;
  qopt::topk::SpaceSaving summary(capacity);
  std::uint64_t add_ns = 0;
  std::uint64_t top_ns = 0;
  std::uint64_t reports = 0;
  // Adds are timed per batch: one clock read per key would cost more than
  // the add itself.
  for (std::size_t begin = 0; begin < keys.size(); begin += report_every) {
    const std::size_t end = std::min(keys.size(), begin + report_every);
    const std::uint64_t start = wall_ns();
    for (std::size_t i = begin; i < end; ++i) summary.add(keys[i]);
    add_ns += wall_ns() - start;
    if (end - begin < report_every) break;
    const std::uint64_t top_start = wall_ns();
    const std::vector<qopt::topk::TopKEntry> report = summary.top(capacity);
    top_ns += wall_ns() - top_start;
    if (!report.empty()) ++reports;
  }
  out.add_ns = static_cast<double>(add_ns) / static_cast<double>(keys.size());
  out.top_ns = reports > 0
                   ? static_cast<double>(top_ns) / static_cast<double>(reports)
                   : 0.0;

  std::map<qopt::kv::ObjectId, std::uint64_t> exact;
  for (const qopt::kv::ObjectId key : keys) ++exact[key];
  std::vector<std::pair<std::uint64_t, qopt::kv::ObjectId>> ranked;
  ranked.reserve(exact.size());
  for (const auto& [key, count] : exact) ranked.emplace_back(count, key);
  const std::size_t n = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(n),
                    ranked.end(), [](const auto& a, const auto& b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                    });
  std::set<qopt::kv::ObjectId> summary_top;
  for (const qopt::topk::TopKEntry& entry : summary.top(k)) {
    summary_top.insert(entry.key);
  }
  std::size_t found = 0;
  for (std::size_t i = 0; i < n; ++i) {
    found += summary_top.count(ranked[i].second);
  }
  out.recall = n > 0 ? static_cast<double>(found) / static_cast<double>(n) : 0;
  return out;
}

}  // namespace perfbench
