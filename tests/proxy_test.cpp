// Unit tests for the proxy's quorum read/write logic (Algorithms 3-5),
// driven through a mini-harness: real storage nodes and a real proxy, with
// the client / RM ends faked by capturing raw wire messages.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/obs.hpp"
#include "proxy/proxy.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace qopt::proxy {
namespace {

using kv::Message;
using kv::QuorumConfig;

constexpr std::uint32_t kStorage = 5;
constexpr int kReplication = 5;  // every object on every node: deterministic

struct ProxyHarness : ::testing::Test {
  using Net = sim::Network<Message>;

  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{microseconds(100), 0}, Rng(1)};
  kv::Placement placement{kStorage, kReplication, 0};
  obs::Observability telemetry;  // shared by the proxy and all storage nodes
  std::vector<std::unique_ptr<kv::StorageNode>> storage;
  std::unique_ptr<Proxy> proxy;
  std::vector<Message> client_inbox;
  std::vector<Message> rm_inbox;

  void SetUp() override { build({1, 5}); }

  void build(QuorumConfig initial, ProxyOptions options = {}) {
    client_inbox.clear();
    rm_inbox.clear();
    storage.clear();
    telemetry.registry().reset();
    kv::ServiceTimes service;
    service.read_jitter = 0;
    service.write_jitter = 0;
    for (std::uint32_t i = 0; i < kStorage; ++i) {
      storage.push_back(std::make_unique<kv::StorageNode>(
          sim, net, sim::storage_id(i), service, 2, Rng(100 + i),
          &telemetry));
      kv::StorageNode* raw = storage.back().get();
      net.register_node(sim::storage_id(i),
                        [raw](const sim::NodeId& from, const Message& m) {
                          raw->on_message(from, m);
                        });
    }
    options.initial = initial;
    proxy = std::make_unique<Proxy>(sim, net, sim::proxy_id(0), placement,
                                    options, &telemetry);
    net.register_node(sim::proxy_id(0),
                      [this](const sim::NodeId& from, const Message& m) {
                        proxy->on_message(from, m);
                      });
    net.register_node(sim::client_id(0),
                      [this](const sim::NodeId&, const Message& m) {
                        client_inbox.push_back(m);
                      });
    net.register_node(sim::rm_id(),
                      [this](const sim::NodeId&, const Message& m) {
                        rm_inbox.push_back(m);
                      });
  }

  void client_write(kv::ObjectId oid, std::uint64_t req, std::uint64_t value,
                    std::uint64_t size = 1024) {
    net.send(sim::client_id(0), sim::proxy_id(0),
             kv::ClientWriteReq{oid, req, value, size});
  }

  void client_read(kv::ObjectId oid, std::uint64_t req) {
    net.send(sim::client_id(0), sim::proxy_id(0),
             kv::ClientReadReq{oid, req});
  }

  /// RM-side: run the full two-phase handshake for a change.
  void install(std::uint64_t epno, std::uint64_t cfno,
               kv::QuorumChange change) {
    net.send(sim::rm_id(), sim::proxy_id(0),
             kv::NewQuorumMsg{epno, cfno, std::move(change), {}});
    sim.run();
    net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{epno, cfno, {}});
    sim.run();
  }

  void install_global(std::uint64_t epno, std::uint64_t cfno,
                      QuorumConfig q) {
    kv::QuorumChange change;
    change.is_global = true;
    change.global = q;
    install(epno, cfno, std::move(change));
  }

  /// Registry value of the proxy's `proxy.0.<field>` counter.
  std::uint64_t proxy_metric(const char* field) const {
    return telemetry.registry().counter_value(
        obs::instrument_name("proxy", 0, field));
  }

  std::uint64_t total_reads_served() const {
    std::uint64_t total = 0;
    for (std::uint32_t i = 0; i < kStorage; ++i) {
      total += telemetry.registry().counter_value(
          obs::instrument_name("storage", i, "reads_served"));
    }
    return total;
  }

  std::uint64_t replicas_holding(kv::ObjectId oid) const {
    std::uint64_t count = 0;
    for (const auto& node : storage) count += node->peek(oid) != nullptr;
    return count;
  }
};

TEST_F(ProxyHarness, WriteContactsExactlyWriteQuorum) {
  build({4, 2});
  client_write(7, 1, 99);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<kv::ClientWriteResp>(client_inbox[0]));
  EXPECT_EQ(replicas_holding(7), 2u);  // W=2
}

TEST_F(ProxyHarness, ReadContactsExactlyReadQuorum) {
  build({3, 3});
  client_write(7, 1, 99);
  sim.run();
  const std::uint64_t reads_before = total_reads_served();
  client_read(7, 2);
  sim.run();
  EXPECT_EQ(total_reads_served() - reads_before, 3u);  // R=3
}

TEST_F(ProxyHarness, ReadReturnsFreshestVersionInQuorum) {
  build({5, 1});  // writes land on one replica; R=5 must find the freshest
  client_write(7, 1, 111);
  sim.run();
  client_write(7, 2, 222);
  sim.run();
  client_read(7, 3);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 3u);
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox[2]);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 222u);
}

TEST_F(ProxyHarness, ReadOfUnknownObjectNotFound) {
  client_read(42, 1);
  sim.run();
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.at(0));
  EXPECT_FALSE(resp.found);
  EXPECT_EQ(proxy_metric("not_found_reads"), 1u);
}

TEST_F(ProxyHarness, NewQuorumAckedAndConfirmedSwitchesConfig) {
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(1, 5)));
  install_global(0, 1, {4, 2});
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(4, 2)));
  EXPECT_EQ(proxy->cfno(), 1u);
  EXPECT_FALSE(proxy->in_transition());
  // Both an ACKNEWQ and an ACKCONFIRM must have reached the RM.
  bool acked_newq = false;
  bool acked_confirm = false;
  for (const Message& m : rm_inbox) {
    acked_newq |= std::holds_alternative<kv::AckNewQuorumMsg>(m);
    acked_confirm |= std::holds_alternative<kv::AckConfirmMsg>(m);
  }
  EXPECT_TRUE(acked_newq);
  EXPECT_TRUE(acked_confirm);
}

TEST_F(ProxyHarness, TransitionQuorumIsMaxOfOldAndNew) {
  build({1, 5});
  net.send(sim::rm_id(), sim::proxy_id(0),
           kv::NewQuorumMsg{0, 1,
                            kv::QuorumChange{true, QuorumConfig::of(5, 1), {}}, {}});
  sim.run();
  EXPECT_TRUE(proxy->in_transition());
  // max(1,5)=5 reads, max(5,1)=5 writes during the transition.
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 5)));
  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{0, 1, {}});
  sim.run();
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 1)));
}

TEST_F(ProxyHarness, DrainDelaysAckUntilPendingOpsComplete) {
  build({1, 5});
  client_write(7, 1, 99);  // in flight once the proxy processes it
  // Let the proxy start the quorum phase but not finish (storage replies
  // take >= 200us round trip).
  sim.run(microseconds(450));
  EXPECT_EQ(proxy->pending_ops(), 1u);
  net.send(sim::rm_id(), sim::proxy_id(0),
           kv::NewQuorumMsg{0, 1, kv::QuorumChange{true, QuorumConfig::of(2, 4), {}}, {}});
  sim.run(microseconds(700));  // NEWQ delivered, op still pending
  bool acked = false;
  for (const Message& m : rm_inbox) {
    acked |= std::holds_alternative<kv::AckNewQuorumMsg>(m);
  }
  EXPECT_FALSE(acked) << "ACKNEWQ sent before the old-quorum op drained";
  sim.run();  // finish everything
  for (const Message& m : rm_inbox) {
    acked |= std::holds_alternative<kv::AckNewQuorumMsg>(m);
  }
  EXPECT_TRUE(acked);
  EXPECT_EQ(client_inbox.size(), 1u);
}

TEST_F(ProxyHarness, PerObjectOverrideApplied) {
  kv::QuorumChange change;
  change.is_global = false;
  change.overrides = {{7, QuorumConfig::of(5, 1)}, {8, QuorumConfig::of(3, 3)}};
  install(0, 1, std::move(change));
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(5, 1)));
  EXPECT_EQ(proxy->effective_quorum(8), (QuorumConfig::of(3, 3)));
  EXPECT_EQ(proxy->effective_quorum(9), (QuorumConfig::of(1, 5)));  // default
  EXPECT_EQ(proxy->override_count(), 2u);
}

TEST_F(ProxyHarness, ReadRepairUsesHistoricalReadQuorum) {
  // cfno 0: {1,5}. Write under W=5. cfno 1: {5,1}: write lands on one
  // replica. cfno 2: {1,5} again: a read with R=1 may miss the cfno-1
  // version; the proxy must detect v.cfno < lcfno and re-read with the
  // largest historical read quorum (5), returning the fresh value.
  client_write(7, 1, 111);
  sim.run();
  install_global(0, 1, {5, 1});
  client_write(7, 2, 222);  // W=1
  sim.run();
  EXPECT_EQ(proxy->cfno(), 1u);
  install_global(0, 2, {1, 5});
  const auto repairs_before = proxy_metric("repair_reads");
  client_read(7, 3);
  sim.run();
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.back());
  ASSERT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 222u) << "stale version returned";
  EXPECT_GE(proxy_metric("repair_reads"), repairs_before);
}

TEST_F(ProxyHarness, RepairedValueWrittenBackUnderCurrentConfig) {
  client_write(7, 1, 111);
  sim.run();
  install_global(0, 1, {5, 1});
  client_write(7, 2, 222);
  sim.run();
  install_global(0, 2, {1, 5});
  client_read(7, 3);
  sim.run();
  EXPECT_GE(proxy_metric("writebacks"), 1u);
  // After the write-back (W=5), the fresh value lives on all replicas with
  // the current cfno: a later R=1 read needs no repair.
  const auto repairs = proxy_metric("repair_reads");
  client_read(7, 4);
  sim.run();
  EXPECT_EQ(proxy_metric("repair_reads"), repairs);
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox.back());
  EXPECT_EQ(resp.version.value, 222u);
}

TEST_F(ProxyHarness, NackResynchronizesAndRetries) {
  // Advance the storage nodes to epoch 3 with config {4,2} behind the
  // proxy's back (as an RM epoch change would).
  kv::FullConfig config;
  config.epno = 3;
  config.cfno = 2;
  config.default_q = QuorumConfig::of(4, 2);
  config.read_q_history = {{0, 1}, {1, 4}, {2, 4}};
  for (std::uint32_t i = 0; i < kStorage; ++i) {
    net.send(sim::rm_id(), sim::storage_id(i), kv::NewEpochMsg{config, {}});
  }
  sim.run();
  client_write(7, 1, 99);
  sim.run();
  // The operation was NACKed, the proxy adopted epoch 3 / config {4,2} and
  // re-executed; the client still gets exactly one reply.
  ASSERT_EQ(client_inbox.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<kv::ClientWriteResp>(client_inbox[0]));
  EXPECT_GE(proxy_metric("nacks_received"), 1u);
  EXPECT_EQ(proxy_metric("op_retries"), 1u);
  EXPECT_EQ(proxy->epoch(), 3u);
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(4, 2)));
  EXPECT_EQ(replicas_holding(7), 2u);  // retried with W=2
}

TEST_F(ProxyHarness, FallbackContactsRemainingReplicasOnStorageCrash) {
  build({3, 3});
  client_write(7, 1, 99);
  sim.run();
  // Crash two storage nodes that serve the proxy's preferred read subset.
  // Whichever two we pick, R=3 of 5 replicas stays reachable.
  storage[0]->crash();
  storage[1]->crash();
  client_read(7, 2);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 2u);
  const auto& resp = std::get<kv::ClientReadResp>(client_inbox[1]);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 99u);
}

TEST_F(ProxyHarness, StaleNewQuorumStillAcked) {
  install_global(0, 1, {4, 2});
  const std::size_t acks_before = rm_inbox.size();
  // Re-deliver an old NEWQ (e.g. a retransmission): config must not change,
  // but the ACK must flow for RM progress.
  net.send(sim::rm_id(), sim::proxy_id(0),
           kv::NewQuorumMsg{0, 1, kv::QuorumChange{true, QuorumConfig::of(1, 5), {}}, {}});
  sim.run();
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(4, 2)));
  EXPECT_GT(rm_inbox.size(), acks_before);
}

TEST_F(ProxyHarness, BackToBackNewQuorumCommitsPrevious) {
  net.send(sim::rm_id(), sim::proxy_id(0),
           kv::NewQuorumMsg{0, 1, kv::QuorumChange{true, QuorumConfig::of(2, 4), {}}, {}});
  sim.run();
  EXPECT_TRUE(proxy->in_transition());
  // Second NEWQ arrives without an intervening CONFIRM (the RM finalized
  // round 1 via an epoch change we did not see).
  net.send(sim::rm_id(), sim::proxy_id(0),
           kv::NewQuorumMsg{1, 2, kv::QuorumChange{true, QuorumConfig::of(3, 3), {}}, {}});
  sim.run();
  EXPECT_TRUE(proxy->in_transition());
  // Transition base is the committed round-1 config {2,4}: max -> {3,4}.
  EXPECT_EQ(proxy->effective_quorum(7), (QuorumConfig::of(3, 4)));
  net.send(sim::rm_id(), sim::proxy_id(0), kv::ConfirmMsg{1, 2, {}});
  sim.run();
  EXPECT_EQ(proxy->default_quorum(), (QuorumConfig::of(3, 3)));
}

TEST_F(ProxyHarness, CrashedProxyStopsResponding) {
  proxy->crash();
  client_read(7, 1);
  sim.run();
  EXPECT_TRUE(client_inbox.empty());
}

// ------------------------------------------------------- timer lifecycle
//
// A proxy op arms a fallback (150 ms) and a retransmit (~250 ms) timer.
// Whichever way the op leaves the table, both go with it: the runs below
// drain well before either delay, which they could not if a timer stayed
// queued.

TEST_F(ProxyHarness, CompletedOpsLeaveNoTimerQueued) {
  client_write(7, 1, 99);
  client_read(7, 2);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 2u);
  EXPECT_EQ(proxy->pending_ops(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_LT(sim.now(), milliseconds(150));
}

TEST_F(ProxyHarness, OpFailedOnItsRetryBudgetLeavesNoTimerQueued) {
  ProxyOptions options;
  options.retry_budget = 1;
  options.retry_base = milliseconds(10);
  options.retry_jitter = 0;
  build({1, 5}, options);
  for (auto& node : storage) node->crash();
  client_read(7, 1);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 1u);
  EXPECT_TRUE(std::get<kv::ClientReadResp>(client_inbox[0]).failed);
  EXPECT_EQ(proxy_metric("timeouts"), 1u);
  EXPECT_TRUE(sim.empty());
  EXPECT_LT(sim.now(), milliseconds(150));  // the fallback never fired
}

TEST_F(ProxyHarness, NackRetriedOpLeavesNoTimerOfTheAbortedAttempt) {
  kv::FullConfig config;
  config.epno = 1;
  config.cfno = 1;
  config.default_q = QuorumConfig::of(4, 2);
  config.read_q_history = {{0, 1}, {1, 4}};
  for (std::uint32_t i = 0; i < kStorage; ++i) {
    net.send(sim::rm_id(), sim::storage_id(i), kv::NewEpochMsg{config, {}});
  }
  sim.run();
  client_write(7, 1, 99);
  sim.run();
  ASSERT_EQ(client_inbox.size(), 1u);
  EXPECT_EQ(proxy_metric("op_retries"), 1u);
  EXPECT_TRUE(sim.empty());
  EXPECT_LT(sim.now(), milliseconds(150));
}

TEST_F(ProxyHarness, CrashedProxyLeavesNoTimerQueued) {
  for (auto& node : storage) node->crash();
  client_read(7, 1);
  client_write(8, 2, 99);
  sim.run(milliseconds(5));
  ASSERT_EQ(proxy->pending_ops(), 2u);
  proxy->crash();
  EXPECT_EQ(proxy->pending_ops(), 0u);
  sim.run();
  EXPECT_TRUE(client_inbox.empty());
  EXPECT_TRUE(sim.empty());
  EXPECT_LT(sim.now(), milliseconds(150));
}

TEST_F(ProxyHarness, OpsBeforeTheFirstRoundLeaveItsStatsUnchanged) {
  // Monitoring only runs inside an AM round; ops served before the first
  // NEWROUND must not show in its ROUNDSTATS.
  const auto round_stats = [this](int ops_before) {
    build({1, 5});
    std::vector<Message> am_inbox;
    net.register_node(sim::am_id(),
                      [&am_inbox](const sim::NodeId&, const Message& m) {
                        am_inbox.push_back(m);
                      });
    for (int i = 0; i < ops_before; ++i) {
      const auto oid = static_cast<kv::ObjectId>(100 + i % 7);
      client_write(oid, 10 + 2 * static_cast<std::uint64_t>(i), 5, 512);
      client_read(oid, 11 + 2 * static_cast<std::uint64_t>(i));
      sim.run();
    }
    net.send(sim::am_id(), sim::proxy_id(0), kv::NewTopKMsg{0, {7}});
    sim.run();
    net.send(sim::am_id(), sim::proxy_id(0),
             kv::NewRoundMsg{1, milliseconds(100)});
    sim.run(sim.now() + milliseconds(10));
    client_write(7, 1, 99, 2048);
    client_read(7, 2);
    client_read(8, 3);
    client_write(9, 4, 98, 4096);
    sim.run();
    EXPECT_EQ(am_inbox.size(), 1u);
    return std::get<kv::RoundStatsMsg>(am_inbox.at(0));
  };
  const kv::RoundStatsMsg served = round_stats(40);
  const kv::RoundStatsMsg fresh = round_stats(0);
  ASSERT_EQ(served.topk.size(), fresh.topk.size());
  for (std::size_t i = 0; i < fresh.topk.size(); ++i) {
    EXPECT_EQ(served.topk[i].oid, fresh.topk[i].oid);
    EXPECT_EQ(served.topk[i].count, fresh.topk[i].count);
    EXPECT_EQ(served.topk[i].error, fresh.topk[i].error);
  }
  ASSERT_EQ(served.stats_topk.size(), 1u);
  ASSERT_EQ(fresh.stats_topk.size(), 1u);
  EXPECT_EQ(served.stats_topk[0].reads, fresh.stats_topk[0].reads);
  EXPECT_EQ(served.stats_topk[0].writes, fresh.stats_topk[0].writes);
  EXPECT_EQ(served.stats_topk[0].avg_size_bytes,
            fresh.stats_topk[0].avg_size_bytes);
  EXPECT_EQ(served.stats_tail.reads, fresh.stats_tail.reads);
  EXPECT_EQ(served.stats_tail.writes, fresh.stats_tail.writes);
  EXPECT_EQ(served.stats_tail.avg_size_bytes,
            fresh.stats_tail.avg_size_bytes);
  EXPECT_EQ(served.throughput_ops, fresh.throughput_ops);
  EXPECT_EQ(served.avg_latency_ms, fresh.avg_latency_ms);
  EXPECT_EQ(fresh.stats_tail.reads + fresh.stats_tail.writes, 4u);
}

TEST_F(ProxyHarness, MonitoringRoundReportsStats) {
  client_write(7, 1, 99, 2048);
  sim.run();
  net.send(sim::am_id(), sim::proxy_id(0),
           kv::NewTopKMsg{0, {7}});
  sim.run();
  std::vector<Message> am_inbox;
  net.register_node(sim::am_id(),
                    [&](const sim::NodeId&, const Message& m) {
                      am_inbox.push_back(m);
                    });
  net.send(sim::am_id(), sim::proxy_id(0),
           kv::NewRoundMsg{1, milliseconds(100)});
  sim.run(sim.now() + milliseconds(40));
  client_write(7, 2, 100, 2048);
  client_read(7, 3);
  client_read(8, 4);
  sim.run();
  ASSERT_EQ(am_inbox.size(), 1u);
  const auto& stats = std::get<kv::RoundStatsMsg>(am_inbox[0]);
  EXPECT_EQ(stats.round, 1u);
  ASSERT_EQ(stats.stats_topk.size(), 1u);
  EXPECT_EQ(stats.stats_topk[0].oid, 7u);
  EXPECT_EQ(stats.stats_topk[0].writes, 1u);
  EXPECT_EQ(stats.stats_topk[0].reads, 1u);
  EXPECT_GT(stats.stats_topk[0].avg_size_bytes, 0.0);
  // Object 8 (not monitored, no override) lands in the tail aggregate.
  EXPECT_GE(stats.stats_tail.reads, 1u);
  EXPECT_GT(stats.throughput_ops, 0.0);
  // Candidate hotspots exclude the already-monitored object 7.
  for (const auto& candidate : stats.topk) EXPECT_NE(candidate.oid, 7u);
}

}  // namespace
}  // namespace qopt::proxy
