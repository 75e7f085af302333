// Robustness under an unreliable network: the link-fault plane (loss,
// duplication, delay spikes, partitions), at-least-once retransmits with
// storage-side dedup, lossy-link heartbeat behaviour, crash-recovery, and
// the dense chaos acceptance scenario — all with the Dynamic Quorum
// Consistency checker as the safety oracle and "no stuck client operation"
// as the liveness oracle.
#include <gtest/gtest.h>

#include <string>
#include <variant>
#include <vector>

#include "core/cluster.hpp"
#include "core/nemesis.hpp"
#include "kv/service_model.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "obs/registry.hpp"
#include "obs/report.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

// ---------------------------------------------------- network fault plane

struct NetFixture : ::testing::Test {
  using Net = sim::Network<int>;

  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{microseconds(100), 0}, Rng(42)};
  std::vector<int> inbox_a;
  std::vector<int> inbox_b;

  void SetUp() override {
    net.register_node(sim::storage_id(0),
                      [this](const sim::NodeId&, int m) {
                        inbox_a.push_back(m);
                      });
    net.register_node(sim::storage_id(1),
                      [this](const sim::NodeId&, int m) {
                        inbox_b.push_back(m);
                      });
  }
};

TEST_F(NetFixture, LinkLossDropsWithItsOwnReason) {
  net.set_loss(1.0);
  for (int i = 0; i < 10; ++i) {
    net.send(sim::storage_id(0), sim::storage_id(1), i);
  }
  sim.run();
  EXPECT_TRUE(inbox_b.empty());
  EXPECT_EQ(net.stats().dropped_link_loss, 10u);
  EXPECT_EQ(net.stats().messages_dropped, 10u);
  net.set_loss(0.0);
  net.send(sim::storage_id(0), sim::storage_id(1), 99);
  sim.run();
  EXPECT_EQ(inbox_b.size(), 1u);
}

TEST_F(NetFixture, DuplicationDeliversASecondCopyAfterTheFirst) {
  net.set_duplication(1.0);
  net.send(sim::storage_id(0), sim::storage_id(1), 7);
  sim.run();
  ASSERT_EQ(inbox_b.size(), 2u);
  EXPECT_EQ(inbox_b[0], 7);
  EXPECT_EQ(inbox_b[1], 7);
  EXPECT_EQ(net.stats().duplicates_delivered, 1u);
  // Duplicates are deliveries, not drops.
  EXPECT_EQ(net.stats().messages_dropped, 0u);
  EXPECT_EQ(net.stats().messages_delivered, 2u);
}

TEST_F(NetFixture, DelaySpikeAddsLatencyWithoutLosingTheMessage) {
  net.set_delay_spike(1.0, milliseconds(50));
  const Time t0 = sim.now();
  Time delivered_at = 0;
  net.register_node(sim::storage_id(2),
                    [&](const sim::NodeId&, int) {
                      delivered_at = sim.now();
                    });
  net.send(sim::storage_id(0), sim::storage_id(2), 1);
  sim.run();
  EXPECT_GE(delivered_at - t0, milliseconds(50));
  EXPECT_EQ(net.stats().delay_spikes, 1u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(NetFixture, SymmetricPartitionCutsBothDirectionsUntilHealed) {
  const std::uint64_t id = net.add_partition({sim::storage_id(0)},
                                             {sim::storage_id(1)},
                                             /*symmetric=*/true);
  net.send(sim::storage_id(0), sim::storage_id(1), 1);
  net.send(sim::storage_id(1), sim::storage_id(0), 2);
  sim.run();
  EXPECT_TRUE(inbox_a.empty());
  EXPECT_TRUE(inbox_b.empty());
  EXPECT_EQ(net.stats().dropped_partitioned, 2u);
  EXPECT_TRUE(net.heal_partition(id));
  EXPECT_FALSE(net.heal_partition(id));  // already healed
  net.send(sim::storage_id(0), sim::storage_id(1), 3);
  sim.run();
  EXPECT_EQ(inbox_b.size(), 1u);
}

TEST_F(NetFixture, OneWayPartitionOnlyBlocksTheNamedDirection) {
  net.add_partition({sim::storage_id(0)}, {sim::storage_id(1)},
                    /*symmetric=*/false);
  net.send(sim::storage_id(0), sim::storage_id(1), 1);  // blocked
  net.send(sim::storage_id(1), sim::storage_id(0), 2);  // passes
  sim.run();
  EXPECT_TRUE(inbox_b.empty());
  ASSERT_EQ(inbox_a.size(), 1u);
  EXPECT_EQ(inbox_a[0], 2);
}

TEST_F(NetFixture, PartitionCutsMessagesAlreadyInFlight) {
  net.send(sim::storage_id(0), sim::storage_id(1), 1);
  // The partition lands while the message is still in the air (delivery
  // checks run at arrival time, like a crashed receiver).
  net.add_partition({sim::storage_id(0)}, {sim::storage_id(1)});
  sim.run();
  EXPECT_TRUE(inbox_b.empty());
  EXPECT_EQ(net.stats().dropped_partitioned, 1u);
}

TEST(NetworkFaultDeterminism, SameSeedSameFaultSchedule) {
  const auto run = [] {
    sim::Simulator sim;
    sim::Network<int> net{sim, sim::LatencyModel{microseconds(100),
                                                 microseconds(200)},
                          Rng(7)};
    std::uint64_t received = 0;
    net.register_node(sim::storage_id(1),
                      [&](const sim::NodeId&, int) { ++received; });
    net.set_loss(0.2);
    net.set_duplication(0.1);
    net.set_delay_spike(0.05, milliseconds(10));
    for (int i = 0; i < 500; ++i) {
      net.send(sim::storage_id(0), sim::storage_id(1), i);
    }
    sim.run();
    return std::tuple{received, net.stats().dropped_link_loss,
                      net.stats().duplicates_delivered,
                      net.stats().delay_spikes};
  };
  EXPECT_EQ(run(), run());
}

// ------------------------------------------------ storage-side idempotence

struct DedupFixture : ::testing::Test {
  using Net = sim::Network<kv::Message>;

  sim::Simulator sim;
  Net net{sim, sim::LatencyModel{microseconds(50), 0}, Rng(17)};
  kv::ServiceTimes service;
  std::unique_ptr<kv::StorageNode> node;
  std::vector<kv::Message> proxy_inbox;

  void SetUp() override {
    service.read_jitter = 0;
    service.write_jitter = 0;
    node = std::make_unique<kv::StorageNode>(sim, net, sim::storage_id(0),
                                             service, 2, Rng(1));
    net.register_node(sim::storage_id(0),
                      [this](const sim::NodeId& from, const kv::Message& m) {
                        node->on_message(from, m);
                      });
    net.register_node(sim::proxy_id(0),
                      [this](const sim::NodeId&, const kv::Message& m) {
                        proxy_inbox.push_back(m);
                      });
  }

  std::uint64_t counter(const char* name) const {
    return node->observability().registry().counter_value(
        obs::instrument_name("storage", 0, name));
  }
};

TEST_F(DedupFixture, TwiceDeliveredWriteIsAppliedOnceAndAckedTwice) {
  kv::Version v;
  v.ts = {100, 0, 1};
  v.value = 5;
  const kv::StorageWriteReq req{7, /*op_id=*/1, /*epno=*/0, v, {}};
  net.send(sim::proxy_id(0), sim::storage_id(0), req);
  sim.run();
  net.send(sim::proxy_id(0), sim::storage_id(0), req);  // retransmit / dup
  sim.run();
  // Both copies answered (the proxy's reply may have been the lost one),
  // but the write ran once.
  ASSERT_EQ(proxy_inbox.size(), 2u);
  EXPECT_TRUE(std::holds_alternative<kv::StorageWriteResp>(proxy_inbox[0]));
  EXPECT_TRUE(std::holds_alternative<kv::StorageWriteResp>(proxy_inbox[1]));
  EXPECT_EQ(counter("writes_applied"), 1u);
  EXPECT_EQ(counter("dup_writes_ignored"), 1u);
  ASSERT_NE(node->peek(7), nullptr);
  EXPECT_EQ(node->peek(7)->value, 5u);
}

TEST_F(DedupFixture, DedupIsPerProxyOpIdNotGlobal) {
  net.register_node(sim::proxy_id(1),
                    [](const sim::NodeId&, const kv::Message&) {});
  kv::Version v;
  v.ts = {100, 0, 1};
  v.value = 5;
  // Same op id from two different proxies: distinct operations, both run.
  net.send(sim::proxy_id(0), sim::storage_id(0),
           kv::StorageWriteReq{7, 1, 0, v, {}});
  sim.run();
  kv::Version newer = v;
  newer.ts = {200, 1, 1};
  newer.value = 6;
  net.send(sim::proxy_id(1), sim::storage_id(0),
           kv::StorageWriteReq{7, 1, 0, newer, {}});
  sim.run();
  EXPECT_EQ(counter("dup_writes_ignored"), 0u);
  EXPECT_EQ(counter("writes_applied"), 2u);
}

TEST_F(DedupFixture, CrashClearsTheDedupTableWithTheRam) {
  kv::Version v;
  v.ts = {100, 0, 1};
  v.value = 5;
  const kv::StorageWriteReq req{7, 1, 0, v, {}};
  net.send(sim::proxy_id(0), sim::storage_id(0), req);
  sim.run();
  node->crash();
  node->restart();
  // Post-restart re-delivery re-applies (freshest-wins keeps it harmless).
  net.send(sim::proxy_id(0), sim::storage_id(0), req);
  sim.run();
  EXPECT_EQ(counter("dup_writes_ignored"), 0u);
  EXPECT_EQ(counter("restarts"), 1u);
  ASSERT_NE(node->peek(7), nullptr);  // durable across the crash
  EXPECT_EQ(node->peek(7)->value, 5u);
}

TEST_F(DedupFixture, WindowKeepsTheLargest4096AppliedIds) {
  // Apply 13000 writes in a scrambled op-id order, so inserts land inside
  // the window and its dead prefix is compacted more than once. Whatever
  // the order, the window then holds exactly the 4096 largest ids.
  constexpr std::uint64_t kWrites = 13'000;
  const auto write = [](std::uint64_t op_id) {
    kv::Version v;
    v.ts = {static_cast<Time>(op_id), 0, op_id};
    v.value = op_id;
    return kv::StorageWriteReq{op_id % 64, op_id, 0, v, {}};
  };
  for (std::uint64_t i = 0; i < kWrites; ++i) {
    net.send(sim::proxy_id(0), sim::storage_id(0),
             write(1 + (i * 7919) % kWrites));
  }
  sim.run();
  ASSERT_EQ(counter("dup_writes_ignored"), 0u);
  const std::uint64_t oldest_kept = kWrites - 4096 + 1;

  const auto redeliver = [&](std::uint64_t op_id) {
    const std::uint64_t before = counter("dup_writes_ignored");
    net.send(sim::proxy_id(0), sim::storage_id(0), write(op_id));
    sim.run();
    return counter("dup_writes_ignored") > before;
  };
  EXPECT_TRUE(redeliver(kWrites));
  EXPECT_TRUE(redeliver(oldest_kept));
  // An evicted id is re-applied, then evicted again as the smallest.
  EXPECT_FALSE(redeliver(oldest_kept - 1));
  EXPECT_FALSE(redeliver(1));
  EXPECT_TRUE(redeliver(oldest_kept));
  // A new largest id evicts the oldest kept one.
  EXPECT_FALSE(redeliver(kWrites + 1));
  EXPECT_FALSE(redeliver(oldest_kept));
  EXPECT_TRUE(redeliver(oldest_kept + 1));
  EXPECT_TRUE(redeliver(kWrites + 1));
}

// ---------------------------------------------------- cluster-level faults

ClusterConfig lossy_config(std::uint64_t seed) {
  ClusterConfig config;
  config.num_storage = 7;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = seed;
  config.client_retry_timeout = milliseconds(500);
  return config;
}

// Every in-flight client operation must resolve: completed, or reported
// failed within the proxy's retry budget. Quiesce long enough for the
// slowest full backoff ladder (~16 s at the defaults) and check no client
// is still waiting.
void expect_no_stuck_clients(Cluster& cluster) {
  cluster.stop_clients();
  cluster.run_for(seconds(20));
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    EXPECT_FALSE(cluster.client(i).op_in_flight())
        << "client " << i << " stuck mid-operation";
  }
}

TEST(LossyClusterTest, RetransmitsKeepEveryOperationLive) {
  ClusterConfig config = lossy_config(11);
  config.net_loss = 0.05;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(20));

  const obs::RunReport report = cluster.report();
  EXPECT_GT(report.dropped_link_loss, 0u);
  EXPECT_EQ(report.consistency_violations, 0u);
  std::uint64_t retries = 0;
  for (std::uint32_t i = 0; i < config.num_proxies; ++i) {
    retries += cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", i, "retries"));
  }
  EXPECT_GT(retries, 0u) << "5% loss must trigger proxy retransmits";
  std::uint64_t completed = 0;
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    completed += cluster.client(i).ops_completed();
  }
  EXPECT_GT(completed, 1'000u);
  expect_no_stuck_clients(cluster);
}

TEST(LossyClusterTest, DuplicateDeliveryIsHarmlessEndToEnd) {
  ClusterConfig config = lossy_config(12);
  config.net_duplication = 0.05;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(15));

  const obs::RunReport report = cluster.report();
  EXPECT_GT(report.duplicates_delivered, 0u);
  EXPECT_EQ(report.consistency_violations, 0u);
  // Both dedup layers saw action: replicas ignoring replayed writes and
  // proxies ignoring replayed replies.
  std::uint64_t dup_replies = 0;
  for (std::uint32_t i = 0; i < config.num_proxies; ++i) {
    dup_replies += cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", i, "duplicate_replies"));
  }
  EXPECT_GT(dup_replies, 0u);
  expect_no_stuck_clients(cluster);
}

TEST(LossyClusterTest, HeartbeatsTolerateLossWithoutPermanentSuspicion) {
  ClusterConfig config = lossy_config(13);
  config.heartbeat_fd = true;
  config.heartbeat_interval = milliseconds(100);
  config.heartbeat_timeout = milliseconds(500);
  // 5% loss: a false timeout needs ~5 consecutive losses (p ~ 3e-7 per
  // sweep), so the watcher must stay quiet; a permanently suspected live
  // proxy would be a ◇P accuracy violation.
  config.net_loss = 0.05;
  Cluster cluster(config);
  cluster.preload(200, 1024);
  cluster.set_workload(workload::ycsb_a(200));
  cluster.run_for(seconds(30));

  for (std::uint32_t i = 0; i < config.num_proxies; ++i) {
    EXPECT_FALSE(cluster.failure_detector().suspects(sim::proxy_id(i)))
        << "live proxy " << i << " left suspected under lossy heartbeats";
  }
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
}

TEST(CrashRecoveryTest, StorageNodeRejoinsWithDurableState) {
  ClusterConfig config = lossy_config(14);
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(3));
  cluster.crash_storage(0);
  // A reconfiguration (with its epoch change) happens while the node is
  // down, so it rejoins with a stale epoch and resynchronizes via NACK.
  cluster.reconfigure({4, 2});
  cluster.run_for(seconds(3));
  const std::uint64_t reads_while_down =
      cluster.obs().registry().counter_value(
          obs::instrument_name("storage", 0, "reads_served"));
  cluster.restart_storage(0);
  cluster.run_for(seconds(5));

  EXPECT_EQ(cluster.obs().registry().counter_value(
                obs::instrument_name("storage", 0, "restarts")),
            1u);
  EXPECT_GT(cluster.obs().registry().counter_value(
                obs::instrument_name("storage", 0, "reads_served")),
            reads_while_down)
      << "restarted node never served again";
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
  expect_no_stuck_clients(cluster);
}

TEST(CrashRecoveryTest, ProxyRelearnsTheEpochThroughTheNackPath) {
  ClusterConfig config = lossy_config(15);
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));
  cluster.run_for(seconds(2));
  cluster.crash_proxy(0);
  bool reconfigured = false;
  cluster.reconfigure({4, 2}, [&](bool ok) { reconfigured = ok; });
  cluster.run_for(seconds(3));
  ASSERT_TRUE(reconfigured);
  cluster.restart_proxy(0);
  // Drive an operation through the restarted proxy directly: its epoch is
  // stale, so the first storage contact NACKs and resynchronizes it.
  cluster.network().send(sim::client_id(0), sim::proxy_id(0),
                         kv::Message{kv::ClientReadReq{1, 1 << 20}});
  cluster.run_for(seconds(3));

  const auto proxy_counter = [&](const char* name) {
    return cluster.obs().registry().counter_value(
        obs::instrument_name("proxy", 0, name));
  };
  EXPECT_EQ(proxy_counter("restarts"), 1u);
  EXPECT_GE(proxy_counter("nacks_received"), 1u)
      << "stale restarted proxy should have been NACKed into the new epoch";
  EXPECT_EQ(cluster.report().consistency_violations, 0u);
  expect_no_stuck_clients(cluster);
}

// ------------------------------------------------- acceptance: dense chaos

// The issue's acceptance scenario: 1% link loss, duplicate delivery, a
// partition/heal cycle and crash-recovery events in one schedule — zero
// violations, zero stuck clients, and a byte-identical report on rerun.
struct ChaosOutcome {
  std::string report_json;
  NemesisStats nemesis;
  bool clean = false;
  bool all_resolved = false;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
};

ChaosOutcome run_dense_chaos(std::uint64_t seed) {
  ClusterConfig config = lossy_config(seed);
  config.net_loss = 0.01;
  config.net_duplication = 0.005;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));

  NemesisOptions options;
  options.mean_interval = milliseconds(250);
  options.partition = 2.0;
  options.loss_burst = 1.0;
  options.restart = 4.0;
  options.seed = seed * 31 + 5;
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(30));
  nemesis.stop();
  cluster.heal_all_partitions();
  cluster.stop_clients();
  cluster.run_for(seconds(20));  // quiesce past the longest backoff ladder

  ChaosOutcome out;
  out.nemesis = nemesis.stats();
  out.clean = cluster.checker().clean();
  out.all_resolved = true;
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    out.all_resolved &= !cluster.client(i).op_in_flight();
    out.completed += cluster.client(i).ops_completed();
    out.failed += cluster.client(i).failures();
  }
  out.report_json = cluster.report().to_json();
  return out;
}

TEST(ChaosAcceptanceTest, DenseScheduleIsSafeLiveAndDeterministic) {
  const ChaosOutcome out = run_dense_chaos(3);
  EXPECT_TRUE(out.clean) << "consistency violations under dense chaos";
  EXPECT_TRUE(out.all_resolved) << "a client operation is stuck";
  EXPECT_GT(out.completed, 1'000u);
  // The schedule really exercised the new fault kinds.
  EXPECT_GE(out.nemesis.partitions, 1u);
  EXPECT_EQ(out.nemesis.partitions, out.nemesis.heals);
  EXPECT_GE(out.nemesis.loss_bursts, 1u);
  EXPECT_GE(out.nemesis.restarts, 2u);

  // Byte-identical rerun: the whole scenario, fault plane included, is a
  // pure function of the seed.
  const ChaosOutcome again = run_dense_chaos(3);
  EXPECT_EQ(out.report_json, again.report_json);
  EXPECT_EQ(out.completed, again.completed);
  EXPECT_EQ(out.failed, again.failed);
}

// ------------------------------------------- acceptance: RM leader chaos

// The replicated-RM acceptance scenario: the nemesis repeatedly crashes and
// partitions the RM leader while its own reconfiguration events keep rounds
// in flight — rounds must survive failovers (no lost or doubled commits),
// clients must never get stuck, and the whole run must replay byte-identical
// from the seed.
ChaosOutcome run_rm_chaos(std::uint64_t seed) {
  ClusterConfig config = lossy_config(seed);
  config.rm_replicas = 3;
  Cluster cluster(config);
  cluster.preload(500, 1024);
  cluster.set_workload(workload::ycsb_a(500));

  NemesisOptions options;
  options.mean_interval = milliseconds(250);
  options.rm_crash = 2.0;
  options.rm_partition = 2.0;
  options.max_rm_outage = seconds(1);
  options.seed = seed * 17 + 9;
  Nemesis nemesis(cluster, options);
  nemesis.start();
  cluster.run_for(seconds(30));
  nemesis.stop();
  cluster.stop_clients();
  cluster.run_for(seconds(20));  // pending RM restarts/heals fire in here

  ChaosOutcome out;
  out.nemesis = nemesis.stats();
  out.clean = cluster.checker().clean();
  out.all_resolved = true;
  for (std::uint32_t i = 0; i < cluster.num_clients(); ++i) {
    out.all_resolved &= !cluster.client(i).op_in_flight();
    out.completed += cluster.client(i).ops_completed();
    out.failed += cluster.client(i).failures();
  }
  out.report_json = cluster.report().to_json();
  return out;
}

TEST(RmChaosAcceptanceTest, LeaderFaultsAreSafeLiveAndDeterministic) {
  const ChaosOutcome out = run_rm_chaos(4);
  EXPECT_TRUE(out.clean) << "consistency violations under RM leader chaos";
  EXPECT_TRUE(out.all_resolved) << "a client operation is stuck";
  EXPECT_GT(out.completed, 1'000u);
  // The schedule really exercised both RM fault kinds, alongside the
  // reconfiguration traffic that keeps rounds in flight when they strike.
  EXPECT_GE(out.nemesis.rm_crashes, 1u);
  EXPECT_GE(out.nemesis.rm_partitions, 1u);
  EXPECT_GE(out.nemesis.reconfigurations, 1u);
  EXPECT_NE(out.report_json.find("\"rm_leader_changes\":"),
            std::string::npos);

  const ChaosOutcome again = run_rm_chaos(4);
  EXPECT_EQ(out.report_json, again.report_json);
  EXPECT_EQ(out.completed, again.completed);
  EXPECT_EQ(out.failed, again.failed);
}

}  // namespace
}  // namespace qopt
