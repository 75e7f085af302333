// Tests for the core-layer features beyond the basic data path: metrics,
// the consistency checker itself, the experiment runner, the anti-entropy
// replicator, and client proxy failover.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/client.hpp"
#include "core/cluster.hpp"
#include "core/consistency.hpp"
#include "core/experiment.hpp"
#include "core/metrics.hpp"
#include "kv/replicator.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "ml/dataset.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

// ------------------------------------------------------------------ metrics

TEST(MetricsTest, RecordsAndBuckets) {
  Metrics metrics(milliseconds(100));
  metrics.record({1, false, 0, milliseconds(50), 0, 0, {}});
  metrics.record({2, true, 0, milliseconds(150), 0, 0, {}});
  metrics.record({3, false, milliseconds(100), milliseconds(250), 0, 0, {}});
  EXPECT_EQ(metrics.total_ops(), 3u);
  EXPECT_EQ(metrics.total_reads(), 2u);
  EXPECT_EQ(metrics.total_writes(), 1u);
  EXPECT_EQ(metrics.ops_between(0, milliseconds(100)), 1u);
  EXPECT_EQ(metrics.ops_between(0, milliseconds(300)), 3u);
  EXPECT_EQ(metrics.ops_between(milliseconds(100), milliseconds(200)), 1u);
}

TEST(MetricsTest, ThroughputComputation) {
  Metrics metrics(milliseconds(100));
  for (int i = 0; i < 1000; ++i) {
    metrics.record({0, false, 0, milliseconds(i), 0, 0, {}});
  }
  EXPECT_NEAR(metrics.throughput(0, seconds(1)), 1000.0, 1.0);
}

TEST(MetricsTest, LatencySeparatedByKind) {
  Metrics metrics;
  metrics.record({0, false, 0, milliseconds(1), 0, 0, {}});
  metrics.record({0, true, 0, milliseconds(10), 0, 0, {}});
  EXPECT_NEAR(metrics.read_latency().mean(),
              static_cast<double>(milliseconds(1)), 1.0);
  EXPECT_NEAR(metrics.write_latency().mean(),
              static_cast<double>(milliseconds(10)), 1.0);
}

TEST(MetricsTest, ResetClears) {
  Metrics metrics;
  metrics.record({0, false, 0, milliseconds(1), 0, 0, {}});
  metrics.reset();
  EXPECT_EQ(metrics.total_ops(), 0u);
  EXPECT_EQ(metrics.ops_between(0, seconds(10)), 0u);
}

TEST(MetricsTest, EmptyRangeIsZero) {
  Metrics metrics;
  EXPECT_EQ(metrics.ops_between(seconds(5), seconds(5)), 0u);
  EXPECT_DOUBLE_EQ(metrics.throughput(seconds(5), seconds(4)), 0.0);
}

// ----------------------------------------------------- consistency checker

TEST(ConsistencyCheckerTest, CleanWhenReadsAreFresh) {
  ConsistencyChecker checker;
  checker.write_completed(1, {100, 0, 1});
  const kv::Timestamp snap = checker.snapshot(1);
  checker.read_completed(1, 200, 210, true, {100, 0, 1}, snap);
  checker.read_completed(1, 200, 210, true, {150, 2, 1}, snap);  // fresher ok
  EXPECT_TRUE(checker.clean());
  EXPECT_EQ(checker.reads_checked(), 2u);
}

TEST(ConsistencyCheckerTest, FlagsStaleRead) {
  ConsistencyChecker checker;
  checker.write_completed(1, {100, 0, 1});
  checker.write_completed(1, {200, 0, 2});
  const kv::Timestamp snap = checker.snapshot(1);
  checker.read_completed(1, 300, 310, true, {100, 0, 1}, snap);
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_EQ(checker.violations()[0].oid, 1u);
}

TEST(ConsistencyCheckerTest, FlagsNotFoundAfterWrite) {
  ConsistencyChecker checker;
  checker.write_completed(7, {100, 0, 1});
  checker.read_completed(7, 200, 210, false, {}, checker.snapshot(7));
  EXPECT_FALSE(checker.clean());
}

TEST(ConsistencyCheckerTest, NotFoundBeforeAnyWriteIsFine) {
  ConsistencyChecker checker;
  checker.read_completed(7, 10, 20, false, {}, checker.snapshot(7));
  EXPECT_TRUE(checker.clean());
}

TEST(ConsistencyCheckerTest, SnapshotMonotone) {
  ConsistencyChecker checker;
  checker.write_completed(1, {200, 0, 1});
  checker.write_completed(1, {100, 0, 1});  // older completion later
  EXPECT_EQ(checker.snapshot(1), (kv::Timestamp{200, 0, 1}));
}

// -------------------------------------------------------- experiment runner

TEST(ExperimentTest, RunStaticIsDeterministic) {
  ExperimentSpec spec;
  spec.cluster.num_storage = 5;
  spec.cluster.num_proxies = 1;
  spec.cluster.clients_per_proxy = 4;
  spec.cluster.replication = 3;
  spec.preload_objects = 200;
  spec.warmup = milliseconds(500);
  spec.measure = seconds(2);
  spec.workload = workload::ycsb_a(200);
  const ExperimentResult a = run_static(spec, {2, 2});
  const ExperimentResult b = run_static(spec, {2, 2});
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_DOUBLE_EQ(a.throughput_ops, b.throughput_ops);
  EXPECT_TRUE(a.consistent);
  EXPECT_GT(a.read_p50_ms, 0.0);
  EXPECT_GT(a.write_p99_ms, a.write_p50_ms * 0.99);
}

TEST(ExperimentTest, MissingWorkloadThrows) {
  ExperimentSpec spec;
  EXPECT_THROW(run_static(spec, {3, 3}), std::invalid_argument);
}

TEST(ExperimentTest, CorpusCsvRoundTrip) {
  std::vector<CorpusPoint> corpus;
  for (int i = 0; i < 5; ++i) {
    CorpusPoint point;
    point.write_ratio = 0.1 * i;
    point.object_bytes = 1024u << i;
    point.optimal_w = i + 1;
    point.best_throughput = 1000.0 + i;
    point.worst_throughput = 500.0 + i;
    point.features = {0.1 * i, static_cast<double>(1 << i), 100.0 * i};
    corpus.push_back(point);
  }
  const std::string path = "corpus_roundtrip_test.csv";
  save_corpus(path, corpus);
  const std::vector<CorpusPoint> loaded = load_corpus(path);
  ASSERT_EQ(loaded.size(), corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded[i].write_ratio, corpus[i].write_ratio);
    EXPECT_EQ(loaded[i].object_bytes, corpus[i].object_bytes);
    EXPECT_EQ(loaded[i].optimal_w, corpus[i].optimal_w);
    EXPECT_DOUBLE_EQ(loaded[i].features.ops_per_sec,
                     corpus[i].features.ops_per_sec);
  }
  std::filesystem::remove(path);
}

TEST(ExperimentTest, LoadCorpusMissingReturnsEmpty) {
  EXPECT_TRUE(load_corpus("no_such_corpus.csv").empty());
}

TEST(ExperimentTest, CorpusToDatasetLabelsAreWriteQuorums) {
  std::vector<CorpusPoint> corpus(3);
  corpus[0].optimal_w = 1;
  corpus[1].optimal_w = 5;
  corpus[2].optimal_w = 3;
  const ml::Dataset data = corpus_to_dataset(corpus);
  EXPECT_EQ(data.size(), 3u);
  EXPECT_EQ(data.label(1), 5);
  EXPECT_EQ(data.num_features(), 3u);
}

TEST(ExperimentTest, PaperGridIs170Points) {
  EXPECT_EQ(paper_write_ratios().size() * paper_object_sizes().size(), 170u);
}

// ------------------------------------------------------------ anti-entropy

TEST(AntiEntropyTest, RestoresFullRedundancyAfterSmallQuorumWrites) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 1;
  config.clients_per_proxy = 2;
  config.replication = 5;
  config.initial_quorum = {5, 1};  // writes land on a single replica
  config.seed = 3;
  Cluster cluster(config);
  cluster.preload(50, 1024);
  workload::WorkloadSpec spec;
  spec.write_ratio = 1.0;
  spec.keys = std::make_shared<workload::UniformKeys>(50);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  kv::ReplicatorOptions options;
  options.interval = seconds(1);
  options.max_repairs_per_sweep = 10'000;
  cluster.enable_anti_entropy(options);
  cluster.run_for(seconds(5));
  cluster.stop_clients();
  cluster.run_for(seconds(4));  // quiesce + let sweeps finish

  EXPECT_GT(cluster.replicator()->stats().repairs_pushed, 0u);
  // Every object's replicas must agree on the freshest version.
  int divergent = 0;
  for (kv::ObjectId oid = 0; oid < 50; ++oid) {
    kv::Timestamp freshest{};
    for (std::uint32_t r : cluster.placement().replicas(oid)) {
      const kv::Version* version = cluster.storage(r).peek(oid);
      if (version && version->ts > freshest) freshest = version->ts;
    }
    for (std::uint32_t r : cluster.placement().replicas(oid)) {
      const kv::Version* version = cluster.storage(r).peek(oid);
      if (!version || version->ts != freshest) ++divergent;
    }
  }
  EXPECT_EQ(divergent, 0);
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(AntiEntropyTest, DoubleEnableThrows) {
  ClusterConfig config;
  config.num_storage = 3;
  config.num_proxies = 1;
  config.clients_per_proxy = 1;
  config.replication = 3;
  config.initial_quorum = {2, 2};
  Cluster cluster(config);
  cluster.enable_anti_entropy();
  EXPECT_THROW(cluster.enable_anti_entropy(), std::logic_error);
}

TEST(AntiEntropyTest, ThrottleLimitsRepairsPerSweep) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 1;
  config.clients_per_proxy = 2;
  config.replication = 5;
  config.initial_quorum = {5, 1};
  config.seed = 5;
  Cluster cluster(config);
  workload::WorkloadSpec spec;
  spec.write_ratio = 1.0;
  spec.keys = std::make_shared<workload::UniformKeys>(500);
  cluster.set_workload(std::make_shared<workload::BasicWorkload>(spec));
  cluster.run_for(seconds(2));
  cluster.stop_clients();
  cluster.run_for(seconds(1));
  kv::ReplicatorOptions options;
  options.interval = seconds(1);
  options.max_repairs_per_sweep = 20;
  cluster.enable_anti_entropy(options);
  cluster.run_for(milliseconds(1100));  // exactly one sweep
  EXPECT_LE(cluster.replicator()->stats().repairs_pushed, 23u)
      << "throttle exceeded (one object may add up to N-1 pushes)";
}

// --------------------------------------------------------- client failover

TEST(ClientFailoverTest, ClientsSurviveProxyCrash) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 3;
  config.clients_per_proxy = 3;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.client_retry_timeout = milliseconds(200);
  config.seed = 7;
  Cluster cluster(config);
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));
  cluster.crash_proxy(0);
  cluster.run_for(seconds(3));
  // The crashed proxy's clients failed over and kept completing work.
  for (std::uint32_t c = 0; c < 3; ++c) {
    const std::uint64_t before = cluster.client(c).ops_completed();
    cluster.run_for(seconds(1));
    EXPECT_GT(cluster.client(c).ops_completed(), before)
        << "client " << c << " stalled after proxy crash";
    EXPECT_GT(cluster.client(c).retries(), 0u);
    EXPECT_NE(cluster.client(c).current_proxy(), sim::proxy_id(0));
  }
  EXPECT_TRUE(cluster.checker().clean());
}

TEST(ClientFailoverTest, DisabledByDefaultClientsStall) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 2;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.seed = 9;
  Cluster cluster(config);
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(1));
  cluster.crash_proxy(0);
  cluster.run_for(seconds(1));
  const std::uint64_t stalled = cluster.client(0).ops_completed();
  cluster.run_for(seconds(2));
  EXPECT_EQ(cluster.client(0).ops_completed(), stalled);
  // Other proxy's clients unaffected.
  EXPECT_GT(cluster.client(2).ops_completed(), 0u);
}

TEST(ClientFailoverTest, ReplyCancelsTheFailoverTimer) {
  sim::Simulator sim;
  sim::Network<kv::Message> net(sim, sim::LatencyModel{microseconds(100), 0},
                                Rng(1));
  Client client(sim, net, sim::client_id(0), sim::proxy_id(0), Rng(2),
                nullptr, nullptr, /*think_time=*/0, /*num_proxies=*/2,
                /*retry_timeout=*/seconds(1));
  client.set_source(workload::ycsb_b(10));
  int requests = 0;
  // A proxy that answers at once; the client stops after its first op.
  net.register_node(sim::proxy_id(0),
                    [&](const sim::NodeId& from, const kv::Message& m) {
                      ++requests;
                      client.stop();
                      if (const auto* read = std::get_if<kv::ClientReadReq>(&m)) {
                        kv::ClientReadResp resp;
                        resp.req_id = read->req_id;
                        net.send(sim::proxy_id(0), from, resp);
                      } else {
                        kv::ClientWriteResp resp;
                        resp.req_id = std::get<kv::ClientWriteReq>(m).req_id;
                        net.send(sim::proxy_id(0), from, resp);
                      }
                    });
  net.register_node(sim::client_id(0),
                    [&](const sim::NodeId& from, const kv::Message& m) {
                      client.on_message(from, m);
                    });
  client.start();
  sim.run();
  EXPECT_EQ(requests, 1);
  EXPECT_EQ(client.ops_completed(), 1u);
  EXPECT_EQ(client.retries(), 0u);
  // The failover timer went with the reply: nothing waits for the 1 s mark.
  EXPECT_TRUE(sim.empty());
  EXPECT_LT(sim.now(), seconds(1));
}

TEST(ClientFailoverTest, NoSpuriousRetriesWhenHealthy) {
  ClusterConfig config;
  config.num_storage = 5;
  config.num_proxies = 2;
  config.clients_per_proxy = 2;
  config.replication = 5;
  config.initial_quorum = {3, 3};
  config.client_retry_timeout = seconds(2);  // far above any latency
  config.seed = 11;
  Cluster cluster(config);
  cluster.preload(100, 1024);
  cluster.set_workload(workload::ycsb_a(100));
  cluster.run_for(seconds(5));
  for (std::uint32_t c = 0; c < cluster.num_clients(); ++c) {
    EXPECT_EQ(cluster.client(c).retries(), 0u);
  }
}

}  // namespace
}  // namespace qopt
