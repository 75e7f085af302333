#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "kv/placement.hpp"
#include "kv/quorum.hpp"
#include "kv/service_model.hpp"
#include "kv/storage_node.hpp"
#include "kv/types.hpp"
#include "kv/wire.hpp"
#include "sim/ids.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::kv {
namespace {

// ------------------------------------------------------------------ types

TEST(TimestampTest, TotalOrder) {
  const Timestamp a{100, 0, 1};
  const Timestamp b{100, 1, 0};
  const Timestamp c{200, 0, 0};
  EXPECT_LT(a, b);  // proxy id breaks time ties
  EXPECT_LT(b, c);
  EXPECT_LT(a, c);
  EXPECT_EQ(a, (Timestamp{100, 0, 1}));
}

TEST(QuorumConfigTest, Strictness) {
  EXPECT_TRUE(is_strict({3, 3}, 5));
  EXPECT_TRUE(is_strict({1, 5}, 5));
  EXPECT_TRUE(is_strict({5, 1}, 5));
  EXPECT_FALSE(is_strict({2, 3}, 5));  // 2+3 == 5, not >
  EXPECT_FALSE(is_strict({0, 6}, 5));  // out of range
  EXPECT_FALSE(is_strict({6, 1}, 5));
  EXPECT_TRUE(is_strict({1, 1}, 1));
  EXPECT_TRUE(is_strict({2, 2}, 3));
}

TEST(QuorumConfigTest, TransitionIsComponentwiseMax) {
  const QuorumConfig t = transition({1, 5}, {4, 2});
  EXPECT_EQ(t.read_q, 4);
  EXPECT_EQ(t.write_q, 5);
  // Transition with itself is identity.
  EXPECT_EQ(transition({3, 3}, {3, 3}), (QuorumConfig::of(3, 3)));
}

TEST(QuorumConfigTest, TransitionIntersectsBothConfigs) {
  // For strict old/new configs, the transition quorum must intersect the
  // read and write quorums of both (Section 5.1).
  const int n = 5;
  for (int w_old = 1; w_old <= n; ++w_old) {
    for (int w_new = 1; w_new <= n; ++w_new) {
      const QuorumConfig old_q{n - w_old + 1, w_old};
      const QuorumConfig new_q{n - w_new + 1, w_new};
      const QuorumConfig tran = transition(old_q, new_q);
      EXPECT_GT(tran.read_q + old_q.write_q, n);
      EXPECT_GT(tran.read_q + new_q.write_q, n);
      EXPECT_GT(tran.write_q + old_q.read_q, n);
      EXPECT_GT(tran.write_q + new_q.read_q, n);
    }
  }
}

// -------------------------------------------------------------- placement

TEST(PlacementTest, ReplicasAreDistinctAndInRange) {
  const Placement placement(10, 5, 1);
  for (ObjectId oid = 0; oid < 500; ++oid) {
    const auto replicas = placement.replicas(oid);
    ASSERT_EQ(replicas.size(), 5u);
    std::set<std::uint32_t> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 5u) << "duplicate replica for oid " << oid;
    for (std::uint32_t r : replicas) EXPECT_LT(r, 10u);
  }
}

TEST(PlacementTest, Deterministic) {
  const Placement a(10, 3, 42);
  const Placement b(10, 3, 42);
  for (ObjectId oid = 0; oid < 100; ++oid) {
    EXPECT_EQ(a.replicas(oid), b.replicas(oid));
  }
}

TEST(PlacementTest, SeedChangesLayout) {
  const Placement a(10, 3, 1);
  const Placement b(10, 3, 2);
  int different = 0;
  for (ObjectId oid = 0; oid < 100; ++oid) {
    if (a.replicas(oid) != b.replicas(oid)) ++different;
  }
  EXPECT_GT(different, 50);
}

TEST(PlacementTest, LoadIsRoughlyBalanced) {
  const Placement placement(10, 5, 7);
  std::map<std::uint32_t, int> counts;
  const int objects = 20'000;
  for (ObjectId oid = 0; oid < objects; ++oid) {
    for (std::uint32_t r : placement.replicas(oid)) ++counts[r];
  }
  const double expected = objects * 5 / 10.0;
  for (const auto& [node, count] : counts) {
    EXPECT_NEAR(count, expected, expected * 0.05) << "node " << node;
  }
}

TEST(PlacementTest, FullReplicationUsesAllNodes) {
  const Placement placement(5, 5, 3);
  const auto replicas = placement.replicas(123);
  std::set<std::uint32_t> unique(replicas.begin(), replicas.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(PlacementTest, MemoMatchesRendezvousInsideAndOutsideTheTable) {
  const Placement plain(20, 5, 42);
  Placement memo(20, 5, 42);
  memo.memoize(1000);
  memo.memoize(10);  // never shrinks
  std::vector<std::uint32_t> out;
  for (ObjectId oid = 0; oid < 2000; ++oid) {  // below and above the memo
    memo.replicas_into(oid, out);
    ASSERT_EQ(out, plain.replicas(oid)) << "oid " << oid;
  }
  for (ObjectId oid : {ObjectId{1} << 40, ~ObjectId{0}}) {
    EXPECT_EQ(memo.replicas(oid), plain.replicas(oid));
  }
  // Extending the table keeps earlier rows and adds the new range.
  memo.memoize(1500);
  for (ObjectId oid = 0; oid < 1500; ++oid) {
    ASSERT_EQ(memo.replicas(oid), plain.replicas(oid)) << "oid " << oid;
  }
}

TEST(PlacementTest, InvalidReplicationThrows) {
  EXPECT_THROW(Placement(3, 5, 0), std::invalid_argument);
  EXPECT_THROW(Placement(3, 0, 0), std::invalid_argument);
}

// ---------------------------------------------------------- service model

TEST(ServiceModelTest, WritesSlowerThanReads) {
  ServiceTimes service;
  Rng rng(5);
  double read_sum = 0;
  double write_sum = 0;
  for (int i = 0; i < 5000; ++i) {
    read_sum += static_cast<double>(service.read_time(4096, rng));
    write_sum += static_cast<double>(service.write_time(4096, rng));
  }
  EXPECT_GT(write_sum, read_sum);
}

TEST(ServiceModelTest, SizeIncreasesServiceTime) {
  ServiceTimes service;
  service.read_jitter = 0;  // deterministic part only
  service.write_jitter = 0;
  Rng rng(5);
  EXPECT_GT(service.read_time(1 << 20, rng), service.read_time(1024, rng));
  EXPECT_GT(service.write_time(1 << 20, rng), service.write_time(1024, rng));
}

TEST(ServicePoolTest, SerializesOnSingleServer) {
  ServicePool pool(1);
  const Time t1 = pool.submit(0, 100);
  const Time t2 = pool.submit(0, 100);
  EXPECT_EQ(t1, 100);
  EXPECT_EQ(t2, 200);  // queued behind the first
}

TEST(ServicePoolTest, ParallelServers) {
  ServicePool pool(2);
  EXPECT_EQ(pool.submit(0, 100), 100);
  EXPECT_EQ(pool.submit(0, 100), 100);
  EXPECT_EQ(pool.submit(0, 100), 200);  // third op queues
}

TEST(ServicePoolTest, IdleServerStartsAtNow) {
  ServicePool pool(1);
  pool.submit(0, 50);
  EXPECT_EQ(pool.submit(1000, 50), 1050);
}

TEST(ServicePoolTest, UtilizationTracksBusyTime) {
  ServicePool pool(2);
  pool.submit(0, 100);
  pool.submit(0, 100);
  EXPECT_DOUBLE_EQ(pool.utilization(100), 1.0);
  EXPECT_DOUBLE_EQ(pool.utilization(200), 0.5);
}

// ------------------------------------------------------------ storage node

struct StorageFixture : ::testing::Test {
  using Net = sim::Network<Message>;

  sim::Simulator sim;
  Rng rng{17};
  Net net{sim, sim::LatencyModel{microseconds(50), 0}, rng};
  kv::ServiceTimes service;
  std::unique_ptr<StorageNode> node;
  std::vector<Message> proxy_inbox;

  void SetUp() override {
    service.read_jitter = 0;
    service.write_jitter = 0;
    node = std::make_unique<StorageNode>(sim, net, sim::storage_id(0),
                                         service, 2, Rng(1));
    net.register_node(sim::storage_id(0),
                      [this](const sim::NodeId& from, const Message& m) {
                        node->on_message(from, m);
                      });
    net.register_node(sim::proxy_id(0),
                      [this](const sim::NodeId&, const Message& m) {
                        proxy_inbox.push_back(m);
                      });
  }

  void send(const Message& m) {
    net.send(sim::proxy_id(0), sim::storage_id(0), m);
  }
};

TEST_F(StorageFixture, WriteThenReadReturnsVersion) {
  Version v;
  v.ts = {100, 0, 1};
  v.cfno = 0;
  v.value = 99;
  v.size_bytes = 4096;
  send(StorageWriteReq{7, 1, 0, v, {}});
  sim.run();
  ASSERT_EQ(proxy_inbox.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<StorageWriteResp>(proxy_inbox[0]));

  send(StorageReadReq{7, 2, 0, {}});
  sim.run();
  ASSERT_EQ(proxy_inbox.size(), 2u);
  const auto& resp = std::get<StorageReadResp>(proxy_inbox[1]);
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 99u);
  EXPECT_EQ(resp.version.ts, v.ts);
}

TEST_F(StorageFixture, ReadOfMissingObjectNotFound) {
  send(StorageReadReq{42, 1, 0, {}});
  sim.run();
  const auto& resp = std::get<StorageReadResp>(proxy_inbox.at(0));
  EXPECT_FALSE(resp.found);
}

TEST_F(StorageFixture, OlderWriteDiscardedButAcked) {
  Version newer;
  newer.ts = {200, 0, 1};
  newer.value = 2;
  Version older;
  older.ts = {100, 0, 1};
  older.value = 1;
  send(StorageWriteReq{7, 1, 0, newer, {}});
  sim.run();
  send(StorageWriteReq{7, 2, 0, older, {}});
  sim.run();
  EXPECT_EQ(proxy_inbox.size(), 2u);  // both acked
  EXPECT_TRUE(std::holds_alternative<StorageWriteResp>(proxy_inbox[1]));
  EXPECT_EQ(node->peek(7)->value, 2u);
  EXPECT_EQ(node->observability().registry().counter_value(
                obs::instrument_name("storage", 0, "writes_discarded")),
            1u);
}

TEST_F(StorageFixture, EqualTimestampHigherCfnoRefreshesTag) {
  Version v;
  v.ts = {100, 0, 1};
  v.cfno = 0;
  v.value = 5;
  send(StorageWriteReq{7, 1, 0, v, {}});
  sim.run();
  Version writeback = v;
  writeback.cfno = 3;  // read-repair write-back under a newer config
  send(StorageWriteReq{7, 2, 0, writeback, {}});
  sim.run();
  EXPECT_EQ(node->peek(7)->cfno, 3u);
  EXPECT_EQ(node->peek(7)->value, 5u);
}

TEST_F(StorageFixture, StaleEpochGetsNack) {
  FullConfig config;
  config.epno = 2;
  config.cfno = 1;
  config.default_q = QuorumConfig::of(2, 4);
  net.send(sim::rm_id(), sim::storage_id(0), NewEpochMsg{config, {}});
  sim.run();
  EXPECT_EQ(node->epoch(), 2u);

  send(StorageReadReq{7, 9, /*epno=*/1, {}});
  sim.run();
  bool got_nack = false;
  for (const Message& m : proxy_inbox) {
    if (const auto* nack = std::get_if<EpochNack>(&m)) {
      got_nack = true;
      EXPECT_EQ(nack->op_id, 9u);
      EXPECT_EQ(nack->config.epno, 2u);
      EXPECT_EQ(nack->config.default_q, (QuorumConfig::of(2, 4)));
    }
  }
  EXPECT_TRUE(got_nack);
  EXPECT_EQ(node->observability().registry().counter_value(
                obs::instrument_name("storage", 0, "nacks_sent")),
            1u);
}

TEST_F(StorageFixture, CurrentEpochOperationsServed) {
  FullConfig config;
  config.epno = 2;
  net.send(sim::rm_id(), sim::storage_id(0), NewEpochMsg{config, {}});
  sim.run();
  send(StorageReadReq{7, 1, /*epno=*/2, {}});
  sim.run();
  // One ACKNEWEP went to the RM; the proxy should see a read reply.
  bool got_read = false;
  for (const Message& m : proxy_inbox) {
    got_read |= std::holds_alternative<StorageReadResp>(m);
  }
  EXPECT_TRUE(got_read);
}

TEST_F(StorageFixture, OlderEpochMessageDoesNotRegress) {
  FullConfig newer;
  newer.epno = 5;
  net.send(sim::rm_id(), sim::storage_id(0), NewEpochMsg{newer, {}});
  sim.run();
  FullConfig older;
  older.epno = 3;
  net.send(sim::rm_id(), sim::storage_id(0), NewEpochMsg{older, {}});
  sim.run();
  EXPECT_EQ(node->epoch(), 5u);
}

TEST_F(StorageFixture, WritesQueueOnServicePool) {
  // Two servers: three concurrent writes, the third completes later.
  Version v;
  v.ts = {100, 0, 1};
  v.size_bytes = 0;
  send(StorageWriteReq{1, 1, 0, v, {}});
  send(StorageWriteReq{2, 2, 0, v, {}});
  send(StorageWriteReq{3, 3, 0, v, {}});
  sim.run();
  EXPECT_EQ(proxy_inbox.size(), 3u);
  EXPECT_EQ(node->object_count(), 3u);
  // Utilization over the busy interval must be positive.
  EXPECT_GT(node->service_pool().total_busy(), 0);
}

TEST_F(StorageFixture, CrashedNodeIsSilent) {
  node->crash();
  send(StorageReadReq{7, 1, 0, {}});
  sim.run();
  EXPECT_TRUE(proxy_inbox.empty());
}

TEST_F(StorageFixture, PreloadBypassesProtocol) {
  Version v;
  v.ts = {0, 0, 0};
  v.value = 77;
  node->preload(123, v);
  send(StorageReadReq{123, 1, 0, {}});
  sim.run();
  const auto& resp = std::get<StorageReadResp>(proxy_inbox.at(0));
  EXPECT_TRUE(resp.found);
  EXPECT_EQ(resp.version.value, 77u);
}

TEST_F(StorageFixture, NewOidWritesGrowThePreloadedStore) {
  // The store is sized for its preload; writes of many new oids (0 and the
  // all-ones id among them) grow it several times. Rewrites of preloaded
  // oids replace in place. Every view must then match an ordered reference.
  constexpr ObjectId kMax = ~ObjectId{0};
  std::map<ObjectId, Version> reference;
  node->reserve(8);
  for (ObjectId oid = 100; oid < 108; ++oid) {
    Version v;
    v.value = oid;
    v.size_bytes = 0;
    node->preload(oid, v);
    reference[oid] = v;
  }
  Rng keys(5);
  for (std::uint64_t i = 0; i < 600; ++i) {
    ObjectId oid = keys.next();
    if (i == 0) {
      oid = 0;
    } else if (i == 1) {
      oid = kMax;
    } else if (i % 10 == 0) {
      oid = 100 + i % 8;  // a preloaded oid, rewritten with a newer ts
    }
    Version v;
    v.ts = {static_cast<Time>(i + 1), 0, i};
    v.value = i;
    v.size_bytes = 0;
    send(StorageWriteReq{oid, i + 1, 0, v, {}});
    reference[oid] = v;
  }
  sim.run();

  const auto same = [](const Version& a, const Version& b) {
    return a.ts == b.ts && a.cfno == b.cfno && a.value == b.value &&
           a.size_bytes == b.size_bytes;
  };
  ASSERT_EQ(node->object_count(), reference.size());
  const auto contents = node->sorted_contents();
  ASSERT_EQ(contents.size(), reference.size());
  for (const auto& [oid, version] : reference) {
    const Version* stored = node->peek(oid);
    ASSERT_NE(stored, nullptr) << oid;
    EXPECT_TRUE(same(*stored, version)) << oid;
    ASSERT_EQ(contents.count(oid), 1u) << oid;
    EXPECT_TRUE(same(contents.at(oid), version)) << oid;
  }
  EXPECT_EQ(node->peek(108), nullptr);
  EXPECT_EQ(node->peek(kMax - 1), nullptr);

  std::vector<std::pair<ObjectId, Version>> visited;
  node->for_each_version([&visited](ObjectId oid, const Version& version) {
    visited.emplace_back(oid, version);
  });
  std::sort(visited.begin(), visited.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  ASSERT_EQ(visited.size(), reference.size());
  auto ref = reference.begin();
  for (const auto& [oid, version] : visited) {
    EXPECT_EQ(oid, ref->first);
    EXPECT_TRUE(same(version, ref->second)) << oid;
    ++ref;
  }
}

}  // namespace
}  // namespace qopt::kv
