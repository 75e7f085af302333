// Same-seed replay gate for the QuorumStrategy redesign: the scenario below
// was run against the pre-redesign (r, w)-only build and its RunReport JSON
// committed as tests/data/replay_baseline.json. Re-running it through the
// QuorumStrategy::majority factories must reproduce that export byte for
// byte — proof that the strategy generalization left the majority path's
// event schedule, RNG draws, and wire traffic untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>

#include "core/cluster.hpp"
#include "kv/quorum.hpp"
#include "kv/types.hpp"
#include "util/time.hpp"
#include "workload/workload.hpp"

namespace qopt {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Runs the scenario; `fingerprint` receives the engine's schedule
// fingerprint at the end of it.
std::string run_replay_scenario(std::uint64_t* fingerprint = nullptr) {
  ClusterConfig config;
  config.num_storage = 10;
  config.num_proxies = 2;
  config.clients_per_proxy = 4;
  config.replication = 5;
  config.initial_quorum = kv::QuorumConfig::of(3, 3);
  config.seed = 0xB0B0;
  Cluster cluster(config);
  cluster.preload(2000, 4096);
  cluster.set_workload(workload::ycsb_a(2000));
  cluster.run_for(seconds(2));
  // Store-wide and per-object reconfigurations through the strategy API:
  // majority strategies must take the exact legacy path.
  cluster.reconfigure_strategy(kv::QuorumStrategy::majority(2, 4, 5));
  cluster.run_for(seconds(2));
  cluster.reconfigure_objects({{7, kv::QuorumConfig::of(5, 1)},
                               {11, kv::QuorumConfig::of(4, 2)}});
  cluster.run_for(seconds(2));
  cluster.stop_clients();
  cluster.run_for(seconds(1));
  if (fingerprint != nullptr) {
    *fingerprint = cluster.simulator().schedule_fingerprint();
  }
  return cluster.report().to_json();
}

TEST(ReplayGateTest, MajorityStrategyReplaysPreRedesignBaseline) {
  const std::string baseline =
      read_file(std::string(QOPT_TEST_DATA_DIR) + "/replay_baseline.json");
  ASSERT_FALSE(baseline.empty()) << "baseline export missing";
  const std::string now = run_replay_scenario();
  // Compare sizes first for a readable failure before the full diff.
  ASSERT_EQ(baseline.size(), now.size())
      << "replay diverged from the pre-redesign baseline";
  EXPECT_EQ(baseline, now);
}

// The same scenario's event schedule, pinned as the simulator's running
// (time, seq) fingerprint: an engine change that keeps this value ran every
// event at the same instant in the same order, whatever the report shows.
TEST(ReplayGateTest, ScheduleFingerprintIsPinned) {
  std::uint64_t fingerprint = 0;
  run_replay_scenario(&fingerprint);
  EXPECT_EQ(fingerprint, 0x996f9777af7f726dull);
}

}  // namespace
}  // namespace qopt
