#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "obs/registry.hpp"
#include "sim/failure_detector.hpp"
#include "sim/ids.hpp"
#include "sim/link_table.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace qopt::sim {
namespace {

// -------------------------------------------------------------- simulator

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.at(30, [&] { order.push_back(3); });
  sim.at(10, [&] { order.push_back(1); });
  sim.at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
}

TEST(SimulatorTest, SameTimeFifoBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  Time fired_at = -1;
  sim.after(50, [&] { fired_at = sim.now(); });
  sim.run();
  EXPECT_EQ(fired_at, 150);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator sim;
  sim.at(100, [] {});
  sim.run();
  Time fired_at = -1;
  sim.at(10, [&] { fired_at = sim.now(); });  // in the past
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(SimulatorTest, RunUntilHorizonStopsAndAdvancesClock) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] { ++fired; });
  sim.at(100, [&] { ++fired; });
  sim.run(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);  // clock advanced to horizon
  sim.run(200);
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.after(10, recurse);
  };
  sim.after(10, recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), 50);
}

TEST(SimulatorTest, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.at(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.at(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, StepProcessesOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.at(1, [&] { ++fired; });
  sim.at(2, [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(SimulatorTest, SameInstantEventsOnRecycledSlotsRunInSeqOrder) {
  // Each wave's events free their slots, and the next wave's same-instant
  // events, scheduled from inside handlers, land on those recycled slots in
  // LIFO order. The run order must still be pure (time, seq).
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    sim.at(10, [&, i] {
      order.push_back(i);
      sim.after(0, [&, i] {  // same instant, later seq
        order.push_back(10 + i);
        sim.at(20, [&, i] { order.push_back(20 + i); });
      });
    });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 10, 11, 12, 13, 20, 21, 22,
                                     23}));
  EXPECT_TRUE(sim.empty());
}

TEST(SimulatorTest, ChooserRequeueAfterSlotReuseRestoresCanonicalOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 6; ++i) {
    sim.at(5, [&order, i] { order.push_back(i); });
  }
  // Always run the last staged candidate: event 2, then event 3.
  sim.set_schedule_chooser([](std::size_t n) { return n - 1; }, 3);
  ASSERT_TRUE(sim.step());
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(order, (std::vector<int>{2, 3}));
  // These reuse the slots events 2 and 3 released; their keys sort after
  // every requeued key.
  sim.at(5, [&order] { order.push_back(6); });
  sim.at(1, [&order] { order.push_back(7); });  // clamps to now
  sim.clear_schedule_chooser();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{2, 3, 0, 1, 4, 5, 6, 7}));
}

TEST(SimulatorTest, LargeCapturesSpillAndStillRun) {
  Simulator sim;
  std::array<std::uint64_t, 64> big{};  // 512 bytes: beyond the inline buffer
  big[63] = 42;
  std::uint64_t seen = 0;
  auto read_big = [&seen, big] { seen = big[63]; };
  static_assert(!Task::fits_inline<decltype(read_big)>());
  sim.at(1, std::move(read_big));
  sim.run();
  EXPECT_EQ(seen, 42u);
}

// ----------------------------------------------------------- cancellation

TEST(SimulatorCancelTest, CancelledEventNeverRunsAndDropsItsCaptureAtOnce) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  bool ran = false;
  const EventHandle h = sim.at(10, [&ran, token] { ran = *token == 7; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(sim.cancel(h));
  EXPECT_EQ(token.use_count(), 1);  // destroyed at cancel, not at pop
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_processed(), 0u);
}

TEST(SimulatorCancelTest, CancelAfterRunOrTwiceOrWhileRunningIsANoOp) {
  Simulator sim;
  int fired = 0;
  const EventHandle ran = sim.at(1, [&] { ++fired; });
  EventHandle self;
  self = sim.at(2, [&] {
    EXPECT_FALSE(sim.cancel(self));  // its own, already running
    ++fired;
  });
  const EventHandle twice = sim.at(3, [&] { ++fired; });
  ASSERT_TRUE(sim.step());
  EXPECT_FALSE(sim.cancel(ran));
  EXPECT_TRUE(sim.cancel(twice));
  EXPECT_FALSE(sim.cancel(twice));
  EXPECT_FALSE(sim.cancel(EventHandle{}));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorCancelTest, StaleHandleDoesNotCancelTheSlotsNextEvent) {
  Simulator sim;
  std::vector<int> order;
  const EventHandle cancelled = sim.at(5, [&] { order.push_back(0); });
  ASSERT_TRUE(sim.cancel(cancelled));
  // The slot freed by the cancel is handed out again first (LIFO).
  sim.at(5, [&] { order.push_back(1); });
  EXPECT_FALSE(sim.cancel(cancelled));
  const EventHandle ran = sim.at(6, [&] { order.push_back(2); });
  ASSERT_TRUE(sim.step());
  ASSERT_TRUE(sim.step());  // frees `ran`'s slot...
  sim.at(7, [&] { order.push_back(3); });  // ...which this one takes
  EXPECT_FALSE(sim.cancel(ran));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorCancelTest, RunUntilSkipsDeadFrontKeysWithoutOverrunning) {
  Simulator sim;
  int fired = 0;
  std::vector<EventHandle> dead;
  // Enough live events that the cancels below stay under the rebuild
  // threshold: the dead keys really sit at the front of the heap.
  for (int i = 0; i < 4; ++i) dead.push_back(sim.at(10 + i, [&] { ++fired; }));
  for (int i = 0; i < 6; ++i) sim.at(100 + i, [&] { ++fired; });
  for (const EventHandle& h : dead) ASSERT_TRUE(sim.cancel(h));
  EXPECT_EQ(sim.pending(), 6u);
  EXPECT_EQ(sim.run(50), 0u);  // nothing live before the horizon
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(sim.now(), 50);
  EXPECT_EQ(sim.run(102), 3u);
  EXPECT_EQ(sim.now(), 102);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, 6);
  EXPECT_EQ(sim.events_processed(), 6u);
}

TEST(SimulatorCancelTest, ChooserNeverStagesACancelledEvent) {
  Simulator sim;
  std::vector<int> order;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(sim.at(5, [&order, i] { order.push_back(i); }));
  }
  // Dead keys both at the front and behind a live one.
  ASSERT_TRUE(sim.cancel(handles[0]));
  ASSERT_TRUE(sim.cancel(handles[3]));
  std::vector<std::size_t> staged;
  // Always run the last staged candidate.
  sim.set_schedule_chooser(
      [&staged](std::size_t n) {
        staged.push_back(n);
        return n - 1;
      },
      3);
  ASSERT_TRUE(sim.step());  // candidates 1, 2, 4
  EXPECT_EQ(order, (std::vector<int>{4}));
  ASSERT_TRUE(sim.cancel(handles[5]));
  ASSERT_TRUE(sim.step());  // candidates 1, 2, 6
  sim.clear_schedule_chooser();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{4, 6, 1, 2, 7}));
  EXPECT_EQ(staged, (std::vector<std::size_t>{3, 3}));
}

TEST(SimulatorCancelTest, PendingAndEmptyCountLiveEventsOnly) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 3; ++i) handles.push_back(sim.at(10 * (i + 1), [] {}));
  EXPECT_EQ(sim.pending(), 3u);
  ASSERT_TRUE(sim.cancel(handles[1]));
  EXPECT_EQ(sim.pending(), 2u);
  EXPECT_FALSE(sim.empty());
  ASSERT_TRUE(sim.cancel(handles[0]));
  ASSERT_TRUE(sim.cancel(handles[2]));
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_TRUE(sim.empty());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(sim.now(), 0);
}

TEST(SimulatorCancelTest, MatchesAnOrderedSetOverRandomInterleavings) {
  // Differential test: the simulator under random schedule / cancel / step
  // sequences against a std::set of (time, seq). Times come from a narrow
  // range so same-instant ties are common; bursts of cancels push the dead
  // share past one half and force heap rebuilds.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Simulator sim;
    std::set<std::pair<Time, std::uint64_t>> model;  // (time, id)
    std::vector<std::pair<EventHandle, std::pair<Time, std::uint64_t>>> all;
    std::vector<std::uint64_t> ran;
    std::vector<std::uint64_t> expected;
    std::uint64_t next_id = 0;
    for (int op = 0; op < 4000; ++op) {
      const std::uint64_t dice = rng.next_below(100);
      if (dice < 45) {
        const std::uint64_t id = next_id++;
        const Time t = sim.now() + static_cast<Time>(rng.next_below(8));
        const EventHandle h = sim.at(t, [&ran, id] { ran.push_back(id); });
        model.emplace(t, id);
        all.push_back({h, {t, id}});
      } else if (dice < 70 && !all.empty()) {
        // Any handle ever issued: live, ran, cancelled, or slot reused.
        const auto& [h, key] = all[rng.next_below(all.size())];
        EXPECT_EQ(sim.cancel(h), model.erase(key) == 1);
      } else if (dice < 73) {
        // Burst: cancel most live events at once.
        for (const auto& [h, key] : all) {
          if (rng.next_below(4) != 0 && model.erase(key) == 1) {
            EXPECT_TRUE(sim.cancel(h));
          }
        }
      } else {
        const bool stepped = sim.step();
        EXPECT_EQ(stepped, !model.empty());
        if (stepped) {
          expected.push_back(model.begin()->second);
          EXPECT_EQ(sim.now(), model.begin()->first);
          model.erase(model.begin());
        }
      }
      ASSERT_EQ(sim.pending(), model.size()) << "seed " << seed;
      ASSERT_EQ(sim.empty(), model.empty());
    }
    while (!model.empty()) {
      expected.push_back(model.begin()->second);
      model.erase(model.begin());
    }
    sim.run();
    EXPECT_EQ(ran, expected) << "seed " << seed;
  }
}

// ---------------------------------------------------------------- node ids

TEST(NodeIdTest, OrderingAndEquality) {
  EXPECT_EQ(proxy_id(1), proxy_id(1));
  EXPECT_NE(proxy_id(1), proxy_id(2));
  EXPECT_NE(proxy_id(1), storage_id(1));
  EXPECT_LT(client_id(0), proxy_id(0));  // enum order
}

TEST(NodeIdTest, ToString) {
  EXPECT_EQ(to_string(proxy_id(3)), "proxy-3");
  EXPECT_EQ(to_string(storage_id(0)), "storage-0");
  EXPECT_EQ(to_string(rm_id()), "rm-0");
  EXPECT_EQ(to_string(am_id()), "am-0");
  EXPECT_EQ(to_string(client_id(12)), "client-12");
}

// ---------------------------------------------------------------- network

using TestNet = Network<std::string>;

struct NetFixture : ::testing::Test {
  Simulator sim;
  Rng rng{99};
  LatencyModel latency{microseconds(100), microseconds(50)};
  TestNet net{sim, latency, rng};
};

TEST_F(NetFixture, DeliversToRegisteredHandler) {
  std::vector<std::string> received;
  net.register_node(proxy_id(0),
                    [&](const NodeId&, const std::string& m) {
                      received.push_back(m);
                    });
  net.send(client_id(0), proxy_id(0), "hello");
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], "hello");
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(NetFixture, DeliveryTakesLatency) {
  Time delivered_at = -1;
  net.register_node(proxy_id(0), [&](const NodeId&, const std::string&) {
    delivered_at = sim.now();
  });
  net.send(client_id(0), proxy_id(0), "x");
  sim.run();
  EXPECT_GE(delivered_at, microseconds(100));
  EXPECT_LT(delivered_at, microseconds(150) + 1);
}

TEST_F(NetFixture, FifoPerSenderReceiverPair) {
  std::vector<int> received;
  net.register_node(proxy_id(0), [&](const NodeId&, const std::string& m) {
    received.push_back(std::stoi(m));
  });
  for (int i = 0; i < 200; ++i) {
    net.send(client_id(0), proxy_id(0), std::to_string(i));
  }
  sim.run();
  ASSERT_EQ(received.size(), 200u);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(received[static_cast<size_t>(i)], i);
}

TEST_F(NetFixture, CrashedReceiverDropsInFlight) {
  int received = 0;
  net.register_node(proxy_id(0),
                    [&](const NodeId&, const std::string&) { ++received; });
  net.send(client_id(0), proxy_id(0), "x");
  net.set_crashed(proxy_id(0));
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().dropped_receiver_crashed, 1u);
  EXPECT_EQ(net.stats().dropped_sender_crashed, 0u);
  EXPECT_EQ(net.stats().dropped_unroutable, 0u);
}

TEST_F(NetFixture, CrashedSenderCannotSend) {
  int received = 0;
  net.register_node(proxy_id(0),
                    [&](const NodeId&, const std::string&) { ++received; });
  net.set_crashed(client_id(0));
  // The sender must be registered for crash state to apply.
  net.register_node(client_id(0), [](const NodeId&, const std::string&) {});
  net.set_crashed(client_id(0));
  net.send(client_id(0), proxy_id(0), "x");
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(net.stats().dropped_sender_crashed, 1u);
  EXPECT_EQ(net.stats().dropped_receiver_crashed, 0u);
}

TEST_F(NetFixture, BroadcastReachesAllTargets) {
  int received = 0;
  for (std::uint32_t i = 0; i < 5; ++i) {
    net.register_node(storage_id(i),
                      [&](const NodeId&, const std::string&) { ++received; });
  }
  std::vector<NodeId> targets;
  for (std::uint32_t i = 0; i < 5; ++i) targets.push_back(storage_id(i));
  net.broadcast(proxy_id(0), targets, "w");
  sim.run();
  EXPECT_EQ(received, 5);
}

TEST_F(NetFixture, SenderIdentityPassedToHandler) {
  NodeId seen_from{};
  net.register_node(proxy_id(0), [&](const NodeId& from, const std::string&) {
    seen_from = from;
  });
  net.send(client_id(7), proxy_id(0), "x");
  sim.run();
  EXPECT_EQ(seen_from, client_id(7));
}

TEST_F(NetFixture, UnregisteredTargetCountsAsDropped) {
  net.send(client_id(0), proxy_id(9), "x");
  sim.run();
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(net.stats().dropped_unroutable, 1u);
}

TEST_F(NetFixture, OutOfRangeOrUnregisteredIdsAreUnroutable) {
  net.register_node(proxy_id(0), [](const NodeId&, const std::string&) {});
  net.register_node(proxy_id(5), [](const NodeId&, const std::string&) {});
  // A hole in the dense table, an index past it, a kind never registered
  // and a kind outside the enum: all unroutable, none registered by the
  // attempt, none a sender crash.
  const NodeId bogus_kind{static_cast<NodeKind>(200), 0};
  for (const NodeId& to :
       {proxy_id(3), proxy_id(1000), storage_id(0), bogus_kind}) {
    net.send(client_id(0), to, "x");
    net.set_crashed(to);
    EXPECT_FALSE(net.is_crashed(to));
  }
  net.send(bogus_kind, proxy_id(0), "from an unknown sender");
  sim.run();
  EXPECT_EQ(net.stats().dropped_unroutable, 4u);
  EXPECT_EQ(net.stats().dropped_sender_crashed, 0u);
  EXPECT_EQ(net.stats().messages_delivered, 1u);
}

TEST_F(NetFixture, DuplicatedMessagesDeliverBothCopiesInFifoOrder) {
  std::vector<std::string> received;
  net.register_node(proxy_id(0), [&](const NodeId&, const std::string& m) {
    received.push_back(m);
  });
  net.set_duplication(1.0);
  net.send(client_id(0), proxy_id(0), "first");
  net.send(client_id(0), proxy_id(0), "second");
  sim.run();
  EXPECT_EQ(received, (std::vector<std::string>{"first", "first", "second",
                                                "second"}));
  EXPECT_EQ(net.stats().duplicates_delivered, 2u);
  EXPECT_EQ(net.stats().messages_delivered, 4u);
}

TEST(LinkTableTest, GrowsPastFiveThousandLinksKeepingLastDelivery) {
  LinkTable table;
  constexpr std::uint32_t kLinks = 6000;
  for (std::uint32_t i = 0; i < kLinks; ++i) {
    Time& last = table.last_delivery(client_id(i), storage_id(i % 7));
    EXPECT_EQ(last, 0) << "new link " << i << " must start at 0";
    last = 1000 + i;
  }
  EXPECT_EQ(table.size(), kLinks);
  for (std::uint32_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(table.last_delivery(client_id(i), storage_id(i % 7)),
              Time{1000 + i});
  }
  // Links are ordered pairs: the reverse direction is a fresh link.
  EXPECT_EQ(table.last_delivery(storage_id(0), client_id(0)), 0);
  EXPECT_EQ(table.size(), kLinks + 1);
}

TEST_F(NetFixture, DropReasonsSumToTotalAndMirrorIntoRegistry) {
  obs::Observability telemetry;
  net.bind_observability(&telemetry);
  net.register_node(proxy_id(0), [](const NodeId&, const std::string&) {});
  net.register_node(client_id(0), [](const NodeId&, const std::string&) {});

  net.send(client_id(0), proxy_id(9), "unroutable");
  net.send(client_id(0), proxy_id(0), "in flight when receiver dies");
  net.set_crashed(proxy_id(0));
  net.set_crashed(client_id(0));
  net.send(client_id(0), proxy_id(0), "sender dead");
  sim.run();

  const NetworkStats& stats = net.stats();
  EXPECT_EQ(stats.dropped_unroutable, 1u);
  EXPECT_EQ(stats.dropped_receiver_crashed, 1u);
  EXPECT_EQ(stats.dropped_sender_crashed, 1u);
  EXPECT_EQ(stats.messages_dropped, stats.dropped_sender_crashed +
                                        stats.dropped_receiver_crashed +
                                        stats.dropped_unroutable);
  EXPECT_EQ(stats.messages_sent, 3u);
  EXPECT_EQ(stats.messages_delivered, 0u);

  // Registry mirrors count only what happened after binding.
  const obs::MetricRegistry& reg = telemetry.registry();
  EXPECT_EQ(reg.counter_value("net.messages_sent"), 3u);
  EXPECT_EQ(reg.counter_value("net.dropped.unroutable"), 1u);
  EXPECT_EQ(reg.counter_value("net.dropped.receiver_crashed"), 1u);
  EXPECT_EQ(reg.counter_value("net.dropped.sender_crashed"), 1u);
  EXPECT_EQ(reg.counter_value("net.messages_delivered"), 0u);
}

// -------------------------------------------------------- failure detector

TEST(FailureDetectorTest, SuspectsCrashedNodeAfterDelay) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.node_crashed(proxy_id(0));
  EXPECT_FALSE(fd.suspects(proxy_id(0)));
  sim.run(milliseconds(50));
  EXPECT_FALSE(fd.suspects(proxy_id(0)));
  sim.run(milliseconds(200));
  EXPECT_TRUE(fd.suspects(proxy_id(0)));
}

TEST(FailureDetectorTest, FalseSuspicionClearsAfterDuration) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.inject_false_suspicion(proxy_id(1), milliseconds(500));
  EXPECT_TRUE(fd.suspects(proxy_id(1)));
  sim.run(milliseconds(600));
  EXPECT_FALSE(fd.suspects(proxy_id(1)));
}

TEST(FailureDetectorTest, ManualClear) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.inject_false_suspicion(proxy_id(1), 0);  // indefinite
  EXPECT_TRUE(fd.suspects(proxy_id(1)));
  fd.clear_suspicion(proxy_id(1));
  EXPECT_FALSE(fd.suspects(proxy_id(1)));
}

TEST(FailureDetectorTest, CrashOverridesFalseSuspicionClearing) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(100));
  fd.inject_false_suspicion(proxy_id(2), milliseconds(300));
  fd.node_crashed(proxy_id(2));
  sim.run(milliseconds(1000));
  // The scheduled un-suspect must not clear a real crash.
  EXPECT_TRUE(fd.suspects(proxy_id(2)));
}

TEST(FailureDetectorTest, ListenersNotifiedOnChange) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(10));
  std::vector<std::pair<NodeId, bool>> events;
  fd.subscribe([&](const NodeId& id, bool suspected) {
    events.emplace_back(id, suspected);
  });
  fd.inject_false_suspicion(proxy_id(0), milliseconds(100));
  sim.run(milliseconds(500));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], std::make_pair(proxy_id(0), true));
  EXPECT_EQ(events[1], std::make_pair(proxy_id(0), false));
}

TEST(FailureDetectorTest, UnknownNodeNotSuspected) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(10));
  EXPECT_FALSE(fd.suspects(proxy_id(9)));
}

TEST(FailureDetectorTest, FalseSuspicionOnCrashedNodeIgnored) {
  Simulator sim;
  FailureDetector fd(sim, milliseconds(10));
  fd.node_crashed(proxy_id(0));
  sim.run(milliseconds(50));
  EXPECT_TRUE(fd.suspects(proxy_id(0)));
  fd.inject_false_suspicion(proxy_id(0), milliseconds(10));
  sim.run(milliseconds(100));
  EXPECT_TRUE(fd.suspects(proxy_id(0)));  // stays suspected forever
}

}  // namespace
}  // namespace qopt::sim
