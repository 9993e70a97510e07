#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

namespace cmh::sim {
namespace {

Bytes payload(std::uint8_t b) { return Bytes{b}; }

TEST(Simulator, StartsAtTimeZeroAndIdle) {
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_TRUE(sim.idle());
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, TimerFiresAtScheduledTime) {
  Simulator sim;
  SimTime fired{-1};
  sim.schedule(SimTime::ms(5), [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, SimTime::ms(5));
}

TEST(Simulator, TimersFireInOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::ms(3), [&] { order.push_back(3); });
  sim.schedule(SimTime::ms(1), [&] { order.push_back(1); });
  sim.schedule(SimTime::ms(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, EqualTimestampsFifoBySchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::ms(1), [&] { order.push_back(1); });
  sim.schedule(SimTime::ms(1), [&] { order.push_back(2); });
  sim.schedule(SimTime::ms(1), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, NegativeDelayRejected) {
  Simulator sim;
  EXPECT_THROW(sim.schedule(SimTime::us(-1), [] {}), std::invalid_argument);
}

TEST(Simulator, MessageDelivered) {
  Simulator sim;
  std::vector<std::uint8_t> got;
  const NodeId a = sim.add_node({});
  const NodeId b =
      sim.add_node([&](NodeId from, BytesView p) {
        EXPECT_EQ(from, 0u);
        got.push_back(p[0]);
      });
  (void)b;
  sim.send(a, 1, payload(42));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], 42);
}

TEST(Simulator, SendToUnknownNodeThrows) {
  Simulator sim;
  const NodeId a = sim.add_node({});
  EXPECT_THROW(sim.send(a, 99, payload(1)), std::out_of_range);
}

TEST(Simulator, ChannelFifoPreservedDespiteRandomDelays) {
  // With a wide random-delay window, later sends would often draw shorter
  // delays; the channel clamp must still deliver in order.
  Simulator sim(42, DelayModel::uniform(SimTime::us(10), SimTime::ms(10)));
  std::vector<std::uint8_t> got;
  const NodeId a = sim.add_node({});
  sim.add_node([&](NodeId, BytesView p) { got.push_back(p[0]); });
  for (std::uint8_t i = 0; i < 50; ++i) sim.send(a, 1, payload(i));
  sim.run();
  ASSERT_EQ(got.size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) EXPECT_EQ(got[i], i);
}

TEST(Simulator, IndependentChannelsMayInterleave) {
  // FIFO is per channel only; this just checks both sources' messages land.
  Simulator sim(7);
  int from_a = 0;
  int from_b = 0;
  const NodeId a = sim.add_node({});
  const NodeId b = sim.add_node({});
  sim.add_node([&](NodeId from, BytesView) {
    (from == a ? from_a : from_b)++;
  });
  for (int i = 0; i < 10; ++i) {
    sim.send(a, 2, payload(0));
    sim.send(b, 2, payload(1));
  }
  sim.run();
  EXPECT_EQ(from_a, 10);
  EXPECT_EQ(from_b, 10);
}

TEST(Simulator, DeterministicAcrossRunsWithSameSeed) {
  auto run_once = [](std::uint64_t seed) {
    Simulator sim(seed, DelayModel::uniform(SimTime::us(1), SimTime::ms(1)));
    std::vector<std::uint8_t> got;
    const NodeId a = sim.add_node({});
    const NodeId b = sim.add_node({});
    sim.add_node([&](NodeId, BytesView p) { got.push_back(p[0]); });
    for (std::uint8_t i = 0; i < 20; ++i) {
      sim.send(a, 2, payload(i));
      sim.send(b, 2, payload(static_cast<std::uint8_t>(100 + i)));
    }
    sim.run();
    return got;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

TEST(Simulator, FixedDelayDeliversExactly) {
  Simulator sim(1, DelayModel::fixed(SimTime::ms(2)));
  SimTime delivered{-1};
  const NodeId a = sim.add_node({});
  sim.add_node([&](NodeId, BytesView) { delivered = sim.now(); });
  sim.send(a, 1, payload(0));
  sim.run();
  EXPECT_EQ(delivered, SimTime::ms(2));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::ms(1), [&] { ++fired; });
  sim.schedule(SimTime::ms(10), [&] { ++fired; });
  sim.run_until(SimTime::ms(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::ms(5));
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunWhilePendingStopsOnPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(SimTime::ms(i), [&] { ++count; });
  }
  const bool hit = sim.run_while_pending([&] { return count >= 3; });
  EXPECT_TRUE(hit);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunWhilePendingFalseWhenDrained) {
  Simulator sim;
  sim.schedule(SimTime::ms(1), [] {});
  const bool hit = sim.run_while_pending([] { return false; });
  EXPECT_FALSE(hit);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulator, StatsCountEverything) {
  Simulator sim;
  const NodeId a = sim.add_node({});
  sim.add_node([](NodeId, BytesView) {});
  sim.send(a, 1, payload(1));
  sim.send(a, 1, Bytes{1, 2, 3});
  sim.schedule(SimTime::ms(1), [] {});
  sim.run();
  EXPECT_EQ(sim.stats().messages_sent, 2u);
  EXPECT_EQ(sim.stats().messages_delivered, 2u);
  EXPECT_EQ(sim.stats().bytes_sent, 4u);
  EXPECT_EQ(sim.stats().timers_fired, 1u);
  EXPECT_EQ(sim.stats().events_processed, 3u);
}

TEST(Simulator, ResetStatsClears) {
  Simulator sim;
  sim.schedule(SimTime::ms(1), [] {});
  sim.run();
  sim.reset_stats();
  EXPECT_EQ(sim.stats().events_processed, 0u);
}

TEST(Simulator, HandlerMayScheduleMoreEvents) {
  Simulator sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule(SimTime::ms(1), recurse);
  };
  sim.schedule(SimTime::ms(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::ms(5));
}

TEST(Simulator, SetHandlerReplacesReceiver) {
  Simulator sim;
  const NodeId a = sim.add_node({});
  const NodeId b = sim.add_node({});
  int count = 0;
  sim.set_handler(b, [&](NodeId, BytesView) { ++count; });
  sim.send(a, b, payload(0));
  sim.run();
  EXPECT_EQ(count, 1);
}

TEST(Simulator, ChannelSpillFifoBeyondFlatLimit) {
  // More than 1024 nodes: channel state lives in the hash-map spill path
  // from the first send.  FIFO and determinism must hold there too.
  constexpr std::uint32_t kNodes = 1030;
  auto run_once = [] {
    Simulator sim(99, DelayModel::uniform(SimTime::us(10), SimTime::ms(5)));
    std::vector<std::uint8_t> got;
    for (std::uint32_t i = 0; i < kNodes; ++i) sim.add_node({});
    sim.set_handler(1, [&](NodeId from, BytesView p) {
      EXPECT_EQ(from, 0u);
      got.push_back(p[0]);
    });
    for (std::uint8_t i = 0; i < 40; ++i) sim.send(0, 1, payload(i));
    // A second channel into the same receiver would break the from==0
    // expectation; use a distant one to stretch the spill keyspace.
    sim.set_handler(kNodes - 1, [](NodeId, BytesView) {});
    for (std::uint8_t i = 0; i < 10; ++i) {
      sim.send(kNodes - 2, kNodes - 1, payload(i));
    }
    sim.run();
    EXPECT_EQ(sim.stats().messages_delivered, 50u);
    return got;
  };
  const auto got = run_once();
  ASSERT_EQ(got.size(), 40u);
  for (std::uint8_t i = 0; i < 40; ++i) EXPECT_EQ(got[i], i);
  EXPECT_EQ(got, run_once());
}

TEST(Simulator, FlatToSpillMigrationPreservesChannelFifo) {
  // Crossing the 1024-node flat-matrix limit mid-simulation must carry the
  // live channel fronts into the spill maps: messages sent *after* the
  // crossing draw fresh random delays and would otherwise be able to
  // overtake in-flight messages on the same channel.
  Simulator sim(1234, DelayModel::uniform(SimTime::us(10), SimTime::ms(10)));
  std::vector<std::uint8_t> got;
  std::vector<std::int64_t> times;
  for (std::uint32_t i = 0; i < 1024; ++i) sim.add_node({});
  sim.set_handler(1, [&](NodeId, BytesView p) {
    got.push_back(p[0]);
    times.push_back(sim.now().micros);
  });
  for (std::uint8_t i = 0; i < 30; ++i) sim.send(0, 1, payload(i));
  // Straddle the boundary inside a batched drain: deliver a few, then grow
  // past the limit and keep sending on the same channel.
  const std::size_t early = sim.run_batch(10);
  EXPECT_EQ(early, 10u);
  sim.add_node({});
  sim.add_node({});
  ASSERT_GT(sim.node_count(), 1024u);
  for (std::uint8_t i = 30; i < 60; ++i) sim.send(0, 1, payload(i));
  while (sim.run_batch(16) > 0) {
  }
  ASSERT_EQ(got.size(), 60u);
  for (std::uint8_t i = 0; i < 60; ++i) EXPECT_EQ(got[i], i);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LT(times[i - 1], times[i]);
  }
}

TEST(Simulator, HandlerViewSurvivesSendsFromTheHandler) {
  // The handler's view must not point into the event slab: sends made
  // from the handler reuse the delivered slot and grow the slab.  Check
  // both an inline (48 B) and a pooled (49 B) payload.
  for (const std::size_t size :
       {Simulator::kInlinePayload, Simulator::kInlinePayload + 1}) {
    Simulator sim(5, DelayModel::fixed(SimTime::us(10)));
    Bytes sent(size);
    for (std::size_t i = 0; i < size; ++i) {
      sent[i] = static_cast<std::uint8_t>(i + 1);
    }
    Bytes seen;
    const NodeId a = sim.add_node({});
    const NodeId b = sim.add_node([&](NodeId from, BytesView p) {
      if (!seen.empty()) return;
      const Bytes other(size, 0xEE);
      for (int i = 0; i < 64; ++i) sim.send(1, from, other);
      seen.assign(p.begin(), p.end());
    });
    sim.send(a, b, sent);
    sim.run();
    EXPECT_EQ(seen, sent) << "size " << size;
    EXPECT_EQ(sim.stats().messages_delivered, 65u);
  }
}

// The step hook brackets each dispatch, message or timer, and runs inside
// it: a send from end_step() leaves at the dispatched event's instant.
TEST(Simulator, StepHookBracketsEveryDispatch) {
  struct Hook final : StepHook {
    Simulator* sim{nullptr};
    std::vector<std::pair<char, SimTime>> log;
    int depth{0};
    void begin_step() override {
      ++depth;
      log.emplace_back('(', sim->now());
    }
    void end_step() override {
      --depth;
      log.emplace_back(')', sim->now());
      if (log.size() == 2) sim->send(0, 1, payload(2));  // the timer's step
    }
  };
  Simulator sim(1, DelayModel::fixed(SimTime::us(10)));
  Hook hook;
  hook.sim = &sim;
  sim.set_step_hook(&hook);
  int depth_in_handler = -1;
  SimTime delivered{-1};
  sim.add_node({});
  sim.add_node([&](NodeId, BytesView) {
    depth_in_handler = hook.depth;
    delivered = sim.now();
  });
  sim.schedule(SimTime::us(5), [&] { EXPECT_EQ(hook.depth, 1); });
  sim.run();
  EXPECT_EQ(depth_in_handler, 1);
  EXPECT_EQ(delivered, SimTime::us(15));  // sent at 5 us, not later
  const std::vector<std::pair<char, SimTime>> expected = {
      {'(', SimTime::us(5)},
      {')', SimTime::us(5)},
      {'(', SimTime::us(15)},
      {')', SimTime::us(15)}};
  EXPECT_EQ(hook.log, expected);
  sim.set_step_hook(nullptr);
}

TEST(Simulator, StepHookRequiresOneShard) {
  struct Hook final : StepHook {
    void begin_step() override {}
    void end_step() override {}
  };
  Hook hook;
  Simulator sharded(1, DelayModel{}, 2);
  EXPECT_THROW(sharded.set_step_hook(&hook), std::logic_error);
  sharded.set_step_hook(nullptr);  // detaching is always allowed
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ(SimTime::ms(1) + SimTime::us(500), SimTime::us(1500));
  EXPECT_EQ(SimTime::sec(1) - SimTime::ms(1), SimTime::us(999000));
  EXPECT_DOUBLE_EQ(SimTime::ms(1500).seconds(), 1.5);
  EXPECT_LT(SimTime::us(1), SimTime::us(2));
}

}  // namespace
}  // namespace cmh::sim
