// Thread-count-independent determinism of the sharded engine.
//
// The tentpole invariant (DESIGN.md section 4c): the event schedule is a pure
// function of (seed, workload) -- the shard count K only chooses how the work
// is executed, never what happens.  These tests drive one TTL-cascade
// scenario (the golden-trace shape, sized so K=8 still has two nodes per
// shard) through K in {1, 2, 4, 8} and require:
//   * bit-identical global delivery order, reconstructed by merging per-node
//     observation logs on the canonical key (time, src, dst) -- unique
//     because per-channel FIFO clamping keeps channel times strictly
//     increasing;
//   * bit-identical SimStats;
//   * a pinned hash, so a future change that shifts the schedule (even
//     consistently across K) is caught the same way the golden trace catches
//     it at K=1.
// Handlers only append to their own node's log, so the parallel runs are
// race-free by construction -- the same ownership discipline real workloads
// must follow.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/simulator.h"

namespace cmh::sim {
namespace {

constexpr std::uint32_t kN = 16;
constexpr std::uint64_t kSeed = 0xC0FFEEULL;

// One observed delivery, logged by the receiving node's handler.
struct Obs {
  std::int64_t t;
  std::uint32_t from;
  std::uint32_t to;
  std::uint64_t payload_sum;
};

struct TraceResult {
  std::uint64_t hash{0};
  SimStats stats;
};

/// Runs the TTL-cascade scenario on K shards and folds the canonical global
/// delivery order plus the aggregate stats into one hash.
TraceResult run_traced(std::uint32_t shards) {
  Simulator sim(kSeed, DelayModel::uniform(SimTime::us(3), SimTime::us(400)),
                shards);
  std::vector<std::vector<Obs>> logs(kN);
  for (std::uint32_t i = 0; i < kN; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.set_handler(i, [&sim, &logs, i](NodeId from, BytesView p) {
      std::uint64_t sum = p.size();
      for (const std::uint8_t b : p) sum = sum * 131 + b;
      logs[i].push_back(Obs{sim.now().micros, from, i, sum});
      const std::uint8_t ttl = p.empty() ? 0 : p[0];
      if (ttl == 0) return;
      Bytes fwd(p.begin(), p.end());
      fwd[0] = static_cast<std::uint8_t>(ttl - 1);
      fwd.push_back(static_cast<std::uint8_t>(i));
      sim.send(i, (i + 1 + ttl) % kN, fwd);
      if (ttl % 3 == 0) {
        sim.schedule(SimTime::us(ttl * 7), [&sim, i, ttl] {
          const Bytes extra{static_cast<std::uint8_t>(ttl / 2)};
          sim.send(i, (i + 2) % kN, extra);
        });
      }
    });
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.send(i, (i + 1) % kN, Bytes{21, static_cast<std::uint8_t>(i)});
  }
  sim.run();

  std::vector<Obs> merged;
  for (const auto& log : logs) merged.insert(merged.end(), log.begin(), log.end());
  std::sort(merged.begin(), merged.end(), [](const Obs& x, const Obs& y) {
    if (x.t != y.t) return x.t < y.t;
    if (x.from != y.from) return x.from < y.from;
    return x.to < y.to;
  });

  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const Obs& o : merged) {
    mix(static_cast<std::uint64_t>(o.t));
    mix(o.from);
    mix(o.to);
    mix(o.payload_sum);
  }
  const SimStats s = sim.stats();
  mix(s.messages_sent);
  mix(s.messages_delivered);
  mix(s.bytes_sent);
  mix(s.timers_fired);
  mix(s.events_processed);
  return {h, s};
}

TEST(ShardedDeterminism, TraceIsBitIdenticalAcrossShardCounts) {
  const TraceResult base = run_traced(1);
  for (const std::uint32_t k : {2u, 4u, 8u}) {
    const TraceResult r = run_traced(k);
    EXPECT_EQ(r.hash, base.hash) << "shards=" << k;
    EXPECT_EQ(r.stats.messages_sent, base.stats.messages_sent);
    EXPECT_EQ(r.stats.messages_delivered, base.stats.messages_delivered);
    EXPECT_EQ(r.stats.bytes_sent, base.stats.bytes_sent);
    EXPECT_EQ(r.stats.timers_fired, base.stats.timers_fired);
    EXPECT_EQ(r.stats.events_processed, base.stats.events_processed);
  }
}

TEST(ShardedDeterminism, TraceHashIsPinned) {
  // Re-record (like the golden trace) only for a deliberate schedule change.
  EXPECT_EQ(run_traced(1).hash, 0x237ac7576960d91bULL);
  EXPECT_EQ(run_traced(4).hash, 0x237ac7576960d91bULL);
}

TEST(ShardedDeterminism, StepMergeMatchesParallelRun) {
  // step() across shard queues is a sequential merge on the canonical key;
  // it must realize the exact same schedule as the parallel windowed run().
  Simulator sim(kSeed, DelayModel::uniform(SimTime::us(3), SimTime::us(400)),
                4);
  std::vector<std::vector<Obs>> logs(kN);
  for (std::uint32_t i = 0; i < kN; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.set_handler(i, [&sim, &logs, i](NodeId from, BytesView p) {
      std::uint64_t sum = p.size();
      for (const std::uint8_t b : p) sum = sum * 131 + b;
      logs[i].push_back(Obs{sim.now().micros, from, i, sum});
      const std::uint8_t ttl = p.empty() ? 0 : p[0];
      if (ttl == 0) return;
      Bytes fwd(p.begin(), p.end());
      fwd[0] = static_cast<std::uint8_t>(ttl - 1);
      sim.send(i, (i + 1 + ttl) % kN, fwd);
    });
  }
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.send(i, (i + 1) % kN, Bytes{21, static_cast<std::uint8_t>(i)});
  }
  std::uint64_t steps = 0;
  while (sim.step()) ++steps;
  EXPECT_EQ(steps, sim.stats().events_processed);

  // Sequential stepping also yields a single globally time-ordered stream:
  // the concatenated logs, merged, must already be sorted.
  std::vector<Obs> merged;
  for (const auto& log : logs) {
    for (std::size_t j = 1; j < log.size(); ++j) {
      EXPECT_LE(log[j - 1].t, log[j].t) << "per-node time order violated";
    }
    merged.insert(merged.end(), log.begin(), log.end());
  }
  EXPECT_EQ(merged.size(), sim.stats().messages_delivered);
}

TEST(ShardedDeterminism, CrossShardChannelsStayFifo) {
  // Nodes 0 and 15 sit on different shards at K=4; a burst of back-to-back
  // sends across that boundary must arrive in order with strictly
  // increasing delivery times (window exchange must not reorder).
  Simulator sim(7, DelayModel::uniform(SimTime::us(2), SimTime::us(90)), 4);
  std::vector<std::uint8_t> seen;
  std::vector<std::int64_t> times;
  for (std::uint32_t i = 0; i < kN; ++i) sim.add_node({});
  sim.set_handler(kN - 1, [&](NodeId from, BytesView p) {
    ASSERT_EQ(from, 0u);
    ASSERT_EQ(p.size(), 1u);
    seen.push_back(p[0]);
    times.push_back(sim.now().micros);
  });
  ASSERT_NE(sim.shard_of(0), sim.shard_of(kN - 1));
  for (std::uint8_t i = 0; i < 64; ++i) sim.send(0, kN - 1, Bytes{i});
  sim.run();
  ASSERT_EQ(seen.size(), 64u);
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], static_cast<std::uint8_t>(i));
    if (i > 0) EXPECT_LT(times[i - 1], times[i]);
  }
}

TEST(ShardedDeterminism, RunUntilWindowsStopAtBoundary) {
  Simulator sim(11, DelayModel::uniform(SimTime::us(5), SimTime::us(50)), 4);
  // Per-node counters: handlers on different shards run concurrently, so a
  // single shared counter would be the exact race the ownership rule bans.
  std::vector<std::uint64_t> delivered(kN, 0);
  const auto total = [&delivered] {
    std::uint64_t sum = 0;
    for (const std::uint64_t d : delivered) sum += d;
    return sum;
  };
  for (std::uint32_t i = 0; i < kN; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.set_handler(i, [&sim, &delivered, i](NodeId, BytesView p) {
      ++delivered[i];
      if (p[0] > 0) {
        sim.send(i, (i + 3) % kN, Bytes{static_cast<std::uint8_t>(p[0] - 1)});
      }
    });
  }
  for (std::uint32_t i = 0; i < kN; ++i) sim.send(i, (i + 3) % kN, Bytes{40});
  sim.run_until(SimTime::us(300));
  EXPECT_EQ(sim.now(), SimTime::us(300));
  EXPECT_FALSE(sim.idle());
  const std::uint64_t at_boundary = total();
  EXPECT_GT(at_boundary, 0u);
  sim.run();
  EXPECT_TRUE(sim.idle());
  EXPECT_GT(total(), at_boundary);
  EXPECT_EQ(total(), sim.stats().messages_delivered);
}

TEST(ShardedDeterminism, ShardedModeRejectsSubMicrosecondLookahead) {
  EXPECT_THROW(Simulator(1, DelayModel::fixed(SimTime::zero()), 2),
               std::invalid_argument);
  EXPECT_NO_THROW(Simulator(1, DelayModel::fixed(SimTime::zero()), 1));
  EXPECT_NO_THROW(Simulator(1, DelayModel::fixed(SimTime::us(1)), 2));
}

TEST(ShardedDeterminism, AddNodeAfterFirstEventThrowsWhenSharded) {
  Simulator sim(1, DelayModel::fixed(SimTime::us(10)), 2);
  for (int i = 0; i < 4; ++i) sim.add_node([](NodeId, BytesView) {});
  sim.send(0, 1, Bytes{1});
  EXPECT_THROW(sim.add_node({}), std::logic_error);

  // Single-shard keeps the legacy anytime-add behavior.
  Simulator lazy(1, DelayModel::fixed(SimTime::us(10)), 1);
  lazy.add_node([](NodeId, BytesView) {});
  lazy.add_node([](NodeId, BytesView) {});
  lazy.send(0, 1, Bytes{1});
  EXPECT_NO_THROW(lazy.add_node({}));
}

TEST(ShardedDeterminism, ForeignSourceSendThrowsInParallelRun) {
  // A handler may only send on behalf of its own shard's nodes while the
  // parallel engine is running -- channel state lives with the source shard.
  Simulator sim(1, DelayModel::fixed(SimTime::us(10)), 2);
  for (std::uint32_t i = 0; i < 4; ++i) sim.add_node({});
  sim.set_handler(0, [&sim](NodeId, BytesView p) {
    sim.send(3, 1, p);  // node 3 lives on the other shard
  });
  sim.send(1, 0, Bytes{1});
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(ShardedDeterminism, SendValidatesSourceAndDestination) {
  Simulator sim(1, DelayModel::fixed(SimTime::us(10)));
  sim.add_node({});
  sim.add_node({});
  EXPECT_THROW(sim.send(0, 99, Bytes{1}), std::out_of_range);
  EXPECT_THROW(sim.send(99, 0, Bytes{1}), std::out_of_range);
  EXPECT_THROW(sim.send(2, 0, Bytes{1}), std::out_of_range);
}

}  // namespace
}  // namespace cmh::sim
