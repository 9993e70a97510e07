// Golden-trace determinism: a fixed seed must produce a bit-identical event
// schedule forever.  The scenario below (12 nodes, TTL-decrementing forwards
// plus timer-spawned extra traffic) drives >1300 events through every
// simulator mechanism -- channel-FIFO clamping, equal-timestamp tie-breaks,
// timer interleaving, payload recycling -- and folds the full delivery order
// into one FNV-1a hash.
//
// Re-pinned for the sharded engine (DESIGN.md section 4c): delay draws moved
// from a global RNG stream to counter-based per-channel hashes, and the
// equal-timestamp tie-break moved from global scheduling order to the
// canonical key (time, src, dst, channel-seq) -- both deliberate schedule
// changes, required so the trace is a pure function of (seed, workload)
// independent of the shard count.  The event/delivery/timer *counts* are
// unchanged from the sequential engine (the TTL cascade is delay-agnostic),
// which is itself a useful cross-check.  tests/sim/test_sharded.cpp pins the
// same scenario across K in {1,2,4,8}.
#include "sim/simulator.h"

#include <gtest/gtest.h>

namespace cmh::sim {
namespace {

struct GoldenResult {
  std::uint64_t events{0};
  std::uint64_t delivered{0};
  std::uint64_t timers{0};
  std::uint64_t hash{0};
};

GoldenResult run_golden_scenario() {
  Simulator sim(0xC0FFEEULL,
                DelayModel::uniform(SimTime::us(3), SimTime::us(400)));
  constexpr std::uint32_t kN = 12;
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a offset basis
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;  // FNV-1a prime
  };
  for (std::uint32_t i = 0; i < kN; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.set_handler(i, [&sim, &mix, i](NodeId from, BytesView p) {
      mix(from);
      mix(i);
      mix(p.size());
      for (const std::uint8_t b : p) mix(b);
      mix(static_cast<std::uint64_t>(sim.now().micros));
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
    sim.send(i, (i + 1) % kN, Bytes{19, static_cast<std::uint8_t>(i)});
  }
  sim.run();
  const SimStats& s = sim.stats();
  mix(s.messages_sent);
  mix(s.messages_delivered);
  mix(s.bytes_sent);
  mix(s.timers_fired);
  mix(s.events_processed);
  return {s.events_processed, s.messages_delivered, s.timers_fired, h};
}

TEST(GoldenTrace, SeededScheduleIsBitIdentical) {
  const GoldenResult r = run_golden_scenario();
  EXPECT_EQ(r.events, 1320u);
  EXPECT_EQ(r.delivered, 1092u);
  EXPECT_EQ(r.timers, 228u);
  EXPECT_EQ(r.hash, 0x4d94b3dc4e8f13c5ULL);
}

TEST(GoldenTrace, RepeatedRunsAgree) {
  const GoldenResult a = run_golden_scenario();
  const GoldenResult b = run_golden_scenario();
  EXPECT_EQ(a.hash, b.hash);
  EXPECT_EQ(a.events, b.events);
}

TEST(GoldenTrace, RunBatchMatchesStepLoop) {
  // Batched delivery is a throughput interface, not a different schedule:
  // draining the same scenario via run_batch must reproduce the golden
  // hash exactly.
  Simulator sim(0xC0FFEEULL,
                DelayModel::uniform(SimTime::us(3), SimTime::us(400)));
  constexpr std::uint32_t kN = 12;
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (std::uint32_t i = 0; i < kN; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < kN; ++i) {
    sim.set_handler(i, [&sim, &mix, i](NodeId from, BytesView p) {
      mix(from);
      mix(i);
      mix(p.size());
      for (const std::uint8_t b : p) mix(b);
      mix(static_cast<std::uint64_t>(sim.now().micros));
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
    sim.send(i, (i + 1) % kN, Bytes{19, static_cast<std::uint8_t>(i)});
  }
  std::uint64_t processed = 0;
  while (const std::size_t n = sim.run_batch(64)) processed += n;
  const SimStats& s = sim.stats();
  mix(s.messages_sent);
  mix(s.messages_delivered);
  mix(s.bytes_sent);
  mix(s.timers_fired);
  mix(s.events_processed);
  EXPECT_EQ(processed, 1320u);
  EXPECT_EQ(h, 0x4d94b3dc4e8f13c5ULL);
}

}  // namespace
}  // namespace cmh::sim
