// OR-model (communication model) extension: codec, state machine, and
// end-to-end detection on the simulator, checked against the reachability
// oracle.
#include "core/or_model.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "runtime/or_cluster.h"

namespace cmh {
namespace {

using core::OrMessage;
using core::OrQueryMsg;
using core::OrReplyMsg;
using core::OrSignalMsg;
using runtime::OrCluster;

const ProcessId p0{0};
const ProcessId p1{1};
const ProcessId p2{2};
const ProcessId p3{3};

// ---- codec -----------------------------------------------------------------------

TEST(OrCodec, SignalRoundTrip) {
  const auto m = core::or_decode(core::or_encode(OrMessage{OrSignalMsg{}}));
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(std::holds_alternative<OrSignalMsg>(*m));
}

TEST(OrCodec, QueryRoundTrip) {
  const OrQueryMsg q{ProbeTag{ProcessId{9}, 77}};
  const auto m = core::or_decode(core::or_encode(OrMessage{q}));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::get<OrQueryMsg>(*m).tag, q.tag);
}

TEST(OrCodec, ReplyRoundTrip) {
  const OrReplyMsg r{ProbeTag{ProcessId{3}, 5}};
  const auto m = core::or_decode(core::or_encode(OrMessage{r}));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::get<OrReplyMsg>(*m).tag, r.tag);
}

TEST(OrCodec, GarbageRejected) {
  EXPECT_FALSE(core::or_decode(Bytes{}).ok());
  EXPECT_FALSE(core::or_decode(Bytes{0x42}).ok());
}

// ---- local state machine ------------------------------------------------------------

TEST(OrProcess, BlockAndSignalLifecycle) {
  OrCluster cluster(2);
  EXPECT_FALSE(cluster.process(p0).blocked());
  cluster.block(p0, {p1});
  EXPECT_TRUE(cluster.process(p0).blocked());
  cluster.signal(p1, p0);
  cluster.run();
  EXPECT_FALSE(cluster.process(p0).blocked());
}

TEST(OrProcess, DoubleBlockRejected) {
  OrCluster cluster(2);
  cluster.block(p0, {p1});
  EXPECT_THROW(cluster.block(p0, {p1}), std::logic_error);
}

TEST(OrProcess, EmptyDependentSetRejected) {
  OrCluster cluster(2);
  EXPECT_THROW(cluster.block(p0, {}), std::invalid_argument);
}

TEST(OrProcess, SelfDependenceRejected) {
  OrCluster cluster(2);
  EXPECT_THROW(cluster.block(p0, {p0, p1}), std::invalid_argument);
}

TEST(OrProcess, BlockedProcessCannotSignal) {
  OrCluster cluster(2);
  cluster.block(p0, {p1});
  EXPECT_THROW(cluster.signal(p0, p1), std::logic_error);
}

TEST(OrProcess, ActiveProcessCannotInitiate) {
  OrCluster cluster(2);
  EXPECT_EQ(cluster.process(p0).initiate(), std::nullopt);
}

// ---- detection: OR semantics ---------------------------------------------------------

TEST(OrDetection, CycleOfSingletonWaitsIsDeadlock) {
  // p0 -> p1 -> p2 -> p0 with singleton sets: OR degenerates to AND.
  OrCluster cluster(3);
  cluster.block(p0, {p1});
  cluster.block(p1, {p2});
  cluster.block(p2, {p0});
  cluster.run();
  ASSERT_FALSE(cluster.detections().empty());
  EXPECT_TRUE(cluster.oracle_deadlocked(cluster.detections()[0].process));
}

TEST(OrDetection, OneActiveHelperPreventsDeadlock) {
  // p0 waits on {p1, p2}; p1 waits back on p0, but p2 stays ACTIVE: p0 can
  // still be saved, so no declaration may happen.
  OrCluster cluster(3);
  cluster.block(p1, {p0});
  cluster.block(p0, {p1, p2});
  cluster.run();
  EXPECT_TRUE(cluster.detections().empty());
  EXPECT_FALSE(cluster.oracle_deadlocked(p0));
  // ... and indeed p2 can release everyone.
  cluster.signal(p2, p0);
  cluster.run();
  EXPECT_FALSE(cluster.process(p0).blocked());
}

TEST(OrDetection, AllHelpersBlockedIsDeadlock) {
  // Same shape, but p2 also wedges into the group: now it IS a deadlock.
  OrCluster cluster(3);
  cluster.block(p1, {p0});
  cluster.block(p2, {p1});
  cluster.block(p0, {p1, p2});
  cluster.run();
  ASSERT_FALSE(cluster.detections().empty());
  for (const ProcessId p : {p0, p1, p2}) {
    EXPECT_TRUE(cluster.oracle_deadlocked(p)) << p;
  }
}

TEST(OrDetection, ChainToActiveProcessIsNotDeadlock) {
  OrCluster cluster(4);
  cluster.block(p0, {p1});
  cluster.block(p1, {p2});
  cluster.block(p2, {p3});  // p3 active
  cluster.run();
  EXPECT_TRUE(cluster.detections().empty());
}

TEST(OrDetection, DiamondKnotDetected) {
  // p0 -> {p1, p2}; p1 -> {p3}; p2 -> {p3}; p3 -> {p0}: every escape path
  // loops back; a knot.
  OrCluster cluster(4);
  cluster.block(p1, {p3});
  cluster.block(p2, {p3});
  cluster.block(p3, {p0});
  cluster.block(p0, {p1, p2});
  cluster.run();
  ASSERT_FALSE(cluster.detections().empty());
  EXPECT_TRUE(cluster.oracle_deadlocked(p0));
}

TEST(OrDetection, LateBlockerTriggersDetectionOnItsOwnInitiation) {
  // The wedge completes only when p2 blocks; p2's own initiation at block
  // time must find it (earlier computations rightly starved).
  OrCluster cluster(3);
  cluster.block(p0, {p1});
  cluster.block(p1, {p2});
  cluster.run();
  EXPECT_TRUE(cluster.detections().empty());
  cluster.block(p2, {p0});
  cluster.run();
  EXPECT_FALSE(cluster.detections().empty());
}

TEST(OrDetection, SignalRaceDoesNotProducePhantom) {
  // p2 blocks on p0 and is then signalled free by p3; queries of stale
  // engagements must not certify p2 as permanently blocked.
  OrCluster cluster(4, 7);
  cluster.set_detection_callback([&](const runtime::DeadlockEvent& d) {
    EXPECT_TRUE(cluster.oracle_deadlocked(d.process))
        << d.process << " declared but oracle disagrees";
  });
  cluster.block(p0, {p1});
  cluster.block(p1, {p2});
  cluster.block(p2, {p0, p3});
  cluster.signal(p3, p2);  // p2 released while queries circulate
  cluster.run();
  // p2 is free; p0 and p1 wait into p2 (now active): nobody is deadlocked.
  EXPECT_FALSE(cluster.process(p2).blocked());
  EXPECT_TRUE(cluster.detections().empty());
}

TEST(OrDetection, ReblockedProcessDoesNotSatisfyOldWave) {
  // p2 is released and re-blocks; replies tied to its old wait epoch must
  // be void (the "continuously blocked" condition).
  OrCluster cluster(4, 9);
  cluster.set_detection_callback([&](const runtime::DeadlockEvent& d) {
    EXPECT_TRUE(cluster.oracle_deadlocked(d.process));
  });
  cluster.block(p0, {p1});
  cluster.block(p1, {p2});
  cluster.block(p2, {p0});  // would be a cycle...
  cluster.signal(p3, p2);   // ...but p2 escapes
  cluster.run();
  EXPECT_TRUE(cluster.detections().empty());
  // p2 re-blocks on the (still active) p3: no deadlock either.
  cluster.block(p2, {p3});
  cluster.run();
  EXPECT_TRUE(cluster.detections().empty());
  EXPECT_FALSE(cluster.oracle_deadlocked(p0));
}

// ---- randomized property sweep --------------------------------------------------------

class OrProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OrProperties, SoundAndCompleteOnRandomWaitStructures) {
  Rng rng(GetParam());
  OrCluster cluster(10, GetParam() * 3 + 1);
  cluster.set_detection_callback([&](const runtime::DeadlockEvent& d) {
    EXPECT_TRUE(cluster.oracle_deadlocked(d.process))
        << d.process << " declared; oracle disagrees (seed " << GetParam()
        << ")";
  });
  // Random blocking structure built sequentially (each block sees the sim
  // settle first, so declarations are checked against a stable oracle).
  for (std::uint32_t i = 0; i < 10; ++i) {
    if (rng.chance(0.3)) continue;  // leave some processes active
    std::set<ProcessId> deps;
    const std::uint32_t fan = 1 + static_cast<std::uint32_t>(rng.below(3));
    while (deps.size() < fan) {
      const ProcessId d{static_cast<std::uint32_t>(rng.below(10))};
      if (d != ProcessId{i}) deps.insert(d);
    }
    cluster.block(ProcessId{i}, deps);
    cluster.run();
  }
  // Completeness: every oracle-deadlocked process belongs to a wedge that
  // produced at least one declaration.
  const auto dead = cluster.oracle_deadlocked_set();
  if (!dead.empty()) {
    EXPECT_FALSE(cluster.detections().empty())
        << dead.size() << " processes deadlocked, none declared (seed "
        << GetParam() << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrProperties,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

// ---- stats -----------------------------------------------------------------------------

TEST(OrStats, CountersTrackTraffic) {
  OrCluster cluster(3);
  cluster.block(p0, {p1});
  cluster.block(p1, {p2});
  cluster.block(p2, {p0});
  cluster.run();
  const auto stats = cluster.total_stats();
  EXPECT_GT(stats.queries_sent, 0u);
  EXPECT_EQ(stats.queries_sent, stats.queries_received);
  EXPECT_GT(stats.replies_sent, 0u);
  EXPECT_GT(stats.computations_initiated, 0u);
  EXPECT_GE(stats.deadlocks_declared, 1u);
}

}  // namespace
}  // namespace cmh
