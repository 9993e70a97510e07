// The exhaustive interleaving checker run over the canonical small
// scenarios: every delivery/script schedule of each scenario is enumerated
// (sleep-set-reduced but state-complete) with the paper-invariant auditor
// embedded, so a single failing schedule anywhere in the product fails the
// test with a replayable trace.  The SeededBug suite then plants one
// protocol/transport bug per axiom and asserts the checker convicts it of
// exactly that axiom.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "check/basic_system.h"
#include "check/ddb_system.h"
#include "check/explore.h"
#include "core/messages.h"

namespace cmh::check {
namespace {

const ProcessId p0{0};
const ProcessId p1{1};
const ProcessId p2{2};

std::string diagnose(const ExploreResult& res) {
  std::ostringstream os;
  os << "states=" << res.states_visited
     << " transitions=" << res.transitions_executed
     << " sleep_pruned=" << res.sleep_pruned << " complete=" << res.complete
     << '\n';
  if (res.violation) {
    os << res.violation->to_string() << "\nschedule:\n";
    for (const std::string& step : res.trace) os << "  " << step << '\n';
  }
  return os.str();
}

// ---- canonical scenarios --------------------------------------------------

/// Three processes requesting in a ring: every schedule must end with the
/// dark cycle declared by someone (QRP1) and never declared early (QRP2).
BasicScenario ring_of_three() {
  return BasicScenario{
      .name = "ring-of-three",
      .n = 3,
      .scripts = {{ScriptOp::request(p1)},
                  {ScriptOp::request(p2)},
                  {ScriptOp::request(p0)}}};
}

/// A chain that blocks, unwinds, and re-requests: exercises the full
/// grey -> black -> white -> removed edge lifecycle plus probe traffic that
/// must die out without a declaration.
BasicScenario chain_with_churn() {
  return BasicScenario{
      .name = "chain-with-churn",
      .n = 3,
      .scripts = {{ScriptOp::request(p1), ScriptOp::request(p1)},
                  {ScriptOp::request(p2), ScriptOp::reply(p0),
                   ScriptOp::reply(p0)},
                  {ScriptOp::reply(p1)}}};
}

/// Two controllers, one resource each, transactions locking cross-wise.
/// Schedules split into two families: the cycle forms (both blocked; some
/// controller must declare) or one transaction wins both locks (no cycle;
/// nobody may declare).  Both oracles are checked at every leaf.
DdbScenario ddb_cross_lock() {
  const TransactionId t0{0};
  const TransactionId t1{1};
  const ResourceId r0{0};
  const ResourceId r1{1};
  return DdbScenario{
      .name = "ddb-cross-lock",
      .n_sites = 2,
      .resource_owner = {SiteId{0}, SiteId{1}},
      .scripts = {{DdbOp::lock(t0, r0), DdbOp::lock(t0, r1)},
                  {DdbOp::lock(t1, r1), DdbOp::lock(t1, r0)}}};
}

/// t0 (home S0) takes r0@S0, then asks S1 for r1 and, once granted, for
/// r2: two remote requests in sequence.  At S1, t2 takes r1 and later
/// commits; t1 takes r2 and asks S0 for r0.  When t0 waits for t2 while t1
/// waits for t0, t1's computations reach t0's home agent and die at t2; t0's
/// second request then closes t0 -> t1 -> t0, and those computations follow
/// it.  Other schedules form t0 <-> t1 directly, or no cycle at all.
DdbScenario ddb_reblock() {
  const TransactionId t0{0};
  const TransactionId t1{1};
  const TransactionId t2{2};
  const ResourceId r0{0};
  const ResourceId r1{1};
  const ResourceId r2{2};
  return DdbScenario{
      .name = "ddb-reblock",
      .n_sites = 2,
      .resource_owner = {SiteId{0}, SiteId{1}, SiteId{1}},
      .scripts = {{DdbOp::lock(t0, r0), DdbOp::lock(t0, r1),
                   DdbOp::lock(t0, r2)},
                  {DdbOp::lock(t2, r1), DdbOp::lock(t1, r2),
                   DdbOp::lock(t1, r0), DdbOp::finish(t2)}}};
}

/// The release-wait shape over three sites: t0 (home S0) asks S1 for r1,
/// then S2 for r2; t2 (home S2) takes r2, then asks S1 for r1.  When each
/// holds one, the cycle runs (t0,S0) -> (t0,S2) -> (t2,S2) -> (t2,S1) ->
/// (t0,S1) and back along t0's release-wait edge.  Walks declare where
/// their BFS first reaches an agent of their target: S0's computation for
/// t0 at S1, where t2 waits on t0's holding, and the computations of the
/// forwarded requests at the sites where the other transaction holds.
DdbScenario ddb_release_wait_cycle() {
  const TransactionId t0{0};
  const TransactionId t2{2};
  const ResourceId r1{1};
  const ResourceId r2{2};
  return DdbScenario{
      .name = "ddb-release-wait-cycle",
      .n_sites = 3,
      .resource_owner = {SiteId{0}, SiteId{1}, SiteId{2}},
      .scripts = {{DdbOp::lock(t0, r1), DdbOp::lock(t0, r2)},
                  {},
                  {DdbOp::lock(t2, r2), DdbOp::lock(t2, r1)}}};
}

/// Lock queues ordered by lock count: t2 (home S0) takes r0@S0 and t1
/// (home S1) takes r1@S1, so each holds one lock; t0 (home S0) holds none
/// and asks for r0.  t1 then asks S0 for r0 and t2 asks S1 for r1.  When
/// t1's request lands behind t0's it goes ahead of it (one lock against
/// none), and t0, overtaken with no block event of its own, is re-armed.
/// Schedules in which both cross requests queue close t1 <-> t2 with t0
/// waiting behind the cycle; in others t1 wins r0 first and nothing
/// deadlocks.
DdbScenario ddb_overtake() {
  const TransactionId t0{0};
  const TransactionId t1{1};
  const TransactionId t2{2};
  const ResourceId r0{0};
  const ResourceId r1{1};
  return DdbScenario{
      .name = "ddb-overtake",
      .n_sites = 2,
      .resource_owner = {SiteId{0}, SiteId{1}},
      .scripts = {{DdbOp::lock(t2, r0), DdbOp::lock(t0, r0),
                   DdbOp::lock(t2, r1), DdbOp::finish(t2)},
                  {DdbOp::lock(t1, r1), DdbOp::lock(t1, r0),
                   DdbOp::finish(t1)}}};
}

TEST(Exhaustive, RingOfThreeEverySchedule) {
  BasicSystem sys(ring_of_three());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  // The ring is small but not trivial: the product of request, probe and
  // WFGD deliveries is well beyond a handful of schedules.
  EXPECT_GT(res.states_visited, 50u);
  // Pinned, like the DDB scenarios below: how the initiation rule is hosted
  // (a timer, or a call inside send_request()) must not move the schedule.
  EXPECT_EQ(res.states_visited, 712u) << diagnose(res);
}

TEST(Exhaustive, RingOfThreeUnprunedAgrees) {
  // Soundness cross-check for the sleep-set reduction: the full interleaving
  // product reaches the same verdict, and pruning never did less work.
  BasicSystem sys(ring_of_three());
  const ExploreResult pruned = explore(sys);
  BasicSystem sys_full(ring_of_three());
  const ExploreResult full =
      explore(sys_full, ExploreConfig{.sleep_sets = false});
  EXPECT_TRUE(pruned.ok()) << diagnose(pruned);
  EXPECT_TRUE(full.ok()) << diagnose(full);
  EXPECT_TRUE(full.complete);
  EXPECT_GE(full.transitions_executed, pruned.transitions_executed);
}

TEST(Exhaustive, ChainWithChurnEverySchedule) {
  BasicSystem sys(chain_with_churn());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  // Quiescent leaves end with an empty graph; no declaration anywhere.
  EXPECT_TRUE(sys.auditor().declared().empty());
  EXPECT_EQ(res.states_visited, 162u) << diagnose(res);
}

TEST(Exhaustive, DdbCrossLockEverySchedule) {
  DdbSystem sys(ddb_cross_lock());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  EXPECT_GT(res.states_visited, 20u);
  // The checker runs the DDB at T = 0, so a change to when a T > 0 check
  // starts its computation must leave every state count here unchanged.
  EXPECT_EQ(res.states_visited, 116u) << diagnose(res);
}

TEST(Exhaustive, DdbReBlockEverySchedule) {
  DdbSystem sys(ddb_reblock());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  EXPECT_GT(res.states_visited, 400u) << diagnose(res);
  EXPECT_EQ(res.states_visited, 634u) << diagnose(res);
}

TEST(Exhaustive, DdbReleaseWaitCycleEverySchedule) {
  DdbSystem sys(ddb_release_wait_cycle());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  EXPECT_GT(res.states_visited, 200u) << diagnose(res);
  EXPECT_EQ(res.states_visited, 457u) << diagnose(res);
  // Every schedule that forms the cycle declares it early somewhere, with
  // QRP1 and QRP2 held (4 such leaves and 10 early closures today).
  const DdbSystem::LeafTally& tally = sys.leaf_tally();
  EXPECT_GE(tally.deadlocked, 2u);
  EXPECT_EQ(tally.with_early_closure, tally.deadlocked);
  EXPECT_GE(tally.early_closures, 2 * tally.deadlocked);
}

TEST(Exhaustive, DdbOvertakeEverySchedule) {
  DdbSystem sys(ddb_overtake());
  const ExploreResult res = explore(sys);
  EXPECT_TRUE(res.ok()) << diagnose(res);
  EXPECT_TRUE(res.complete) << diagnose(res);
  EXPECT_GE(sys.leaf_tally().deadlocked, 1u);
  // The overtaken waiter's re-armed check is part of the pinned count: with
  // the re-arm dropped, QRP1 and QRP2 still hold (every cycle the overtake
  // closes runs through t1, whose own check covers it) but the count reads
  // 295.
  EXPECT_EQ(res.states_visited, 315u) << diagnose(res);
}

TEST(Exhaustive, DdbRejectsTimerBasedInitiation) {
  DdbScenario scenario = ddb_cross_lock();
  scenario.options.initiation_delay = SimTime::ms(2);
  EXPECT_THROW(DdbSystem{scenario}, std::invalid_argument);
}

TEST(Exhaustive, BasicRejectsTimerBasedInitiation) {
  BasicScenario scenario = ring_of_three();
  scenario.options.initiation_delay = SimTime::ms(2);
  try {
    BasicSystem sys(scenario);
    FAIL() << "a positive T must be rejected at construction";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("timer-free"), std::string::npos)
        << e.what();
  }
}

// ---- seeded bugs: one planted defect per axiom ----------------------------

Bytes request_frame() { return core::encode(core::Message{core::RequestMsg{}}); }
Bytes reply_frame() { return core::encode(core::Message{core::ReplyMsg{}}); }
Bytes probe_frame(ProcessId initiator, std::uint64_t sequence) {
  return core::encode(
      core::Message{core::ProbeMsg{ProbeTag{initiator, sequence}}});
}

void expect_convicts(BasicScenario scenario, Axiom axiom) {
  BasicSystem sys(std::move(scenario));
  const ExploreResult res = explore(sys);
  ASSERT_TRUE(res.violation.has_value())
      << "seeded bug went undetected; " << diagnose(res);
  EXPECT_EQ(res.violation->axiom, axiom) << diagnose(res);
  EXPECT_FALSE(res.trace.empty()) << "violation must come with a schedule";
}

TEST(SeededBug, DuplicateRequestConvictsG1) {
  // A process that "forgets" it already has an outstanding request and sends
  // a second one on the same edge.
  expect_convicts(
      BasicScenario{.name = "dup-request",
                    .n = 2,
                    .scripts = {{ScriptOp::request(p1),
                                 ScriptOp::inject(p1, request_frame())}}},
      Axiom::kG1);
}

TEST(SeededBug, ReplyWhileBlockedConvictsG3) {
  // p1 replies to p0 after blocking on p2: only active processes may reply.
  expect_convicts(
      BasicScenario{.name = "reply-while-blocked",
                    .n = 3,
                    .scripts = {{ScriptOp::request(p1)},
                                {ScriptOp::request(p2),
                                 ScriptOp::inject(p0, reply_frame())}}},
      Axiom::kG3);
}

TEST(SeededBug, ForwardedStaleProbeConvictsP1) {
  // A detector that forwards a probe along an edge it does not have.
  expect_convicts(
      BasicScenario{.name = "probe-without-edge",
                    .n = 2,
                    .scripts = {{ScriptOp::inject(p1, probe_frame(p0, 1))}}},
      Axiom::kP1);
}

TEST(SeededBug, ReorderedChannelConvictsP2) {
  // The transport swaps the request and the initiation probe that follow
  // each other on channel (p0, p1): FIFO broken.
  BasicScenario scenario{.name = "reordered-channel",
                         .n = 2,
                         .scripts = {{ScriptOp::request(p1)}}};
  scenario.faults.reorder_channel = {{p0, p1}};
  expect_convicts(std::move(scenario), Axiom::kP2);
}

TEST(SeededBug, DroppedReplyConvictsP4) {
  // p1's reply is lost in transit; at quiescence the channel history shows a
  // sent-but-never-delivered frame.
  BasicScenario scenario{.name = "dropped-reply",
                         .n = 2,
                         .scripts = {{ScriptOp::request(p1)},
                                     {ScriptOp::reply(p0)}}};
  scenario.faults.drop_replies_from = p1;
  expect_convicts(std::move(scenario), Axiom::kP4);
}

TEST(SeededBug, ForgedOwnProbeConvictsQRP2) {
  // p1 forges a probe carrying p0's own tag (sequence numbers start at 1).
  // p0 holds p1's request, so the probe is meaningful, and step A1 makes p0
  // declare -- while it waits on nobody.  A false deadlock in every
  // schedule; the checker must catch it at declaration instant.
  expect_convicts(
      BasicScenario{.name = "forged-own-probe",
                    .n = 2,
                    .scripts = {{},
                                {ScriptOp::request(p0),
                                 ScriptOp::inject(p0, probe_frame(p0, 1))}}},
      Axiom::kQRP2);
}

TEST(SeededBug, SwallowedProbesConvictQRP1) {
  // Every probe p2 sends vanishes before it reaches the wire.  All probe
  // routes around the ring traverse p2, so no computation can complete and
  // the dark cycle goes undeclared: a missed deadlock at quiescence.
  BasicScenario scenario = ring_of_three();
  scenario.name = "swallowed-probes";
  scenario.faults.swallow_probes_from = p2;
  expect_convicts(std::move(scenario), Axiom::kQRP1);
}

}  // namespace
}  // namespace cmh::check
