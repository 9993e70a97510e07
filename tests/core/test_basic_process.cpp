// Unit tests for BasicProcess with hand-delivered messages: a tiny rig that
// lets each test play postman and interleave deliveries adversarially.
#include "core/basic_process.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <vector>

namespace cmh::core {
namespace {

/// Manual message fabric, the host of its processes: sends queue up; tests
/// deliver selectively.  Timer-free: the rigs run kManual or T = 0.
class Rig final : public ProcessHost {
 public:
  explicit Rig(std::uint32_t n, Options options = {}) : declarations_(n) {
    for (std::uint32_t i = 0; i < n; ++i) {
      procs_.push_back(
          std::make_unique<BasicProcess>(ProcessId{i}, *this, options));
    }
  }

  void send(ProcessId from, ProcessId to, BytesView payload) override {
    wires_[{from, to}].emplace_back(payload.begin(), payload.end());
  }
  void schedule(ProcessId, SimTime, std::function<void()>) override {
    ADD_FAILURE() << "the rig's processes run without timers";
  }
  void on_deadlock(ProcessId who, const ProbeTag&) override {
    ++declarations_.at(who.value());
  }

  BasicProcess& p(std::uint32_t i) { return *procs_.at(i); }

  /// Declarations process i reported to its host.
  int declarations(std::uint32_t i) const { return declarations_.at(i); }

  std::size_t pending(std::uint32_t from, std::uint32_t to) {
    return wires_[{ProcessId{from}, ProcessId{to}}].size();
  }

  /// Delivers the oldest message on channel from->to.
  void deliver_one(std::uint32_t from, std::uint32_t to) {
    auto& q = wires_.at({ProcessId{from}, ProcessId{to}});
    ASSERT_FALSE(q.empty());
    const Bytes payload = q.front();
    q.pop_front();
    ASSERT_TRUE(p(to).on_message(ProcessId{from}, payload).ok());
  }

  /// Delivers everything until quiescent (FIFO per channel, round-robin).
  void deliver_all() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto& [channel, q] : wires_) {
        while (!q.empty()) {
          const Bytes payload = q.front();
          q.pop_front();
          ASSERT_TRUE(p(channel.second.value())
                          .on_message(channel.first, payload)
                          .ok());
          progressed = true;
        }
      }
    }
  }

  std::size_t total_pending() {
    std::size_t n = 0;
    for (auto& [channel, q] : wires_) n += q.size();
    return n;
  }

 private:
  std::vector<std::unique_ptr<BasicProcess>> procs_;
  std::map<std::pair<ProcessId, ProcessId>, std::deque<Bytes>> wires_;
  std::vector<int> declarations_;
};

/// The host of one process: records its sends and fails the test on any
/// timer.
class RecordingHost final : public ProcessHost {
 public:
  void send(ProcessId, ProcessId, BytesView payload) override {
    sent.emplace_back(payload.begin(), payload.end());
  }
  void schedule(ProcessId, SimTime, std::function<void()>) override {
    ADD_FAILURE() << "schedule() called";
  }
  void on_deadlock(ProcessId, const ProbeTag&) override {}

  std::vector<Bytes> sent;
};

Options manual() {
  Options o;
  o.initiation = InitiationMode::kManual;
  return o;
}

// ---- underlying computation ---------------------------------------------------

TEST(BasicProcess, RequestCreatesLocalOutEdge) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  EXPECT_TRUE(rig.p(0).waits_for().contains(ProcessId{1}));
  EXPECT_TRUE(rig.p(0).blocked());
  EXPECT_EQ(rig.pending(0, 1), 1u);
}

TEST(BasicProcess, RequestReceiptCreatesBlackInEdge) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_one(0, 1);
  EXPECT_TRUE(rig.p(1).held_requests().contains(ProcessId{0}));
}

TEST(BasicProcess, ReplyClearsBothSides) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_one(0, 1);
  rig.p(1).send_reply(ProcessId{0});
  EXPECT_FALSE(rig.p(1).held_requests().contains(ProcessId{0}));
  rig.deliver_one(1, 0);
  EXPECT_FALSE(rig.p(0).blocked());
  EXPECT_FALSE(rig.p(0).waits_for().contains(ProcessId{1}));
}

TEST(BasicProcess, DuplicateRequestIsModelViolation) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  EXPECT_THROW(rig.p(0).send_request(ProcessId{1}), ModelViolation);
}

TEST(BasicProcess, SelfRequestIsModelViolation) {
  Rig rig(1, manual());
  EXPECT_THROW(rig.p(0).send_request(ProcessId{0}), ModelViolation);
}

TEST(BasicProcess, BlockedProcessCannotReply) {
  // G3: only active processes may reply.
  Rig rig(3, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_one(0, 1);
  rig.p(1).send_request(ProcessId{2});  // p1 now blocked
  EXPECT_THROW(rig.p(1).send_reply(ProcessId{0}), ModelViolation);
}

TEST(BasicProcess, ReplyWithoutRequestIsModelViolation) {
  Rig rig(2, manual());
  EXPECT_THROW(rig.p(0).send_reply(ProcessId{1}), ModelViolation);
}

TEST(BasicProcess, UndecodablePayloadReturnsError) {
  Rig rig(1, manual());
  EXPECT_FALSE(rig.p(0).on_message(ProcessId{0}, Bytes{0xff}).ok());
}

// ---- probe computation: A0 / A1 / A2 ------------------------------------------

TEST(Probe, ActiveProcessCannotInitiate) {
  Rig rig(2, manual());
  EXPECT_EQ(rig.p(0).initiate(), std::nullopt);
}

TEST(Probe, InitiateSendsProbeOnEveryOutgoingEdge) {
  Rig rig(4, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(0).send_request(ProcessId{3});
  const auto tag = rig.p(0).initiate();
  ASSERT_TRUE(tag.has_value());
  EXPECT_EQ(tag->initiator, ProcessId{0});
  EXPECT_EQ(rig.pending(0, 1), 2u);  // request + probe
  EXPECT_EQ(rig.pending(0, 2), 2u);
  EXPECT_EQ(rig.pending(0, 3), 2u);
  EXPECT_EQ(rig.p(0).stats().probes_sent, 3u);
}

TEST(Probe, TwoCycleDetected) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  EXPECT_TRUE(rig.p(0).deadlocked());
}

TEST(Probe, NonInitiatorForwardsButDoesNotDeclare) {
  Rig rig(3, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{2});
  rig.p(2).send_request(ProcessId{0});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  EXPECT_FALSE(rig.p(1).declared_deadlock());
  EXPECT_FALSE(rig.p(2).declared_deadlock());
}

TEST(Probe, MeaninglessProbeDropped) {
  // Probe arrives along an edge that is not black at receipt (the receiver
  // holds no request from the sender) -- it must be ignored (P3 check).
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  const auto tag = rig.p(0).initiate();
  ASSERT_TRUE(tag.has_value());
  // Deliver the probe BEFORE the request: channel FIFO would forbid this,
  // but a buggy network might not; the meaningful check protects us.
  // (Request is message 0, probe is message 1 on the channel.)
  auto& p1 = rig.p(1);
  // Simulate out-of-order by delivering only the probe bytes.
  // Build the probe payload directly:
  const Bytes probe = encode(Message{ProbeMsg{*tag}});
  ASSERT_TRUE(p1.on_message(ProcessId{0}, probe).ok());
  EXPECT_EQ(p1.stats().probes_received, 1u);
  EXPECT_EQ(p1.stats().meaningful_probes, 0u);
  EXPECT_EQ(p1.stats().probes_sent, 0u);
}

TEST(Probe, AcyclicChainNeverDeclares) {
  Rig rig(4, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{2});
  rig.p(2).send_request(ProcessId{3});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_FALSE(rig.p(i).declared_deadlock()) << i;
  }
}

TEST(Probe, ForwardOnceGate) {
  // A2: only the FIRST meaningful probe of a computation triggers
  // forwarding; a diamond delivers two meaningful probes to p3.
  Rig rig(5, manual());
  // p0 -> p1 -> p3 -> p4,  p0 -> p2 -> p3
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(1).send_request(ProcessId{3});
  rig.p(2).send_request(ProcessId{3});
  rig.p(3).send_request(ProcessId{4});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_EQ(rig.p(3).stats().meaningful_probes, 2u);
  EXPECT_EQ(rig.p(3).stats().probes_sent, 1u);  // forwarded only once
}

TEST(Probe, ForwardEveryAblationForwardsTwice) {
  Options o = manual();
  o.forward_every_meaningful_probe = true;
  Rig rig(5, o);
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(1).send_request(ProcessId{3});
  rig.p(2).send_request(ProcessId{3});
  rig.p(3).send_request(ProcessId{4});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_EQ(rig.p(3).stats().probes_sent, 2u);
}

TEST(Probe, StaleComputationIgnored) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  const auto tag1 = rig.p(0).initiate();
  const auto tag2 = rig.p(0).initiate();
  ASSERT_TRUE(tag1 && tag2);
  EXPECT_LT(tag1->sequence, tag2->sequence);
  // Deliver the newer computation first...
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  // p1 engaged with (0, n2); a late probe of (0, n1) must be dropped.
  const Bytes stale = encode(Message{ProbeMsg{*tag1}});
  const auto forwarded_before = rig.p(1).stats().probes_sent;
  ASSERT_TRUE(rig.p(1).on_message(ProcessId{0}, stale).ok());
  EXPECT_EQ(rig.p(1).stats().probes_sent, forwarded_before);
}

TEST(Probe, InitiatorDeclaresOnlyOncePerComputation) {
  // Two disjoint return paths deliver two meaningful probes to the
  // initiator; only one declaration must result.
  Rig rig(3, manual());
  // p0 -> p1 -> p0 and p0 -> p2 -> p0: two 2-cycles through p0.
  rig.p(0).send_request(ProcessId{1});
  rig.p(0).send_request(ProcessId{2});
  rig.p(1).send_request(ProcessId{0});
  rig.p(2).send_request(ProcessId{0});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  rig.deliver_all();
  EXPECT_EQ(rig.declarations(0), 1);
  EXPECT_EQ(rig.p(0).stats().deadlocks_declared, 1u);
}

TEST(Probe, SeparateComputationsHaveDistinctTags) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  const auto t1 = rig.p(0).initiate();
  const auto t2 = rig.p(0).initiate();
  ASSERT_TRUE(t1 && t2);
  EXPECT_NE(*t1, *t2);
  EXPECT_EQ(t1->initiator, t2->initiator);
}

TEST(Probe, ConcurrentInitiatorsBothDetect) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  ASSERT_TRUE(rig.p(0).initiate().has_value());
  ASSERT_TRUE(rig.p(1).initiate().has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.p(0).declared_deadlock());
  EXPECT_TRUE(rig.p(1).declared_deadlock());
}

TEST(Probe, OnRequestModeInitiatesAutomatically) {
  Options o;  // default: kDelayed at T = 0, section 4.2's rule
  Rig rig(2, o);
  rig.p(0).send_request(ProcessId{1});
  EXPECT_EQ(rig.p(0).stats().computations_initiated, 1u);
  rig.p(1).send_request(ProcessId{0});
  rig.deliver_all();
  // p1's computation (initiated at the cycle-closing request) must detect.
  EXPECT_TRUE(rig.p(1).declared_deadlock());
}

TEST(Probe, DefaultOptionsInitiateInsideSendRequestWithoutTimer) {
  // T = 0 needs no timer: the request and the computation's probe leave
  // inside the one send_request() call, and the host's schedule() is never
  // called.
  RecordingHost host;
  const std::vector<Bytes>& sent = host.sent;
  BasicProcess p(ProcessId{0}, host);
  p.send_request(ProcessId{1});
  EXPECT_EQ(p.stats().computations_initiated, 1u);
  ASSERT_EQ(sent.size(), 2u);
  const auto probe = decode(sent[1]);
  ASSERT_TRUE(probe.ok());
  ASSERT_TRUE(std::holds_alternative<ProbeMsg>(*probe));
  EXPECT_EQ(std::get<ProbeMsg>(*probe).tag, (ProbeTag{ProcessId{0}, 1}));
}

// ---- stats ------------------------------------------------------------------------

TEST(Stats, CountersTrackTraffic) {
  Rig rig(2, manual());
  rig.p(0).send_request(ProcessId{1});
  rig.deliver_all();
  rig.p(1).send_reply(ProcessId{0});
  rig.deliver_all();
  EXPECT_EQ(rig.p(0).stats().requests_sent, 1u);
  EXPECT_EQ(rig.p(1).stats().replies_sent, 1u);
}

}  // namespace
}  // namespace cmh::core
