// Per-step batching of DDB frames: the kBatch envelope codec
// (messages.h), ddb::Outbox on its own, and ddb::Cluster, which sends every
// controller frame through one.
#include "ddb/outbox.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "ddb/cluster.h"
#include "ddb/messages.h"

namespace cmh::ddb {
namespace {

// One frame of each kind, the largest (a probe) included.
std::vector<Bytes> sample_frames() {
  DdbProbeMsg probe;
  probe.tag = DdbProbeTag{SiteId{2}, 7};
  probe.floor = 3;
  probe.txn = TransactionId{4};
  probe.candidate = TransactionId{4};
  probe.candidate_held = 2;
  probe.target = TransactionId{1};
  return {
      encode(DdbMessage{RemoteLockRequestMsg{TransactionId{1}, ResourceId{5},
                                             1, LockMode::kWrite}}),
      encode(DdbMessage{RemoteLockGrantMsg{TransactionId{2}, ResourceId{6}}}),
      encode(DdbMessage{probe}),
      encode(DdbMessage{PurgeTxnMsg{TransactionId{3}, true}}),
  };
}

std::vector<Bytes> split(BytesView payload) {
  std::vector<Bytes> frames;
  const Status st = for_each_frame(payload, [&frames](BytesView frame) {
    frames.emplace_back(frame.begin(), frame.end());
    return Status::Ok();
  });
  EXPECT_TRUE(st.ok()) << st.to_string();
  return frames;
}

TEST(DdbBatch, RoundTripsOneToManyFrames) {
  const std::vector<Bytes> kinds = sample_frames();
  for (std::size_t n = 1; n <= 9; ++n) {
    Bytes envelope;
    std::vector<Bytes> sent;
    for (std::size_t i = 0; i < n; ++i) {
      sent.push_back(kinds[i % kinds.size()]);
      append_to_batch(envelope, sent.back());
    }
    EXPECT_EQ(envelope.front(), kBatch);
    EXPECT_TRUE(check_batch(envelope).ok());
    const std::vector<Bytes> got = split(envelope);
    EXPECT_EQ(got, sent) << n;
    for (const Bytes& frame : got) EXPECT_TRUE(decode(frame).ok());
  }
}

TEST(DdbBatch, BareFramePassesThroughWhole) {
  for (const Bytes& frame : sample_frames()) {
    EXPECT_EQ(split(frame), std::vector<Bytes>{frame});
  }
}

TEST(DdbBatch, EnvelopeIsNotAMessage) {
  Bytes envelope;
  append_to_batch(envelope, sample_frames()[0]);
  append_to_batch(envelope, sample_frames()[1]);
  EXPECT_FALSE(decode(envelope).ok());
}

TEST(DdbBatch, AppendRejectsFramesOutOfRange) {
  Bytes envelope;
  EXPECT_THROW(append_to_batch(envelope, Bytes{}), std::length_error);
  EXPECT_THROW(append_to_batch(envelope, Bytes(kDdbFrameCapacity + 1, 4)),
               std::length_error);
  EXPECT_TRUE(envelope.empty());
}

// Truncated, zero and oversized lengths are rejected before any frame of
// the envelope is handed on.
TEST(DdbBatch, MalformedEnvelopeRejectedBeforeAnyFrame) {
  const Bytes probe = sample_frames()[2];
  Bytes two;
  append_to_batch(two, sample_frames()[0]);
  append_to_batch(two, probe);

  std::vector<Bytes> bad;
  bad.push_back(Bytes{kBatch});                              // no frame
  bad.push_back(Bytes(two.begin(), two.end() - 1));          // cut short
  bad.push_back(Bytes(two.begin(), two.begin() + 15));       // length only
  Bytes zero = two;
  zero.push_back(0);                                         // empty frame
  bad.push_back(zero);
  Bytes oversized{kBatch, kDdbFrameCapacity + 1};            // 37 > 36
  oversized.insert(oversized.end(), probe.begin(), probe.end());
  oversized.push_back(0);
  bad.push_back(oversized);

  for (const Bytes& envelope : bad) {
    int handed_on = 0;
    const Status st = for_each_frame(envelope, [&handed_on](BytesView) {
      ++handed_on;
      return Status::Ok();
    });
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(handed_on, 0);
  }
}

TEST(DdbBatch, FrameErrorStopsTheWalk) {
  Bytes envelope;
  for (const Bytes& frame : sample_frames()) append_to_batch(envelope, frame);
  int handed_on = 0;
  const Status st = for_each_frame(envelope, [&handed_on](BytesView) {
    return ++handed_on == 2 ? Status{StatusCode::kInvalidArgument, "second"}
                            : Status::Ok();
  });
  EXPECT_EQ(st.message(), "second");
  EXPECT_EQ(handed_on, 2);
}

// ---- Outbox ------------------------------------------------------------------

struct Sent {
  SiteId from;
  SiteId to;
  Bytes payload;
};

class OutboxTest : public ::testing::Test {
 protected:
  Outbox outbox_{3, [this](SiteId from, SiteId to, BytesView payload) {
                   sent_.push_back({from, to, Bytes(payload.begin(),
                                                    payload.end())});
                 }};
  std::vector<Sent> sent_;
  std::vector<Bytes> frames_ = sample_frames();
};

TEST_F(OutboxTest, SendOutsideAnyStepGoesOutAtOnce) {
  outbox_.send(SiteId{0}, SiteId{1}, frames_[0]);
  outbox_.send(SiteId{0}, SiteId{1}, frames_[1]);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[0].payload, frames_[0]);
  EXPECT_EQ(sent_[1].payload, frames_[1]);
}

TEST_F(OutboxTest, LoneFrameOfAStepGoesBare) {
  outbox_.begin_step();
  outbox_.send(SiteId{2}, SiteId{0}, frames_[2]);
  EXPECT_TRUE(sent_.empty());
  outbox_.end_step();
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].from, SiteId{2});
  EXPECT_EQ(sent_[0].to, SiteId{0});
  EXPECT_EQ(sent_[0].payload, frames_[2]);
}

TEST_F(OutboxTest, StepSendsOneMessagePerLaneInFirstSendOrder) {
  outbox_.begin_step();
  outbox_.send(SiteId{0}, SiteId{1}, frames_[0]);
  outbox_.send(SiteId{0}, SiteId{2}, frames_[1]);
  outbox_.send(SiteId{0}, SiteId{1}, frames_[2]);
  outbox_.send(SiteId{1}, SiteId{0}, frames_[3]);
  outbox_.send(SiteId{0}, SiteId{2}, frames_[0]);
  outbox_.send(SiteId{0}, SiteId{1}, frames_[3]);
  outbox_.end_step();
  ASSERT_EQ(sent_.size(), 3u);
  EXPECT_EQ(sent_[0].to, SiteId{1});
  EXPECT_EQ(split(sent_[0].payload),
            (std::vector<Bytes>{frames_[0], frames_[2], frames_[3]}));
  EXPECT_EQ(sent_[1].to, SiteId{2});
  EXPECT_EQ(split(sent_[1].payload),
            (std::vector<Bytes>{frames_[1], frames_[0]}));
  EXPECT_EQ(sent_[2].from, SiteId{1});
  EXPECT_EQ(sent_[2].payload, frames_[3]);  // lone: bare
}

TEST_F(OutboxTest, ConsecutiveStepsKeepTheirOwnBatches) {
  for (int step = 0; step < 3; ++step) {
    outbox_.begin_step();
    outbox_.send(SiteId{0}, SiteId{1}, frames_[step]);
    outbox_.send(SiteId{0}, SiteId{1}, frames_[step + 1]);
    outbox_.end_step();
  }
  ASSERT_EQ(sent_.size(), 3u);
  for (int step = 0; step < 3; ++step) {
    EXPECT_EQ(split(sent_[step].payload),
              (std::vector<Bytes>{frames_[step], frames_[step + 1]}));
  }
}

TEST_F(OutboxTest, NestedStepsFlushOnlyAtTheOutermostEnd) {
  outbox_.begin_step();
  outbox_.send(SiteId{0}, SiteId{1}, frames_[0]);
  {
    const Outbox::Step inner(outbox_);
    outbox_.send(SiteId{0}, SiteId{1}, frames_[1]);
  }
  EXPECT_TRUE(sent_.empty());
  outbox_.end_step();
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(split(sent_[0].payload),
            (std::vector<Bytes>{frames_[0], frames_[1]}));
}

TEST_F(OutboxTest, StepThatThrowsStillSendsWhatItHeldBack) {
  EXPECT_THROW(
      {
        const Outbox::Step step(outbox_);
        outbox_.send(SiteId{0}, SiteId{2}, frames_[0]);
        throw std::runtime_error("handler failed");
      },
      std::runtime_error);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_EQ(sent_[0].payload, frames_[0]);
  // The outbox is closed again: the next send goes out at once.
  outbox_.send(SiteId{0}, SiteId{2}, frames_[1]);
  EXPECT_EQ(sent_.size(), 2u);
}

TEST_F(OutboxTest, RejectsUnknownSitesAndFramesOutOfRange) {
  EXPECT_THROW(outbox_.send(SiteId{3}, SiteId{0}, frames_[0]),
               std::out_of_range);
  EXPECT_THROW(outbox_.send(SiteId{0}, SiteId{3}, frames_[0]),
               std::out_of_range);
  const Outbox::Step step(outbox_);
  EXPECT_THROW(outbox_.send(SiteId{0}, SiteId{1}, Bytes{}), std::length_error);
  EXPECT_THROW(
      outbox_.send(SiteId{0}, SiteId{1}, Bytes(kDdbFrameCapacity + 1, 1)),
      std::length_error);
}

// ---- ddb::Cluster ------------------------------------------------------------

DdbOptions manual_options() {
  DdbOptions o;
  o.initiation = DdbInitiation::kManual;
  o.abort_victim = false;
  return o;
}

/// Every simulator message, as sent and as delivered.
class Traffic final : public sim::SimObserver {
 public:
  void on_send(sim::NodeId from, sim::NodeId to, BytesView payload,
               SimTime) override {
    sent.push_back({SiteId{from}, SiteId{to}, Bytes(payload.begin(),
                                                    payload.end())});
  }
  void on_deliver(sim::NodeId from, sim::NodeId to, BytesView payload,
                  SimTime) override {
    delivered.push_back({SiteId{from}, SiteId{to}, Bytes(payload.begin(),
                                                         payload.end())});
  }
  std::vector<Sent> sent;
  std::vector<Sent> delivered;
};

/// The resources of the request frames delivered to `site`, in order.
std::vector<ResourceId> requests_delivered(const Traffic& traffic,
                                           SiteId site) {
  std::vector<ResourceId> resources;
  for (const Sent& m : traffic.delivered) {
    if (m.to != site) continue;
    for (const Bytes& frame : split(m.payload)) {
      const auto msg = decode(frame);
      if (!msg.ok()) continue;
      if (const auto* req = std::get_if<RemoteLockRequestMsg>(&*msg)) {
        resources.push_back(req->resource);
      }
    }
  }
  return resources;
}

// Resources r1, r5, r9 and r13 live at site 1 of 4.
const std::vector<ResourceId> kAtSite1 = {ResourceId{1}, ResourceId{5},
                                          ResourceId{9}, ResourceId{13}};

TEST(ClusterBatching, StepOfKFramesToOneSiteIsOneMessage) {
  Cluster db({.n_sites = 4, .n_resources = 16, .options = manual_options()});
  Traffic traffic;
  db.simulator().set_observer(&traffic);
  std::vector<ResourceId> grants;
  db.set_grant_listener(
      [&grants](TransactionId, ResourceId r) { grants.push_back(r); });
  const TransactionId t = db.begin(SiteId{0});
  db.simulator().schedule(SimTime::zero(), [&db, t] {
    for (const ResourceId r : kAtSite1) db.lock(t, r, LockMode::kWrite);
  });
  db.simulator().run();
  db.simulator().set_observer(nullptr);

  // One envelope of four requests out, one of four grants back.
  ASSERT_EQ(traffic.sent.size(), 2u);
  EXPECT_EQ(traffic.sent[0].from, SiteId{0});
  EXPECT_EQ(traffic.sent[0].to, SiteId{1});
  EXPECT_EQ(split(traffic.sent[0].payload).size(), 4u);
  EXPECT_EQ(traffic.sent[1].to, SiteId{0});
  EXPECT_EQ(split(traffic.sent[1].payload).size(), 4u);
  EXPECT_EQ(db.simulator().stats().messages_sent, 2u);
  EXPECT_EQ(db.total_stats().remote_requests_sent, 4u);
  // The frames arrive, and are handled, in send order.
  EXPECT_EQ(requests_delivered(traffic, SiteId{1}), kAtSite1);
  EXPECT_EQ(grants, kAtSite1);
  EXPECT_TRUE(db.all_granted(t));
}

TEST(ClusterBatching, FifoHoldsAcrossConsecutiveBatches) {
  Cluster db({.n_sites = 4, .n_resources = 16, .options = manual_options()});
  Traffic traffic;
  db.simulator().set_observer(&traffic);
  std::vector<ResourceId> grants;
  db.set_grant_listener(
      [&grants](TransactionId, ResourceId r) { grants.push_back(r); });
  const TransactionId t = db.begin(SiteId{0});
  // Two steps at the same instant, two requests each.
  for (std::size_t half = 0; half < 2; ++half) {
    db.simulator().schedule(SimTime::zero(), [&db, t, half] {
      db.lock(t, kAtSite1[2 * half], LockMode::kRead);
      db.lock(t, kAtSite1[2 * half + 1], LockMode::kRead);
    });
  }
  db.simulator().run();
  db.simulator().set_observer(nullptr);

  EXPECT_EQ(db.simulator().stats().messages_sent, 4u);
  EXPECT_EQ(requests_delivered(traffic, SiteId{1}), kAtSite1);
  EXPECT_EQ(grants, kAtSite1);
}

TEST(ClusterBatching, LoneFrameIsByteIdentical) {
  Cluster db({.n_sites = 4, .n_resources = 16, .options = manual_options()});
  Traffic traffic;
  db.simulator().set_observer(&traffic);
  const TransactionId t = db.begin(SiteId{0});
  db.lock(t, ResourceId{1}, LockMode::kWrite);  // a step of one frame
  db.simulator().set_observer(nullptr);
  ASSERT_EQ(traffic.sent.size(), 1u);
  EXPECT_EQ(traffic.sent[0].payload,
            encode(DdbMessage{RemoteLockRequestMsg{t, ResourceId{1}, 0,
                                                   LockMode::kWrite}}));
}

TEST(ClusterBatching, SendOutsideAnyStepGoesOutAtOnce) {
  Cluster db({.n_sites = 2, .n_resources = 4, .options = manual_options()});
  // t0 holds r1 at site 1; t1 (home 0) queues behind it there.
  const TransactionId t0 = db.begin(SiteId{1});
  const TransactionId t1 = db.begin(SiteId{0});
  db.lock(t0, ResourceId{1}, LockMode::kWrite);
  db.lock(t1, ResourceId{1}, LockMode::kWrite);
  db.simulator().run();
  ASSERT_TRUE(db.controller(SiteId{0}).blocked(t1));

  Traffic traffic;
  db.simulator().set_observer(&traffic);
  const std::uint64_t before = db.simulator().stats().messages_sent;
  // kManual: the harness drives detection from outside any step.
  ASSERT_TRUE(db.controller(SiteId{0}).initiate_for(t1).has_value());
  EXPECT_EQ(db.simulator().stats().messages_sent, before + 1);
  ASSERT_EQ(traffic.sent.size(), 1u);
  EXPECT_EQ(traffic.sent[0].payload.size(), kDdbFrameCapacity);  // bare probe
  db.simulator().set_observer(nullptr);
  db.simulator().run();
}

TEST(ClusterBatching, MalformedEnvelopeThrowsAsABadFrameDoes) {
  const Bytes request = encode(DdbMessage{RemoteLockRequestMsg{
      TransactionId{0}, ResourceId{0}, 0, LockMode::kWrite}});
  Bytes truncated;
  append_to_batch(truncated, request);
  append_to_batch(truncated, request);
  truncated.pop_back();
  Bytes oversized{kBatch, kDdbFrameCapacity + 1};
  oversized.resize(oversized.size() + kDdbFrameCapacity + 1, 0);
  const Bytes zero{kBatch, 0};

  for (const Bytes& bad : {truncated, oversized, zero, Bytes{0x77}}) {
    Cluster db({.n_sites = 2, .n_resources = 4, .options = manual_options()});
    db.simulator().send(1, 0, bad);
    EXPECT_THROW(db.simulator().run(), std::logic_error);
  }
}

}  // namespace
}  // namespace cmh::ddb
