// Golden DDB schedule: T5-shaped ddb::Cluster episodes (EXPERIMENTS.md T5:
// 4 sites, 24 transactions of 3 locks, 80% writes, 2 ms hold, delayed
// initiation T = 2 ms, victim abort and retry) at hot sets 16 and 32, the
// two perfbench workloads, must replay bit-identically forever.  The pin
// covers the workload outcome, the simulator's counters, the makespan,
// every controller-to-controller message in send order (a bare frame, or
// one step's kBatch envelope of frames for one site), and the sequence of
// deadlock declarations.
//
// Re-pinned once when ddb::Cluster began sending each step's frames to a
// site as one message (ddb::Outbox): at hot set 16 messages 1005 -> 694,
// events 1196 -> 883, makespan 50130 -> 50268 us, declarations 28 -> 24
// (aborts 16 -> 17); at hot set 32 messages 575 -> 469, events 709 -> 603,
// makespan 29426 -> 29318 us, declarations 10 -> 10.  One delay draw per
// message moves every later delivery, so single episodes shift both ways.
//
// Re-pinned once more when a wait that reaches an agent of a transaction
// homed at another site began starting its computation at once instead of
// T later (DESIGN.md section 4b, note 7): at hot set 16 messages 694 -> 751,
// events 883 -> 892, makespan 50268 -> 56629 us, declarations 24 -> 32
// (aborts 17 -> 17); at hot set 32 messages 469 -> 468, events 603 -> 582,
// makespan 29318 -> 28918 us, declarations 10 -> 12 (aborts 6 -> 7).
//
// The schedule depends on the order in which each lock manager walks its
// resources (an abort that frees several resources grants them, and sends
// the grants, in that order).  The manager walks them in ascending resource
// id, so the pinned values hold on every standard library; a change to any
// of them is a change to the DDB's message order and must be deliberate.
#include <gtest/gtest.h>

#include "ddb/cluster.h"
#include "ddb/workload.h"

namespace cmh::ddb {
namespace {

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ULL;  // FNV-1a prime
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_{1469598103934665603ULL};  // FNV-1a offset basis
};

/// Folds every message the controllers send, in send order.
class FrameTrace final : public sim::SimObserver {
 public:
  void on_send(sim::NodeId from, sim::NodeId to, BytesView payload,
               SimTime at) override {
    hash_.mix(from);
    hash_.mix(to);
    hash_.mix(static_cast<std::uint64_t>(at.micros));
    for (const std::uint8_t b : payload) hash_.mix(b);
  }
  void on_deliver(sim::NodeId, sim::NodeId, BytesView, SimTime) override {}
  [[nodiscard]] std::uint64_t hash() const { return hash_.value(); }

 private:
  Fnv1a hash_;
};

struct GoldenDdb {
  std::uint64_t committed{0};
  std::uint64_t aborted{0};
  std::uint64_t given_up{0};
  std::uint64_t messages{0};
  std::uint64_t events{0};
  std::int64_t makespan_us{0};
  std::uint64_t declarations{0};
  std::uint64_t detection_hash{0};
  std::uint64_t frame_hash{0};
};

GoldenDdb run_t5_episode(std::uint32_t hot_set) {
  DdbOptions options;
  options.initiation = DdbInitiation::kDelayed;
  options.initiation_delay = SimTime::ms(2);
  options.abort_victim = true;
  Cluster db({.n_sites = 4,
              .n_resources = hot_set,
              .options = options,
              .seed = 1});
  FrameTrace frames;
  db.simulator().set_observer(&frames);
  Fnv1a detections;
  db.set_detection_listener([&detections](const DdbDetection& d) {
    detections.mix(d.victim.value());
    detections.mix(d.tag.initiator.value());
    detections.mix(d.tag.sequence);
    detections.mix(d.site.value());
    detections.mix(static_cast<std::uint64_t>(d.at.micros));
  });
  TxnScriptConfig cfg;
  cfg.locks_per_txn = 3;
  cfg.write_fraction = 0.8;
  cfg.hot_set = hot_set;
  cfg.hold_time = SimTime::ms(2);
  cfg.max_retries = 25;
  TxnWorkload workload(db, cfg, 1 * 7 + 3);
  workload.start(24);
  const SimTime end = db.simulator().run();
  db.simulator().set_observer(nullptr);

  GoldenDdb g;
  g.committed = workload.result().committed;
  g.aborted = workload.result().aborted;
  g.given_up = workload.result().given_up;
  g.messages = db.simulator().stats().messages_sent;
  g.events = db.simulator().stats().events_processed;
  g.makespan_us = end.micros;
  g.declarations = db.detections().size();
  g.detection_hash = detections.value();
  g.frame_hash = frames.hash();
  return g;
}

TEST(GoldenDdbSchedule, T5EpisodeIsPinned) {
  const GoldenDdb g = run_t5_episode(16);
  EXPECT_EQ(g.committed, 24u);
  EXPECT_EQ(g.aborted, 17u);
  EXPECT_EQ(g.given_up, 0u);
  EXPECT_EQ(g.messages, 751u);
  EXPECT_EQ(g.events, 892u);
  EXPECT_EQ(g.makespan_us, 56629);
  EXPECT_EQ(g.declarations, 32u);
  EXPECT_EQ(g.detection_hash, 17883799811518688809ULL);
  EXPECT_EQ(g.frame_hash, 766023306910989788ULL);
}

// Hot set 32, T5's low-contention row: few deadlocks, so the schedule is
// mostly lock traffic.
TEST(GoldenDdbSchedule, T5Hot32EpisodeIsPinned) {
  const GoldenDdb g = run_t5_episode(32);
  EXPECT_EQ(g.committed, 24u);
  EXPECT_EQ(g.aborted, 7u);
  EXPECT_EQ(g.given_up, 0u);
  EXPECT_EQ(g.messages, 468u);
  EXPECT_EQ(g.events, 582u);
  EXPECT_EQ(g.makespan_us, 28918);
  EXPECT_EQ(g.declarations, 12u);
  EXPECT_EQ(g.detection_hash, 3946831927120683190ULL);
  EXPECT_EQ(g.frame_hash, 11964801138503525169ULL);
}

TEST(GoldenDdbSchedule, ReplaysInProcess) {
  const GoldenDdb a = run_t5_episode(16);
  const GoldenDdb b = run_t5_episode(16);
  EXPECT_EQ(a.frame_hash, b.frame_hash);
  EXPECT_EQ(a.detection_hash, b.detection_hash);
  EXPECT_EQ(a.events, b.events);
}

}  // namespace
}  // namespace cmh::ddb
