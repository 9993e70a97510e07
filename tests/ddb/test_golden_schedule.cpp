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
// Re-pinned once more when each lock queue began ordering its requests by
// the requester's lock count, most first (DESIGN.md section 4g): at hot
// set 16 aborts 17 -> 5, messages 751 -> 519, events 892 -> 635, makespan
// 56629 -> 39548 us, declarations 32 -> 9; at hot set 32 aborts 7 -> 1,
// messages 468 -> 408, events 582 -> 511, makespan 28918 -> 27979 us,
// declarations 12 -> 2.
//
// Re-pinned once more when ddb::TxnWorkload began running perfbench's T5
// client: each client draws its home, then its resources and their modes
// together, then its stagger, and a declared victim issues no further lock
// and skips its commit.  The same seeds now draw other episodes, and the
// controllers' schedule for a given episode is unchanged
// (bench_closure_latency, which ran that client on its own copy, prints
// the same tables): at hot set 16 aborts 5 -> 1, messages 519 -> 303,
// events 635 -> 405, makespan 39548 -> 28022 us, declarations 9 -> 2; at
// hot set 32 aborts 1 -> 0, messages 408 -> 252, events 511 -> 352,
// makespan 27979 -> 23581 us, declarations 2 -> 0.
//
// Re-pinned once more when a block at a home agent that a live computation
// had reached stopped starting its computation at once (the rule of
// DESIGN.md section 4b, note 5, now gone): at hot set 16 messages 303 ->
// 321, events 405 -> 430, makespan 28022 -> 32697 us, declarations 2 -> 2
// (aborts 1 -> 1); at hot set 32 messages 252 -> 254, events 352 -> 359,
// makespan 23581 -> 23680 us, declarations 0 -> 0.
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

/// Folds every deadlock declaration, at its instant.
class DetectionTrace final : public TxnObserver {
 public:
  void on_declaration(const DdbDetection& d) override {
    hash_.mix(d.victim.value());
    hash_.mix(d.tag.initiator.value());
    hash_.mix(d.tag.sequence);
    hash_.mix(d.site.value());
    hash_.mix(static_cast<std::uint64_t>(d.at.micros));
  }
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

// The workload seed of the pinned episodes unless a test names another.
constexpr std::uint64_t kWorkloadSeed = 1 * 7 + 3;

GoldenDdb run_t5_episode(std::uint32_t hot_set,
                         std::uint64_t workload_seed = kWorkloadSeed) {
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
  TxnScriptConfig cfg;
  cfg.locks_per_txn = 3;
  cfg.write_fraction = 0.8;
  cfg.hot_set = hot_set;
  cfg.hold_time = SimTime::ms(2);
  cfg.max_retries = 25;
  TxnWorkload workload(db, cfg, workload_seed);
  DetectionTrace detections;
  workload.set_observer(&detections);
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
  g.detection_hash = detections.hash();
  g.frame_hash = frames.hash();
  return g;
}

TEST(GoldenDdbSchedule, T5EpisodeIsPinned) {
  const GoldenDdb g = run_t5_episode(16);
  EXPECT_EQ(g.committed, 24u);
  EXPECT_EQ(g.aborted, 1u);
  EXPECT_EQ(g.given_up, 0u);
  EXPECT_EQ(g.messages, 321u);
  EXPECT_EQ(g.events, 430u);
  EXPECT_EQ(g.makespan_us, 32697);
  EXPECT_EQ(g.declarations, 2u);
  EXPECT_EQ(g.detection_hash, 14065097454734278191ULL);
  EXPECT_EQ(g.frame_hash, 15899624125193527134ULL);
}

// Hot set 32, T5's low-contention row: few deadlocks (this episode forms
// none), so the schedule is lock traffic.
TEST(GoldenDdbSchedule, T5Hot32EpisodeIsPinned) {
  const GoldenDdb g = run_t5_episode(32);
  EXPECT_EQ(g.committed, 24u);
  EXPECT_EQ(g.aborted, 0u);
  EXPECT_EQ(g.given_up, 0u);
  EXPECT_EQ(g.messages, 254u);
  EXPECT_EQ(g.events, 359u);
  EXPECT_EQ(g.makespan_us, 23680);
  EXPECT_EQ(g.declarations, 0u);
  EXPECT_EQ(g.detection_hash, 1469598103934665603ULL);  // none folded
  EXPECT_EQ(g.frame_hash, 1530408266053658601ULL);
}

// Hot set 32 again, on a workload seed (the first above 10) whose episode
// declares and aborts, so the declaration sequence is pinned at this row
// as well.
TEST(GoldenDdbSchedule, T5Hot32DeclaringEpisodeIsPinned) {
  const GoldenDdb g = run_t5_episode(32, 13);
  EXPECT_EQ(g.committed, 24u);
  EXPECT_EQ(g.aborted, 2u);
  EXPECT_EQ(g.given_up, 0u);
  EXPECT_EQ(g.messages, 258u);
  EXPECT_EQ(g.events, 368u);
  EXPECT_EQ(g.makespan_us, 19570);
  EXPECT_EQ(g.declarations, 2u);
  EXPECT_EQ(g.detection_hash, 10292488291886937316ULL);
  EXPECT_EQ(g.frame_hash, 14585969826325285619ULL);
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
