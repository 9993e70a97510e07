// Differential tests of sim::EventQueue against a sorted reference: every
// pop must return the earliest pending entry in key_before order, whatever
// ring bucket, side heap or overflow list it waited in.  The schedules
// follow the simulator's discipline -- an entry is inserted at or after the
// time of the last pop -- and are seeded, so a failure replays exactly.
#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "common/rng.h"

namespace cmh::sim {
namespace {

using Entry = EventQueue::Entry;

struct KeyLess {
  bool operator()(const Entry& x, const Entry& y) const {
    return EventQueue::key_before(x, y);
  }
};

/// An EventQueue and a sorted reference driven in lockstep.  Each insert
/// gets a fresh seq, so keys are unique and the order is total.
class Lockstep {
 public:
  explicit Lockstep(std::int64_t width_hint_us) : queue_(width_hint_us) {}

  /// Inserts an entry `delay_us` after the time of the last pop.
  void insert(std::int64_t delay_us, std::uint32_t a, std::uint32_t b) {
    const Entry e{SimTime::us(now_ + delay_us), a, b, ++seq_,
                  static_cast<std::uint32_t>(seq_)};
    queue_.insert(e);
    reference_.insert(e);
  }

  /// Pops one entry from both; false (with a gtest failure) on a mismatch.
  bool pop() {
    const Entry want = *reference_.begin();
    reference_.erase(reference_.begin());
    if (queue_.next_time() != want.time) {
      ADD_FAILURE() << "next_time " << queue_.next_time().micros
                    << " us, want " << want.time.micros << " us (seq "
                    << want.seq << ")";
      return false;
    }
    const Entry got = queue_.pop();
    now_ = got.time.micros;
    if (got.time != want.time || got.a != want.a || got.b != want.b ||
        got.seq != want.seq || got.slot != want.slot) {
      ADD_FAILURE() << "popped seq " << got.seq << " at " << got.time.micros
                    << " us, want seq " << want.seq << " at "
                    << want.time.micros << " us";
      return false;
    }
    return true;
  }

  /// Pops until both are empty, or until the first mismatch.
  bool drain() {
    while (!reference_.empty()) {
      if (!pop()) return false;
    }
    return queue_.empty() && queue_.next_time() == EventQueue::kNever;
  }

  [[nodiscard]] std::size_t size() const { return reference_.size(); }
  [[nodiscard]] bool sizes_agree() const {
    return queue_.size() == reference_.size();
  }

 private:
  EventQueue queue_;
  std::set<Entry, KeyLess> reference_;
  std::int64_t now_{0};
  std::uint64_t seq_{0};
};

// Width hint 4 us: buckets 4 us wide, a ring of 256 buckets spans 1,024 us.
constexpr std::int64_t kWidth = 4;
constexpr std::int64_t kSpan = 256 * kWidth;

TEST(EventQueue, DrainedBucketsAreRefilledAfterTheRingWraps) {
  // Delays short enough to land in the ring from anywhere in the current
  // bucket, so every bucket is filled, drained and refilled as time wraps
  // the ring many times; between rounds the queue runs dry and re-anchors.
  // A drained bucket's chain ends are stale, and the next insert into it
  // must start a fresh chain.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Lockstep q(kWidth);
    for (int round = 0; round < 8; ++round) {
      for (int op = 0; op < 1500; ++op) {
        if (q.size() == 0 || rng.chance(0.55)) {
          q.insert(rng.range(kWidth, kSpan - kWidth - 1),
                   static_cast<std::uint32_t>(rng.below(6)),
                   static_cast<std::uint32_t>(rng.below(6)));
        } else {
          ASSERT_TRUE(q.pop()) << "seed " << seed << " round " << round;
        }
        ASSERT_TRUE(q.sizes_agree());
      }
      ASSERT_TRUE(q.drain()) << "seed " << seed << " round " << round;
    }
  }
}

TEST(EventQueue, InsertsIntoTheBucketBeingConsumedMergeInKeyOrder) {
  // Zero and sub-bucket delays land at or before the bucket being consumed
  // and wait in the side heap, which merges with the bucket's sorted run:
  // equal times order by (a, b, seq), before or after what is left of it.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Lockstep q(kWidth);
    for (int op = 0; op < 8000; ++op) {
      const double kind = rng.uniform();
      if (q.size() == 0 || kind < 0.3) {
        q.insert(rng.range(kWidth, 8 * kWidth),
                 static_cast<std::uint32_t>(rng.below(4)),
                 static_cast<std::uint32_t>(rng.below(4)));
      } else if (kind < 0.55) {
        q.insert(rng.range(0, kWidth - 1),
                 static_cast<std::uint32_t>(rng.below(4)),
                 static_cast<std::uint32_t>(rng.below(4)));
      } else {
        ASSERT_TRUE(q.pop()) << "seed " << seed << " op " << op;
      }
      ASSERT_TRUE(q.sizes_agree());
    }
    ASSERT_TRUE(q.drain()) << "seed " << seed;
  }
}

TEST(EventQueue, FarTimersReseedTheRingFromOverflow) {
  // Only timers far past the ring's span: once the first entry is gone the
  // ring is empty, so each further pop re-anchors it at the overflow's
  // earliest entry with a width re-tuned to the overflow's spread.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Lockstep q(kWidth);
    q.insert(0, 0, 0);
    for (int i = 0; i < 500; ++i) {
      q.insert(rng.range(kSpan, 400 * kSpan),
               static_cast<std::uint32_t>(rng.below(4)), 0xFFFFFFFFu);
    }
    ASSERT_TRUE(q.drain()) << "seed " << seed;
  }
}

TEST(EventQueue, FarTimersMixedWithNearTrafficLeaveInKeyOrder) {
  // The simulator's mix: message-like delays inside the ring's span, zero
  // delays, and timers far past it that wait in overflow while the ring
  // advances beneath them and, when it drains, re-seed it.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    Lockstep q(kWidth);
    for (int op = 0; op < 8000; ++op) {
      const double kind = rng.uniform();
      const auto a = static_cast<std::uint32_t>(rng.below(4));
      if (q.size() == 0 || kind < 0.3) {
        q.insert(rng.range(kWidth, kSpan - 1), a, a + 1);
      } else if (kind < 0.4) {
        q.insert(0, a, a + 1);
      } else if (kind < 0.5) {
        q.insert(rng.range(kSpan, 20 * kSpan), a, 0xFFFFFFFFu);
      } else {
        ASSERT_TRUE(q.pop()) << "seed " << seed << " op " << op;
      }
      ASSERT_TRUE(q.sizes_agree());
    }
    ASSERT_TRUE(q.drain()) << "seed " << seed;
  }
}

TEST(EventQueue, OverflowEntryIsNotOvertakenByALaterRingEntry) {
  // Inserted at time 0, the timer at 1,500 us is past the ring's 1,024 us
  // span and waits in overflow.  Once time reaches 900 us the horizon
  // covers it, and an entry inserted at 1,600 us joins the ring: the timer
  // must still leave first.
  Lockstep q(kWidth);
  q.insert(0, 0, 0);
  q.insert(1500, 0, 0xFFFFFFFFu);
  q.insert(900, 0, 1);
  ASSERT_TRUE(q.pop());  // t = 0
  ASSERT_TRUE(q.pop());  // t = 900
  q.insert(700, 1, 0);   // t = 1,600
  EXPECT_TRUE(q.drain());
}

}  // namespace
}  // namespace cmh::sim
