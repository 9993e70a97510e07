// Two-level ladder (calendar) queue for the discrete-event engine.
//
// The binary heap the simulator used pays O(log n) per operation with a
// pointer-chasing access pattern that falls off a cliff once the pending-event
// set outgrows L2 -- exactly the large-N regime the sharded engine targets.
// This queue exploits the structure of simulated time instead:
//
//   * Near future: a ring of `kBuckets` fixed-width time buckets.  Inserts
//     drop into their bucket unsorted (one append); the consumer sorts a
//     bucket only when virtual time reaches it.  With bucket width tuned to
//     the delay model, buckets stay small and every event pays O(1) amortized
//     plus its share of one small sort.  The buckets are FIFO chains of
//     fixed-size chunks from one shared pool, not a vector each: a queue
//     holds a handful of heap blocks whatever the ring size, so building
//     and tearing one down leaves no trail of small frees for the
//     allocator to consolidate.
//   * Far future: an unsorted overflow list.  Each time the ring advances,
//     the overflow entries its horizon now covers move into their buckets
//     (the earliest overflow time is kept, so the check is one compare);
//     without that, an entry inserted into the ring after a pending
//     overflow entry's time would leave first.  When the ring drains, it
//     re-anchors at the earliest overflow entry and the bucket width
//     re-tunes to the overflow span, so far-out timers cost one extra move,
//     not a per-event penalty.
//   * Current bucket: entries landing at-or-before the bucket being consumed
//     (zero-delay timers, cross-shard arrivals into an idle shard) go to a
//     small binary heap that is merged entry-by-entry with the sorted bucket.
//
// Ordering contract: pops come out in ascending (time, a, b, seq) order --
// the canonical event key the simulator uses for thread-count-independent
// determinism.  The bucket width only shapes *where* entries wait, never the
// order they leave, so retuning is invisible to the schedule.
//
// Steady state allocates nothing: the chunk pool, the active run, the near
// heap and the overflow list all recycle their capacity, and their blocks
// come from the thread's BlockPool, so a new queue reuses an old one's.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/block_pool.h"
#include "common/time.h"

namespace cmh::sim {

class EventQueue {
 public:
  /// One scheduled event.  (a, b, seq) disambiguate equal timestamps with a
  /// key that does not depend on how nodes are sharded:
  ///   message:  a = src node, b = dst node, seq = per-channel message index
  ///   timer:    a = owning node (or control), b = kTimerLane, seq = per-owner
  ///             timer index
  struct Entry {
    SimTime time;
    std::uint32_t a{0};
    std::uint32_t b{0};
    std::uint64_t seq{0};
    std::uint32_t slot{0};
  };

  /// Canonical total order on events; identical for every shard count.
  [[nodiscard]] static bool key_before(const Entry& x, const Entry& y) {
    if (x.time != y.time) return x.time < y.time;
    // (a, b) packed into one word: fewer branches on the sort hot path.
    const std::uint64_t xab = (std::uint64_t{x.a} << 32) | x.b;
    const std::uint64_t yab = (std::uint64_t{y.a} << 32) | y.b;
    if (xab != yab) return xab < yab;
    return x.seq < y.seq;
  }

  static constexpr SimTime kNever{INT64_MAX};

  /// `width_hint_us` seeds the bucket width (ideally ~delay-span / kBuckets);
  /// the queue re-tunes itself whenever it re-anchors from overflow.
  explicit EventQueue(std::int64_t width_hint_us = 4)
      : wlog_(width_log2_for(width_hint_us)) {}

  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }

  void insert(const Entry& e) {
    if (size_ == 0) {
      // Totally empty: re-anchor the ring at the new entry so an idle shard
      // fed at a barrier does not scan from a stale base.
      base_ = e.time.micros & ~(width() - 1);
      cur_ = 0;
    }
    ++size_;
    const std::int64_t t = e.time.micros;
    if (t < base_ + width()) {
      // Current bucket or the past (e.g. a zero-delay timer): the side heap
      // keeps it mergeable with the already-sorted active run.
      near_.push_back(e);
      std::push_heap(near_.begin(), near_.end(), KeyAfter{});
    } else if (t - base_ < ring_span()) {
      std::size_t idx = (cur_ + static_cast<std::size_t>((t - base_) >> wlog_)) &
                        (kBuckets - 1);
      append(idx, e);
    } else {
      overflow_.push_back(e);
      overflow_min_ = std::min(overflow_min_, t);
    }
  }

  /// Earliest pending entry in key order, or nullptr when empty.  May sort
  /// one bucket and/or re-anchor from overflow (amortized O(1) per event).
  [[nodiscard]] const Entry* peek() {
    prepare();
    const bool have_active = active_pos_ < active_.size();
    if (near_.empty()) return have_active ? &active_[active_pos_] : nullptr;
    if (!have_active) return &near_.front();
    return key_before(near_.front(), active_[active_pos_]) ? &near_.front()
                                                           : &active_[active_pos_];
  }

  /// Earliest pending time; kNever when empty.
  [[nodiscard]] SimTime next_time() {
    const Entry* e = peek();
    return e ? e->time : kNever;
  }

  /// Removes and returns the earliest entry.  Precondition: !empty().
  Entry pop() {
    prepare();
    --size_;
    const bool have_active = active_pos_ < active_.size();
    if (!near_.empty() &&
        (!have_active || key_before(near_.front(), active_[active_pos_]))) {
      std::pop_heap(near_.begin(), near_.end(), KeyAfter{});
      const Entry e = near_.back();
      near_.pop_back();
      return e;
    }
    const Entry e = active_[active_pos_++];
    if (active_pos_ == active_.size()) {
      active_.clear();
      active_pos_ = 0;
    }
    return e;
  }

 private:
  static constexpr std::size_t kBuckets = 256;  // power of two
  static constexpr std::uint32_t kNil = UINT32_MAX;

  // A bucket is a chain of chunks in insertion order; entries within a
  // chunk are contiguous, so appending and draining stay sequential.
  static constexpr std::uint32_t kChunkEntries = 8;
  struct Chunk {
    std::array<Entry, kChunkEntries> entries;
    std::uint32_t size;
    std::uint32_t next;
  };

  // Functor comparators: passing key_before by name decays to a function
  // pointer, which std::sort/push_heap cannot inline -- measured at ~25% of
  // event-loop CPU before the change.
  struct KeyBefore {
    [[nodiscard]] bool operator()(const Entry& x, const Entry& y) const {
      return key_before(x, y);
    }
  };
  struct KeyAfter {
    [[nodiscard]] bool operator()(const Entry& x, const Entry& y) const {
      return key_before(y, x);
    }
  };

  [[nodiscard]] static int width_log2_for(std::int64_t w) {
    if (w < 1) w = 1;
    if (w > (std::int64_t{1} << 40)) w = std::int64_t{1} << 40;
    return static_cast<int>(std::bit_width(static_cast<std::uint64_t>(w - 1)));
  }

  [[nodiscard]] std::int64_t width() const { return std::int64_t{1} << wlog_; }
  [[nodiscard]] std::int64_t ring_span() const {
    return static_cast<std::int64_t>(kBuckets) << wlog_;
  }

  /// Distance (in buckets) from cur_ to the next occupied bucket, scanning
  /// the occupancy bitmap cyclically; kBuckets when the whole ring is empty.
  /// (Walking the 256 bucket heads directly costs a cache miss per empty
  /// bucket, which dominates sparse workloads; four bitmap words don't.)
  [[nodiscard]] std::size_t next_occupied_distance() const {
    std::size_t d = 0;
    while (d < kBuckets) {
      const std::size_t pos = (cur_ + d) & (kBuckets - 1);
      const unsigned shift = static_cast<unsigned>(pos & 63);
      // Bits below `shift` are buckets before cur_+d; shifting drops them,
      // so any set bit in `word` is at a distance >= d.
      const std::uint64_t word = occupied_[pos >> 6] >> shift;
      if (word != 0) {
        const std::size_t dist =
            d + static_cast<std::size_t>(std::countr_zero(word));
        // On the final (wrapped) word, high bits are buckets already scanned
        // at the start; a hit there means the ring is empty after all.
        return dist < kBuckets ? dist : kBuckets;
      }
      d += 64 - shift;  // jump to the next word boundary
    }
    return kBuckets;
  }

  /// Appends `e` to bucket `idx`, opening a chunk (a recycled one when the
  /// free chain has any) when the bucket is empty or its last chunk full.
  void append(std::size_t idx, const Entry& e) {
    std::uint64_t& word = occupied_[idx >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (idx & 63);
    std::uint32_t t = (word & bit) != 0 ? tail_[idx] : kNil;
    if (t == kNil || pool_[t].size == kChunkEntries) {
      std::uint32_t n = free_;
      if (n != kNil) {
        free_ = pool_[n].next;
      } else {
        n = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
      }
      pool_[n].size = 0;
      pool_[n].next = kNil;
      if (t == kNil) {
        head_[idx] = n;
      } else {
        pool_[t].next = n;
      }
      tail_[idx] = t = n;
    }
    Chunk& c = pool_[t];
    c.entries[c.size++] = e;
    word |= bit;
  }

  /// Ensures the next entry (if any) is reachable via active_/near_.
  void prepare() {
    if (active_pos_ < active_.size() || !near_.empty() || size_ == 0) return;
    for (;;) {
      const std::size_t d = next_occupied_distance();
      if (d < kBuckets) {
        cur_ = (cur_ + d) & (kBuckets - 1);
        base_ += static_cast<std::int64_t>(d) * width();
        if (!overflow_.empty() && overflow_min_ - base_ < ring_span()) {
          pull_from_overflow();
        }
        // Consume this bucket as the sorted active run (its chunk chain goes
        // back to the free chain whole).  Inserts landing in its time range
        // from now on go to near_ (insert() routes anything below base_ +
        // width there), so the merged order stays exact.
        active_.clear();
        for (std::uint32_t n = head_[cur_]; n != kNil; n = pool_[n].next) {
          const Chunk& c = pool_[n];
          active_.insert(active_.end(), c.entries.begin(),
                         c.entries.begin() + c.size);
        }
        pool_[tail_[cur_]].next = free_;
        free_ = head_[cur_];
        occupied_[cur_ >> 6] &= ~(std::uint64_t{1} << (cur_ & 63));
        active_pos_ = 0;
        // Handlers run in key order and their sends append in that same
        // order, so buckets usually arrive sorted -- or *rotated* sorted
        // when a ring of processes wraps around (node N-1 feeds node 0).
        // Both are O(n) to fix; the general sort only runs when the bucket
        // is genuinely shuffled.
        const auto first = active_.begin();
        const auto last = active_.end();
        const auto brk = std::is_sorted_until(first, last, KeyBefore{});
        if (brk != last) {
          if (std::is_sorted(brk, last, KeyBefore{}) &&
              key_before(*(last - 1), *first)) {
            std::rotate(first, brk, last);
          } else {
            std::sort(first, last, KeyBefore{});
          }
        }
        return;
      }
      reseed_from_overflow();
    }
  }

  /// Moves every overflow entry that the horizon now covers into its bucket
  /// and recomputes overflow_min_.
  void pull_from_overflow() {
    overflow_keep_.clear();
    overflow_min_ = kNever.micros;
    for (const Entry& e : overflow_) {
      const std::int64_t offset = e.time.micros - base_;
      if (offset < ring_span()) {
        append((cur_ + static_cast<std::size_t>(offset >> wlog_)) &
                   (kBuckets - 1),
               e);
      } else {
        overflow_keep_.push_back(e);
        overflow_min_ = std::min(overflow_min_, e.time.micros);
      }
    }
    overflow_.swap(overflow_keep_);
  }

  /// Ring fully drained: re-anchor at the earliest overflow entry, re-tune
  /// the bucket width to the overflow span, and redistribute what fits.
  void reseed_from_overflow() {
    std::int64_t lo = INT64_MAX;
    std::int64_t hi = INT64_MIN;
    for (const Entry& e : overflow_) {
      lo = std::min(lo, e.time.micros);
      hi = std::max(hi, e.time.micros);
    }
    // size_ > 0 with ring, active and near empty implies overflow_ nonempty.
    wlog_ = width_log2_for((hi - lo) / static_cast<std::int64_t>(kBuckets / 2) +
                           1);
    base_ = lo & ~(width() - 1);
    cur_ = 0;
    pull_from_overflow();
  }

  PooledVector<Chunk> pool_;     // every bucket's chunks, one backing store
  std::uint32_t free_{kNil};     // free-chunk chain through Chunk::next
  // Per-bucket chain ends, valid only while the bucket's occupied_ bit is
  // set: an empty bucket's entries are stale or never written, so building
  // a queue does not fill 2 KiB of them.
  std::array<std::uint32_t, kBuckets> head_;
  std::array<std::uint32_t, kBuckets> tail_;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};  // non-empty buckets
  PooledVector<Entry> active_;  // sorted run of the bucket being consumed
  std::size_t active_pos_{0};
  PooledVector<Entry> near_;    // min-heap: entries at/before the active bucket
  PooledVector<Entry> overflow_;  // beyond the ring horizon, unsorted
  PooledVector<Entry> overflow_keep_;
  std::int64_t overflow_min_{kNever.micros};  // earliest time in overflow_
  std::size_t size_{0};
  std::size_t cur_{0};          // index of the bucket containing base_
  std::int64_t base_{0};        // start time of bucket cur_
  int wlog_{2};                 // log2 of bucket width in us
};

}  // namespace cmh::sim
