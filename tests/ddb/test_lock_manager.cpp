#include "ddb/lock_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace cmh::ddb {
namespace {

const TransactionId t1{1};
const TransactionId t2{2};
const TransactionId t3{3};
const TransactionId t4{4};
const ResourceId r1{1};
const ResourceId r2{2};
const SiteId here{0};
const SiteId other{1};

TEST(LockManager, FirstAcquireGranted) {
  LockManager lm;
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_TRUE(lm.holds(r1, t1));
  EXPECT_EQ(lm.held_mode(r1, t1), LockMode::kWrite);
}

TEST(LockManager, SharedReadersCoexist) {
  LockManager lm;
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_TRUE(lm.holds(r1, t1));
  EXPECT_TRUE(lm.holds(r1, t2));
}

TEST(LockManager, WriteBlocksBehindRead) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_FALSE(lm.holds(r1, t2));
  EXPECT_TRUE(lm.waiting(r1, t2));
}

TEST(LockManager, ReadBlocksBehindWrite) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kQueued);
}

TEST(LockManager, RedundantAcquire) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kRedundant);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kRedundant);
}

TEST(LockManager, UpgradeSoleReaderInPlace) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.held_mode(r1, t1), LockMode::kWrite);
}

TEST(LockManager, ContendedUpgradeQueues) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kQueued);
  // Release the other reader: the upgrade completes.
  const auto granted = lm.release(r1, t2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t1);
  EXPECT_EQ(lm.held_mode(r1, t1), LockMode::kWrite);
}

TEST(LockManager, UpgradeDeadlockShapeProducesCrossWaits) {
  // Classic upgrade deadlock: both read, both try to upgrade.
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  std::vector<WaitEdge> edges;
  lm.wait_edges(edges);
  // t1 waits on holder t2 and vice versa (each also waits on the other's
  // queued upgrade ahead of it, already covered by the holder edge).
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t1, t2}),
            edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t2, t1}),
            edges.end());
}

TEST(LockManager, ReleaseGrantsFifo) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kWrite, here),
            AcquireResult::kQueued);
  auto granted = lm.release(r1, t1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t2);  // FIFO: t2 before t3
  granted = lm.release(r1, t2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t3);
}

TEST(LockManager, ReleaseGrantsMultipleReaders) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  const auto granted = lm.release(r1, t1);
  EXPECT_EQ(granted.size(), 2u);  // both readers at once
  EXPECT_TRUE(lm.holds(r1, t2));
  EXPECT_TRUE(lm.holds(r1, t3));
}

TEST(LockManager, NoOvertakingPastConflictingWaiter) {
  // Writer queued behind reader-holder; a later read holding no more locks
  // must NOT overtake it.
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.acquire(r1, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  // t3 waits for the queued writer t2 (and t2 waits for holder t1).
  std::vector<WaitEdge> edges;
  lm.wait_edges(edges);
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t3, t2}),
            edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t2, t1}),
            edges.end());
}

TEST(LockManager, ReleaseUnheldIsNoop) {
  LockManager lm;
  EXPECT_TRUE(lm.release(r1, t1).empty());
}

TEST(LockManager, AbortReleasesEverythingAndCancelsQueued) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r2, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r2, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  const auto granted = lm.abort(t1);
  EXPECT_EQ(granted.size(), 2u);  // t2 acquires both
  EXPECT_FALSE(lm.holds(r1, t1));
  EXPECT_FALSE(lm.holds(r2, t1));
  EXPECT_TRUE(lm.holds(r1, t2));
  EXPECT_TRUE(lm.holds(r2, t2));
}

TEST(LockManager, AbortCancelsOwnQueuedRequests) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  (void)lm.abort(t2);
  EXPECT_FALSE(lm.waiting(r1, t2));
  EXPECT_TRUE(lm.release(r1, t1).empty());  // nobody left to grant
}

TEST(LockManager, HeldByListsResources) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r2, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  EXPECT_EQ(lm.held_by(t1), (std::vector<ResourceId>{r1, r2}));
  EXPECT_TRUE(lm.held_by(t2).empty());
}

TEST(LockManager, WaitEdgesOnlyForConflicts) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  std::vector<WaitEdge> edges;
  lm.wait_edges(edges);
  // Both readers wait on the writer; they do NOT wait on each other.
  EXPECT_EQ(edges.size(), 2u);
  EXPECT_EQ(std::find(edges.begin(), edges.end(), std::pair{t3, t2}),
            edges.end());
}

TEST(LockManager, QueuedForTracksOrigin) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, other),
            AcquireResult::kQueued);
  EXPECT_TRUE(lm.queued(t2));
  EXPECT_TRUE(lm.queued_from(t2, other));
  EXPECT_FALSE(lm.queued_from(t2, here));
  EXPECT_FALSE(lm.queued(t1));
  const auto queued = lm.queued_requests();
  ASSERT_EQ(queued.size(), 1u);
  EXPECT_EQ(queued[0].first, r1);
  EXPECT_EQ(queued[0].second.origin, other);
}

TEST(LockManager, QueueDepth) {
  LockManager lm;
  EXPECT_EQ(lm.queue_depth(r1), 0u);
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kWrite, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.queue_depth(r1), 2u);
}

TEST(LockManager, QueuedRequestsEnumeratesAll) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r2, t1, LockMode::kWrite, here),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, other),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r2, t3, LockMode::kRead, here),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.queued_requests().size(), 2u);
}

// ---- queue order: most locks first, FIFO among equal counts ------------------

TEST(LockManager, HigherCountOvertakesOnlyLowerCounts) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here, 0),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here, 2),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kWrite, here, 0),
            AcquireResult::kQueued);
  // One lock: behind t2's two, ahead of t3's none.
  EXPECT_EQ(lm.acquire(r1, t4, LockMode::kWrite, here, 1),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.waiters(r1), (TxnList{t2, t4, t3}));
  EXPECT_EQ(lm.waiters_behind(r1, 1), (TxnList{t3}));
  EXPECT_EQ(lm.waiters_behind(r1, 3), (TxnList{t2, t4, t3}));
  EXPECT_TRUE(lm.waiters_behind(r1, 0).empty());
  std::vector<WaitEdge> edges;
  lm.wait_edges(edges);
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t4, t2}),
            edges.end());
  EXPECT_NE(std::find(edges.begin(), edges.end(), std::pair{t3, t4}),
            edges.end());
  EXPECT_EQ(std::find(edges.begin(), edges.end(), std::pair{t2, t4}),
            edges.end());
  // Grants follow the queue order.
  auto granted = lm.release(r1, t1);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t2);
  granted = lm.release(r1, t2);
  ASSERT_EQ(granted.size(), 1u);
  EXPECT_EQ(granted[0].txn, t4);
  EXPECT_EQ(granted[0].held, 1u);
}

TEST(LockManager, EqualCountsStayFifo) {
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here, 3),
            AcquireResult::kGranted);
  for (const TransactionId t : {t2, t3, t4}) {
    ASSERT_EQ(lm.acquire(r1, t, LockMode::kWrite, here, 2),
              AcquireResult::kQueued);
  }
  EXPECT_EQ(lm.waiters(r1), (TxnList{t2, t3, t4}));
  EXPECT_TRUE(lm.waiters_behind(r1, 2).empty());
  TransactionId holder = t1;
  for (const TransactionId next : {t2, t3, t4}) {
    const auto granted = lm.release(r1, holder);
    ASSERT_EQ(granted.size(), 1u);
    EXPECT_EQ(granted[0].txn, next);
    holder = next;
  }
}

TEST(LockManager, GrantedAtItsInsertionPointPastLowerCountWaiters) {
  // t1 reads; t2 (no locks) queues to write.  t3, holding one lock, asks
  // to read: its place is ahead of t2, where nothing conflicts, so it is
  // granted at once although a conflicting waiter is queued.  (Judged at
  // the queue's end it would queue behind t2, and nothing would ever grant
  // it while t1 reads: the queue only grants from its front.)
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here, 0),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here, 0),
            AcquireResult::kQueued);
  EXPECT_TRUE(lm.blockers(r1, t3, LockMode::kRead, 1).empty());
  EXPECT_EQ(lm.acquire(r1, t3, LockMode::kRead, here, 1),
            AcquireResult::kGranted);
  EXPECT_TRUE(lm.holds(r1, t3));
  EXPECT_EQ(lm.waiters_behind(r1, 1), (TxnList{t2}));
  // t2 now waits on both readers.
  std::vector<WaitEdge> edges;
  lm.wait_edges(edges);
  EXPECT_EQ(edges, (std::vector<WaitEdge>{{t2, t1}, {t2, t3}}));
  // A reader with no locks still queues behind the writer.
  EXPECT_EQ(lm.acquire(r1, t4, LockMode::kRead, here, 0),
            AcquireResult::kQueued);
}

TEST(LockManager, ContendedUpgradeKeepsItsPlacement) {
  // t1 and t2 read; t3 and t4 (no locks) queue to write.  t1's contended
  // upgrade queues at the end whatever its count, as it always did.
  LockManager lm;
  ASSERT_EQ(lm.acquire(r1, t1, LockMode::kRead, here, 0),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t2, LockMode::kRead, here, 0),
            AcquireResult::kGranted);
  ASSERT_EQ(lm.acquire(r1, t3, LockMode::kWrite, here, 0),
            AcquireResult::kQueued);
  ASSERT_EQ(lm.acquire(r1, t4, LockMode::kWrite, here, 0),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.blockers(r1, t1, LockMode::kWrite, 5),
            (FlatSet<TransactionId, 8>{t2, t3, t4}));
  EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here, 5),
            AcquireResult::kQueued);
  EXPECT_EQ(lm.waiters(r1), (TxnList{t3, t4, t1}));
  EXPECT_TRUE(lm.waiters_behind(r1, 5).empty());
}

TEST(LockManager, StateHashFoldsQueuedCounts) {
  const auto hash_with = [](LockCount held) {
    LockManager lm;
    EXPECT_EQ(lm.acquire(r1, t1, LockMode::kWrite, here, 0),
              AcquireResult::kGranted);
    EXPECT_EQ(lm.acquire(r1, t2, LockMode::kWrite, here, held),
              AcquireResult::kQueued);
    std::uint64_t h = 0;
    lm.mix_state_hash(h);
    return h;
  };
  EXPECT_EQ(hash_with(1), hash_with(1));
  EXPECT_NE(hash_with(0), hash_with(1));
}

// For random lock tables, the blockers() a request is told it would wait
// on are exactly its out-edges once acquire() queues it, and it is granted
// iff it has none.  The grey-request oracle rests on this.
TEST(LockManager, BlockersMatchTheWaitEdgesOfTheQueuedRequest) {
  std::mt19937 rng(20221);
  const auto pick = [&rng](std::uint32_t n) {
    return std::uniform_int_distribution<std::uint32_t>(0, n - 1)(rng);
  };
  constexpr std::uint32_t kTxns = 6;
  std::size_t queued = 0;
  std::size_t overtaking_grants = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    LockManager lm;
    const std::uint32_t ops = 1 + pick(10);
    for (std::uint32_t i = 0; i < ops; ++i) {
      const TransactionId t{1 + pick(kTxns)};
      if (lm.holds(r1, t) && pick(3) == 0) {
        lm.release(r1, t);
      } else if (!lm.waiting(r1, t)) {
        lm.acquire(r1, t, pick(2) == 0 ? LockMode::kRead : LockMode::kWrite,
                   here, static_cast<LockCount>(pick(4)));
      }
    }
    const TransactionId t{1 + pick(kTxns)};
    if (lm.waiting(r1, t)) continue;
    const LockMode mode = pick(2) == 0 ? LockMode::kRead : LockMode::kWrite;
    const auto held_mode = lm.held_mode(r1, t);
    const bool upgrade = held_mode.has_value();
    if (upgrade && (*held_mode == LockMode::kWrite || mode == LockMode::kRead)) {
      continue;  // redundant
    }
    const auto count = static_cast<LockCount>(pick(4));
    const auto blockers = lm.blockers(r1, t, mode, count);
    const AcquireResult r = lm.acquire(r1, t, mode, here, count);
    if (r == AcquireResult::kGranted) {
      // An in-place upgrade ignores the queue; any other grant has no
      // blocker.
      if (!upgrade) EXPECT_TRUE(blockers.empty()) << "trial " << trial;
      if (!upgrade && !lm.waiters_behind(r1, count).empty()) {
        ++overtaking_grants;
      }
      continue;
    }
    ASSERT_EQ(r, AcquireResult::kQueued);
    std::vector<WaitEdge> edges;
    lm.wait_edges(edges);
    FlatSet<TransactionId, 8> out;
    for (const auto& [w, b] : edges) {
      if (w == t) out.insert(b);
    }
    EXPECT_EQ(out, blockers) << "trial " << trial;
    ++queued;
  }
  EXPECT_GT(queued, 1000u);
  EXPECT_GT(overtaking_grants, 20u);
}

}  // namespace
}  // namespace cmh::ddb
