#include "ddb/lock_manager.h"

#include <gtest/gtest.h>

namespace cmh::ddb {
namespace {

const TransactionId t1{1};
const TransactionId t2{2};
const TransactionId t3{3};
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
  // Writer queued behind reader-holder; a later read must NOT overtake it.
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

}  // namespace
}  // namespace cmh::ddb
