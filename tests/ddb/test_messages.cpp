#include "ddb/messages.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace cmh::ddb {
namespace {

TEST(DdbMessages, LockRequestRoundTrip) {
  const RemoteLockRequestMsg msg{TransactionId{5}, ResourceId{9}, 2,
                                 LockMode::kWrite};
  const auto m = decode(encode(DdbMessage{msg}));
  ASSERT_TRUE(m.ok());
  const auto* got = std::get_if<RemoteLockRequestMsg>(&*m);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->txn, msg.txn);
  EXPECT_EQ(got->resource, msg.resource);
  EXPECT_EQ(got->held, 2u);
  EXPECT_EQ(got->mode, LockMode::kWrite);
}

TEST(DdbMessages, LockRequestReadMode) {
  const auto m = decode(encode(
      DdbMessage{RemoteLockRequestMsg{TransactionId{1}, ResourceId{2}, 0,
                                      LockMode::kRead}}));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::get<RemoteLockRequestMsg>(*m).mode, LockMode::kRead);
}

// The lock count is two little-endian bytes between the resource and the
// mode byte: 1 (type) + 4 (txn) + 4 (resource) + 2 (held) + 1 (mode).
TEST(DdbMessages, LockRequestCountRoundTrips) {
  for (const LockCount held : {LockCount{0}, LockCount{1}, LockCount{0x1234},
                               LockCount{0xFFFF}}) {
    const Bytes b = encode(DdbMessage{RemoteLockRequestMsg{
        TransactionId{5}, ResourceId{9}, held, LockMode::kRead}});
    ASSERT_EQ(b.size(), 12u);
    EXPECT_EQ(b[9], static_cast<std::uint8_t>(held));
    EXPECT_EQ(b[10], static_cast<std::uint8_t>(held >> 8));
    const auto m = decode(b);
    ASSERT_TRUE(m.ok());
    const auto& got = std::get<RemoteLockRequestMsg>(*m);
    EXPECT_EQ(got.held, held);
    EXPECT_EQ(got.mode, LockMode::kRead);
  }
}

TEST(DdbMessages, LockRequestCutInItsCountRejected) {
  const Bytes b = encode(DdbMessage{RemoteLockRequestMsg{
      TransactionId{5}, ResourceId{9}, 3, LockMode::kWrite}});
  for (const std::size_t cut : {9u, 10u, 11u}) {
    const auto r = decode(BytesView(b.data(), cut));
    EXPECT_FALSE(r.ok()) << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

// 1 (type) + 4 (txn) + 4 (resource).  A grant that adds no lock (an
// upgrade or a redundant request) differs from a grant of a new lock only
// in its type byte.
TEST(DdbMessages, GrantRoundTrip) {
  const Bytes fresh = encode(
      DdbMessage{RemoteLockGrantMsg{TransactionId{3}, ResourceId{4}, true}});
  const Bytes held = encode(
      DdbMessage{RemoteLockGrantMsg{TransactionId{3}, ResourceId{4}, false}});
  ASSERT_EQ(fresh.size(), 9u);
  ASSERT_EQ(held.size(), 9u);
  EXPECT_EQ(fresh[0], 2u);  // the grant type every workload frame carries
  EXPECT_NE(fresh[0], held[0]);
  EXPECT_TRUE(std::equal(fresh.begin() + 1, fresh.end(), held.begin() + 1));
  for (const bool adds_lock : {true, false}) {
    const auto m = decode(adds_lock ? fresh : held);
    ASSERT_TRUE(m.ok());
    const auto& got = std::get<RemoteLockGrantMsg>(*m);
    EXPECT_EQ(got.txn, TransactionId{3});
    EXPECT_EQ(got.resource, ResourceId{4});
    EXPECT_EQ(got.adds_lock, adds_lock);
  }
}

TEST(DdbMessages, GrantCutShortRejected) {
  for (const bool adds_lock : {true, false}) {
    const Bytes b = encode(DdbMessage{
        RemoteLockGrantMsg{TransactionId{3}, ResourceId{4}, adds_lock}});
    for (std::size_t cut = 1; cut < b.size(); ++cut) {
      const auto r = decode(BytesView(b.data(), cut));
      EXPECT_FALSE(r.ok()) << adds_lock << " " << cut;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(DdbMessages, PurgeRoundTrip) {
  for (const bool aborted : {false, true}) {
    const auto m =
        decode(encode(DdbMessage{PurgeTxnMsg{TransactionId{8}, aborted}}));
    ASSERT_TRUE(m.ok());
    EXPECT_EQ(std::get<PurgeTxnMsg>(*m).aborted, aborted);
    EXPECT_EQ(std::get<PurgeTxnMsg>(*m).txn, TransactionId{8});
  }
}

TEST(DdbMessages, ProbeRoundTrip) {
  for (const bool release_wait : {false, true}) {
    DdbProbeMsg probe;
    probe.tag = DdbProbeTag{SiteId{2}, 77};
    probe.floor = 70;
    probe.txn = TransactionId{5};
    probe.via_release_wait = release_wait;
    probe.candidate = TransactionId{9};
    probe.candidate_held = 3;
    probe.target = TransactionId{4};
    const auto m = decode(encode(DdbMessage{probe}));
    ASSERT_TRUE(m.ok());
    const auto& got = std::get<DdbProbeMsg>(*m);
    EXPECT_EQ(got.tag, probe.tag);
    EXPECT_EQ(got.floor, 70u);
    EXPECT_EQ(got.txn, TransactionId{5});
    EXPECT_EQ(got.via_release_wait, release_wait);
    EXPECT_EQ(got.candidate, TransactionId{9});
    EXPECT_EQ(got.candidate_held, 3u);
    EXPECT_EQ(got.target, TransactionId{4});
  }
}

TEST(DdbMessages, ProbeFrameIs36Bytes) {
  const DdbProbeMsg probe{DdbProbeTag{SiteId{1}, 3}, 2, TransactionId{4},
                          false, TransactionId{0xABCDEF01u}, 0xBEEF,
                          TransactionId{0x12345678u}};
  const Bytes b = encode(DdbMessage{probe});
  ASSERT_EQ(b.size(), 36u);
  EXPECT_EQ(b.size(), kDdbFrameCapacity);
  const auto m = decode(b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::get<DdbProbeMsg>(*m).txn, TransactionId{4});
  EXPECT_EQ(std::get<DdbProbeMsg>(*m).candidate, TransactionId{0xABCDEF01u});
  EXPECT_EQ(std::get<DdbProbeMsg>(*m).candidate_held, 0xBEEFu);
  EXPECT_EQ(std::get<DdbProbeMsg>(*m).target, TransactionId{0x12345678u});
  const auto truncated = decode(BytesView(b.data(), 35));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
}

// The candidate's count sits between the candidate and the target, at
// offsets 30-31; the target's four bytes follow.
TEST(DdbMessages, ProbeCandidateCountRoundTrips) {
  for (const LockCount held : {LockCount{0}, LockCount{1}, LockCount{0x0102},
                               LockCount{0xFFFF}}) {
    DdbProbeMsg probe;
    probe.candidate = TransactionId{9};
    probe.candidate_held = held;
    probe.target = TransactionId{0x12345678u};
    const Bytes b = encode(DdbMessage{probe});
    EXPECT_EQ(b[30], static_cast<std::uint8_t>(held));
    EXPECT_EQ(b[31], static_cast<std::uint8_t>(held >> 8));
    const auto m = decode(b);
    ASSERT_TRUE(m.ok());
    const auto& got = std::get<DdbProbeMsg>(*m);
    EXPECT_EQ(got.candidate_held, held);
    EXPECT_EQ(got.candidate, TransactionId{9});
    EXPECT_EQ(got.target, TransactionId{0x12345678u});
  }
}

TEST(DdbMessages, ProbeCutInItsCandidateCountRejected) {
  DdbProbeMsg probe;
  probe.candidate_held = 7;
  const Bytes b = encode(DdbMessage{probe});
  for (const std::size_t cut : {30u, 31u, 32u}) {
    const auto r = decode(BytesView(b.data(), cut));
    EXPECT_FALSE(r.ok()) << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(DdbMessages, EmptyRejected) { EXPECT_FALSE(decode(Bytes{}).ok()); }

TEST(DdbMessages, UnknownTypeRejected) {
  EXPECT_FALSE(decode(Bytes{0x99}).ok());
}

TEST(DdbMessages, BadLockModeRejected) {
  Bytes b = encode(DdbMessage{
      RemoteLockRequestMsg{TransactionId{1}, ResourceId{1}, 0xFFFF,
                           LockMode::kRead}});
  b.back() = 7;  // corrupt the mode byte, which follows the count
  EXPECT_FALSE(decode(b).ok());
}

TEST(DdbMessages, TruncatedProbeRejected) {
  Bytes b = encode(DdbMessage{DdbProbeMsg{}});
  b.resize(b.size() / 2);
  EXPECT_FALSE(decode(b).ok());
}

TEST(DdbTypes, ConflictMatrix) {
  EXPECT_FALSE(conflicts(LockMode::kRead, LockMode::kRead));
  EXPECT_TRUE(conflicts(LockMode::kRead, LockMode::kWrite));
  EXPECT_TRUE(conflicts(LockMode::kWrite, LockMode::kRead));
  EXPECT_TRUE(conflicts(LockMode::kWrite, LockMode::kWrite));
}

TEST(DdbTypes, BetterVictimHoldsFewerLocksThenIsYounger) {
  const VictimKey young_rich{TransactionId{9}, 3};
  const VictimKey old_poor{TransactionId{2}, 1};
  const VictimKey young_poor{TransactionId{7}, 1};
  EXPECT_TRUE(better_victim(old_poor, young_rich));
  EXPECT_FALSE(better_victim(young_rich, old_poor));
  EXPECT_TRUE(better_victim(young_poor, old_poor));  // tie: the younger
  EXPECT_FALSE(better_victim(old_poor, young_poor));
  EXPECT_FALSE(better_victim(old_poor, old_poor));
}

TEST(DdbTypes, ProbeTagOrdering) {
  EXPECT_LT((DdbProbeTag{SiteId{1}, 5}), (DdbProbeTag{SiteId{1}, 6}));
  EXPECT_LT((DdbProbeTag{SiteId{1}, 9}), (DdbProbeTag{SiteId{2}, 1}));
}

}  // namespace
}  // namespace cmh::ddb
