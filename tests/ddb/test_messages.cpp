#include "ddb/messages.h"

#include <gtest/gtest.h>

namespace cmh::ddb {
namespace {

TEST(DdbMessages, LockRequestRoundTrip) {
  const RemoteLockRequestMsg msg{TransactionId{5}, ResourceId{9},
                                 LockMode::kWrite};
  const auto m = decode(encode(DdbMessage{msg}));
  ASSERT_TRUE(m.ok());
  const auto* got = std::get_if<RemoteLockRequestMsg>(&*m);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->txn, msg.txn);
  EXPECT_EQ(got->resource, msg.resource);
  EXPECT_EQ(got->mode, LockMode::kWrite);
}

TEST(DdbMessages, LockRequestReadMode) {
  const auto m = decode(encode(
      DdbMessage{RemoteLockRequestMsg{TransactionId{1}, ResourceId{2},
                                      LockMode::kRead}}));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::get<RemoteLockRequestMsg>(*m).mode, LockMode::kRead);
}

TEST(DdbMessages, GrantRoundTrip) {
  const auto m = decode(
      encode(DdbMessage{RemoteLockGrantMsg{TransactionId{3}, ResourceId{4}}}));
  ASSERT_TRUE(m.ok());
  const auto& got = std::get<RemoteLockGrantMsg>(*m);
  EXPECT_EQ(got.txn, TransactionId{3});
  EXPECT_EQ(got.resource, ResourceId{4});
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
    probe.target = TransactionId{4};
    const auto m = decode(encode(DdbMessage{probe}));
    ASSERT_TRUE(m.ok());
    const auto& got = std::get<DdbProbeMsg>(*m);
    EXPECT_EQ(got.tag, probe.tag);
    EXPECT_EQ(got.floor, 70u);
    EXPECT_EQ(got.txn, TransactionId{5});
    EXPECT_EQ(got.via_release_wait, release_wait);
    EXPECT_EQ(got.candidate, TransactionId{9});
    EXPECT_EQ(got.target, TransactionId{4});
  }
}

TEST(DdbMessages, ProbeFrameIs34Bytes) {
  const DdbProbeMsg probe{DdbProbeTag{SiteId{1}, 3}, 2, TransactionId{4},
                          false, TransactionId{0xABCDEF01u},
                          TransactionId{0x12345678u}};
  const Bytes b = encode(DdbMessage{probe});
  ASSERT_EQ(b.size(), 34u);
  EXPECT_EQ(b.size(), kDdbFrameCapacity);
  const auto m = decode(b);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(std::get<DdbProbeMsg>(*m).txn, TransactionId{4});
  EXPECT_EQ(std::get<DdbProbeMsg>(*m).candidate, TransactionId{0xABCDEF01u});
  EXPECT_EQ(std::get<DdbProbeMsg>(*m).target, TransactionId{0x12345678u});
  const auto truncated = decode(BytesView(b.data(), 33));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
}

TEST(DdbMessages, EmptyRejected) { EXPECT_FALSE(decode(Bytes{}).ok()); }

TEST(DdbMessages, UnknownTypeRejected) {
  EXPECT_FALSE(decode(Bytes{0x99}).ok());
}

TEST(DdbMessages, BadLockModeRejected) {
  Bytes b = encode(DdbMessage{
      RemoteLockRequestMsg{TransactionId{1}, ResourceId{1}, LockMode::kRead}});
  b.back() = 7;  // corrupt the mode byte
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

TEST(DdbTypes, ProbeTagOrdering) {
  EXPECT_LT((DdbProbeTag{SiteId{1}, 5}), (DdbProbeTag{SiteId{1}, 6}));
  EXPECT_LT((DdbProbeTag{SiteId{1}, 9}), (DdbProbeTag{SiteId{2}, 1}));
}

}  // namespace
}  // namespace cmh::ddb
