// DDB codec equivalence and robustness: the stack-encoded probe fast path
// must be byte-identical to the generic encoder, every message must
// round-trip, and every truncated prefix must be rejected cleanly.
#include <gtest/gtest.h>

#include <vector>

#include "ddb/messages.h"

namespace cmh::ddb {
namespace {

DdbProbeMsg sample_probe() {
  return DdbProbeMsg{
      DdbProbeTag{SiteId{3}, 0x123456789ULL},
      42,
      TransactionId{7},
      true,
      TransactionId{11},
      0x0A0B,
      TransactionId{13}};
}

std::vector<DdbMessage> sample_messages() {
  return {
      DdbMessage{RemoteLockRequestMsg{TransactionId{1}, ResourceId{2}, 3,
                                      LockMode::kWrite}},
      DdbMessage{RemoteLockRequestMsg{TransactionId{0xFFFFFFFF},
                                      ResourceId{0}, 0xFFFF, LockMode::kRead}},
      DdbMessage{RemoteLockGrantMsg{TransactionId{5}, ResourceId{6}}},
      DdbMessage{PurgeTxnMsg{TransactionId{8}, true}},
      DdbMessage{PurgeTxnMsg{TransactionId{9}, false}},
      DdbMessage{sample_probe()},
      DdbMessage{DdbProbeMsg{}},
  };
}

TEST(DdbCodecEquivalence, ProbeFastPathMatchesGenericEncoder) {
  const DdbProbeMsg probe = sample_probe();
  const DdbFrame frame = encode_small(probe);
  const Bytes generic = encode(DdbMessage{probe});
  ASSERT_EQ(frame.size(), generic.size());
  EXPECT_TRUE(std::equal(frame.data(), frame.data() + frame.size(),
                         generic.begin()));
  EXPECT_LE(frame.size(), kDdbFrameCapacity);
}

TEST(DdbCodecEquivalence, EncodeIntoMatchesEncode) {
  Bytes scratch;
  for (const DdbMessage& msg : sample_messages()) {
    encode_into(msg, scratch);
    EXPECT_EQ(scratch, encode(msg));
  }
}

TEST(DdbCodecRoundTrip, AllMessageTypes) {
  for (const DdbMessage& msg : sample_messages()) {
    const Bytes bytes = encode(msg);
    const auto decoded = decode(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->index(), msg.index());
  }
  const auto decoded = decode(encode(DdbMessage{sample_probe()}));
  ASSERT_TRUE(decoded.ok());
  const auto& p = std::get<DdbProbeMsg>(*decoded);
  const DdbProbeMsg expected = sample_probe();
  EXPECT_EQ(p.tag, expected.tag);
  EXPECT_EQ(p.floor, expected.floor);
  EXPECT_EQ(p.txn, expected.txn);
  EXPECT_EQ(p.via_release_wait, expected.via_release_wait);
  EXPECT_EQ(p.candidate, expected.candidate);
  EXPECT_EQ(p.candidate_held, expected.candidate_held);
  EXPECT_EQ(p.target, expected.target);
  const auto request = decode(encode(sample_messages()[1]));
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(std::get<RemoteLockRequestMsg>(*request).held, 0xFFFFu);
}

TEST(DdbCodecTruncation, EveryProperPrefixRejected) {
  for (const DdbMessage& msg : sample_messages()) {
    const Bytes bytes = encode(msg);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
      const auto r = decode(BytesView(bytes.data(), cut));
      EXPECT_FALSE(r.ok()) << "prefix of " << cut << '/' << bytes.size();
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

}  // namespace
}  // namespace cmh::ddb
