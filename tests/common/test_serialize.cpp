#include "common/serialize.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace cmh {
namespace {

TEST(Serialize, U8RoundTrip) {
  Writer w;
  w.u8(0);
  w.u8(255);
  Reader r(w.bytes());
  std::uint8_t a = 1;
  std::uint8_t b = 1;
  ASSERT_TRUE(r.u8(a).ok());
  ASSERT_TRUE(r.u8(b).ok());
  EXPECT_EQ(a, 0);
  EXPECT_EQ(b, 255);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, U16RoundTripsLittleEndianOnEveryPath) {
  Writer w;
  w.u16(0);
  w.u16(0xBEEF);
  StackWriter<4> sw;
  sw.u16(0);
  sw.u16(0xBEEF);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[2], 0xEF);
  EXPECT_EQ(w.bytes()[3], 0xBE);
  EXPECT_TRUE(std::equal(sw.data(), sw.data() + sw.size(),
                         w.bytes().begin(), w.bytes().end()));
  Reader r(w.bytes());
  std::uint16_t v = 1;
  ASSERT_TRUE(r.u16(v).ok());
  EXPECT_EQ(v, 0u);
  EXPECT_EQ(r.u16_unchecked(), 0xBEEFu);
  EXPECT_TRUE(r.done());
  EXPECT_FALSE(r.u16(v).ok());
  const Bytes one{7};
  Reader truncated(one);
  EXPECT_FALSE(truncated.u16(v).ok());
}

TEST(Serialize, U32RoundTrip) {
  Writer w;
  w.u32(0);
  w.u32(0xdeadbeef);
  w.u32(0xffffffff);
  Reader r(w.bytes());
  std::uint32_t v = 0;
  ASSERT_TRUE(r.u32(v).ok());
  EXPECT_EQ(v, 0u);
  ASSERT_TRUE(r.u32(v).ok());
  EXPECT_EQ(v, 0xdeadbeefu);
  ASSERT_TRUE(r.u32(v).ok());
  EXPECT_EQ(v, 0xffffffffu);
}

TEST(Serialize, U64RoundTrip) {
  Writer w;
  w.u64(0x0123456789abcdefULL);
  Reader r(w.bytes());
  std::uint64_t v = 0;
  ASSERT_TRUE(r.u64(v).ok());
  EXPECT_EQ(v, 0x0123456789abcdefULL);
}

TEST(Serialize, LittleEndianLayout) {
  Writer w;
  w.u32(0x01020304);
  ASSERT_EQ(w.bytes().size(), 4u);
  EXPECT_EQ(w.bytes()[0], 0x04);
  EXPECT_EQ(w.bytes()[3], 0x01);
}

TEST(Serialize, StringRoundTrip) {
  Writer w;
  w.str("");
  w.str("hello world");
  Reader r(w.bytes());
  std::string a = "x";
  std::string b;
  ASSERT_TRUE(r.str(a).ok());
  ASSERT_TRUE(r.str(b).ok());
  EXPECT_EQ(a, "");
  EXPECT_EQ(b, "hello world");
}

TEST(Serialize, IdRoundTrip) {
  Writer w;
  w.id(ProcessId{77});
  w.id(SiteId{3});
  Reader r(w.bytes());
  ProcessId p;
  SiteId s;
  ASSERT_TRUE(r.id(p).ok());
  ASSERT_TRUE(r.id(s).ok());
  EXPECT_EQ(p, ProcessId{77});
  EXPECT_EQ(s, SiteId{3});
}

TEST(Serialize, AgentRoundTrip) {
  Writer w;
  w.agent(AgentId{TransactionId{5}, SiteId{9}});
  Reader r(w.bytes());
  AgentId a;
  ASSERT_TRUE(r.agent(a).ok());
  EXPECT_EQ(a, (AgentId{TransactionId{5}, SiteId{9}}));
}

TEST(Serialize, ProbeTagRoundTrip) {
  Writer w;
  w.probe_tag(ProbeTag{ProcessId{2}, 0xffffffffffULL});
  Reader r(w.bytes());
  ProbeTag t;
  ASSERT_TRUE(r.probe_tag(t).ok());
  EXPECT_EQ(t, (ProbeTag{ProcessId{2}, 0xffffffffffULL}));
}

TEST(Serialize, TruncatedU32Fails) {
  const Bytes data{1, 2, 3};
  Reader r(data);
  std::uint32_t v = 0;
  EXPECT_FALSE(r.u32(v).ok());
}

TEST(Serialize, TruncatedU64Fails) {
  const Bytes data{1, 2, 3, 4, 5, 6, 7};
  Reader r(data);
  std::uint64_t v = 0;
  EXPECT_FALSE(r.u64(v).ok());
}

TEST(Serialize, TruncatedStringFails) {
  Writer w;
  w.u32(100);  // claims 100 bytes follow
  w.u8('x');
  Reader r(w.bytes());
  std::string s;
  EXPECT_FALSE(r.str(s).ok());
}

TEST(Serialize, EmptyReaderReportsDone) {
  const Bytes empty;
  Reader r(empty);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
  std::uint8_t v = 0;
  EXPECT_FALSE(r.u8(v).ok());
}

TEST(Serialize, MixedSequenceRoundTrip) {
  Writer w;
  w.u8(9);
  w.str("tag");
  w.u64(123456789);
  w.id(ResourceId{44});
  Reader r(w.bytes());
  std::uint8_t a = 0;
  std::string s;
  std::uint64_t v = 0;
  ResourceId res;
  ASSERT_TRUE(r.u8(a).ok());
  ASSERT_TRUE(r.str(s).ok());
  ASSERT_TRUE(r.u64(v).ok());
  ASSERT_TRUE(r.id(res).ok());
  EXPECT_EQ(a, 9);
  EXPECT_EQ(s, "tag");
  EXPECT_EQ(v, 123456789u);
  EXPECT_EQ(res, ResourceId{44});
  EXPECT_TRUE(r.done());
}

TEST(Serialize, TakeMovesBuffer) {
  Writer w;
  w.u32(5);
  Bytes b = std::move(w).take();
  EXPECT_EQ(b.size(), 4u);
}

}  // namespace
}  // namespace cmh
