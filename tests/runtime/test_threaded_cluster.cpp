// ThreadedCluster over real threads: in-memory channels and TCP sockets.
#include "runtime/threaded_cluster.h"

#include <gtest/gtest.h>

#include "common/logging.h"
#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"

namespace cmh::runtime {
namespace {

using namespace std::chrono_literals;

core::Options manual_opts() {
  core::Options o;
  o.initiation = core::InitiationMode::kManual;
  return o;
}

template <typename TransportT>
void ring_detection_test(std::uint32_t n) {
  TransportT transport;
  ThreadedCluster cluster(transport, n, core::Options{});
  // Build the ring; each request fires an on-request probe computation.
  for (std::uint32_t i = 0; i < n; ++i) {
    cluster.request(ProcessId{i}, ProcessId{(i + 1) % n});
  }
  const auto declarer = cluster.wait_for_detection(5000ms);
  ASSERT_TRUE(declarer.has_value());
  EXPECT_TRUE(cluster.declared(*declarer));
  EXPECT_TRUE(cluster.deadlocked(*declarer));
  cluster.stop();
}

TEST(ThreadedCluster, InMemoryRingDetected) {
  ring_detection_test<net::InMemoryTransport>(4);
}

TEST(ThreadedCluster, InMemoryLargerRingDetected) {
  ring_detection_test<net::InMemoryTransport>(16);
}

TEST(ThreadedCluster, TcpRingDetected) {
  ring_detection_test<net::TcpTransport>(4);
}

TEST(ThreadedCluster, TcpLargerRingDetected) {
  ring_detection_test<net::TcpTransport>(10);
}

TEST(ThreadedCluster, NoDetectionOnAcyclicChain) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 5, core::Options{});
  for (std::uint32_t i = 0; i + 1 < 5; ++i) {
    cluster.request(ProcessId{i}, ProcessId{i + 1});
  }
  EXPECT_EQ(cluster.wait_for_detection(300ms), std::nullopt);
  EXPECT_EQ(cluster.detection_count(), 0u);
  cluster.stop();
}

TEST(ThreadedCluster, ReplyUnblocksAndNoFalseDetection) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 2, manual_opts());
  cluster.request(ProcessId{0}, ProcessId{1});
  // Reply as soon as the request lands (retry while it is in flight).
  bool replied = false;
  for (int i = 0; i < 1000 && !replied; ++i) {
    try {
      cluster.reply(ProcessId{1}, ProcessId{0});
      replied = true;
    } catch (const core::ModelViolation&) {
      std::this_thread::sleep_for(1ms);  // request not delivered yet
    }
  }
  ASSERT_TRUE(replied);
  EXPECT_EQ(cluster.wait_for_detection(200ms), std::nullopt);
  cluster.stop();
}

TEST(ThreadedCluster, ManualInitiateDetectsWedgedRing) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 3, manual_opts());
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{2});
  cluster.request(ProcessId{2}, ProcessId{0});
  // Let requests propagate, then initiate; retry while edges are grey.
  std::optional<ProcessId> declarer;
  for (int attempt = 0; attempt < 50 && !declarer; ++attempt) {
    std::this_thread::sleep_for(5ms);
    (void)cluster.initiate(ProcessId{0});
    declarer = cluster.wait_for_detection(100ms);
  }
  ASSERT_TRUE(declarer.has_value());
  EXPECT_EQ(*declarer, ProcessId{0});
  cluster.stop();
}

TEST(ThreadedCluster, WfgdPropagatesOverThreads) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 4, core::Options{});
  for (std::uint32_t i = 0; i < 4; ++i) {
    cluster.request(ProcessId{i}, ProcessId{(i + 1) % 4});
  }
  ASSERT_TRUE(cluster.wait_for_detection(5000ms).has_value());
  // Eventually every ring member learns all 4 cycle edges.
  bool all_complete = false;
  for (int attempt = 0; attempt < 500 && !all_complete; ++attempt) {
    std::this_thread::sleep_for(2ms);
    all_complete = true;
    for (std::uint32_t i = 0; i < 4; ++i) {
      if (cluster.wfgd_edges(ProcessId{i}).size() != 4) all_complete = false;
    }
  }
  EXPECT_TRUE(all_complete);
  cluster.stop();
}

TEST(ThreadedCluster, DelayedInitiationOverThreads) {
  core::Options o;
  o.initiation = core::InitiationMode::kDelayed;
  o.initiation_delay = SimTime::ms(20);
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 2, o);
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{0});
  const auto declarer = cluster.wait_for_detection(5000ms);
  ASSERT_TRUE(declarer.has_value());
  cluster.stop();
}

TEST(ThreadedCluster, UndecodablePeerFrameIsLoggedAndDropped) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 4, core::Options{});
  set_log_level(LogLevel::kWarn);
  testing::internal::CaptureStderr();
  // A frame no codec accepts, on the channel the ring's first request and
  // probes use next (FIFO): it is delivered and dropped before them.
  const Bytes garbage{0xFF, 0x00, 0x13};
  transport.send(0, 1, garbage);
  for (std::uint32_t i = 0; i < 4; ++i) {
    cluster.request(ProcessId{i}, ProcessId{(i + 1) % 4});
  }
  const auto declarer = cluster.wait_for_detection(5000ms);
  cluster.stop();
  const std::string log = testing::internal::GetCapturedStderr();
  set_log_level(LogLevel::kOff);
  ASSERT_TRUE(declarer.has_value());
  EXPECT_TRUE(cluster.declared(*declarer));
  EXPECT_NE(log.find("p1 drops an undecodable frame from p0"),
            std::string::npos)
      << log;
}

TEST(ThreadedCluster, StopIsIdempotentAndJoins) {
  net::InMemoryTransport transport;
  ThreadedCluster cluster(transport, 3, core::Options{});
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.stop();
  cluster.stop();
  SUCCEED();
}

}  // namespace
}  // namespace cmh::runtime
