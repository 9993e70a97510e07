#include "net/tcp_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace cmh::net {
namespace {

using namespace std::chrono_literals;

class Collector {
 public:
  Transport::Handler handler() {
    return [this](NodeId from, BytesView payload) {
      const MutexLock lock(mutex_);
      items_.emplace_back(from, Bytes(payload.begin(), payload.end()));
      cv_.notify_all();
    };
  }

  bool wait_for(std::size_t n, std::chrono::milliseconds max = 5000ms) {
    const MutexLock lock(mutex_);
    return cv_.wait_for(mutex_, max, [&] {
      mutex_.assert_held();  // held by CondVar::wait's contract
      return items_.size() >= n;
    });
  }

  std::vector<std::pair<NodeId, Bytes>> items() {
    const MutexLock lock(mutex_);
    return items_;
  }

 private:
  Mutex mutex_;
  CondVar cv_;
  std::vector<std::pair<NodeId, Bytes>> items_ CMH_GUARDED_BY(mutex_);
};

TEST(TcpTransport, AssignsDistinctPorts) {
  TcpTransport t;
  t.add_node({});
  t.add_node({});
  t.start();
  EXPECT_NE(t.port(0), 0);
  EXPECT_NE(t.port(1), 0);
  EXPECT_NE(t.port(0), t.port(1));
  t.stop();
}

TEST(TcpTransport, DeliversMessageWithSenderIdentity) {
  TcpTransport t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  t.send(a, b, Bytes{7, 8, 9});
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_EQ(c.items()[0].first, a);
  EXPECT_EQ(c.items()[0].second, (Bytes{7, 8, 9}));
  t.stop();
}

TEST(TcpTransport, EmptyPayloadDelivered) {
  TcpTransport t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  t.send(a, b, Bytes{});
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_TRUE(c.items()[0].second.empty());
  t.stop();
}

TEST(TcpTransport, LargeFrameRoundTrip) {
  TcpTransport t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  Bytes big(1 << 20);  // 1 MiB
  std::iota(big.begin(), big.end(), 0);
  t.send(a, b, big);
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_EQ(c.items()[0].second, big);
  t.stop();
}

TEST(TcpTransport, PerChannelFifo) {
  TcpTransport t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  for (std::uint8_t i = 0; i < 100; ++i) t.send(a, b, Bytes{i});
  ASSERT_TRUE(c.wait_for(100));
  const auto items = c.items();
  for (std::uint8_t i = 0; i < 100; ++i) {
    EXPECT_EQ(items[i].second.at(0), i);
  }
  t.stop();
}

TEST(TcpTransport, BidirectionalTraffic) {
  TcpTransport t;
  Collector ca;
  Collector cb;
  const NodeId a = t.add_node(ca.handler());
  const NodeId b = t.add_node(cb.handler());
  t.start();
  for (int i = 0; i < 10; ++i) {
    t.send(a, b, Bytes{1});
    t.send(b, a, Bytes{2});
  }
  ASSERT_TRUE(ca.wait_for(10));
  ASSERT_TRUE(cb.wait_for(10));
  for (const auto& [from, payload] : ca.items()) EXPECT_EQ(from, b);
  for (const auto& [from, payload] : cb.items()) EXPECT_EQ(from, a);
  t.stop();
}

TEST(TcpTransport, ManyNodesAllPairs) {
  constexpr std::uint32_t kNodes = 5;
  TcpTransport t;
  std::vector<std::unique_ptr<Collector>> collectors;
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    collectors.push_back(std::make_unique<Collector>());
    t.add_node(collectors.back()->handler());
  }
  t.start();
  for (std::uint32_t i = 0; i < kNodes; ++i) {
    for (std::uint32_t j = 0; j < kNodes; ++j) {
      if (i != j) t.send(i, j, Bytes{static_cast<std::uint8_t>(i)});
    }
  }
  for (std::uint32_t j = 0; j < kNodes; ++j) {
    ASSERT_TRUE(collectors[j]->wait_for(kNodes - 1)) << "node " << j;
  }
  t.stop();
}

TEST(TcpTransport, ConcurrentSendersOnSameChannelDoNotCorruptFrames) {
  TcpTransport t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int k = 0; k < 4; ++k) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        t.send(a, b, Bytes(17, 0xab));  // fixed-size recognizable frames
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(c.wait_for(4 * kPerThread));
  for (const auto& [from, payload] : c.items()) {
    EXPECT_EQ(payload.size(), 17u);
    EXPECT_EQ(payload[0], 0xab);
  }
  t.stop();
}

TEST(TcpTransport, StopIdempotent) {
  TcpTransport t;
  t.add_node({});
  t.start();
  t.stop();
  t.stop();
  SUCCEED();
}

// A deliverer thread can be inside a handler that sends while stop() runs.
// stop() must raise stopping_ before it clears started_: in the gap between
// the two such a send used to see "not started", throw std::logic_error on
// the deliverer thread and terminate the process.  Every handler below keeps
// sending across the moment stop() flips the flags; the sends must simply
// be dropped.
TEST(TcpTransport, SendFromHandlerDuringStopIsDropped) {
  constexpr NodeId kNodes = 4;
  for (int round = 0; round < 30; ++round) {
    TcpTransport t;
    std::atomic<bool> stopping{false};
    std::atomic<int> spinning{0};
    for (NodeId n = 0; n < kNodes; ++n) {
      t.add_node([&t, &stopping, &spinning, n, first = true](
                     NodeId, BytesView) mutable {
        if (!first) return;  // only the first delivery spins
        first = false;
        ++spinning;
        const NodeId next = (n + 1) % kNodes;
        while (!stopping.load()) t.send(n, next, Bytes{1});
        // stop() begins right after `stopping` is raised; keep sending
        // through its flag flip (it then waits to join this thread).
        const auto until = std::chrono::steady_clock::now() + 5ms;
        while (std::chrono::steady_clock::now() < until) {
          t.send(n, next, Bytes{1});
        }
      });
    }
    t.start();
    for (NodeId n = 0; n < kNodes; ++n) {
      t.send((n + kNodes - 1) % kNodes, n, Bytes{0});
    }
    const auto deadline = std::chrono::steady_clock::now() + 5s;
    while (spinning.load() < static_cast<int>(kNodes) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    ASSERT_EQ(spinning.load(), static_cast<int>(kNodes));
    stopping = true;
    t.stop();
    EXPECT_THROW(t.start(), std::logic_error);  // stopped for good
  }
}

TEST(TcpTransport, AddNodeAfterStartRejected) {
  TcpTransport t;
  t.add_node({});
  t.start();
  EXPECT_THROW(t.add_node({}), std::logic_error);
  t.stop();
}

TEST(TcpTransport, SendBeforeStartRejected) {
  TcpTransport t;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node({});
  EXPECT_THROW(t.send(a, b, Bytes{1}), std::logic_error);
}

TEST(TcpTransport, RestartAfterStopRejected) {
  TcpTransport t;
  t.add_node({});
  t.start();
  t.stop();
  EXPECT_THROW(t.start(), std::logic_error);
}

TEST(TcpTransport, OversizedFrameRejected) {
  TcpTransport t;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node({});
  t.start();
  const Bytes huge(static_cast<std::size_t>(kMaxFrameBytes) + 1);
  EXPECT_THROW(t.send(a, b, huge), std::length_error);
  t.stop();
}

// A dead peer must cost the sender nothing but a counter: frames to it are
// dropped (synchronously inside the backoff window, asynchronously when a
// dial fails), redials are rate-limited, and unrelated channels are
// untouched.
TEST(TcpTransport, DeadPeerDropsFramesWithCappedRedials) {
  TcpTransportConfig config;
  config.reconnect_backoff_initial = std::chrono::milliseconds(50);
  config.reconnect_backoff_max = std::chrono::milliseconds(200);
  TcpTransport t(config);
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node({});
  const NodeId ok = t.add_node(c.handler());
  t.start();
  t.close_listener(b);

  constexpr std::uint64_t kFrames = 12;
  for (std::uint64_t i = 0; i < kFrames; ++i) t.send(a, b, Bytes{1});
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (t.dropped_frames(a, b) < kFrames &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(t.dropped_frames(a, b), kFrames);
  const TransportIoStats s = t.io_stats();
  EXPECT_GE(s.frames_dropped, kFrames);
  EXPECT_GE(s.connect_attempts, 1u);
  // Backoff gates redials: nowhere near one dial per dropped frame.
  EXPECT_LT(s.connect_attempts, kFrames);

  // The healthy channel from the same source is unaffected.
  t.send(a, ok, Bytes{2});
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_EQ(t.dropped_frames(a, ok), 0u);
  t.stop();
}

// The enqueue-and-wake design means a burst outruns the flusher and many
// frames ride in each sendmsg(): strictly fewer write syscalls than frames,
// and batched reads on the receive side.
TEST(TcpTransport, BurstsCoalesceFramesIntoFewerSyscalls) {
  TcpTransportConfig config;
  config.event_loops = 1;  // exercise the single-loop configuration
  TcpTransport t(config);
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  constexpr std::size_t kFrames = 5000;
  const Bytes payload(32, 0xcd);
  for (std::size_t i = 0; i < kFrames; ++i) t.send(a, b, payload);
  ASSERT_TRUE(c.wait_for(kFrames));
  const TransportIoStats s = t.io_stats();
  EXPECT_GE(s.frames_enqueued, kFrames);
  EXPECT_GE(s.frames_sent, kFrames);  // +1 handshake frame
  EXPECT_LT(s.write_syscalls, s.frames_sent);
  EXPECT_LT(s.read_syscalls, s.frames_delivered);
  EXPECT_EQ(s.frames_dropped, 0u);
  t.stop();
}

}  // namespace
}  // namespace cmh::net
