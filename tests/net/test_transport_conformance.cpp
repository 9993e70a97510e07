// Transport conformance suite: every threaded transport must honor the
// paper's communication model (reliable, per-channel FIFO, finite delay)
// plus the interface contracts the runtime layer leans on -- zero-length
// payloads, large frames, per-node handler serialization (atomic steps),
// and a stop() that is safe under concurrent traffic.  The same test body
// runs against both implementations via a typed fixture, so a new
// transport cannot pass review without passing the model.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"

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

  bool wait_for(std::size_t n, std::chrono::milliseconds max = 10000ms) {
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

template <typename TransportT>
class TransportConformance : public ::testing::Test {};

struct TransportNames {
  template <typename T>
  static std::string GetName(int) {
    if (std::is_same_v<T, InMemoryTransport>) return "InMemory";
    if (std::is_same_v<T, TcpTransport>) return "EpollTcp";
    return "Unknown";
  }
};

using TransportTypes = ::testing::Types<InMemoryTransport, TcpTransport>;
TYPED_TEST_SUITE(TransportConformance, TransportTypes, TransportNames);

// Per-channel FIFO with concurrent senders: interleaving across threads is
// unspecified, but each thread's own frames must arrive as an increasing
// subsequence (every send returns before that thread's next begins).
TYPED_TEST(TransportConformance, PerChannelFifoUnderConcurrentSenders) {
  constexpr int kThreads = 4;
  constexpr std::uint32_t kPerThread = 250;
  TypeParam t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();

  std::vector<std::thread> senders;
  for (int k = 0; k < kThreads; ++k) {
    senders.emplace_back([&, k] {
      for (std::uint32_t i = 0; i < kPerThread; ++i) {
        Bytes payload(5);
        payload[0] = static_cast<std::uint8_t>(k);
        std::memcpy(payload.data() + 1, &i, sizeof(i));
        t.send(a, b, payload);
      }
    });
  }
  for (auto& th : senders) th.join();
  ASSERT_TRUE(c.wait_for(kThreads * kPerThread));

  std::map<int, std::uint32_t> next_seq;
  for (const auto& [from, payload] : c.items()) {
    EXPECT_EQ(from, a);
    ASSERT_EQ(payload.size(), 5u);
    const int thread = payload[0];
    std::uint32_t seq = 0;
    std::memcpy(&seq, payload.data() + 1, sizeof(seq));
    EXPECT_EQ(seq, next_seq[thread]) << "thread " << thread;
    next_seq[thread] = seq + 1;
  }
  for (int k = 0; k < kThreads; ++k) EXPECT_EQ(next_seq[k], kPerThread);
  t.stop();
}

// Zero-length payloads are legal frames and keep their FIFO slot.
TYPED_TEST(TransportConformance, ZeroLengthPayloadsKeepTheirSlot) {
  TypeParam t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  constexpr int kFrames = 20;
  for (int i = 0; i < kFrames; ++i) {
    if (i % 2 == 0) {
      t.send(a, b, Bytes{});
    } else {
      t.send(a, b, Bytes{static_cast<std::uint8_t>(i)});
    }
  }
  ASSERT_TRUE(c.wait_for(kFrames));
  const auto items = c.items();
  for (int i = 0; i < kFrames; ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(items[i].second.empty()) << "frame " << i;
    } else {
      ASSERT_EQ(items[i].second.size(), 1u) << "frame " << i;
      EXPECT_EQ(items[i].second[0], static_cast<std::uint8_t>(i));
    }
  }
  t.stop();
}

// Multi-megabyte frames (a sizeable fraction of kMaxFrameBytes) round-trip
// bit-exactly, including one queued burst of them on a single channel.
TYPED_TEST(TransportConformance, LargeFramesRoundTrip) {
  TypeParam t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  constexpr std::size_t kSize = 8u << 20;  // 8 MiB
  std::vector<Bytes> sent;
  for (std::size_t k = 0; k < 3; ++k) {
    Bytes big(kSize + k);  // distinct sizes catch framing off-by-ones
    for (std::size_t i = 0; i < big.size(); ++i) {
      big[i] = static_cast<std::uint8_t>(i * 31 + k);
    }
    t.send(a, b, big);
    sent.push_back(std::move(big));
  }
  ASSERT_TRUE(c.wait_for(sent.size()));
  const auto items = c.items();
  for (std::size_t k = 0; k < sent.size(); ++k) {
    EXPECT_EQ(items[k].second, sent[k]) << "frame " << k;
  }
  t.stop();
}

// stop() must be safe while senders are still blasting: no crash, no hang,
// no delivery after stop() returns.  Senders are bounded (not an infinite
// loop) because InMemoryTransport::stop() drains the mailbox -- unbounded
// production would keep it non-empty forever.
TYPED_TEST(TransportConformance, StopDuringHeavyTraffic) {
  constexpr std::uint64_t kPerSender = 20000;
  TypeParam t;
  std::atomic<std::uint64_t> delivered{0};
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(
      [&](NodeId, BytesView) { delivered.fetch_add(1); });
  t.start();

  std::vector<std::thread> senders;
  for (int k = 0; k < 4; ++k) {
    senders.emplace_back([&] {
      const Bytes payload(64, 0x5a);
      for (std::uint64_t i = 0; i < kPerSender; ++i) t.send(a, b, payload);
    });
  }
  // Pull the plug under load: far more frames remain in flight than have
  // been delivered, and the senders are still running.
  while (delivered.load() < 1000) std::this_thread::yield();
  t.stop();
  const std::uint64_t at_stop = delivered.load();
  for (auto& th : senders) th.join();  // sends after stop() must be benign
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(delivered.load(), at_stop) << "delivery after stop() returned";
}

// The paper's atomic-step requirement: one node's handler is never invoked
// concurrently with itself, even with many nodes sending to it at once.
TYPED_TEST(TransportConformance, HandlerNeverConcurrentWithItself) {
  constexpr std::uint32_t kSenders = 4;
  constexpr int kPerSender = 200;
  TypeParam t;
  std::atomic<int> in_handler{0};
  std::atomic<int> overlaps{0};
  std::atomic<int> delivered{0};
  const NodeId sink = t.add_node([&](NodeId, BytesView) {
    if (in_handler.fetch_add(1) != 0) overlaps.fetch_add(1);
    std::this_thread::yield();  // widen the window an overlap would need
    in_handler.fetch_sub(1);
    delivered.fetch_add(1);
  });
  std::vector<NodeId> sources;
  for (std::uint32_t k = 0; k < kSenders; ++k) sources.push_back(t.add_node({}));
  t.start();

  std::vector<std::thread> senders;
  for (const NodeId src : sources) {
    senders.emplace_back([&, src] {
      for (int i = 0; i < kPerSender; ++i) t.send(src, sink, Bytes{1});
    });
  }
  for (auto& th : senders) th.join();
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (delivered.load() < static_cast<int>(kSenders) * kPerSender &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(delivered.load(), static_cast<int>(kSenders) * kPerSender);
  EXPECT_EQ(overlaps.load(), 0);
  t.stop();
}

}  // namespace
}  // namespace cmh::net
