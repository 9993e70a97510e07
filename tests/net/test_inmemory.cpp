#include "net/inmemory_transport.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace cmh::net {
namespace {

using namespace std::chrono_literals;

/// Collects deliveries with a waitable count.
class Collector {
 public:
  Transport::Handler handler() {
    return [this](NodeId from, BytesView payload) {
      const MutexLock lock(mutex_);
      items_.emplace_back(from, Bytes(payload.begin(), payload.end()));
      cv_.notify_all();
    };
  }

  bool wait_for(std::size_t n, std::chrono::milliseconds max = 2000ms) {
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

TEST(InMemoryTransport, DeliversMessage) {
  InMemoryTransport t;
  Collector c;
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node(c.handler());
  t.start();
  t.send(a, b, Bytes{1, 2, 3});
  ASSERT_TRUE(c.wait_for(1));
  const auto items = c.items();
  EXPECT_EQ(items[0].first, a);
  EXPECT_EQ(items[0].second, (Bytes{1, 2, 3}));
  t.stop();
}

TEST(InMemoryTransport, PerChannelFifo) {
  InMemoryTransport t;
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

TEST(InMemoryTransport, ConcurrentSendersAllDelivered) {
  InMemoryTransport t;
  Collector c;
  const NodeId s1 = t.add_node({});
  const NodeId s2 = t.add_node({});
  const NodeId s3 = t.add_node({});
  const NodeId dst = t.add_node(c.handler());
  t.start();
  constexpr int kPerSender = 200;
  std::vector<std::thread> threads;
  for (const NodeId src : {s1, s2, s3}) {
    threads.emplace_back([&, src] {
      for (int i = 0; i < kPerSender; ++i) {
        t.send(src, dst, Bytes{static_cast<std::uint8_t>(i & 0xff)});
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(c.wait_for(3 * kPerSender));
  EXPECT_EQ(c.items().size(), 3u * kPerSender);
  t.stop();
}

TEST(InMemoryTransport, HandlerSerializedPerNode) {
  InMemoryTransport t;
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  std::atomic<int> handled{0};
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node([&](NodeId, BytesView) {
    const int now = ++concurrent;
    int expected = max_concurrent.load();
    while (now > expected &&
           !max_concurrent.compare_exchange_weak(expected, now)) {
    }
    std::this_thread::sleep_for(1ms);
    --concurrent;
    ++handled;
  });
  t.start();
  for (int i = 0; i < 20; ++i) t.send(a, b, Bytes{0});
  while (handled.load() < 20) std::this_thread::sleep_for(1ms);
  EXPECT_EQ(max_concurrent.load(), 1);
  t.stop();
}

TEST(InMemoryTransport, StopDrainsQueuedMessages) {
  InMemoryTransport t;
  std::atomic<int> count{0};
  const NodeId a = t.add_node({});
  const NodeId b = t.add_node([&](NodeId, BytesView) { ++count; });
  t.start();
  for (int i = 0; i < 50; ++i) t.send(a, b, Bytes{0});
  t.stop();
  EXPECT_EQ(count.load(), 50);
  (void)b;
}

TEST(InMemoryTransport, StopIdempotent) {
  InMemoryTransport t;
  t.add_node({});
  t.start();
  t.stop();
  t.stop();  // must not hang or crash
  SUCCEED();
}

TEST(InMemoryTransport, AddNodeAfterStartRejected) {
  InMemoryTransport t;
  t.add_node({});
  t.start();
  EXPECT_THROW(t.add_node({}), std::logic_error);
  t.stop();
}

TEST(InMemoryTransport, SendToUnknownNodeThrows) {
  InMemoryTransport t;
  const NodeId a = t.add_node({});
  t.start();
  EXPECT_THROW(t.send(a, 42, Bytes{}), std::out_of_range);
  t.stop();
}

TEST(InMemoryTransport, SelfSendDelivered) {
  InMemoryTransport t;
  Collector c;
  const NodeId a = t.add_node(c.handler());
  t.start();
  t.send(a, a, Bytes{9});
  ASSERT_TRUE(c.wait_for(1));
  EXPECT_EQ(c.items()[0].first, a);
  t.stop();
}

}  // namespace
}  // namespace cmh::net
