// Transport microbenchmarks (google-benchmark): small-frame throughput of
// the two threaded transports.  The number CI gates on is the epoll
// transport's items/s -- the enqueue-and-wake + coalesced-sendmsg hot path.
// The in-memory rows are context: the no-syscall upper bound.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"

namespace {

using namespace cmh;
using namespace cmh::net;

constexpr std::size_t kFramesPerIter = 2000;
constexpr std::size_t kPayloadBytes = 64;

// Blocks the caller until `delivered` reaches `target`.  The caller sleeps
// in std::atomic::wait instead of spinning, so it does not compete with the
// transport's threads for the cores; the handler that delivers the
// target-th frame wakes it.
void wait_for(std::atomic<std::uint64_t>& delivered, std::uint64_t target) {
  for (std::uint64_t seen = delivered.load(std::memory_order_acquire);
       seen < target; seen = delivered.load(std::memory_order_acquire)) {
    delivered.wait(seen, std::memory_order_acquire);
  }
}

// One iteration = kFramesPerIter frames pushed round-robin across all
// (i -> i+1 mod n) channels from a single caller thread, then a wait for
// full delivery -- so the measured time covers the whole pipe, not just
// the enqueue.
template <typename TransportT>
void run_small_frames(benchmark::State& state) {
  const auto nodes = static_cast<std::uint32_t>(state.range(0));
  TransportT transport;
  std::atomic<std::uint64_t> delivered{0};
  // The count the caller waits for; set before the iteration's first send.
  std::atomic<std::uint64_t> target{nodes};
  for (std::uint32_t i = 0; i < nodes; ++i) {
    transport.add_node([&delivered, &target](NodeId, BytesView) {
      const std::uint64_t now =
          delivered.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (now == target.load(std::memory_order_acquire)) delivered.notify_one();
    });
  }
  transport.start();
  const Bytes payload(kPayloadBytes, 0xab);

  // Warm-up: touch every channel once so connection setup is not measured.
  for (std::uint32_t i = 0; i < nodes; ++i) {
    transport.send(i, (i + 1) % nodes, payload);
  }
  wait_for(delivered, nodes);

  for (auto _ : state) {
    const std::uint64_t next =
        target.load(std::memory_order_relaxed) + kFramesPerIter;
    target.store(next, std::memory_order_release);
    for (std::size_t f = 0; f < kFramesPerIter; ++f) {
      const auto src = static_cast<std::uint32_t>(f % nodes);
      transport.send(src, (src + 1) % nodes, payload);
    }
    wait_for(delivered, next);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * kFramesPerIter));
  transport.stop();
}

void BM_NetEpollTcpSmallFrames(benchmark::State& state) {
  run_small_frames<TcpTransport>(state);
}

void BM_NetInMemorySmallFrames(benchmark::State& state) {
  run_small_frames<InMemoryTransport>(state);
}

BENCHMARK(BM_NetEpollTcpSmallFrames)->Arg(4)->Arg(16)->UseRealTime();
BENCHMARK(BM_NetInMemorySmallFrames)->Arg(4)->Arg(16)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
