// Experiment T6 -- transport plumbing overhead.
//
// Part one: the same ring-deadlock scenario runs on the simulator and on
// the two threaded transports.  The simulator column reports virtual
// detection time (the algorithm's view); the threaded columns report
// wall-clock time including scheduler and socket overhead -- the "more
// plumbing required" the reproduction notes call out.
//
// Part two: small-frame throughput under multi-threaded senders, the
// workload the epoll event-loop transport was built for.  Reported per
// transport: frames/s and measured read/write syscalls per frame.  The
// acceptance bar for the epoll transport: sendmsg coalescing keeps it below
// one write syscall per frame.
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"
#include "runtime/sim_cluster.h"
#include "runtime/threaded_cluster.h"
#include "runtime/workload.h"
#include "table.h"

namespace {

using namespace cmh;
using namespace std::chrono;
using bench::fmt;

double sim_run(std::uint32_t n) {
  runtime::SimCluster cluster(n, core::Options{}, 3);
  runtime::issue_scenario(cluster, graph::make_ring(n, n));
  cluster.run_until_detection();
  return cluster.detections().empty()
             ? -1
             : cluster.detections()[0].at.seconds() * 1e3;
}

template <typename TransportT>
double threaded_run(std::uint32_t n) {
  TransportT transport;
  runtime::ThreadedCluster cluster(transport, n, core::Options{});
  const auto start = steady_clock::now();
  for (std::uint32_t i = 0; i < n; ++i) {
    cluster.request(ProcessId{i}, ProcessId{(i + 1) % n});
  }
  const auto declarer = cluster.wait_for_detection(milliseconds(10000));
  const auto elapsed =
      duration_cast<microseconds>(steady_clock::now() - start).count();
  cluster.stop();
  return declarer ? static_cast<double>(elapsed) / 1e3 : -1;
}

void run_detection_table() {
  bench::Table table(
      "T6a: ring-deadlock detection across transports (ms; sim column is "
      "virtual time, threaded columns are wall clock)",
      {"ring size", "simulator", "in-memory threads", "epoll tcp"});

  for (const std::uint32_t n : {4u, 8u, 16u, 32u}) {
    const double sim_ms = sim_run(n);
    const double mem_ms = threaded_run<net::InMemoryTransport>(n);
    const double epl_ms = threaded_run<net::TcpTransport>(n);
    auto cell = [](double v) {
      return v < 0 ? std::string("miss") : bench::fmt(v, 2);
    };
    table.row({fmt(n), cell(sim_ms), cell(mem_ms), cell(epl_ms)});
  }
  table.print();
}

struct ThroughputResult {
  double frames_per_sec{0};
  double write_sys_per_frame{-1};  // -1 = transport keeps no I/O stats
  double read_sys_per_frame{-1};
};

// kSenders caller threads blast 64-byte frames over disjoint channels
// (sender k owns the k -> n-1-k channel) until every frame is delivered.
template <typename TransportT>
ThroughputResult measure_throughput(std::uint32_t nodes,
                                    std::uint32_t senders,
                                    std::uint64_t frames_per_sender) {
  TransportT transport;
  std::atomic<std::uint64_t> delivered{0};
  for (std::uint32_t i = 0; i < nodes; ++i) {
    transport.add_node(
        [&delivered](net::NodeId, BytesView) { delivered.fetch_add(1); });
  }
  transport.start();
  const Bytes payload(64, 0xab);

  // Warm-up: establish every measured channel before the clock starts.
  for (std::uint32_t k = 0; k < senders; ++k) {
    transport.send(k, nodes - 1 - k, payload);
  }
  while (delivered.load() < senders) std::this_thread::yield();

  const std::uint64_t total = senders * frames_per_sender + senders;
  const auto start = steady_clock::now();
  std::vector<std::thread> threads;
  for (std::uint32_t k = 0; k < senders; ++k) {
    threads.emplace_back([&, k] {
      for (std::uint64_t f = 0; f < frames_per_sender; ++f) {
        transport.send(k, nodes - 1 - k, payload);
      }
    });
  }
  for (auto& th : threads) th.join();
  while (delivered.load() < total) std::this_thread::yield();
  const double secs =
      duration_cast<duration<double>>(steady_clock::now() - start).count();

  ThroughputResult r;
  r.frames_per_sec = static_cast<double>(senders * frames_per_sender) / secs;
  if constexpr (requires { transport.io_stats(); }) {
    const net::TransportIoStats s = transport.io_stats();
    if (s.frames_sent > 0) {
      r.write_sys_per_frame = static_cast<double>(s.write_syscalls) /
                              static_cast<double>(s.frames_sent);
      r.read_sys_per_frame = static_cast<double>(s.read_syscalls) /
                             static_cast<double>(s.frames_delivered);
    }
  }
  transport.stop();
  return r;
}

void run_throughput_table() {
  constexpr std::uint32_t kNodes = 16;
  constexpr std::uint32_t kSenders = 4;
  constexpr std::uint64_t kFrames = 50000;

  const auto mem =
      measure_throughput<net::InMemoryTransport>(kNodes, kSenders, kFrames);
  const auto epl =
      measure_throughput<net::TcpTransport>(kNodes, kSenders, kFrames);

  bench::Table table(
      "T6b: 64-byte frame throughput, 16 nodes, 4 concurrent senders",
      {"transport", "frames/s", "write sys/frame", "read sys/frame"});
  auto sys_cell = [](double v) {
    return v < 0 ? std::string("-") : bench::fmt(v, 3);
  };
  auto row = [&](const char* name, const ThroughputResult& r) {
    table.row({name, fmt(r.frames_per_sec, 0),
               sys_cell(r.write_sys_per_frame),
               sys_cell(r.read_sys_per_frame)});
  };
  row("in-memory threads", mem);
  row("epoll tcp", epl);
  table.print();

  std::printf("Acceptance: epoll tcp write syscalls/frame < 1 -> %s (%.3f)\n",
              epl.write_sys_per_frame < 1.0 ? "PASS" : "FAIL",
              epl.write_sys_per_frame);
}

void run() {
  run_detection_table();
  std::printf(
      "Expected shape: all transports detect every ring.  In-memory threads\n"
      "are fastest in wall clock; TCP adds connection setup + syscall\n"
      "overhead; the simulator's virtual latency reflects the configured\n"
      "delay model rather than host speed.\n\n");
  run_throughput_table();
}

}  // namespace

int main() {
  run();
  return 0;
}
