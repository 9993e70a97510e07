// The algorithm is transport-agnostic: the same scenario must produce the
// same detection verdict on the simulator, on in-memory threads, and on
// the epoll TCP transport.
#include <gtest/gtest.h>

#include "graph/generators.h"
#include "net/inmemory_transport.h"
#include "net/tcp_transport.h"
#include "runtime/sim_cluster.h"
#include "runtime/threaded_cluster.h"
#include "runtime/workload.h"

namespace cmh::runtime {
namespace {

using namespace std::chrono_literals;

struct EquivCase {
  std::uint32_t n;
  std::uint32_t cycle_len;  // 0 = acyclic scenario instead
};

class TransportEquivalence : public ::testing::TestWithParam<EquivCase> {};

bool sim_verdict(const graph::Scenario& s) {
  SimCluster cluster(s.n_processes, core::Options{}, 1);
  issue_scenario(cluster, s);
  cluster.run();
  return !cluster.detections().empty();
}

template <typename TransportT>
bool threaded_verdict(const graph::Scenario& s) {
  TransportT transport;
  ThreadedCluster cluster(transport, s.n_processes, core::Options{});
  for (const graph::Op& op : s.script) {
    if (op.kind == graph::OpKind::kCreate) {
      cluster.request(op.edge.from, op.edge.to);
    }
  }
  const bool detected = cluster.wait_for_detection(3000ms).has_value();
  cluster.stop();
  return detected;
}

TEST_P(TransportEquivalence, VerdictsAgree) {
  const auto [n, len] = GetParam();
  const graph::Scenario s = len > 0 ? graph::make_ring(n, len)
                                    : graph::make_acyclic(n, n * 2, 3);
  const bool expected = len > 0;
  EXPECT_EQ(sim_verdict(s), expected);
  EXPECT_EQ(threaded_verdict<net::InMemoryTransport>(s), expected);
  EXPECT_EQ(threaded_verdict<net::TcpTransport>(s), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, TransportEquivalence,
    ::testing::Values(EquivCase{3, 3}, EquivCase{6, 4}, EquivCase{8, 0},
                      EquivCase{12, 12}),
    [](const auto& info) {
      return "n" + std::to_string(info.param.n) + "_L" +
             std::to_string(info.param.cycle_len);
    });

}  // namespace
}  // namespace cmh::runtime
