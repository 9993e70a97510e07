// Quickstart: the basic model end to end, in ~60 lines.
//
// Three processes on the deterministic simulator wedge into a wait-for
// cycle; the Chandy-Misra-Haas probe computation (initiated automatically
// when a request is sent) detects it, and the section-5 WFGD computation
// tells every deadlocked process which edges trap it.
//
//   $ ./quickstart
#include <cstdio>

#include "runtime/sim_cluster.h"

using namespace cmh;

int main() {
  // Three processes; the default T = 0 starts a probe computation with
  // every request (the section 4.2 rule).  WFGD propagation on.
  core::Options options;
  options.propagate_wfgd = true;
  runtime::SimCluster cluster(/*n=*/3, options, /*seed=*/42);

  cluster.set_detection_callback([&](const runtime::DeadlockEvent& event) {
    std::printf("[%8lld us] %s declares: I am on a black cycle "
                "(computation %s)\n",
                static_cast<long long>(event.at.micros),
                event.process.to_string().c_str(),
                (event.tag.initiator.to_string() + "#" +
                 std::to_string(event.tag.sequence))
                    .c_str());
  });

  // p0 waits for p1, p1 waits for p2 -- a plain chain so far.
  std::printf("p0 requests p1; p1 requests p2 ...\n");
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{2});
  cluster.run();
  std::printf("no deadlock yet: %zu detections\n\n",
              cluster.detections().size());

  // p2 requests p0: the cycle closes, p2's probe computation goes around.
  std::printf("p2 requests p0 -- closing the cycle ...\n");
  cluster.request(ProcessId{2}, ProcessId{0});
  cluster.run();

  // Every process now knows it is deadlocked and which edges form the trap.
  for (std::uint32_t i = 0; i < 3; ++i) {
    const auto& p = cluster.process(ProcessId{i});
    std::printf("%s deadlocked=%s, knows %zu trapped edge(s):",
                p.id().to_string().c_str(), p.deadlocked() ? "yes" : "no",
                p.wfgd_edges().size());
    for (const auto& e : p.wfgd_edges()) {
      std::printf(" %s->%s", e.from.to_string().c_str(),
                  e.to.to_string().c_str());
    }
    std::printf("\n");
  }

  // The ground-truth graph agrees (and can be rendered with graphviz).
  std::printf("\nwait-for graph (DOT):\n%s", cluster.oracle().to_dot().c_str());
  return cluster.detections().empty() ? 1 : 0;
}
