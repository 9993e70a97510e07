// The OR (communication) model extension on an RPC-flavoured scenario.
//
// Workers issue fan-out RPCs and proceed when ANY replica answers (the
// message model of the paper's reference [1]).  A group of workers whose
// every potential helper is itself stuck forms a knot -- the OR-model
// notion of deadlock -- and the diffusing-computation detector finds it;
// one live replica anywhere prevents a declaration.
//
//   $ ./or_model_rpc
#include <cstdio>

#include "runtime/or_cluster.h"

using namespace cmh;

namespace {

void banner(const char* text) { std::printf("\n--- %s ---\n", text); }

}  // namespace

int main() {
  runtime::OrCluster cluster(/*n=*/6, /*seed=*/3);
  cluster.set_detection_callback([&](const runtime::DeadlockEvent& d) {
    std::printf("[%6lld us] %s declares OR-model deadlock (computation "
                "#%llu)\n",
                static_cast<long long>(d.at.micros),
                d.process.to_string().c_str(),
                static_cast<unsigned long long>(d.tag.sequence));
  });

  const ProcessId w0{0};  // workers
  const ProcessId w1{1};
  const ProcessId w2{2};
  const ProcessId r0{3};  // replicas
  const ProcessId r1{4};
  const ProcessId spare{5};

  banner("healthy fan-out: w0 calls {r0, r1}; r1 answers");
  cluster.block(w0, {r0, r1});
  cluster.run();
  std::printf("w0 blocked: %s (no declaration -- replicas are live)\n",
              cluster.process(w0).blocked() ? "yes" : "no");
  cluster.signal(r1, w0);
  cluster.run();
  std::printf("after r1's reply, w0 blocked: %s\n",
              cluster.process(w0).blocked() ? "yes" : "no");

  banner("knot: every helper is itself stuck");
  // w0 -> {w1, w2}; w1 -> {r0}; w2 -> {r0}; r0 -> {w0}: nobody reachable
  // from w0 is active.
  cluster.block(w1, {r0});
  cluster.block(w2, {r0});
  cluster.block(r0, {w0});
  cluster.block(w0, {w1, w2});
  cluster.run();
  std::printf("oracle: w0 deadlocked = %s, detections = %zu\n",
              cluster.oracle_deadlocked(w0) ? "yes" : "no",
              cluster.detections().size());

  banner("same shape with one live escape is NOT deadlock");
  runtime::OrCluster second(/*n=*/6, /*seed=*/5);
  second.set_detection_callback([](const runtime::DeadlockEvent&) {
    std::printf("UNEXPECTED declaration!\n");
  });
  second.block(w1, {r0});
  second.block(w2, {r0});
  second.block(r0, {w0, spare});  // spare stays active: an escape
  second.block(w0, {w1, w2});
  second.run();
  std::printf("oracle: w0 deadlocked = %s, detections = %zu\n",
              second.oracle_deadlocked(w0) ? "yes" : "no",
              second.detections().size());
  std::printf("spare signals r0; the whole group unwinds:\n");
  second.signal(spare, r0);
  second.run();
  second.signal(r0, w1);
  second.run();
  second.signal(w1, w0);  // w1 (now active) answers w0
  second.run();
  std::printf("w0 blocked: %s\n",
              second.process(w0).blocked() ? "yes" : "no");

  const auto stats = cluster.total_stats();
  std::printf("\nknot run: %llu queries, %llu replies, %llu declarations\n",
              static_cast<unsigned long long>(stats.queries_sent),
              static_cast<unsigned long long>(stats.replies_sent),
              static_cast<unsigned long long>(stats.deadlocks_declared));
  return cluster.detections().empty() || !second.detections().empty() ? 1 : 0;
}
