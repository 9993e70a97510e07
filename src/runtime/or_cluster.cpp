#include "runtime/or_cluster.h"

#include <deque>

namespace cmh::runtime {

bool OrCluster::oracle_deadlocked(ProcessId p) const {
  const auto& root = process(p);
  if (!root.blocked()) return false;
  std::set<ProcessId> seen{p};
  std::deque<ProcessId> frontier{p};
  while (!frontier.empty()) {
    const ProcessId u = frontier.front();
    frontier.pop_front();
    const auto& proc = process(u);
    if (!proc.blocked()) return false;  // an active helper is reachable
    for (const ProcessId v : *proc.waits_on()) {
      if (seen.insert(v).second) frontier.push_back(v);
    }
  }
  return true;  // everything reachable is blocked
}

std::vector<ProcessId> OrCluster::oracle_deadlocked_set() const {
  std::vector<ProcessId> result;
  for (std::uint32_t i = 0; i < size(); ++i) {
    if (oracle_deadlocked(ProcessId{i})) result.push_back(ProcessId{i});
  }
  return result;
}

}  // namespace cmh::runtime
