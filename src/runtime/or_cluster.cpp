#include "runtime/or_cluster.h"

#include <deque>
#include <stdexcept>

namespace cmh::runtime {

OrCluster::OrCluster(std::uint32_t n, std::uint64_t seed,
                     sim::DelayModel delays)
    : sim_(seed, delays) {
  processes_.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) sim_.add_node({});
  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId id{i};
    auto process = std::make_unique<core::OrProcess>(
        id, [this, id](ProcessId to, BytesView payload) {
          sim_.send(id.value(), to.value(), payload);
        });
    process->set_deadlock_callback([this, id](const ProbeTag& tag) {
      const OrDetection d{tag, id, sim_.now()};
      detections_.push_back(d);
      if (on_detection_) on_detection_(d);
    });
    processes_.push_back(std::move(process));
    sim_.set_handler(i, [this, i](sim::NodeId from, BytesView payload) {
      const auto st =
          processes_[i]->on_message(ProcessId{from}, payload);
      if (!st.ok()) {
        throw std::logic_error("OrCluster: bad frame: " + st.to_string());
      }
    });
  }
}

void OrCluster::block(ProcessId p, const std::set<ProcessId>& dependents) {
  process(p).block_on(dependents);
}

void OrCluster::signal(ProcessId p, ProcessId to) { process(p).signal(to); }

bool OrCluster::oracle_deadlocked(ProcessId p) const {
  const auto& root = *processes_.at(p.value());
  if (!root.blocked()) return false;
  std::set<ProcessId> seen{p};
  std::deque<ProcessId> frontier{p};
  while (!frontier.empty()) {
    const ProcessId u = frontier.front();
    frontier.pop_front();
    const auto& proc = *processes_.at(u.value());
    if (!proc.blocked()) return false;  // an active helper is reachable
    for (const ProcessId v : *proc.waits_on()) {
      if (seen.insert(v).second) frontier.push_back(v);
    }
  }
  return true;  // everything reachable is blocked
}

std::vector<ProcessId> OrCluster::oracle_deadlocked_set() const {
  std::vector<ProcessId> result;
  for (std::uint32_t i = 0; i < processes_.size(); ++i) {
    if (oracle_deadlocked(ProcessId{i})) result.push_back(ProcessId{i});
  }
  return result;
}

core::OrStats OrCluster::total_stats() const {
  core::OrStats total;
  for (const auto& p : processes_) {
    const auto& s = p->stats();
    total.queries_sent += s.queries_sent;
    total.queries_received += s.queries_received;
    total.replies_sent += s.replies_sent;
    total.replies_received += s.replies_received;
    total.signals_sent += s.signals_sent;
    total.computations_initiated += s.computations_initiated;
    total.deadlocks_declared += s.deadlocks_declared;
  }
  return total;
}

}  // namespace cmh::runtime
