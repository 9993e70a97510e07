// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#include "ddb/cycle_finder.h"

#include <algorithm>

namespace cmh::ddb {

std::span<const TransactionId> CycleFinder::on_cycle(
    std::vector<WaitEdge>& edges) {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  nodes_.clear();
  for (const auto& [w, b] : edges) {
    nodes_.push_back(w);
    nodes_.push_back(b);
  }
  std::sort(nodes_.begin(), nodes_.end());
  nodes_.erase(std::unique(nodes_.begin(), nodes_.end()), nodes_.end());
  const auto index_of = [this](TransactionId t) {
    return static_cast<std::uint32_t>(
        std::lower_bound(nodes_.begin(), nodes_.end(), t) - nodes_.begin());
  };

  // A transaction is deadlocked iff it can reach itself: one breadth-first
  // search per node, with generation stamps instead of a cleared set.
  seen_.assign(nodes_.size(), 0);
  result_.clear();
  for (std::uint32_t t = 0; t < nodes_.size(); ++t) {
    const std::uint32_t generation = t + 1;
    frontier_.clear();
    frontier_.push_back(t);
    bool cycle = false;
    for (std::size_t head = 0; head < frontier_.size() && !cycle; ++head) {
      const TransactionId u = nodes_[frontier_[head]];
      // Sorted edges: u's out-edges are one contiguous run.
      auto e = std::lower_bound(edges.begin(), edges.end(), WaitEdge{u, {}});
      for (; e != edges.end() && e->first == u; ++e) {
        const std::uint32_t v = index_of(e->second);
        if (v == t) {
          cycle = true;
          break;
        }
        if (seen_[v] != generation) {
          seen_[v] = generation;
          frontier_.push_back(v);
        }
      }
    }
    if (cycle) result_.push_back(nodes_[t]);
  }
  return result_;
}

void append_grey_waits(const LockManager& owner, TransactionId txn,
                       ResourceId resource, LockMode mode, LockCount held,
                       std::vector<WaitEdge>& edges) {
  if (owner.waiting(resource, txn)) return;  // already queued
  if (owner.holds(resource, txn)) return;    // grant in flight
  for (const TransactionId blocker :
       owner.blockers(resource, txn, mode, held)) {
    edges.emplace_back(txn, blocker);
  }
}

}  // namespace cmh::ddb
