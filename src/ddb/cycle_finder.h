// Cycle membership over a transaction waits-for relation: the ground-truth
// oracle behind ddb::Cluster and the exhaustive checker's DDB system.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <span>
#include <vector>

#include "ddb/lock_manager.h"

namespace cmh::ddb {

/// Finds the transactions on a cycle of a waits-for edge list.  Its buffers
/// are reused across calls, so a warm finder allocates nothing.
class CycleFinder {
 public:
  /// Transactions that reach themselves through `edges`, ascending.  Sorts
  /// and deduplicates `edges` in place.  The view is valid until the next
  /// call.
  std::span<const TransactionId> on_cycle(std::vector<WaitEdge>& edges);

 private:
  std::vector<TransactionId> nodes_;
  std::vector<std::uint32_t> seen_;  // BFS generation that reached a node
  std::vector<std::uint32_t> frontier_;
  std::vector<TransactionId> result_;
};

}  // namespace cmh::ddb
