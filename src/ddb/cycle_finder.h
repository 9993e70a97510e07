// Cycle membership over a transaction waits-for relation, and the grey
// request rule that completes the relation: the ground-truth oracle behind
// ddb::Cluster and the exhaustive checker's DDB system.
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

/// The oracle's rule for a request of `txn` on `resource` that is not yet
/// granted.  If `owner` (the resource's lock manager) neither queues it nor
/// holds it for `txn` (a grant in flight), the request is still on the wire
/// (grey).  When it lands it waits on the owner's current blockers(), and
/// grey edges are dark in the paper's model (they make cycles permanent
/// too), so those waits are appended to `edges`.  At quiescence no request
/// is grey and this appends nothing.
void append_grey_waits(const LockManager& owner, TransactionId txn,
                       ResourceId resource, LockMode mode,
                       std::vector<WaitEdge>& edges);

}  // namespace cmh::ddb
