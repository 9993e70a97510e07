// The DDB's one ground truth: cycle membership over a transaction waits-for
// relation, the grey request rule that completes it, and the client ledger
// that Cluster, the checker's DdbSystem and the controller tests all ask.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <span>
#include <vector>

#include "common/block_pool.h"
#include "common/small_vector.h"
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
/// granted; `held` is the lock count it carries.  If `owner` (the
/// resource's lock manager) neither queues it nor holds it for `txn` in a
/// mode that covers `mode` (a grant in flight), the request, an upgrade
/// too, is on the wire (grey).  When it lands it waits on the owner's
/// current blockers() for that count, and grey edges are dark in the
/// paper's model, so those waits are appended to `edges`.
void append_grey_waits(const LockManager& owner, TransactionId txn,
                       ResourceId resource, LockMode mode, LockCount held,
                       std::vector<WaitEdge>& edges);

enum class TxnStatus : std::uint8_t { kActive, kCommitted, kAborted };

/// The client side of the ground truth: each transaction's home, status
/// and requested locks, by dense id.  A lock counts as granted only once it
/// is held in the requested mode: an upgrade clears the flag.
class TxnLedger {
 public:
  TransactionId begin(SiteId home);
  /// Records `txn`'s request for `mode` on `resource` while its home held
  /// `held` locks.  A repeated request changes nothing unless it upgrades.
  void request(TransactionId txn, ResourceId resource, LockMode mode,
               LockCount held);
  /// Ignores a transaction or a resource it does not know.
  void grant(TransactionId txn, ResourceId resource);
  /// Ends an active `txn` with `outcome`; false if it had already ended.
  bool end(TransactionId txn, TxnStatus outcome);

  [[nodiscard]] TxnStatus status(TransactionId txn) const {
    return txns_.at(txn.value()).status;
  }
  [[nodiscard]] bool granted(TransactionId txn, ResourceId resource) const;
  [[nodiscard]] bool all_granted(TransactionId txn) const;
  [[nodiscard]] SiteId home_of(TransactionId txn) const {
    return txns_.at(txn.value()).home;
  }
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(txns_.size());
  }

  /// Transactions on a cycle of every site's intra-controller wait edges
  /// plus the append_grey_waits() of each active transaction's ungranted
  /// locks, ascending.  `sites[i]` points at site i's controller and
  /// `host.owner_of(r)` places r.  The view is valid until the next call.
  template <typename Sites, typename Host>
  [[nodiscard]] std::span<const TransactionId> deadlocked(
      const Sites& sites, const Host& host) const {
    edges_.clear();
    for (const auto& site : sites) {
      site->locks().wait_edges(site_edges_);
      edges_.insert(edges_.end(), site_edges_.begin(), site_edges_.end());
    }
    for (std::uint32_t t = 0; t < txns_.size(); ++t) {
      if (txns_[t].status != TxnStatus::kActive) continue;
      for (const Lock& l : txns_[t].locks) {
        if (l.granted) continue;
        append_grey_waits(sites[host.owner_of(l.resource).value()]->locks(),
                          TransactionId{t}, l.resource, l.mode, l.held,
                          edges_);
      }
    }
    return finder_.on_cycle(edges_);
  }

  /// Folds every transaction's home, locks (resource, mode, granted; not
  /// the carried counts) and status into `h`, for the exhaustive checker.
  void mix_state_hash(std::uint64_t& h) const;

 private:
  // All lock requests originate from the home agent (section 6.2: remote
  // agents acquire on its behalf).  No default member initializers:
  // SmallVector needs them default-constructible while TxnLedger is still
  // incomplete.
  struct Lock {
    ResourceId resource;
    LockMode mode;
    bool granted;
    // The home's lock count when the request left: the count a forwarded
    // request carries, which places it in the owner's queue.
    LockCount held;
  };
  struct Txn {
    SiteId home;
    TxnStatus status;
    SmallVector<Lock, 4> locks;  // ascending by resource
  };

  PooledVector<Txn> txns_;  // by id; pooled (common/block_pool.h)
  // deadlocked()'s scratch, reused across calls.
  mutable std::vector<WaitEdge> edges_;
  mutable std::vector<WaitEdge> site_edges_;
  mutable CycleFinder finder_;
};

}  // namespace cmh::ddb
