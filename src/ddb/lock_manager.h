// Per-site resource lock manager.
//
// Read/write locks with contention-aware queueing: each request carries its
// transaction's lock count (the count victim election reads), and a
// resource's queue is ordered by that count, most first, FIFO among equal
// counts.  A new request goes in behind every queued request whose count is
// at least its own, and is granted iff it conflicts with no holder and no
// request ahead of that point.  A transaction that holds locks thus waits
// less, so fewer waits close a cycle; a request that holds nothing is
// overtaken only while higher counts keep arriving (DESIGN.md section 4g).
// Lock upgrades (read -> write by the sole holder) are granted in place;
// contended upgrades queue at the end and can deadlock -- the classic
// upgrade deadlock the detector must find.
//
// The manager also derives the local waits-for relation used for the
// intra-controller edges of section 6.4: a blocked request waits for every
// conflicting holder and every conflicting waiter ahead of it.  A
// per-transaction index lists the rows each transaction holds or is queued
// on, so the per-transaction queries (and one transaction's out-edges, the
// step of a probe's BFS) read a few rows instead of the whole table.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/block_pool.h"
#include "common/flat_set.h"
#include "common/ids.h"
#include "common/small_vector.h"
#include "common/status.h"
#include "ddb/types.h"

namespace cmh::ddb {

/// Outcome of an acquire call.
enum class AcquireResult : std::uint8_t {
  kGranted,   // lock held now
  kQueued,    // blocked; a grant will be reported later
  kRedundant  // already held in a mode at least as strong
};

struct LockRequest {
  TransactionId txn;
  LockMode mode;
  /// The locks txn held when it asked (victim election's count): the
  /// queue's order key.  Sits in the padding after `mode`.
  LockCount held{0};
  /// Site the request was forwarded from (== local site for local
  /// requests); carried so the controller can reply along the right
  /// inter-controller edge.
  SiteId origin;
};
static_assert(sizeof(LockRequest) == 12, "the count fits the padding");

/// A granted lock.  The origin is kept because the holding agent (T, here)
/// conceptually waits on the agent (T, origin) that commanded the
/// acquisition -- it may only release when that agent's computation
/// proceeds (the release-wait inter-controller edge; see controller.h).
struct Holding {
  LockMode mode;
  SiteId origin;
};

/// A queued request that became a holding.
struct Grant {
  ResourceId resource;
  LockRequest request;
  /// The request upgraded a lock its transaction already held.
  bool upgrade{false};
};

/// A local waits-for pair (waiter, blocker) over transactions.
using WaitEdge = std::pair<TransactionId, TransactionId>;

/// Results are returned in small inline containers: the common case (a
/// handful of grants, waiters or blockers) costs no heap traffic, and a
/// result owned by the caller's frame stays valid when a callback it
/// triggers re-enters the manager.
using GrantList = SmallVector<Grant, 8>;
using TxnList = SmallVector<TransactionId, 8>;

class LockManager {
 public:
  /// Requests `mode` on `resource` for `txn`, which holds `held` locks.
  /// The request queues behind every waiter whose count is at least
  /// `held` (a contended upgrade behind every waiter) and is granted at
  /// once iff nothing there blocks it.  Never blocks the caller; kQueued
  /// means the grant will surface via another transaction's abort() later.
  AcquireResult acquire(ResourceId resource, TransactionId txn, LockMode mode,
                        SiteId origin, LockCount held = 0);

  /// Releases everything txn holds and cancels its queued requests (commit
  /// and abort alike).  Returns the requests newly granted to *other*
  /// transactions, in ascending resource order (then grant order).
  GrantList abort(TransactionId txn);

  // ---- queries ------------------------------------------------------------

  [[nodiscard]] bool holds(ResourceId resource, TransactionId txn) const;
  [[nodiscard]] std::optional<LockMode> held_mode(ResourceId resource,
                                                  TransactionId txn) const;
  [[nodiscard]] bool waiting(ResourceId resource, TransactionId txn) const;

  /// Number of txn's queued requests, over all resources.
  [[nodiscard]] std::uint32_t queued(TransactionId txn) const;

  /// True iff txn has a queued request forwarded from `origin`: this site
  /// for txn's home agent, else the controller that forwarded it.  Reads
  /// only the rows txn is queued on (the acquisition-edge check of every
  /// probe received).
  [[nodiscard]] bool queued_from(TransactionId txn, SiteId origin) const;

  /// Resources txn currently holds, ascending.
  [[nodiscard]] std::vector<ResourceId> held_by(TransactionId txn) const;

  /// Origin sites of txn's local holdings (deduplicated, sorted) -- the
  /// targets of its outgoing release-wait edges.
  [[nodiscard]] FlatSet<SiteId, 8> holding_origins(TransactionId txn) const;

  /// The local waits-for relation over transactions, derived from every
  /// queue (section 6.4 intra edges): replaces `out` with the pairs, sorted
  /// and deduplicated.  `out` keeps its capacity, so a caller reusing one
  /// buffer allocates nothing once it is warm.
  void wait_edges(std::vector<WaitEdge>& out) const;

  /// The transactions txn waits for here, ascending: exactly its run of
  /// out-edges in wait_edges(), derived from the rows txn is queued on.
  /// Replaces `out`.
  void waits_of(TransactionId txn, FlatSet<TransactionId, 8>& out) const;

  /// Calls f(resource, request) for every queued request, in ascending
  /// resource order and queue order within a resource.
  template <typename F>
  void for_each_queued(F&& f) const {
    for (const ResourceState& rs : table_) {
      for (const LockRequest& r : rs.queue) f(rs.id, r);
    }
  }

  /// Every pending (queued) request across all resources.
  [[nodiscard]] std::vector<std::pair<ResourceId, LockRequest>>
  queued_requests() const;

  [[nodiscard]] std::size_t queue_depth(ResourceId resource) const;

  /// Transactions currently queued on `resource` (queue order).
  [[nodiscard]] TxnList waiters(ResourceId resource) const;

  /// Transactions queued on `resource` that a new request by a transaction
  /// holding `held` locks would go ahead of (queue order).  Right after
  /// acquire(..., held) these are the waiters the request overtook.
  [[nodiscard]] TxnList waiters_behind(ResourceId resource,
                                       LockCount held) const;

  /// Transactions a hypothetical request (txn, mode) by a transaction
  /// holding `held` locks would wait for right now: conflicting holders
  /// and the conflicting queued requests ahead of its insertion point.
  /// Used by the harness oracle to account for in-flight (grey) requests.
  [[nodiscard]] FlatSet<TransactionId, 8> blockers(ResourceId resource,
                                                   TransactionId txn,
                                                   LockMode mode,
                                                   LockCount held = 0) const;

  /// Folds holders and queues into `h` (ascending resource and holder
  /// order).  Used by the exhaustive interleaving checker to fingerprint
  /// states.
  void mix_state_hash(std::uint64_t& h) const;

 private:
  struct Holder {
    TransactionId txn;
    Holding holding;
  };

  // One row of the flat resource table.  Rows are never removed: a
  // released resource keeps its (empty) row and its capacity, so lock
  // churn on a working set of resources allocates nothing.
  struct ResourceState {
    ResourceId id;
    // Multiple readers, or one writer; sorted by transaction.
    SmallVector<Holder, 4> holders;
    // By count, most first, FIFO among equal counts (contended upgrades
    // excepted: they join at the end).
    SmallVector<LockRequest, 8> queue;

    /// First holder not ordered before `txn` (its insertion point).
    [[nodiscard]] const Holder* lower_holder(TransactionId txn) const;
    [[nodiscard]] const Holder* holder(TransactionId txn) const;
    [[nodiscard]] Holder* holder(TransactionId txn);
    [[nodiscard]] bool idle() const { return holders.empty() && queue.empty(); }
  };

  // One entry of the per-transaction index.
  struct TxnRows {
    // The resources txn holds or is queued on, ascending.
    FlatSet<ResourceId, 4> resources;
    // txn's queued requests, over all of them.
    std::uint32_t queued{0};
  };

  /// Queue position a new request holding `held` locks takes: behind the
  /// last waiter whose count is at least `held`.
  [[nodiscard]] static std::size_t insertion_point(const ResourceState& rs,
                                                   LockCount held);

  /// The conflict rule: calls f(blocker) for every transaction a request
  /// (txn, mode) at queue position `pos` of `rs` waits for -- each
  /// conflicting holder, then each conflicting request ahead of `pos` --
  /// while f returns true.  Returns false iff f stopped it.  txn's own
  /// holding (an upgrade) and requests never block it.
  template <typename F>
  static bool for_each_conflict(const ResourceState& rs, TransactionId txn,
                                LockMode mode, std::size_t pos, F&& f);

  /// True iff `req` (at queue position `pos`) can be granted now.
  [[nodiscard]] static bool grantable(const ResourceState& rs,
                                      const LockRequest& req, std::size_t pos);

  /// Pops every grantable request from the front region of the queue,
  /// calling on_grant(request, upgrade) for each in grant order.
  template <typename F>
  void grant_eligible(ResourceState& rs, F&& on_grant);

  [[nodiscard]] const ResourceState* find(ResourceId resource) const;
  [[nodiscard]] ResourceState* find(ResourceId resource);
  /// The row of `resource`, created (in sorted position) on first use.
  [[nodiscard]] ResourceState& row(ResourceId resource);
  /// txn's index entry, or null if txn never touched this table.
  [[nodiscard]] const TxnRows* rows_of(TransactionId txn) const;

  // Sorted by resource id: lookups are a binary search over contiguous
  // rows, and every traversal runs in canonical resource order.  Pooled
  // (common/block_pool.h): eight rows already take 1.7 KiB.
  PooledVector<ResourceState> table_;
  // Indexed by transaction id (ids are dense and never reused).  acquire()
  // adds a row and abort() walks and clears them, so an entry lists
  // exactly the rows where txn holds or waits.  Empty until the first
  // acquire().
  PooledVector<TxnRows> index_;
};

}  // namespace cmh::ddb
