// Cluster -- a simulator-hosted DDB: N controllers, round-robin resource
// placement, a client transaction layer and a ground-truth deadlock oracle.
//
// This is the top-level public API for the DDB model (see README quickstart):
//
//   ddb::Cluster db({.n_sites = 4, .n_resources = 64});
//   auto t = db.begin(SiteId{0});
//   db.lock(t, ResourceId{7}, LockMode::kWrite);
//   db.simulator().run();
//   if (db.aborted(t)) { /* deadlock victim */ }
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/block_pool.h"
#include "common/small_vector.h"
#include "ddb/controller.h"
#include "ddb/cycle_finder.h"
#include "ddb/outbox.h"
#include "sim/simulator.h"

namespace cmh::ddb {

struct ClusterConfig {
  std::uint32_t n_sites{4};
  std::uint32_t n_resources{64};
  DdbOptions options{};
  std::uint64_t seed{1};
  sim::DelayModel delays{};
};

enum class TxnStatus : std::uint8_t { kActive, kCommitted, kAborted };

struct DdbDetection {
  TransactionId victim;
  DdbProbeTag tag;
  SiteId site;  // declaring controller
  SimTime at;
};

// The cluster is every controller's SiteHost: one object, no per-site
// closures.  Every controller frame leaves through one Outbox: each
// simulator dispatch (a message or a timer) and each lock()/finish()/abort()
// call is one step, and a step's frames to one site travel as one
// simulator message (outbox.h).  A controller driven directly from outside
// any step, such as controller(s).check_all() under kManual, sends at once.
class Cluster final : private SiteHost, private sim::StepHook {
 public:
  explicit Cluster(ClusterConfig config);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  [[nodiscard]] std::uint32_t n_sites() const { return config_.n_sites; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] Controller& controller(SiteId s) {
    return *controllers_.at(s.value());
  }
  [[nodiscard]] const Controller& controller(SiteId s) const {
    return *controllers_.at(s.value());
  }

  /// Static placement: resource r lives at site (r mod n_sites).
  [[nodiscard]] SiteId owner_of(ResourceId r) const override {
    return SiteId{r.value() % config_.n_sites};
  }

  // ---- client transaction layer -------------------------------------------

  /// Starts a new transaction homed at `home`.
  TransactionId begin(SiteId home);

  /// Requests a lock through the home controller.  Completion is reported
  /// via granted(); an abort via status().
  void lock(TransactionId txn, ResourceId resource, LockMode mode);

  /// Commits: releases all locks everywhere.  The transaction must not have
  /// requests still pending.
  void finish(TransactionId txn);

  /// Client-initiated abort (e.g. lock-wait timeout): releases everything
  /// everywhere; the abort listener fires as for a deadlock victim.
  void abort(TransactionId txn);

  [[nodiscard]] TxnStatus status(TransactionId txn) const;
  [[nodiscard]] bool granted(TransactionId txn, ResourceId resource) const;
  [[nodiscard]] bool all_granted(TransactionId txn) const;
  [[nodiscard]] SiteId home_of(TransactionId txn) const;
  /// Transactions begun so far; their ids are 0 up to this count.
  [[nodiscard]] std::uint32_t transactions_begun() const {
    return static_cast<std::uint32_t>(txns_.size());
  }

  /// Observer invoked when a lock is granted to a transaction (after the
  /// cluster's own bookkeeping).  Workload drivers use this to advance.
  using GrantListener = std::function<void(TransactionId, ResourceId)>;
  void set_grant_listener(GrantListener fn) { grant_listener_ = std::move(fn); }

  /// Observer invoked when a transaction is aborted (deadlock victim).
  using AbortListener = std::function<void(TransactionId)>;
  void set_abort_listener(AbortListener fn) { abort_listener_ = std::move(fn); }

  // ---- detection results ----------------------------------------------------

  [[nodiscard]] std::span<const DdbDetection> detections() const {
    return detections_;
  }

  /// Invoked synchronously at the declaration instant (before any victim
  /// abort), so tests can interrogate ground truth at that exact moment.
  using DetectionListener = std::function<void(const DdbDetection&)>;
  void set_detection_listener(DetectionListener fn) {
    detection_listener_ = std::move(fn);
  }

  // ---- oracle (global knowledge; valid whenever the simulator is idle) ----

  /// Transactions on a cycle of the global transaction-wait-for graph
  /// (union of all sites' local wait edges), ascending.  At simulator idle
  /// this is exactly the set of genuinely deadlocked transactions.  The view
  /// is into a buffer the cluster reuses: it is valid until the next call.
  [[nodiscard]] std::span<const TransactionId> oracle_deadlocked() const;

  /// Sum of controller stats across sites.
  [[nodiscard]] ControllerStats total_stats() const;

 private:
  // Per the paper's section 6.2, a transaction's computation stays at the
  // agent that issued the request ("(Ti,Sj) may now proceed with its
  // computation"): remote agents acquire on its behalf.  All lock requests
  // therefore originate from the home agent; the holding agents' dependence
  // on the home is the release-wait edge (see controller.h).
  // No default member initializers: SmallVector needs the type to be
  // default-constructible while Cluster is still incomplete.
  struct TxnLock {
    ResourceId resource;
    LockMode mode;
    bool granted;
    // The home's lock count when the request left: the count a forwarded
    // request carries, which places it in the owner's queue.
    LockCount held;
  };
  struct TxnState {
    SiteId home;
    TxnStatus status{TxnStatus::kActive};
    SmallVector<TxnLock, 4> locks;  // requested locks, ascending by resource
  };

  [[nodiscard]] const TxnState& state(TransactionId txn) const;
  [[nodiscard]] TxnState& state(TransactionId txn);

  // SiteHost: what the controllers ask of the simulator and the client
  // layer.
  void send(SiteId from, SiteId to, BytesView payload) override {
    outbox_.send(from, to, payload);
  }
  void schedule(SimTime delay, std::function<void()> fn) override {
    sim_.schedule(delay, std::move(fn));
  }
  void on_grant(SiteId site, TransactionId txn, ResourceId resource) override;
  void on_abort(SiteId site, TransactionId txn) override;
  void on_deadlock(SiteId site, TransactionId victim,
                   const DdbProbeTag& tag) override;

  void begin_step() override { outbox_.begin_step(); }
  void end_step() override { outbox_.end_step(); }

  ClusterConfig config_;
  sim::Simulator sim_;
  Outbox outbox_;
  // One contiguous block, sized once: a Controller is neither copyable nor
  // movable (its timers capture `this`), so each is emplaced in place.
  // These tables and detections_ are pooled (common/block_pool.h): the
  // next Cluster built on this thread reuses their blocks.
  PooledVector<std::optional<Controller>> controllers_;
  // Indexed by transaction id: ids are handed out densely by begin().
  PooledVector<TxnState> txns_;
  PooledVector<DdbDetection> detections_;
  GrantListener grant_listener_;
  AbortListener abort_listener_;
  DetectionListener detection_listener_;

  // Oracle scratch (see oracle_deadlocked()): reused across calls.
  mutable std::vector<WaitEdge> oracle_edges_;
  mutable std::vector<WaitEdge> oracle_site_edges_;
  mutable CycleFinder oracle_;
};

}  // namespace cmh::ddb
