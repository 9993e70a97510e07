// DDB-model harness for the exhaustive interleaving checker.
//
// Hosts N ddb::Controller instances over explicit per-site-pair FIFO deques,
// driven by per-site scripts of lock/finish steps (each transaction is homed
// at its script's site and acts sequentially: the next step becomes
// schedulable only once every earlier lock was granted).  Detection runs
// with kDelayed initiation at T = 0 -- fully synchronous, so no timers exist
// and delivery order is the only nondeterminism.
//
// Checked properties (reported in the shared Axiom vocabulary):
//   QRP2  a controller declares `victim` only while the victim is truly
//         deadlocked per ddb::TxnLedger::deadlocked(), the one DDB ground
//         truth (ddb::Cluster's too), fed every script step.  An upgrade
//         clears its lock's granted flag until the write lock is held, so
//         an upgrade on the wire waits on the other readers,
//   QRP1  at quiescence, if any transaction is oracle-deadlocked, some
//         deadlocked transaction was declared.  (The paper promises one
//         declaration per cycle -- the last closer's computation -- not one
//         per member; "some declared" equals that guarantee for the
//         single-cycle canonical scenarios.)
// Scenarios run with abort_victim = false so a detected deadlock stays
// observable instead of being resolved mid-exploration; the constructor
// rejects abort_victim = true, as it rejects a positive T.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "check/explore.h"
#include "ddb/controller.h"
#include "ddb/cycle_finder.h"

namespace cmh::check {

struct DdbOp {
  enum class Kind : std::uint8_t { kLock, kFinish };

  Kind kind{Kind::kLock};
  TransactionId txn{};
  ResourceId resource{};  // kLock only
  ddb::LockMode mode{ddb::LockMode::kWrite};

  static DdbOp lock(TransactionId txn, ResourceId resource,
                    ddb::LockMode mode = ddb::LockMode::kWrite) {
    return {Kind::kLock, txn, resource, mode};
  }
  static DdbOp finish(TransactionId txn) {
    return {Kind::kFinish, txn, ResourceId{}, ddb::LockMode::kWrite};
  }
};

struct DdbScenario {
  std::string name;
  std::uint32_t n_sites{0};
  /// resource_owner[r.value()] = managing site of resource r.
  std::vector<SiteId> resource_owner;
  /// scripts[s] = ordered steps issued at site s; each step's transaction is
  /// homed at s.
  std::vector<std::vector<DdbOp>> scripts;
  ddb::DdbOptions options{.initiation = ddb::DdbInitiation::kDelayed,
                          .initiation_delay = SimTime::zero(),
                          .abort_victim = false};
};

class DdbSystem final : public System, private ddb::SiteHost {
 public:
  explicit DdbSystem(DdbScenario scenario);

  void reset() override;
  [[nodiscard]] std::vector<Transition> enabled() override;
  void execute(const Transition& t) override;
  [[nodiscard]] std::uint64_t fingerprint() override;
  void check_final() override;
  [[nodiscard]] const std::vector<Violation>& violations() const override {
    return violations_;
  }
  [[nodiscard]] std::string describe(const Transition& t) const override;

  /// Transactions some controller declared deadlocked (exploration-path
  /// local, like all state here).
  [[nodiscard]] const std::set<TransactionId>& declared() const {
    return declared_;
  }

  /// Coverage over every leaf (quiescent state) check_final() has seen
  /// since construction; reset() keeps it.  A leaf reached again under a
  /// different sleep set counts again.
  struct LeafTally {
    /// Leaves with a transaction still on a cycle (and declared).
    std::uint64_t deadlocked{0};
    /// Leaves whose schedule made an early closure (a walk declared where
    /// it first reached its target, DESIGN.md section 4b, note 6).
    std::uint64_t with_early_closure{0};
    /// Early closures summed over the leaves' schedules.
    std::uint64_t early_closures{0};
  };
  [[nodiscard]] const LeafTally& leaf_tally() const { return tally_; }

 private:
  [[nodiscard]] SimTime now() const { return SimTime::us(steps_); }
  [[nodiscard]] bool script_op_enabled(std::uint32_t s) const;
  void record(Axiom axiom, TransactionId txn, std::string detail);

  // ddb::SiteHost: every controller's channels are this harness's deques;
  // schedule() throws, since exploration is timer-free.
  void send(SiteId from, SiteId to, BytesView payload) override;
  [[nodiscard]] SiteId owner_of(ResourceId resource) const override;
  void schedule(SimTime delay, std::function<void()> fn) override;
  void on_grant(SiteId site, TransactionId txn, ResourceId resource) override;
  void on_abort(SiteId site, TransactionId txn) override;
  void on_deadlock(SiteId site, TransactionId victim,
                   const ddb::DdbProbeTag& tag) override;

  DdbScenario scenario_;
  std::vector<std::unique_ptr<ddb::Controller>> controllers_;
  std::map<std::pair<SiteId, SiteId>, std::deque<Bytes>> channels_;
  std::vector<std::size_t> script_pos_;
  std::int64_t steps_{0};
  std::uint64_t event_seq_{0};

  ddb::TxnLedger ledger_;  // every script step: the oracle's client half
  std::set<TransactionId> declared_;
  std::vector<Violation> violations_;
  LeafTally tally_;
};

}  // namespace cmh::check
