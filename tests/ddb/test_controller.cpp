// Direct Controller unit tests with hand-delivered messages, including
// regression tests for the subtle races found during development:
//   * zombie lock requests overtaken by an abort purge (tombstones),
//   * grants crossing the home site's abort (tombstones again),
//   * grant reshuffles creating wait edges without block events,
//   * the degenerate two-agent probe bounce over release-wait edges,
//   * floor corruption by forwarders (stale-tag rule, section 4.3/6.7),
//   * stale labels acting across probe receipts,
//   * victim election: one abort per cycle, repeat declarations, stale
//     walks,
//   * early closure: a walk declared where it first reaches an agent of
//     its target through an intra edge, and continued from there,
//   * the initiation delay T: a wait on a blocked transaction or on one
//     homed at another site, or a block a live computation has reached,
//     starts its computation at once; a wait on transactions running at
//     their home here waits T.
#include "ddb/controller.h"

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>

#include "ddb/cycle_finder.h"

namespace cmh::ddb {
namespace {

/// Manual message fabric for controllers, and their one SiteHost: sends
/// queue per channel; tests deliver selectively (FIFO per channel,
/// arbitrary interleaving across channels -- exactly the paper's network
/// model).  Timers queue until fire_timers().
class Rig final : public SiteHost {
 public:
  using GrantHook = std::function<void(TransactionId, ResourceId)>;
  using AbortHook = std::function<void(TransactionId)>;

  explicit Rig(std::uint32_t n_sites, DdbOptions options = manual_options())
      : n_sites_(n_sites), grant_hooks_(n_sites), abort_hooks_(n_sites) {
    for (std::uint32_t i = 0; i < n_sites; ++i) {
      controllers_.push_back(
          std::make_unique<Controller>(SiteId{i}, n_sites, *this, options));
    }
  }

  void send(SiteId from, SiteId to, BytesView payload) override {
    wires_[{from, to}].emplace_back(payload.begin(), payload.end());
  }
  [[nodiscard]] SiteId owner_of(ResourceId r) const override {
    return SiteId{r.value() % n_sites_};
  }
  void schedule(SimTime, std::function<void()> fn) override {
    timers_.push_back(std::move(fn));
  }
  void on_grant(SiteId site, TransactionId txn, ResourceId r) override {
    if (grant_hooks_.at(site.value())) grant_hooks_[site.value()](txn, r);
  }
  void on_abort(SiteId site, TransactionId txn) override {
    if (abort_hooks_.at(site.value())) abort_hooks_[site.value()](txn);
  }
  void on_deadlock(SiteId site, TransactionId victim,
                   const DdbProbeTag& tag) override {
    declared_.emplace_back(site, victim, tag);
  }

  /// Runs `fn` on each grant reported by site `s`'s controller.
  void on_grant_at(std::uint32_t s, GrantHook fn) {
    grant_hooks_.at(s) = std::move(fn);
  }
  /// Runs `fn` on each abort reported by site `s`'s controller.
  void on_abort_at(std::uint32_t s, AbortHook fn) {
    abort_hooks_.at(s) = std::move(fn);
  }

  static DdbOptions manual_options() {
    DdbOptions o;
    o.initiation = DdbInitiation::kManual;
    o.abort_victim = false;
    return o;
  }

  Controller& c(std::uint32_t i) { return *controllers_.at(i); }

  std::size_t pending(std::uint32_t from, std::uint32_t to) {
    return wires_[{SiteId{from}, SiteId{to}}].size();
  }

  void deliver_one(std::uint32_t from, std::uint32_t to) {
    auto& q = wires_.at({SiteId{from}, SiteId{to}});
    ASSERT_FALSE(q.empty());
    const Bytes payload = q.front();
    q.pop_front();
    ASSERT_TRUE(c(to).on_message(SiteId{from}, payload).ok());
  }

  void deliver_all() {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (auto& [channel, q] : wires_) {
        while (!q.empty()) {
          const Bytes payload = q.front();
          q.pop_front();
          ASSERT_TRUE(controllers_[channel.second.value()]
                          ->on_message(channel.first, payload)
                          .ok());
          progressed = true;
        }
      }
    }
  }

  /// Drops every pending message on one channel (models nothing -- used to
  /// hold a message back while delivering others first).
  std::deque<Bytes> take_channel(std::uint32_t from, std::uint32_t to) {
    auto& q = wires_[{SiteId{from}, SiteId{to}}];
    std::deque<Bytes> taken = std::move(q);
    q.clear();
    return taken;
  }

  /// Delivers every frame but probes, which are dropped, until no frame is
  /// left: the lock traffic settles and no probe computation advances.
  void settle_dropping_probes() {
    for (;;) {
      std::vector<std::pair<std::pair<SiteId, SiteId>, Bytes>> due;
      for (auto& [channel, q] : wires_) {
        for (Bytes& frame : q) {
          const auto m = decode(frame);
          if (m.ok() && std::holds_alternative<DdbProbeMsg>(*m)) continue;
          due.emplace_back(channel, std::move(frame));
        }
        q.clear();
      }
      if (due.empty()) return;
      for (const auto& [channel, frame] : due) {
        ASSERT_TRUE(controllers_[channel.second.value()]
                        ->on_message(channel.first, frame)
                        .ok());
      }
    }
  }

  void inject(std::uint32_t from, std::uint32_t to, BytesView payload) {
    ASSERT_TRUE(c(to).on_message(SiteId{from}, payload).ok());
  }

  /// Runs the queued timers (those they queue wait for the next call).
  void fire_timers() {
    std::vector<std::function<void()>> due = std::move(timers_);
    timers_.clear();
    for (auto& fn : due) fn();
  }
  void drop_timers() { timers_.clear(); }

  /// Transactions on a cycle of the union of every site's wait edges (the
  /// global waits-for graph once no request is in flight).  The rig keeps
  /// no client ledger, so the ledger asked is empty: no grey waits.
  std::vector<TransactionId> oracle_deadlocked() {
    const TxnLedger no_clients;
    const auto on_cycle = no_clients.deadlocked(controllers_, *this);
    return {on_cycle.begin(), on_cycle.end()};
  }

  std::uint64_t total_aborts() const {
    std::uint64_t n = 0;
    for (const auto& controller : controllers_) {
      n += controller->stats().aborts_executed;
    }
    return n;
  }

  struct Declared {
    Declared(SiteId s, TransactionId v, DdbProbeTag t)
        : site(s), victim(v), tag(t) {}
    SiteId site;
    TransactionId victim;
    DdbProbeTag tag;
  };
  const std::vector<Declared>& declared() const { return declared_; }

 private:
  std::uint32_t n_sites_;
  std::vector<GrantHook> grant_hooks_;
  std::vector<AbortHook> abort_hooks_;
  std::vector<std::unique_ptr<Controller>> controllers_;
  std::map<std::pair<SiteId, SiteId>, std::deque<Bytes>> wires_;
  std::vector<Declared> declared_;
  std::vector<std::function<void()>> timers_;
};

const TransactionId t1{1};
const TransactionId t2{2};
const TransactionId t3{3};
const TransactionId t5{5};
// Resource placement in the rig: r % n_sites.
ResourceId res_at(std::uint32_t site, std::uint32_t k, std::uint32_t n) {
  return ResourceId{site + k * n};
}

// ---- lock routing ---------------------------------------------------------------

TEST(Controller, LocalLockSynchronousGrant) {
  Rig rig(2);
  EXPECT_TRUE(rig.c(0).lock(t1, res_at(0, 0, 2), LockMode::kWrite));
  EXPECT_TRUE(rig.c(0).locks().holds(res_at(0, 0, 2), t1));
}

TEST(Controller, RemoteLockForwardedAndGranted) {
  Rig rig(2);
  const ResourceId r = res_at(1, 0, 2);
  EXPECT_FALSE(rig.c(0).lock(t1, r, LockMode::kWrite));
  EXPECT_EQ(rig.pending(0, 1), 1u);  // RemoteLockRequest in flight
  EXPECT_EQ(rig.c(0).pending_remote_sites(t1),
            (FlatSet<SiteId, 8>{SiteId{1}}));
  rig.deliver_all();  // request lands, grant returns
  EXPECT_TRUE(rig.c(1).locks().holds(r, t1));
  EXPECT_TRUE(rig.c(0).pending_remote_sites(t1).empty());
}

TEST(Controller, BlockedQueries) {
  Rig rig(2);
  const ResourceId local = res_at(0, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, local, LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).blocked(t1));
  rig.c(0).lock(t2, local, LockMode::kWrite);  // queues
  EXPECT_TRUE(rig.c(0).blocked(t2));
}

TEST(Controller, QueuedCountsAreSettledBeforeGrantCallbacks) {
  // t1 holds rA and queues for rB behind t2; t3 queues for rA.  Aborting
  // t1 cancels its request and grants rA to t3.  A grant callback may
  // re-enter the controller, so the lock table's counts of both are
  // settled before it runs.
  Rig rig(1);
  Controller& c = rig.c(0);
  const ResourceId rA{0};
  const ResourceId rB{1};
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(c.lock(t2, rB, LockMode::kWrite));
  EXPECT_FALSE(c.lock(t1, rB, LockMode::kWrite));
  EXPECT_FALSE(c.lock(t3, rA, LockMode::kWrite));
  EXPECT_EQ(c.locks().queued(t1), 1u);
  EXPECT_EQ(c.locks().queued(t3), 1u);
  int grants = 0;
  rig.on_grant_at(0, [&](TransactionId txn, ResourceId resource) {
    ++grants;
    EXPECT_EQ(txn, t3);
    EXPECT_EQ(resource, rA);
    EXPECT_EQ(c.locks().queued(t1), 0u);
    EXPECT_FALSE(c.blocked(t1));
    EXPECT_EQ(c.locks().queued(t3), 0u);
    EXPECT_FALSE(c.blocked(t3));
  });
  c.abort(t1);
  EXPECT_EQ(grants, 1);
  EXPECT_EQ(c.locks().queued(t2), 0u);
}

TEST(Controller, LockCountCountsDistinctResourcesGranted) {
  // The count victim election reads: a synchronous grant, a queued local
  // grant and a remote grant each add one; an upgrade, in place or queued,
  // local or remote, and a redundant request add nothing.
  Rig rig(2);
  Controller& c = rig.c(0);
  const ResourceId rA = res_at(0, 0, 2);
  const ResourceId rB = res_at(0, 1, 2);
  const ResourceId rC = res_at(0, 2, 2);
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kRead));
  EXPECT_EQ(c.lock_count(t1), 1u);
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kWrite));  // in place: sole holder
  EXPECT_EQ(c.lock_count(t1), 1u);
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kRead));  // already held
  EXPECT_EQ(c.lock_count(t1), 1u);

  ASSERT_TRUE(c.lock(t2, rB, LockMode::kRead));
  ASSERT_TRUE(c.lock(t2, rC, LockMode::kWrite));
  ASSERT_TRUE(c.lock(t3, rB, LockMode::kRead));
  EXPECT_FALSE(c.lock(t3, rC, LockMode::kRead));  // queued behind t2
  EXPECT_FALSE(c.lock(t2, rB, LockMode::kWrite));  // queued upgrade
  EXPECT_EQ(c.lock_count(t2), 2u);
  EXPECT_EQ(c.lock_count(t3), 1u);
  c.abort(t3);  // grants t2's upgrade
  ASSERT_FALSE(c.blocked(t2));
  EXPECT_EQ(c.locks().held_mode(rB, t2), LockMode::kWrite);
  EXPECT_EQ(c.lock_count(t2), 2u);

  ASSERT_TRUE(c.lock(t5, res_at(0, 3, 2), LockMode::kWrite));
  EXPECT_FALSE(c.lock(t5, rC, LockMode::kRead));  // queued behind t2
  EXPECT_EQ(c.lock_count(t5), 1u);
  c.finish(t2);  // grants rC to t5
  EXPECT_EQ(c.lock_count(t5), 2u);

  c.lock(t1, res_at(1, 0, 2), LockMode::kWrite);  // remote
  EXPECT_EQ(c.lock_count(t1), 1u);                // not granted yet
  rig.deliver_all();
  EXPECT_EQ(c.lock_count(t1), 2u);
  EXPECT_EQ(rig.c(1).lock_count(t1), 0u);  // granted at once: none stored

  // The owner answers a remote upgrade and a remote redundant request with
  // a grant too; neither adds a lock.
  const ResourceId rX = res_at(1, 1, 2);
  c.lock(t1, rX, LockMode::kRead);
  rig.deliver_all();
  EXPECT_EQ(c.lock_count(t1), 3u);
  c.lock(t1, rX, LockMode::kWrite);  // in place at the owner: sole holder
  rig.deliver_all();
  ASSERT_EQ(rig.c(1).locks().held_mode(rX, t1), LockMode::kWrite);
  EXPECT_EQ(c.lock_count(t1), 3u);
  c.lock(t1, rX, LockMode::kRead);  // already held
  rig.deliver_all();
  ASSERT_FALSE(c.blocked(t1));
  EXPECT_EQ(c.lock_count(t1), 3u);

  const ResourceId rY = res_at(1, 2, 2);
  const TransactionId reader{6};  // homed at the owner
  c.lock(t1, rY, LockMode::kRead);
  ASSERT_TRUE(rig.c(1).lock(reader, rY, LockMode::kRead));
  rig.deliver_all();
  EXPECT_EQ(c.lock_count(t1), 4u);
  c.lock(t1, rY, LockMode::kWrite);  // queued behind the other read
  rig.deliver_all();
  ASSERT_TRUE(c.blocked(t1));
  rig.c(1).finish(reader);  // grants the queued remote upgrade
  rig.deliver_all();
  ASSERT_FALSE(c.blocked(t1));
  ASSERT_EQ(rig.c(1).locks().held_mode(rY, t1), LockMode::kWrite);
  EXPECT_EQ(c.lock_count(t1), 4u);
}

TEST(Controller, FinishPurgesOnlyParticipants) {
  // t1 holds a lock at S1 and never touched S2: the commit purge goes to
  // S1 alone.
  Rig rig(3);
  const ResourceId remote = res_at(1, 0, 3);
  rig.c(0).lock(t1, remote, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().holds(remote, t1));
  rig.c(0).finish(t1);
  EXPECT_EQ(rig.pending(0, 1), 1u);
  EXPECT_EQ(rig.pending(0, 2), 0u);
  EXPECT_EQ(rig.c(0).stats().purges_sent, 1u);
  rig.deliver_all();
  EXPECT_FALSE(rig.c(1).locks().holds(remote, t1));
}

TEST(Controller, FinishPurgesSitesWithRequestsStillInFlight) {
  // A request still outstanding at commit may yet be queued or granted at
  // its owner; that site is a participant too.
  Rig rig(3);
  const ResourceId remote = res_at(2, 0, 3);
  rig.c(0).lock(t1, remote, LockMode::kWrite);
  rig.c(0).finish(t1);
  EXPECT_EQ(rig.pending(0, 1), 0u);
  EXPECT_EQ(rig.pending(0, 2), 2u);  // the request, then the purge
  rig.deliver_all();
  EXPECT_FALSE(rig.c(2).locks().holds(remote, t1));
}

// ---- regression: zombie request vs abort purge ------------------------------------

TEST(ControllerRegression, AbortPurgeOvertakingRequestLeavesNoZombie) {
  // t1 (home S0) sends a lock request to S2 while S1 declares/aborts t1.
  // The purge (S1 -> S2) is delivered BEFORE the request (S0 -> S2): the
  // request must die on the tombstone instead of occupying the resource.
  Rig rig(3);
  const ResourceId r = res_at(2, 0, 3);
  rig.c(0).lock(t1, r, LockMode::kWrite);  // request S0 -> S2 in flight
  rig.c(1).abort(t1);                      // purge broadcast from S1
  rig.deliver_one(1, 2);                   // purge overtakes
  rig.deliver_one(0, 2);                   // zombie request arrives
  EXPECT_FALSE(rig.c(2).locks().holds(r, t1));
  EXPECT_EQ(rig.c(2).locks().queue_depth(r), 0u);
  // And a second transaction can take the resource.
  rig.deliver_all();
  rig.c(2).lock(t2, r, LockMode::kWrite);
  EXPECT_TRUE(rig.c(2).locks().holds(r, t2));
}

TEST(ControllerRegression, LocalLockAfterLocalAbortRefused) {
  // The declaring controller itself must refuse later lock calls for the
  // victim (its home may not have heard yet and may keep driving it).
  Rig rig(2);
  const ResourceId r = res_at(0, 0, 2);
  rig.c(0).lock(t1, r, LockMode::kWrite);
  rig.c(0).abort(t1);
  EXPECT_FALSE(rig.c(0).lock(t1, res_at(0, 1, 2), LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).locks().holds(res_at(0, 1, 2), t1));
}

TEST(ControllerRegression, GrantCrossingHomeAbortIsDropped) {
  // t1 (home S0) is granted rB at S1, but S0 aborts t1 while the grant is
  // in flight.  The grant must leave no trace at S0: no grant callback and
  // no remote holding (which would make the aborted t1 look like a lock
  // holder).  S0's purge releases rB at S1.
  Rig rig(2);
  const ResourceId rB = res_at(1, 0, 2);
  std::vector<TransactionId> granted;
  rig.on_grant_at(0, [&granted](TransactionId txn, ResourceId) {
    granted.push_back(txn);
  });
  rig.c(0).lock(t1, rB, LockMode::kWrite);  // request S0 -> S1
  rig.deliver_one(0, 1);                    // granted at S1; grant in flight
  ASSERT_TRUE(rig.c(1).locks().holds(rB, t1));
  rig.c(0).abort(t1);  // purge S0 -> S1 queued behind nothing on that wire
  std::uint64_t before = 0;
  rig.c(0).mix_state_hash(before);
  rig.deliver_one(1, 0);  // the grant lands on the tombstone
  std::uint64_t after = 0;
  rig.c(0).mix_state_hash(after);
  EXPECT_EQ(after, before);
  EXPECT_TRUE(granted.empty());
  EXPECT_EQ(rig.c(0).stats().grants_received, 1u);
  EXPECT_TRUE(rig.c(0).pending_remote_sites(t1).empty());
  rig.deliver_all();  // the purge releases rB
  EXPECT_FALSE(rig.c(1).locks().holds(rB, t1));
}

// ---- probe computation: two-site deadlock -----------------------------------------

/// Builds the canonical cross-site deadlock:
///   t1 (home S0) holds rA@S0, waits rB@S1 (queued).
///   t2 (home S1) holds rB@S1, waits rA@S0 (queued).
void build_cross_deadlock(Rig& rig, ResourceId& rA, ResourceId& rB) {
  rA = res_at(0, 0, 2);
  rB = res_at(1, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t2, rB, LockMode::kWrite));
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.c(1).lock(t2, rA, LockMode::kWrite);
  rig.deliver_all();
}

TEST(ControllerProbe, CrossSiteDeadlockDetectedFromEitherSide) {
  for (const std::uint32_t initiator : {0u, 1u}) {
    Rig rig(2);
    ResourceId rA, rB;
    build_cross_deadlock(rig, rA, rB);
    const TransactionId target = initiator == 0 ? t1 : t2;
    ASSERT_TRUE(rig.c(initiator).initiate_for(target).has_value());
    rig.deliver_all();
    ASSERT_EQ(rig.declared().size(), 1u) << "initiator " << initiator;
    // Both hold one lock, so the tie goes to the younger t2, whichever
    // side initiates.
    EXPECT_EQ(rig.declared()[0].victim, t2);
    EXPECT_EQ(rig.declared()[0].site, SiteId{initiator});
  }
}

TEST(ControllerProbe, CycleInitiatedFromBothSidesAbortsOnlyTheYoungest) {
  // Both sites start a computation for their own blocked process in the
  // same step.  Both walks close on the same cycle and elect t2, so t1
  // survives and ends up holding both resources.
  DdbOptions o = Rig::manual_options();
  o.abort_victim = true;
  Rig rig(2, o);
  std::vector<TransactionId> aborted;
  for (const std::uint32_t s : {0u, 1u}) {
    rig.on_abort_at(s, [&aborted](TransactionId t) { aborted.push_back(t); });
  }
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  ASSERT_TRUE(rig.c(1).initiate_for(t2).has_value());
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  for (const auto& d : rig.declared()) EXPECT_EQ(d.victim, t2);
  for (const TransactionId t : aborted) EXPECT_EQ(t, t2);
  EXPECT_TRUE(rig.c(0).locks().holds(rA, t1));
  EXPECT_TRUE(rig.c(1).locks().holds(rB, t1));
  EXPECT_FALSE(rig.c(0).blocked(t1));
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
}

TEST(ControllerProbe, VictimAlreadyAbortedHereIsDeclaredWithoutASecondAbort) {
  // Ring t1 -> t5 -> t3 -> t1 over three sites; S0's walk for t1 elects
  // t5.  t5 is aborted at S1 after the probe passed it, and that purge
  // reaches S0 before the walk closes there (through S2).  S0 still
  // declares t5 but must not abort it again: no second purge broadcast, no
  // second count in aborts_executed.
  DdbOptions o = Rig::manual_options();
  o.abort_victim = true;
  Rig rig(3, o);
  const ResourceId rA = res_at(0, 0, 3);
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t5, rB, LockMode::kWrite));
  ASSERT_TRUE(rig.c(2).lock(t3, rC, LockMode::kWrite));
  rig.c(0).lock(t1, rB, LockMode::kWrite);  // t1 waits t5
  rig.c(1).lock(t5, rC, LockMode::kWrite);  // t5 waits t3
  rig.c(2).lock(t3, rA, LockMode::kWrite);  // t3 waits t1
  rig.deliver_all();

  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_one(0, 1);  // S1 forwards along t5's request to S2
  rig.deliver_one(1, 2);  // S2 forwards along t3's request to S0
  ASSERT_EQ(rig.pending(2, 0), 1u);
  rig.c(1).abort(t5);     // grants rB to t1, then broadcasts the purge
  ASSERT_EQ(rig.pending(1, 0), 2u);
  rig.deliver_one(1, 0);  // t1's grant
  rig.deliver_one(1, 0);  // the purge tombstones t5 at S0
  rig.deliver_one(2, 0);  // the walk closes at S0
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t5);
  EXPECT_EQ(rig.declared()[0].site, SiteId{0});
  EXPECT_EQ(rig.c(0).stats().aborts_executed, 0u);
  EXPECT_EQ(rig.c(0).stats().purges_sent, 0u);
  EXPECT_EQ(rig.total_aborts(), 1u);
}

TEST(ControllerProbe, StaleWalkReArmsTheTargetsBlockCheck) {
  // t1 (home S0) holds rA and rD@S0 and waits for rB@S1 (held by t2) and
  // rC@S1 (held by t5); t2 waits for rA and t5 for rD.  Two cycles through
  // t1.  The walk through t2 closes first and elects t2, which its home has
  // already aborted, so the declaration resolves nothing new.  t1 still
  // sits on the cycle with t5; the re-armed block check must find it.
  //
  // t2 and t5 block first, on t1 still running, so S0's checks wait T.
  // t1's requests then queue at S1 behind blocked holders, so S1 starts a
  // computation at once for each; their probes are dropped.  Only S0's computation for
  // t1 runs, and no computation has reached t1's home agent.
  DdbOptions o;
  o.initiation = DdbInitiation::kDelayed;
  o.abort_victim = true;
  Rig rig(2, o);
  const ResourceId rA = res_at(0, 0, 2);
  const ResourceId rD = res_at(0, 1, 2);
  const ResourceId rB = res_at(1, 0, 2);
  const ResourceId rC = res_at(1, 1, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t1, rD, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t2, rB, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t5, rC, LockMode::kWrite));
  rig.c(1).lock(t2, rA, LockMode::kWrite);
  rig.c(1).lock(t5, rD, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_EQ(rig.c(0).stats().computations_initiated, 0u);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.c(0).lock(t1, rC, LockMode::kWrite);
  rig.settle_dropping_probes();
  ASSERT_EQ(rig.c(1).stats().eager_initiations, 2u);
  rig.drop_timers();  // only t1's computation runs
  ASSERT_EQ(rig.oracle_deadlocked(),
            (std::vector<TransactionId>{t1, t2, t5}));

  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_one(0, 1);  // S1 forwards along t2's, then t5's request
  ASSERT_EQ(rig.pending(1, 0), 2u);
  rig.c(1).abort(t2);     // t2's purge queues behind both probes
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  EXPECT_EQ(rig.declared()[0].victim, t2);
  ASSERT_EQ(rig.oracle_deadlocked(), (std::vector<TransactionId>{t1, t5}));

  rig.fire_timers();  // the re-armed check probes t1 again
  rig.deliver_all();
  EXPECT_EQ(rig.declared().back().victim, t5);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
  EXPECT_FALSE(rig.c(0).blocked(t1));
  EXPECT_TRUE(rig.c(1).locks().holds(rB, t1));
  EXPECT_TRUE(rig.c(1).locks().holds(rC, t1));
}

// ---- victim election: fewest locks held, then youngest ---------------------

/// build_cross_deadlock() with extra locks taken first: t1 also holds
/// `extra_t1` resources at S0 and t2 `extra_t2` at S1.
void build_weighted_cross_deadlock(Rig& rig, std::uint32_t extra_t1,
                                   std::uint32_t extra_t2, ResourceId& rA,
                                   ResourceId& rB) {
  for (std::uint32_t k = 1; k <= extra_t1; ++k) {
    ASSERT_TRUE(rig.c(0).lock(t1, res_at(0, k, 2), LockMode::kWrite));
  }
  for (std::uint32_t k = 1; k <= extra_t2; ++k) {
    ASSERT_TRUE(rig.c(1).lock(t2, res_at(1, k, 2), LockMode::kWrite));
  }
  build_cross_deadlock(rig, rA, rB);
}

TEST(ControllerElection, FewerLocksElectedWhicheverSideInitiates) {
  // t2 is the younger but holds two locks (rB and another), t1 one.  Every
  // site reads the same counts: each home counts its grants, and t1's
  // request carried its count to S1, t2's to S0.
  for (const std::uint32_t initiator : {0u, 1u}) {
    Rig rig(2);
    ResourceId rA, rB;
    build_weighted_cross_deadlock(rig, 0, 1, rA, rB);
    EXPECT_EQ(rig.c(0).lock_count(t1), 1u);
    EXPECT_EQ(rig.c(1).lock_count(t1), 1u);
    EXPECT_EQ(rig.c(1).lock_count(t2), 2u);
    EXPECT_EQ(rig.c(0).lock_count(t2), 2u);
    const TransactionId target = initiator == 0 ? t1 : t2;
    ASSERT_TRUE(rig.c(initiator).initiate_for(target).has_value());
    rig.deliver_all();
    ASSERT_EQ(rig.declared().size(), 1u) << "initiator " << initiator;
    EXPECT_EQ(rig.declared()[0].victim, t1) << "initiator " << initiator;
    EXPECT_EQ(rig.declared()[0].site, SiteId{initiator});
  }
}

TEST(ControllerElection, BothSidesAbortOnlyTheMemberHoldingFewerLocks) {
  // Both sites start a computation in the same step; every declaration
  // names t1, so t2 survives and ends up holding rA too.
  DdbOptions o = Rig::manual_options();
  o.abort_victim = true;
  Rig rig(2, o);
  std::vector<TransactionId> aborted;
  for (const std::uint32_t s : {0u, 1u}) {
    rig.on_abort_at(s, [&aborted](TransactionId t) { aborted.push_back(t); });
  }
  ResourceId rA, rB;
  build_weighted_cross_deadlock(rig, 0, 1, rA, rB);
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  ASSERT_TRUE(rig.c(1).initiate_for(t2).has_value());
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  for (const auto& d : rig.declared()) EXPECT_EQ(d.victim, t1);
  ASSERT_FALSE(aborted.empty());
  for (const TransactionId t : aborted) EXPECT_EQ(t, t1);
  EXPECT_TRUE(rig.c(0).locks().holds(rA, t2));
  EXPECT_TRUE(rig.c(1).locks().holds(rB, t2));
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
}

TEST(ControllerElection, TieGoesToTheYoungest) {
  // Both hold three locks: the younger t2 is elected, whichever side
  // initiates.
  for (const std::uint32_t initiator : {0u, 1u}) {
    Rig rig(2);
    ResourceId rA, rB;
    build_weighted_cross_deadlock(rig, 2, 2, rA, rB);
    ASSERT_EQ(rig.c(0).lock_count(t1), 3u);
    ASSERT_EQ(rig.c(1).lock_count(t2), 3u);
    const TransactionId target = initiator == 0 ? t1 : t2;
    ASSERT_TRUE(rig.c(initiator).initiate_for(target).has_value());
    rig.deliver_all();
    ASSERT_EQ(rig.declared().size(), 1u) << "initiator " << initiator;
    EXPECT_EQ(rig.declared()[0].victim, t2) << "initiator " << initiator;
  }
}

TEST(ControllerElection, HoldersAreKeyedOnlyWhereTheyWait) {
  // t3 (home S1) queued for rZ@S0 behind t1 while it held nothing, so S0
  // stored a count of 0; t1 commits, and t3 takes rZ, then rV and rU at
  // home: three locks.  t2 (home S0) holds rW@S1.  Then t2 waits for rZ,
  // which t3 only holds at S0, and t3 waits for rW at S1: a cycle.  At S0
  // t3 is no candidate -- the count stored there is stale -- and its own
  // count joins the walk at its home, where it waits.  t2, with one lock,
  // is elected.
  Rig rig(2);
  const ResourceId rZ = res_at(0, 0, 2);
  const ResourceId rW = res_at(1, 0, 2);
  const ResourceId rV = res_at(1, 1, 2);
  const ResourceId rU = res_at(1, 2, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rZ, LockMode::kWrite));
  rig.c(1).lock(t3, rZ, LockMode::kWrite);
  rig.deliver_all();
  rig.c(0).finish(t1);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).locks().holds(rZ, t3));
  ASSERT_TRUE(rig.c(1).lock(t3, rV, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t3, rU, LockMode::kWrite));
  rig.c(0).lock(t2, rW, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().holds(rW, t2));
  rig.c(0).lock(t2, rZ, LockMode::kWrite);  // t2 waits on t3's holding
  rig.c(1).lock(t3, rW, LockMode::kWrite);  // t3 waits on t2's holding
  rig.deliver_all();
  ASSERT_EQ(rig.oracle_deadlocked(), (std::vector<TransactionId>{t2, t3}));
  EXPECT_EQ(rig.c(0).lock_count(t3), 0u);  // stale: t3 no longer waits here
  EXPECT_EQ(rig.c(1).lock_count(t3), 3u);
  EXPECT_EQ(rig.c(0).lock_count(t2), 1u);

  ASSERT_TRUE(rig.c(0).initiate_for(t2).has_value());
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  for (const auto& d : rig.declared()) EXPECT_EQ(d.victim, t2);
}

TEST(ControllerElection, TwoOutstandingRequestsNeverElectOffTheWalk) {
  // t5 (home S0) holds rA@S0 and asks S2 for rC, held by t2, and S1 for
  // the free rB in the same step: both requests carry one lock.  rB is
  // granted, so t5's home counts two while S2 still reads one -- t5 is
  // blocked while granted, the one case where its count moves while it
  // waits.  t2 (home S2, holding rC) then asks S0 for rA.  However the
  // counts differ, every walk of t5 -> t2 -> t5 passes both of t5's
  // agents, and each election names a member of the walk; the counts can
  // cost at most a second victim, never one off the cycle.
  DdbOptions o = Rig::manual_options();
  o.abort_victim = true;
  Rig rig(3, o);
  const ResourceId rA = res_at(0, 0, 3);
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  ASSERT_TRUE(rig.c(0).lock(t5, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(2).lock(t2, rC, LockMode::kWrite));
  rig.c(0).lock(t5, rC, LockMode::kWrite);
  rig.c(0).lock(t5, rB, LockMode::kWrite);
  rig.c(2).lock(t2, rA, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().holds(rB, t5));
  ASSERT_EQ(rig.oracle_deadlocked(), (std::vector<TransactionId>{t2, t5}));
  EXPECT_EQ(rig.c(0).lock_count(t5), 2u);
  EXPECT_EQ(rig.c(2).lock_count(t5), 1u);
  EXPECT_EQ(rig.c(0).lock_count(t2), 1u);

  ASSERT_TRUE(rig.c(0).initiate_for(t5).has_value());
  ASSERT_TRUE(rig.c(0).initiate_for(t2).has_value());
  ASSERT_TRUE(rig.c(2).initiate_for(t2).has_value());
  ASSERT_TRUE(rig.c(2).initiate_for(t5).has_value());
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  for (const auto& d : rig.declared()) {
    EXPECT_TRUE(d.victim == t2 || d.victim == t5) << d.victim;
  }
  EXPECT_GE(rig.total_aborts(), 1u);
  EXPECT_LE(rig.total_aborts(), 2u);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
}

// ---- following a re-blocked transaction ----------------------------------------

/// Delayed initiation, T = 5 ms; the rig's timers never fire in these tests
/// unless a test says so.
DdbOptions follow_options() {
  DdbOptions o;
  o.initiation = DdbInitiation::kDelayed;
  o.initiation_delay = SimTime::ms(5);
  o.abort_victim = true;
  return o;
}

struct ReachedCloser {
  static constexpr std::uint32_t kSites = 3;
  ResourceId rA;  // @S0, held by t5
  ResourceId rB;  // @S1, held by t2
  ResourceId rC;  // @S1, held by t3; t5 waits for it
  ResourceId rH;  // @S2, held by t2
  DdbProbeTag tag;
};

/// On a rig of ReachedCloser::kSites sites: t5 (home S0) holds rA@S0 and
/// waits for rC@S1, held by t3 (home S1, on no cycle).  t2 (home S2) holds
/// rH@S2 and rB@S1 and waits for rA@S0.  S2's computation for t2 reaches
/// t5's home agent through t2's wait at S0, follows t5's request to S1 and
/// dies at t3.  No cycle exists yet; t5 asking S1 for rB would close
/// t2 -> t5 -> t2.  Once t5 is granted rC, both hold two locks, and the
/// election's tie goes to the younger t5.
///
/// Every wait here is on a transaction running at its home, where it
/// holds, so no check starts a computation before T: t2 blocks while t5
/// still runs, and t5 queues behind t3 at t3's home.
ReachedCloser build_reached_closer(Rig& rig) {
  const std::uint32_t n = ReachedCloser::kSites;
  ReachedCloser rc{res_at(0, 0, n), res_at(1, 0, n), res_at(1, 1, n),
                   res_at(2, 0, n), DdbProbeTag{}};
  EXPECT_TRUE(rig.c(0).lock(t5, rc.rA, LockMode::kWrite));
  EXPECT_TRUE(rig.c(1).lock(t3, rc.rC, LockMode::kWrite));
  EXPECT_TRUE(rig.c(2).lock(t2, rc.rH, LockMode::kWrite));
  rig.c(2).lock(t2, rc.rB, LockMode::kWrite);
  rig.deliver_all();
  EXPECT_TRUE(rig.c(1).locks().holds(rc.rB, t2));
  rig.c(2).lock(t2, rc.rA, LockMode::kWrite);  // t2 waits t5
  rig.deliver_all();
  rig.c(0).lock(t5, rc.rC, LockMode::kWrite);  // t5 waits t3
  rig.deliver_all();
  for (std::uint32_t s = 0; s < n; ++s) {
    EXPECT_EQ(rig.c(s).stats().computations_initiated, 0u) << "site " << s;
  }
  rig.drop_timers();  // only the computation started below runs
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
  const std::optional<DdbProbeTag> tag = rig.c(2).initiate_for(t2);
  EXPECT_TRUE(tag.has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.declared().empty());
  rc.tag = tag.value_or(DdbProbeTag{});
  return rc;
}

TEST(ControllerFollow, ReBlockClosingACycleIsDeclaredBeforeTheClosersCheck) {
  // t3 commits and t5, granted rC, asks S1 for rB.  The request's
  // follow-up probe reaches t2 at S1 and declares S2's walk there at once,
  // ahead of t5's own computation, whose probe queues behind it.  On the
  // walk t2 -> t5 -> t2 both hold two locks, so the victim is the younger
  // t5.
  Rig rig(ReachedCloser::kSites, follow_options());
  const ReachedCloser rc = build_reached_closer(rig);
  rig.c(1).finish(t3);
  rig.deliver_all();
  ASSERT_FALSE(rig.c(0).blocked(t5));
  ASSERT_TRUE(rig.c(0).locks().holds(rc.rA, t5));

  rig.c(0).lock(t5, rc.rB, LockMode::kWrite);
  rig.deliver_all();  // no timer fires
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t5);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].tag, rc.tag);
  EXPECT_EQ(rig.c(0).stats().reaches_followed, 1u);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
  EXPECT_TRUE(rig.c(1).locks().holds(rc.rB, t2));
  EXPECT_TRUE(rig.c(0).locks().holds(rc.rA, t2));
}

TEST(ControllerFollow, FollowKeysTheReBlockedTransactionWithItsCurrentCount) {
  // The reach at t5's home agent was recorded while t5 held one lock.  t3
  // commits, and t5 takes rC and rG before asking S1 for rB: it now holds
  // three, t2 two.  The follow resumes from the candidate the walk had
  // before t5 and keys t5 with its current count, so the probe behind the
  // request names t2, and every site that closes the walk declares t2.
  Rig rig(ReachedCloser::kSites, follow_options());
  const ReachedCloser rc = build_reached_closer(rig);
  rig.c(1).finish(t3);
  rig.deliver_all();
  const ResourceId rG = res_at(0, 1, ReachedCloser::kSites);
  ASSERT_TRUE(rig.c(0).lock(t5, rG, LockMode::kWrite));
  ASSERT_EQ(rig.c(0).lock_count(t5), 3u);
  ASSERT_EQ(rig.c(2).lock_count(t2), 2u);

  rig.c(0).lock(t5, rc.rB, LockMode::kWrite);
  EXPECT_EQ(rig.c(0).stats().reaches_followed, 1u);
  const std::deque<Bytes> frames = rig.take_channel(0, 1);
  ASSERT_GE(frames.size(), 2u);
  const auto request = decode(frames[0]);
  const auto probe = decode(frames[1]);
  ASSERT_TRUE(request.ok() && probe.ok());
  ASSERT_TRUE(std::holds_alternative<RemoteLockRequestMsg>(*request));
  EXPECT_EQ(std::get<RemoteLockRequestMsg>(*request).held, 3u);
  ASSERT_TRUE(std::holds_alternative<DdbProbeMsg>(*probe));
  const auto& msg = std::get<DdbProbeMsg>(*probe);
  EXPECT_EQ(msg.tag, rc.tag);
  EXPECT_EQ(msg.candidate, t2);
  EXPECT_EQ(msg.candidate_held, 2u);
  for (const Bytes& frame : frames) rig.inject(0, 1, frame);
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].tag, rc.tag);
  for (const auto& d : rig.declared()) EXPECT_EQ(d.victim, t2);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
  EXPECT_TRUE(rig.c(1).locks().holds(rc.rB, t5));
}

TEST(ControllerFollow, NothingIsFollowedAfterCommitOrAbort) {
  // A transaction's reaches end with it.  After t5 commits, a request
  // under its id continues nothing; after its abort the tombstone refuses
  // the request.
  for (const bool commit : {true, false}) {
    Rig rig(ReachedCloser::kSites, follow_options());
    const ReachedCloser rc = build_reached_closer(rig);
    if (commit) {
      rig.c(0).finish(t5);
    } else {
      rig.c(0).abort(t5);
    }
    rig.deliver_all();
    const std::uint64_t probes = rig.c(0).stats().probes_sent;
    rig.c(0).lock(t5, rc.rB, LockMode::kWrite);
    rig.deliver_all();
    EXPECT_EQ(rig.c(0).stats().reaches_followed, 0u) << "commit " << commit;
    EXPECT_EQ(rig.c(0).stats().probes_sent, probes) << "commit " << commit;
    EXPECT_TRUE(rig.declared().empty()) << "commit " << commit;
  }
}

TEST(ControllerFollow, ReachBelowItsInitiatorsFloorIsNotFollowed) {
  // A probe of S2 carrying a floor above the recorded computation's
  // sequence reaches S0 (on an edge that is not black there).  The
  // computation is stale, so t5's re-block continues nothing: S0 sends the
  // request alone, and the cycle it closes at S1 waits for a fresh
  // computation.  (S1 starts one as the request queues behind t2, which
  // only holds there; its probes are still in flight when the cycle is
  // checked.)
  Rig rig(ReachedCloser::kSites, follow_options());
  const ReachedCloser rc = build_reached_closer(rig);
  const std::uint64_t floor = rc.tag.sequence + 1;
  const DdbProbeMsg newer{DdbProbeTag{SiteId{2}, floor}, floor, t3,
                          false, t3, 1, t3};
  rig.inject(2, 0, encode(newer));
  ASSERT_EQ(rig.c(0).stats().meaningful_probes, 1u);  // only rc.tag's
  rig.c(1).finish(t3);
  rig.deliver_all();

  rig.c(0).lock(t5, rc.rB, LockMode::kWrite);
  ASSERT_EQ(rig.pending(0, 1), 1u);
  rig.deliver_one(0, 1);  // the request
  EXPECT_EQ(rig.c(0).stats().reaches_followed, 0u);
  EXPECT_TRUE(rig.declared().empty());
  EXPECT_EQ(rig.oracle_deadlocked(), (std::vector<TransactionId>{t2, t5}));
  rig.fire_timers();  // t5's own check, T later
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  EXPECT_EQ(rig.declared()[0].victim, t5);
}

TEST(ControllerFollow, NewRequestToASiteAskedBeforeIsProbedAgain) {
  // The computation already probed t5's edge to S1 for rC.  t5's next
  // request to S1 is a new instance of that edge, so the follow probes it
  // again -- on the same channel, right behind the request.
  Rig rig(ReachedCloser::kSites, follow_options());
  const ReachedCloser rc = build_reached_closer(rig);
  rig.c(1).finish(t3);
  rig.deliver_all();
  const ResourceId rD = res_at(1, 2, ReachedCloser::kSites);  // free at S1

  rig.c(0).lock(t5, rD, LockMode::kWrite);
  EXPECT_EQ(rig.c(0).stats().reaches_followed, 1u);
  const std::deque<Bytes> frames = rig.take_channel(0, 1);
  ASSERT_GE(frames.size(), 2u);
  const auto request = decode(frames[0]);
  const auto probe = decode(frames[1]);
  ASSERT_TRUE(request.ok() && probe.ok());
  EXPECT_TRUE(std::holds_alternative<RemoteLockRequestMsg>(*request));
  ASSERT_TRUE(std::holds_alternative<DdbProbeMsg>(*probe));
  const auto& msg = std::get<DdbProbeMsg>(*probe);
  EXPECT_EQ(msg.tag, rc.tag);
  EXPECT_EQ(msg.txn, t5);
  for (const Bytes& frame : frames) rig.inject(0, 1, frame);
  rig.deliver_all();
  EXPECT_TRUE(rig.c(1).locks().holds(rD, t5));
  EXPECT_TRUE(rig.declared().empty());
}

// ---- starting a reached transaction's computation at once ---------------------

TEST(ControllerEager, ReachedReBlockClosesACycleTheFollowsCannotBeforeT) {
  // t3 commits and t5, granted rC, takes rF@S0.  t6 (home S2) holds rE@S0;
  // t7 (home S1) holds rK and rL@S1.  t6 waits for rK, held by t7, and t7
  // waits for rF, held by t5; then t5 asks for rE.  The cycle t5 -> t6 ->
  // t7 -> t5 does not pass through t2 (t7 does not queue behind t2 for
  // rA), so the followed computation of t2 cannot close it.  t5 waits on
  // t6, homed at S2, so its own computation starts at once (DESIGN.md
  // section 4b, note 7) and closes it at S0, where t7 waits on t5; no timer
  // fires.  The victim is t6, which holds
  // one lock to t7's two and t5's three.  (t6 and t7 block while the
  // transactions they wait on run at their homes, so no other check starts
  // before T.  t5's block is local: a request to another site would start
  // a computation there too, where the cycle closes first.)
  Rig rig(ReachedCloser::kSites, follow_options());
  build_reached_closer(rig);
  const TransactionId t6{6};
  const TransactionId t7{7};
  const ResourceId rE = res_at(0, 1, ReachedCloser::kSites);
  const ResourceId rF = res_at(0, 2, ReachedCloser::kSites);
  const ResourceId rK = res_at(1, 2, ReachedCloser::kSites);
  const ResourceId rL = res_at(1, 3, ReachedCloser::kSites);
  rig.c(2).lock(t6, rE, LockMode::kWrite);
  ASSERT_TRUE(rig.c(1).lock(t7, rK, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t7, rL, LockMode::kWrite));
  rig.c(1).finish(t3);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).locks().holds(rE, t6));
  ASSERT_FALSE(rig.c(0).blocked(t5));
  ASSERT_TRUE(rig.c(0).lock(t5, rF, LockMode::kWrite));
  rig.c(2).lock(t6, rK, LockMode::kWrite);
  rig.deliver_all();
  rig.c(1).lock(t7, rF, LockMode::kWrite);
  rig.deliver_all();
  rig.drop_timers();
  ASSERT_TRUE(rig.c(0).locks().queued_from(t7, SiteId{1}));

  rig.c(0).lock(t5, rE, LockMode::kWrite);
  EXPECT_EQ(rig.c(0).stats().reaches_followed, 1u);
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 1u);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
  rig.deliver_all();  // no timer fires
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t6);
  EXPECT_EQ(rig.declared()[0].site, SiteId{0});
  EXPECT_EQ(rig.declared()[0].tag.initiator, SiteId{0});
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
  EXPECT_TRUE(rig.c(0).locks().holds(rE, t5));
}

TEST(ControllerEager, UnreachedBlockWaitsForT) {
  // t5, granted rC, takes rG@S0, and t1 (home S0) queues behind it.  t5
  // runs, so t1's computation waits T.  So does t5's when it blocks again
  // on S1, although computations have reached t5's home agent: a reach
  // starts no computation, it is only followed along the new request.  (t1 queues
  // for rG, not rA: behind t2's queued request for rA it would wait on a
  // blocked transaction and start at once.)
  Rig rig(ReachedCloser::kSites, follow_options());
  build_reached_closer(rig);
  rig.c(1).finish(t3);
  rig.deliver_all();
  rig.drop_timers();
  const ResourceId rG = res_at(0, 1, ReachedCloser::kSites);
  ASSERT_TRUE(rig.c(0).lock(t5, rG, LockMode::kWrite));

  rig.c(0).lock(t1, rG, LockMode::kWrite);
  EXPECT_TRUE(rig.c(0).blocked(t1));
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 0u);
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 0u);
  rig.fire_timers();  // t1's check, T later
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);

  const std::uint64_t followed = rig.c(0).stats().reaches_followed;
  rig.c(0).lock(t5, res_at(1, 2, ReachedCloser::kSites), LockMode::kWrite);
  EXPECT_GT(rig.c(0).stats().reaches_followed, followed);
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 0u);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
  rig.fire_timers();  // t5's check, T later
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 2u);
}

TEST(ControllerEager, ReachedWaiterReArmedByAGrantReshuffleWaitsForT) {
  // At S0: t5 holds rA and t7 holds rF; t2 (home S1) queues for rA; t6
  // holds rE, and t7 (read) and t5 (write) queue for it.  S1's computation
  // for t2 reaches t5's home agent.  When t6 commits, t7 is granted and t5
  // now waits on t7: no lock() call, but t5's check is re-armed.  t7 then
  // runs at its home here, so the check waits T, reach or no reach, and
  // starts a second computation when it fires.
  //
  // t2 queues while t5 still runs, so S0 starts nothing for it.  t5 and t7
  // hold one lock each, so t5 queues behind t7's earlier request (equal
  // counts keep their arrival order) and its first check starts a
  // computation at once.
  Rig rig(2, follow_options());
  const TransactionId t6{6};
  const TransactionId t7{7};
  const ResourceId rA = res_at(0, 0, 2);
  const ResourceId rE = res_at(0, 1, 2);
  const ResourceId rF = res_at(0, 2, 2);
  ASSERT_TRUE(rig.c(0).lock(t5, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t7, rF, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t6, rE, LockMode::kWrite));
  rig.c(1).lock(t2, rA, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_EQ(rig.c(0).stats().computations_initiated, 0u);
  EXPECT_FALSE(rig.c(0).lock(t7, rE, LockMode::kRead));
  EXPECT_FALSE(rig.c(0).lock(t5, rE, LockMode::kWrite));
  rig.deliver_all();
  rig.drop_timers();
  ASSERT_EQ(rig.c(0).stats().eager_initiations, 1u);
  ASSERT_EQ(rig.c(0).stats().computations_initiated, 1u);
  ASSERT_TRUE(rig.c(1).initiate_for(t2).has_value());
  rig.deliver_all();
  ASSERT_EQ(rig.c(0).stats().meaningful_probes, 1u);
  ASSERT_EQ(rig.c(0).stats().computations_initiated, 1u);

  rig.c(0).finish(t6);
  ASSERT_TRUE(rig.c(0).locks().holds(rE, t7));
  ASSERT_TRUE(rig.c(0).blocked(t5));
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 1u);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
  rig.fire_timers();  // the re-armed check, T later
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 2u);
  rig.deliver_all();
  EXPECT_TRUE(rig.declared().empty());
}

TEST(ControllerEager, WaitOnARemoteHolderStartsAtOnce) {
  // t3 commits and t5, reached at its home S0, asks S1 for rB, held by
  // t2.  S0 cannot see what t5 waits on there, so its check waits T.  At
  // S1 the forwarded request queues behind t2, which only holds there, for
  // its home S2: S1 cannot see whether t2 waits, so it starts its own
  // computation at once, and probes t2's release-wait edge ahead of the
  // follow's probe.  That computation closes t5 -> t2 -> t5 before any
  // timer fires.
  Rig rig(ReachedCloser::kSites, follow_options());
  const ReachedCloser rc = build_reached_closer(rig);
  rig.c(1).finish(t3);
  rig.deliver_all();
  rig.drop_timers();
  const std::uint64_t s1_computations =
      rig.c(1).stats().computations_initiated;

  rig.c(0).lock(t5, rc.rB, LockMode::kWrite);
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 0u);
  rig.deliver_one(0, 1);  // the request alone; the probe stays queued
  ASSERT_TRUE(rig.c(1).locks().queued_from(t5, SiteId{0}));
  EXPECT_EQ(rig.c(1).stats().eager_initiations, 1u);
  EXPECT_EQ(rig.c(1).stats().computations_initiated, s1_computations + 1);
  EXPECT_EQ(rig.c(1).stats().probes_sent, 1u);
  EXPECT_EQ(rig.pending(1, 2), 1u);
  rig.deliver_all();  // no timer fires
  ASSERT_FALSE(rig.declared().empty());
  for (const auto& d : rig.declared()) EXPECT_EQ(d.victim, t5);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
}

// ---- starting a wait on a blocked transaction at once -------------------------

TEST(ControllerEager, WaitOnABlockedTransactionStartsAtOnce) {
  // t1 (home S0) holds rA@S0 and waits for rB@S1, held by t2 (home S1),
  // which still runs: S1 queues t1's request and waits T.  Then t2 asks S0
  // for rA.  The request queues behind t1, which is blocked, so S0 starts
  // a computation at once, and it closes t1 -> t2 -> t1 with no timer
  // fired.  No computation had reached anyone.  Both hold one lock, so the
  // victim is the younger t2, declared at S1, where the walk first reaches
  // t2.
  Rig rig(2, follow_options());
  const ResourceId rA = res_at(0, 0, 2);
  const ResourceId rB = res_at(1, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t2, rB, LockMode::kWrite));
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().queued_from(t1, SiteId{0}));
  EXPECT_EQ(rig.c(1).stats().computations_initiated, 0u);

  rig.c(1).lock(t2, rA, LockMode::kWrite);
  EXPECT_EQ(rig.c(1).stats().computations_initiated, 0u);  // t2's: T
  rig.deliver_one(1, 0);  // the request
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 1u);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
  rig.deliver_all();  // no timer fires
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t2);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].tag.initiator, SiteId{0});
  EXPECT_EQ(rig.c(0).stats().reaches_followed, 0u);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
  EXPECT_TRUE(rig.c(1).locks().holds(rB, t1));
}

TEST(ControllerEager, WaitOnRunningTransactionsWaitsForT) {
  // t1 and t3 read rA@S0; t2 (home S1) asks S0 to write it.  The request
  // queues behind two running readers, and t2's home agent waits only on
  // the remote grant: no computation starts and no probe is sent until the
  // timers fire.
  Rig rig(2, follow_options());
  const ResourceId rA = res_at(0, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kRead));
  ASSERT_TRUE(rig.c(0).lock(t3, rA, LockMode::kRead));
  rig.c(1).lock(t2, rA, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).locks().queued_from(t2, SiteId{1}));
  for (std::uint32_t s = 0; s < 2; ++s) {
    EXPECT_EQ(rig.c(s).stats().computations_initiated, 0u) << "site " << s;
    EXPECT_EQ(rig.c(s).stats().eager_initiations, 0u) << "site " << s;
    EXPECT_EQ(rig.c(s).stats().probes_sent, 0u) << "site " << s;
  }

  rig.fire_timers();  // S0's check of (t2, S0) and S1's of t2's home agent
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
  EXPECT_EQ(rig.c(1).stats().computations_initiated, 1u);
  EXPECT_EQ(rig.c(1).stats().probes_sent, 1u);
  rig.deliver_all();
  EXPECT_TRUE(rig.declared().empty());
}

TEST(ControllerEager, RequestQueuedBehindAQueuedWaiterStartsAtOnce) {
  // FIFO queues: t1 holds rA@S0 and runs; t2 queues behind it and waits T;
  // t3 queues behind t2's conflicting request, so it waits on a blocked
  // transaction and starts its computation at once.
  Rig rig(2, follow_options());
  const ResourceId rA = res_at(0, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kRead));
  EXPECT_FALSE(rig.c(0).lock(t2, rA, LockMode::kWrite));
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 0u);
  EXPECT_FALSE(rig.c(0).lock(t3, rA, LockMode::kRead));
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 1u);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
  rig.fire_timers();  // t2's check, T later
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 2u);
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 1u);
  EXPECT_TRUE(rig.declared().empty());
}

TEST(ControllerProbe, InitiateForUnblockedProcessReturnsNothing) {
  Rig rig(2);
  ASSERT_TRUE(rig.c(0).lock(t1, res_at(0, 0, 2), LockMode::kWrite));
  EXPECT_EQ(rig.c(0).initiate_for(t1), std::nullopt);
}

TEST(ControllerProbe, NoCycleNoDeclaration) {
  // t1 waits on t2 (remote), t2 is active holding: no cycle.
  Rig rig(2);
  const ResourceId rB = res_at(1, 0, 2);
  ASSERT_TRUE(rig.c(1).lock(t2, rB, LockMode::kWrite));
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  EXPECT_TRUE(rig.declared().empty());
}

// ---- a request that overtakes waiters re-arms them ---------------------------------

TEST(ControllerEager, WaiterOvertakenByAQueuedRequestReArms) {
  // t1 holds rA@S0 and runs; t3 (no locks) queues for it and waits T.
  // t2, holding rB, asks for rA too and queues ahead of t3 (one lock
  // against none).  No block event of t3's, but it now waits on t2, which
  // is blocked here, so its re-armed check starts a computation at once.
  Rig rig(2, follow_options());
  const ResourceId rA = res_at(0, 0, 2);
  const ResourceId rB = res_at(0, 1, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t2, rB, LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).lock(t3, rA, LockMode::kWrite));
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 0u);

  EXPECT_FALSE(rig.c(0).lock(t2, rA, LockMode::kWrite));
  EXPECT_EQ(rig.c(0).locks().waiters(rA), (TxnList{t2, t3}));
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 1u);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
}

TEST(ControllerEager, WaiterOvertakenByAGrantedRemoteRequestReArms) {
  // t1 reads rA@S0 and runs; t3 (home S0, no locks) queues to write it and
  // waits T.  t2 (home S1) holds rB@S1 and asks S0 to read rA: one lock
  // against none, so the request goes ahead of t3's write and is granted
  // beside t1.  t3 now also waits on t2, an agent of a transaction homed
  // elsewhere, so its re-armed check starts a computation at once.
  Rig rig(2, follow_options());
  const ResourceId rA = res_at(0, 0, 2);
  const ResourceId rB = res_at(1, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kRead));
  EXPECT_FALSE(rig.c(0).lock(t3, rA, LockMode::kWrite));
  ASSERT_TRUE(rig.c(1).lock(t2, rB, LockMode::kWrite));
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 0u);

  rig.c(1).lock(t2, rA, LockMode::kRead);
  rig.deliver_one(1, 0);
  EXPECT_TRUE(rig.c(0).locks().holds(rA, t2));
  EXPECT_EQ(rig.c(0).locks().waiters(rA), (TxnList{t3}));
  EXPECT_EQ(rig.c(0).stats().eager_initiations, 1u);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 1u);
}

// ---- regression: degenerate release-wait bounce ------------------------------------

TEST(ControllerRegression, HoldHereWaitThereIsNotADeadlock) {
  // t1 (home S0) holds rB@S1 and separately waits for rC@S2 held by t2
  // (t2 active).  The agent pair (t1,S0) <-> (t1,S1) must not be declared
  // a cycle: the holding and the pending acquisition concern different
  // resources.
  Rig rig(3);
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().holds(rB, t1));
  ASSERT_TRUE(rig.c(2).lock(t2, rC, LockMode::kWrite));
  rig.c(0).lock(t1, rC, LockMode::kWrite);  // queues behind t2
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  // Also poke every other entry point.
  (void)rig.c(1).check_all();
  (void)rig.c(2).check_all();
  rig.deliver_all();
  EXPECT_TRUE(rig.declared().empty());
}

TEST(ControllerProbe, ReleaseWaitCycleDetected) {
  // The shape that NEEDS release-wait edges:
  //   t1 (home S0) holds rB@S1 (remote), waits rC@S2 (queued behind t2).
  //   t2 (home S2) holds rC@S2 (local), waits rB@S1 (queued behind t1).
  // Cycle: (t1,S0) -acq-> (t1,S2) -intra-> (t2,S2) -acq-> (t2,S1)
  //        -intra-> (t1,S1) -release-wait-> (t1,S0).
  Rig rig(3);
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(2).lock(t2, rC, LockMode::kWrite));
  rig.c(0).lock(t1, rC, LockMode::kWrite);  // t1 waits on t2
  rig.c(2).lock(t2, rB, LockMode::kWrite);  // t2 waits on t1 (via holding)
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  // S1, where t2 waits on t1's holding, declares before the walk returns
  // along the release-wait edge; S0 then declares the same victim.
  ASSERT_EQ(rig.declared().size(), 2u);
  for (const auto& d : rig.declared()) {
    EXPECT_EQ(d.victim, t2);  // one lock each: the younger
  }
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[1].site, SiteId{0});
}

// ---- early closure at the first site that reaches the target ------------------------

/// ControllerProbe.ReleaseWaitCycleDetected's picture over three sites:
///   t1 (home S0) holds rB@S1 (remote), waits rC@S2 (queued behind t2).
///   t2 (home S2) holds rC@S2 (local), waits rB@S1 (queued behind t1).
void build_release_wait_cycle(Rig& rig) {
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(1).locks().holds(rB, t1));
  ASSERT_TRUE(rig.c(2).lock(t2, rC, LockMode::kWrite));
  rig.c(0).lock(t1, rC, LockMode::kWrite);  // t1 waits on t2
  rig.c(2).lock(t2, rB, LockMode::kWrite);  // t2 waits on t1 (via holding)
  rig.deliver_all();
}

TEST(ControllerEarly, HolderSiteDeclaresBeforeTheWalkReturns) {
  // S0's walk for t1 reaches t1's agent at S1 through t2's wait on t1's
  // holding.  S1 declares t2 at once (both hold one lock, and t2 is the
  // younger); the probe along t1's release-wait edge back to S0 is still in
  // flight.  When it arrives, S0 closes the walk and declares t2 again.
  Rig rig(3);
  build_release_wait_cycle(rig);
  const std::optional<DdbProbeTag> tag = rig.c(0).initiate_for(t1);
  ASSERT_TRUE(tag.has_value());
  rig.deliver_one(0, 2);  // (t1,S0) -acq-> (t1,S2) -intra-> t2: on to S1
  rig.deliver_one(2, 1);  // (t2,S1) -intra-> (t1,S1)
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].victim, t2);
  EXPECT_EQ(rig.declared()[0].tag, *tag);
  EXPECT_EQ(rig.c(1).stats().early_closures, 1u);
  ASSERT_EQ(rig.pending(1, 0), 1u);  // the walk goes on

  rig.deliver_one(1, 0);
  ASSERT_EQ(rig.declared().size(), 2u);
  EXPECT_EQ(rig.declared()[1].site, SiteId{0});
  EXPECT_EQ(rig.declared()[1].victim, t2);
  EXPECT_EQ(rig.declared()[1].tag, *tag);
  EXPECT_EQ(rig.c(0).stats().early_closures, 0u);
}

TEST(ControllerEarly, EntryAlongTheTargetsOwnAcquisitionEdgeDeclaresNothing) {
  // The first hop of S0's walk enters t1's agent at S2 along t1's own
  // acquisition edge.  That is t1 waiting, not a wait on t1, so S2
  // declares nothing and probes on; the cycle is declared one hop later
  // at S1, where t2 waits on t1's holding.
  Rig rig(3);
  build_release_wait_cycle(rig);
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_one(0, 2);
  EXPECT_TRUE(rig.declared().empty());
  EXPECT_EQ(rig.c(2).stats().meaningful_probes, 1u);
  EXPECT_EQ(rig.c(2).stats().early_closures, 0u);
  ASSERT_EQ(rig.pending(2, 1), 1u);
  rig.deliver_one(2, 1);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
}

TEST(ControllerEarly, NonHomeAgentComputationClosesWhereItsTransactionHolds) {
  // S2 checks t1's forwarded request queued there (t1's home is S0).  The
  // walk runs t1 -> t2 at S2, along t2's request to S1, and there t2 waits
  // on t1's holding: S1 declares.  The walk then enters t1's home agent at
  // S0 along t1's own release-wait edge, which declares nothing, and
  // returns along t1's request to S2, where the initiator closes it.
  Rig rig(3);
  build_release_wait_cycle(rig);
  const std::optional<DdbProbeTag> tag = rig.c(2).initiate_for(t1);
  ASSERT_TRUE(tag.has_value());
  rig.deliver_one(2, 1);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].victim, t2);
  rig.deliver_one(1, 0);
  EXPECT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.c(0).stats().early_closures, 0u);
  rig.deliver_one(0, 2);
  ASSERT_EQ(rig.declared().size(), 2u);
  EXPECT_EQ(rig.declared()[1].site, SiteId{2});
  EXPECT_EQ(rig.declared()[1].victim, t2);
  EXPECT_EQ(rig.declared()[1].tag, *tag);
}

TEST(ControllerEarly, EachSiteDeclaresAComputationOnce) {
  // t1 (home S0) holds rB@S1 and waits for rC@S2, read-held by t2 and t4
  // (home S2), which both queue for rB at S1.  S0's walk branches at S2
  // and enters S1 twice, each time reaching t1's agent: S1 declares the
  // first arrival's candidate only, and S0 closes the walk once.
  Rig rig(3);
  const TransactionId t4{4};
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rC = res_at(2, 0, 3);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(2).lock(t2, rC, LockMode::kRead));
  ASSERT_TRUE(rig.c(2).lock(t4, rC, LockMode::kRead));
  rig.c(0).lock(t1, rC, LockMode::kWrite);
  rig.c(2).lock(t2, rB, LockMode::kWrite);
  rig.c(2).lock(t4, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_one(0, 2);
  ASSERT_EQ(rig.pending(2, 1), 2u);
  rig.deliver_one(2, 1);
  rig.deliver_one(2, 1);
  EXPECT_EQ(rig.c(1).stats().meaningful_probes, 2u);
  EXPECT_EQ(rig.c(1).stats().early_closures, 1u);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].victim, t2);
  rig.deliver_all();
  ASSERT_EQ(rig.declared().size(), 2u);
  EXPECT_EQ(rig.declared()[1].site, SiteId{0});
}

TEST(ControllerEarly, DeclarationThatStartsAComputationKeepsWalking) {
  // Cycle t1 -> t7 -> t3 -> t1: t1 (home S0) holds rF@S0 and rB@S1 and
  // waits for rC@S2, held by t7; t7 (home S2) waits for rE@S2, held by t3;
  // t3 (home S2) holds rG@S2 too and waits for rB.  t7 also holds rX@S1,
  // for which t5 and then t6 (both home S1) queue.  S0's walk reaches t1's
  // agent at S1 through t3's wait and S1 declares t7: all three hold two
  // locks, and the tie goes to the youngest.  The abort grants rX to t5 and
  // re-arms t6, whose check (T = 0) starts a computation inside the
  // declaration.  The walk then goes on from t3 along t1's release-wait
  // edge; S0 closes it behind t7's purge and does not abort t7 again.
  DdbOptions o;
  o.initiation = DdbInitiation::kDelayed;
  o.initiation_delay = SimTime::zero();
  o.abort_victim = true;
  Rig rig(3, o);
  const TransactionId t6{6};
  const TransactionId t7{7};
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rX = res_at(1, 1, 3);
  const ResourceId rC = res_at(2, 0, 3);
  const ResourceId rE = res_at(2, 1, 3);
  const ResourceId rF = res_at(0, 0, 3);
  const ResourceId rG = res_at(2, 2, 3);
  ASSERT_TRUE(rig.c(0).lock(t1, rF, LockMode::kWrite));
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.c(2).lock(t7, rX, LockMode::kWrite);
  ASSERT_TRUE(rig.c(2).lock(t7, rC, LockMode::kWrite));
  ASSERT_TRUE(rig.c(2).lock(t3, rG, LockMode::kWrite));
  ASSERT_TRUE(rig.c(2).lock(t3, rE, LockMode::kWrite));
  rig.settle_dropping_probes();
  rig.c(1).lock(t5, rX, LockMode::kWrite);
  rig.c(1).lock(t6, rX, LockMode::kWrite);
  rig.c(0).lock(t1, rC, LockMode::kWrite);
  rig.c(2).lock(t7, rE, LockMode::kWrite);
  rig.c(2).lock(t3, rB, LockMode::kWrite);
  rig.settle_dropping_probes();
  ASSERT_EQ(rig.oracle_deadlocked(), (std::vector<TransactionId>{t1, t3, t7}));
  ASSERT_TRUE(rig.declared().empty());

  const std::optional<DdbProbeTag> tag = rig.c(0).initiate_for(t1);
  ASSERT_TRUE(tag.has_value());
  rig.deliver_one(0, 2);  // t1 -> t7 -> t3 at S2: on along t3's request
  ASSERT_EQ(rig.pending(2, 1), 1u);
  const std::uint64_t s1_computations =
      rig.c(1).stats().computations_initiated;
  rig.deliver_one(2, 1);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].victim, t7);
  EXPECT_TRUE(rig.c(1).locks().holds(rX, t5));
  EXPECT_EQ(rig.c(1).stats().computations_initiated, s1_computations + 1);
  // Purge first, then the continued walk, on the same channel.
  ASSERT_EQ(rig.pending(1, 0), 2u);
  rig.deliver_one(1, 0);
  rig.deliver_one(1, 0);
  ASSERT_EQ(rig.declared().size(), 2u);
  EXPECT_EQ(rig.declared()[1].site, SiteId{0});
  EXPECT_EQ(rig.declared()[1].victim, t7);
  EXPECT_EQ(rig.declared()[1].tag, *tag);
  EXPECT_EQ(rig.c(0).stats().aborts_executed, 0u);
  rig.deliver_all();
  EXPECT_EQ(rig.total_aborts(), 1u);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
}

TEST(ControllerEarly, WalkEndsWhereTheDeclaredAbortUnblocksItsEntry) {
  // t1 (home S0) holds rB@S1 and waits for rW@S2, held by t3 (home S1);
  // t3 waits for rX@S1, held by t7 (home S2), and t7 waits for rB.  S0's
  // walk enters t3's home agent along t3's release-wait edge and reaches
  // t1's agent at S1 through t7: S1 declares t7, whose abort grants rX to
  // t3.  t3 no longer waits, so the walk ends there and records nothing at
  // t3's home agent: t3's next block continues no computation.  (Every
  // wait on the cycle is on a transaction homed at another site, so each
  // block starts a computation at once, and the last would close the cycle
  // first; the setup drops their probes.)
  Rig rig(3, follow_options());
  const TransactionId t7{7};
  const ResourceId rB = res_at(1, 0, 3);
  const ResourceId rX = res_at(1, 1, 3);
  const ResourceId rY = res_at(1, 2, 3);
  const ResourceId rW = res_at(2, 0, 3);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.c(2).lock(t7, rX, LockMode::kWrite);
  rig.c(1).lock(t3, rW, LockMode::kWrite);
  ASSERT_TRUE(rig.c(1).lock(t5, rY, LockMode::kWrite));
  rig.deliver_all();
  rig.c(0).lock(t1, rW, LockMode::kWrite);
  rig.c(1).lock(t3, rX, LockMode::kWrite);
  rig.c(2).lock(t7, rB, LockMode::kWrite);
  rig.settle_dropping_probes();
  rig.drop_timers();
  ASSERT_EQ(rig.oracle_deadlocked(), (std::vector<TransactionId>{t1, t3, t7}));
  ASSERT_TRUE(rig.declared().empty());

  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_one(0, 2);  // t1 -> t3 at S2: on along t3's release-wait edge
  rig.deliver_one(2, 1);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
  EXPECT_EQ(rig.declared()[0].victim, t7);
  ASSERT_TRUE(rig.c(1).locks().holds(rX, t3));
  rig.deliver_all();
  rig.drop_timers();
  const std::uint64_t s1_eager = rig.c(1).stats().eager_initiations;

  rig.c(1).lock(t3, rY, LockMode::kWrite);  // queues behind t5
  ASSERT_TRUE(rig.c(1).blocked(t3));
  EXPECT_EQ(rig.c(1).stats().reaches_followed, 0u);
  EXPECT_EQ(rig.c(1).stats().eager_initiations, s1_eager);
}

// ---- regression: floor propagation --------------------------------------------------

TEST(ControllerRegression, ForwarderDoesNotCorruptInitiatorFloor) {
  // S0 runs many computations (driving its own sequence numbers high);
  // afterwards S1 initiates its FIRST computation (sequence 1).  S0
  // forwards S1's probe; the forwarded probe must carry S1's floor, not
  // S0's -- otherwise S1 drops its own live computation as stale.
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  // Burn sequence numbers at S0 without resolving anything: initiate for
  // t2 (blocked at S0 via its queued forwarded request) repeatedly.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rig.c(0).initiate_for(t2).has_value());
  }
  (void)rig.take_channel(0, 1);  // discard that probe traffic entirely
  // Now S1's first computation must still complete.
  ASSERT_TRUE(rig.c(1).initiate_for(t2).has_value());
  rig.deliver_all();
  ASSERT_FALSE(rig.declared().empty());
  EXPECT_EQ(rig.declared()[0].victim, t2);
  EXPECT_EQ(rig.declared()[0].site, SiteId{1});
}

TEST(ControllerProbe, StaleComputationSupersededByNewerFloor) {
  // Two initiations for the same target: receivers must keep only the
  // newer computation's state once its floor arrives.
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  const auto tag1 = rig.c(0).initiate_for(t1);
  const auto tag2 = rig.c(0).initiate_for(t1);
  ASSERT_TRUE(tag1 && tag2);
  EXPECT_LT(tag1->sequence, tag2->sequence);
  rig.deliver_all();
  // Both computations' probes circulate; at least the newer declares, and
  // every declaration elects the same transaction: both hold one lock, so
  // the younger t2.
  ASSERT_FALSE(rig.declared().empty());
  for (const auto& d : rig.declared()) EXPECT_EQ(d.victim, t2);
}

TEST(ControllerProbe, OwnComputationSupersededTwiceIsRetired) {
  // Three initiations for t1: each keeps the previous one's record and
  // retires the one before it, so the first computation's probe, coming
  // back around the cycle, is dropped at S0 -- neither declared nor
  // forwarded under a recreated record.  The other two close the cycle.
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  const auto tag1 = rig.c(0).initiate_for(t1);
  const auto tag2 = rig.c(0).initiate_for(t1);
  const auto tag3 = rig.c(0).initiate_for(t1);
  ASSERT_TRUE(tag1 && tag2 && tag3);
  rig.deliver_all();
  ASSERT_EQ(rig.declared().size(), 2u);
  EXPECT_EQ(rig.declared()[0].tag, *tag2);
  EXPECT_EQ(rig.declared()[1].tag, *tag3);
  EXPECT_EQ(rig.c(0).stats().probes_sent, 3u);  // one per initiation
}

// ---- regression: grant reshuffle creates wait edges ---------------------------------

TEST(ControllerRegression, GrantReshuffleReArmsDetection) {
  // t3 holds rA; t1 and t2 queue behind it (t1 first).  When t3 finishes,
  // t1 is granted and t2 now waits on t1 -- a NEW edge created by the
  // grant.  With initiation at T = 0 the re-arm hook must fire probes for
  // t2 (visible as computations initiated after the release).
  DdbOptions o;
  o.initiation = DdbInitiation::kDelayed;
  o.initiation_delay = SimTime::zero();
  o.abort_victim = false;
  Rig rig(2, o);
  const TransactionId t3{3};
  const ResourceId rA = res_at(0, 0, 2);
  ASSERT_TRUE(rig.c(0).lock(t3, rA, LockMode::kWrite));
  rig.c(0).lock(t1, rA, LockMode::kWrite);
  rig.c(0).lock(t2, rA, LockMode::kWrite);
  const auto before = rig.c(0).stats().computations_initiated +
                      rig.c(0).stats().local_cycle_detections;
  rig.c(0).finish(t3);  // grants t1; t2 now waits on t1
  rig.deliver_all();
  const auto after = rig.c(0).stats().computations_initiated +
                     rig.c(0).stats().local_cycle_detections;
  EXPECT_GT(after, before);
}

// ---- local cycles and check_all -----------------------------------------------------

TEST(ControllerProbe, LocalCycleDeclaredWithoutMessages) {
  Rig rig(1);
  const ResourceId r0{0};
  const ResourceId r1 = res_at(0, 1, 1);
  ASSERT_TRUE(rig.c(0).lock(t1, r0, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t2, r1, LockMode::kWrite));
  rig.c(0).lock(t1, r1, LockMode::kWrite);
  rig.c(0).lock(t2, r0, LockMode::kWrite);
  EXPECT_EQ(rig.c(0).initiate_for(t1), std::nullopt);  // declared locally
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.c(0).stats().probes_sent, 0u);
  EXPECT_EQ(rig.c(0).stats().local_cycle_detections, 1u);
}

TEST(ControllerProbe, DelayedInitiationRunsA0AtBlockTime) {
  // Under kDelayed only the probe computation waits T: a local cycle is
  // declared the moment the closing request queues, before any timer.  t1
  // and t2 hold one lock each, so the younger t2 is the victim.
  DdbOptions o;
  o.initiation = DdbInitiation::kDelayed;
  o.abort_victim = true;
  Rig rig(1, o);
  const ResourceId r0{0};
  const ResourceId r1 = res_at(0, 1, 1);
  ASSERT_TRUE(rig.c(0).lock(t1, r0, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t2, r1, LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).lock(t2, r0, LockMode::kWrite));
  EXPECT_TRUE(rig.declared().empty());
  EXPECT_FALSE(rig.c(0).lock(t1, r1, LockMode::kWrite));  // closes the cycle
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t2);
  EXPECT_EQ(rig.c(0).stats().computations_initiated, 0u);
  EXPECT_TRUE(rig.c(0).locks().holds(r1, t1));  // t2's abort granted it
}

TEST(ControllerProbe, CheckAllElectsTheLocalCyclesYoungest) {
  // The sweep runs the same A0 election as initiate_for(): t2 (both hold
  // one lock; the younger), declared once although both t1 and t2 sit on
  // the cycle.
  Rig rig(1);
  const ResourceId r0{0};
  const ResourceId r1{1};
  ASSERT_TRUE(rig.c(0).lock(t1, r0, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t2, r1, LockMode::kWrite));
  rig.c(0).lock(t1, r1, LockMode::kWrite);
  rig.c(0).lock(t2, r0, LockMode::kWrite);
  EXPECT_EQ(rig.c(0).check_all(), 0u);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t2);
  EXPECT_EQ(rig.c(0).stats().local_cycle_detections, 1u);
  EXPECT_EQ(rig.c(0).stats().probes_sent, 0u);
}

TEST(ControllerProbe, CheckAllAbortsOneVictimForCyclesSharingIt) {
  // t1 and t2 share-hold rS; t1 waits for t2's rY, t2 for t3's rZ, and t3
  // for rS: the local cycles t1 -> t2 -> t3 -> t1 and t2 -> t3 -> t2 both
  // have t3 as their best victim (one lock, like t1, and younger), whose
  // abort breaks both.
  DdbOptions o = Rig::manual_options();
  o.abort_victim = true;
  Rig rig(1, o);
  const ResourceId rS{0};
  const ResourceId rY{1};
  const ResourceId rZ{2};
  ASSERT_TRUE(rig.c(0).lock(t1, rS, LockMode::kRead));
  ASSERT_TRUE(rig.c(0).lock(t2, rS, LockMode::kRead));
  ASSERT_TRUE(rig.c(0).lock(t2, rY, LockMode::kWrite));
  ASSERT_TRUE(rig.c(0).lock(t3, rZ, LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).lock(t1, rY, LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).lock(t2, rZ, LockMode::kWrite));
  EXPECT_FALSE(rig.c(0).lock(t3, rS, LockMode::kWrite));
  ASSERT_EQ(rig.oracle_deadlocked(), (std::vector<TransactionId>{t1, t2, t3}));

  EXPECT_EQ(rig.c(0).check_all(), 0u);
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].victim, t3);
  EXPECT_EQ(rig.c(0).stats().aborts_executed, 1u);
  EXPECT_TRUE(rig.oracle_deadlocked().empty());
  EXPECT_TRUE(rig.c(0).locks().holds(rZ, t2));  // t3's abort granted it
  EXPECT_TRUE(rig.c(0).blocked(t1));            // still behind t2
}

TEST(ControllerProbe, CheckAllQSetListsForwardedWaiters) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  // t2's forwarded request queues at S0: incoming black acquisition edge.
  std::vector<TransactionId> incoming;
  rig.c(0).incoming_black_processes(incoming);
  EXPECT_NE(std::find(incoming.begin(), incoming.end(), t2), incoming.end());
  // t1 holds remotely-acquired rB?  No: t1 only WAITS for rB.  But t1 is
  // blocked at S0 with a remote holding?  It has none granted yet, so only
  // t2 qualifies here.
  EXPECT_EQ(incoming.size(), 1u);
}

TEST(ControllerProbe, CheckAllDetectsCrossDeadlock) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  EXPECT_GT(rig.c(0).check_all(), 0u);
  rig.deliver_all();
  EXPECT_FALSE(rig.declared().empty());
}

TEST(ControllerProbe, RemoteHoldingFeedsQSet) {
  // t1 (home S0) holds rB@S1 and is blocked: its agent has an incoming
  // release-wait edge, so S0's Q set must include it.
  Rig rig(2);
  const ResourceId rB = res_at(1, 0, 2);
  const ResourceId rA = res_at(0, 0, 2);
  rig.c(0).lock(t1, rB, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).lock(t2, rA, LockMode::kWrite));
  rig.c(0).lock(t1, rA, LockMode::kWrite);  // t1 blocked locally
  std::vector<TransactionId> incoming;
  rig.c(0).incoming_black_processes(incoming);
  EXPECT_NE(std::find(incoming.begin(), incoming.end(), t1), incoming.end());
}

// ---- misc ---------------------------------------------------------------------------

TEST(Controller, UndecodableFrameReported) {
  Rig rig(1);
  EXPECT_FALSE(rig.c(0).on_message(SiteId{0}, Bytes{0x77}).ok());
}

// Transaction ids index the controller's tables; an id far past any issued
// one is a corrupt frame and must be rejected, not used to size a table.
TEST(Controller, FrameWithTransactionIdFarOutOfRangeRejected) {
  Rig rig(2);
  const TransactionId bogus{0xFFFFFFF0u};
  EXPECT_FALSE(rig.c(0)
                   .on_message(SiteId{1},
                               encode(RemoteLockRequestMsg{
                                   bogus, ResourceId{0}, 0, LockMode::kWrite}))
                   .ok());
  EXPECT_FALSE(rig.c(0)
                   .on_message(SiteId{1},
                               encode(PurgeTxnMsg{bogus, /*aborted=*/true}))
                   .ok());
  EXPECT_FALSE(rig.c(0).blocked(bogus));
  EXPECT_EQ(rig.c(0).stats().remote_requests_received, 0u);
  // Ids that arrive in issue order are admitted however large they grow.
  for (std::uint32_t t = 1000; t <= 1u << 22; t += 1u << 19) {
    EXPECT_TRUE(rig.c(0)
                    .on_message(SiteId{1},
                                encode(RemoteLockRequestMsg{
                                    TransactionId{t}, ResourceId{0}, 0,
                                    LockMode::kRead}))
                    .ok())
        << t;
  }
}

// The target is a transaction id too: a frame naming one far past any
// issued id is corrupt and rejected before any state is touched.
TEST(Controller, ProbeWithTargetFarOutOfRangeRejected) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  const DdbProbeMsg probe{DdbProbeTag{SiteId{1}, 1}, 1, t2, false, t2, 1,
                          TransactionId{0xFFFFFFF0u}};
  EXPECT_FALSE(rig.c(0).on_message(SiteId{1}, encode(probe)).ok());
  EXPECT_EQ(rig.c(0).stats().probes_received, 0u);
  EXPECT_EQ(rig.pending(0, 1), 0u);
  DdbProbeMsg sane = probe;
  sane.target = t2;
  EXPECT_TRUE(rig.c(0).on_message(SiteId{1}, encode(sane)).ok());
  EXPECT_EQ(rig.c(0).stats().meaningful_probes, 1u);
}

// A probe tagged by a controller that does not exist carries no
// computation anyone could declare; it is counted and dropped.
TEST(Controller, ProbeFromUnknownInitiatorDropped) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  const DdbProbeMsg probe{DdbProbeTag{SiteId{9}, 1}, 0, t2, false, t2, 1, t2};
  ASSERT_TRUE(rig.c(0).on_message(SiteId{1}, encode(probe)).ok());
  EXPECT_EQ(rig.c(0).stats().probes_received, 1u);
  EXPECT_EQ(rig.c(0).stats().meaningful_probes, 0u);
  EXPECT_EQ(rig.pending(0, 1), 0u);  // nothing forwarded
}

// A probe names only its entry transaction; the edge it travels starts at
// the wire sender.  t2 (home S1) has a request forwarded from S1 queued at
// S0, so an acquisition probe for t2 is meaningful from S1 and from no
// other site.
TEST(Controller, AcquisitionProbeMeaningfulOnlyFromTheForwardingSite) {
  Rig rig(3);
  const ResourceId rA = res_at(0, 0, 3);
  ASSERT_TRUE(rig.c(0).lock(t1, rA, LockMode::kWrite));
  rig.c(1).lock(t2, rA, LockMode::kWrite);
  rig.deliver_all();
  ASSERT_TRUE(rig.c(0).locks().queued_from(t2, SiteId{1}));
  const Bytes probe =
      encode(DdbProbeMsg{DdbProbeTag{SiteId{1}, 1}, 1, t2, false, t2, 0, t2});

  rig.inject(2, 0, probe);
  EXPECT_EQ(rig.c(0).stats().probes_received, 1u);
  EXPECT_EQ(rig.c(0).stats().meaningful_probes, 0u);
  rig.inject(1, 0, probe);
  EXPECT_EQ(rig.c(0).stats().probes_received, 2u);
  EXPECT_EQ(rig.c(0).stats().meaningful_probes, 1u);
}

TEST(Controller, StatsAccumulate) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  const auto& s0 = rig.c(0).stats();
  const auto& s1 = rig.c(1).stats();
  EXPECT_GT(s0.probes_sent, 0u);
  EXPECT_GT(s1.probes_received, 0u);
  EXPECT_GT(s1.meaningful_probes, 0u);
  EXPECT_EQ(s0.deadlocks_declared, 1u);
  EXPECT_GT(s0.remote_requests_sent, 0u);
  EXPECT_GT(s1.remote_requests_received, 0u);
}

TEST(Controller, DeclaredVictimsAccessor) {
  Rig rig(2);
  ResourceId rA, rB;
  build_cross_deadlock(rig, rA, rB);
  ASSERT_TRUE(rig.c(0).initiate_for(t1).has_value());
  rig.deliver_all();
  ASSERT_EQ(rig.declared().size(), 1u);
  EXPECT_EQ(rig.declared()[0].site, SiteId{0});
  EXPECT_EQ(rig.declared()[0].victim, t2);
}

}  // namespace
}  // namespace cmh::ddb
