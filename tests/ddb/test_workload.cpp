// TxnWorkload driver: retry-on-abort, client lock-wait timeouts, declared
// victims that stay idle, observers that change nothing, the lock managers'
// per-transaction index under load, and the q-optimization on/off
// behavioural equivalence under random load.
#include "ddb/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace cmh::ddb {
namespace {

DdbOptions detecting(bool q_opt = true) {
  DdbOptions o;
  o.initiation = DdbInitiation::kDelayed;
  o.initiation_delay = SimTime::ms(2);
  o.abort_victim = true;
  o.q_optimization = q_opt;
  return o;
}

TEST(TxnWorkload, AllCommitWithoutContention) {
  Cluster db({.n_sites = 2, .n_resources = 64, .options = detecting()});
  TxnScriptConfig cfg;
  cfg.locks_per_txn = 2;
  cfg.hot_set = 64;  // plenty of room: conflicts unlikely
  cfg.write_fraction = 0.2;
  TxnWorkload workload(db, cfg, 5);
  workload.start(8);
  db.simulator().run();
  EXPECT_EQ(workload.result().committed, 8u);
  EXPECT_EQ(workload.result().given_up, 0u);
}

TEST(TxnWorkload, VictimsRetryAndEventuallyCommit) {
  Cluster db({.n_sites = 2, .n_resources = 4, .options = detecting()});
  TxnScriptConfig cfg;
  // Three write locks each on 4 hot resources: deadlocks form.  (With two,
  // a transaction holding one lock goes ahead of those holding none, and
  // this episode forms no cycle.)
  cfg.locks_per_txn = 3;
  cfg.hot_set = 4;
  cfg.write_fraction = 1.0;
  cfg.max_retries = 30;
  TxnWorkload workload(db, cfg, 7);
  workload.start(8);
  db.simulator().run();
  const auto& r = workload.result();
  EXPECT_EQ(r.committed + r.given_up, 8u);
  EXPECT_GT(r.aborted, 0u);  // contention this hot must abort someone
  EXPECT_TRUE(db.oracle_deadlocked().empty());
}

TEST(TxnWorkload, ZeroRetriesStopsAfterFirstAbort) {
  Cluster db({.n_sites = 2, .n_resources = 2, .options = detecting()});
  TxnScriptConfig cfg;
  cfg.locks_per_txn = 2;
  cfg.hot_set = 2;
  cfg.write_fraction = 1.0;
  cfg.max_retries = 0;
  TxnWorkload workload(db, cfg, 11);
  workload.start(4);
  db.simulator().run();
  const auto& r = workload.result();
  EXPECT_EQ(r.committed + r.given_up, 4u);
  EXPECT_EQ(r.aborted, r.given_up);  // every abort is terminal
}

TEST(TxnWorkload, ClientTimeoutResolvesWithoutDetector) {
  DdbOptions off;
  off.initiation = DdbInitiation::kManual;  // no probes at all
  off.abort_victim = false;
  Cluster db({.n_sites = 2, .n_resources = 4, .options = off});
  TxnScriptConfig cfg;
  cfg.locks_per_txn = 2;
  cfg.hot_set = 4;
  cfg.write_fraction = 1.0;
  cfg.lock_wait_timeout = SimTime::ms(8);
  cfg.max_retries = 40;
  TxnWorkload workload(db, cfg, 13);
  workload.start(8);
  db.simulator().run();
  const auto& r = workload.result();
  EXPECT_EQ(r.committed + r.given_up, 8u);
  EXPECT_EQ(db.total_stats().probes_sent, 0u);
  EXPECT_TRUE(db.oracle_deadlocked().empty());
}

TEST(TxnWorkload, LockIndexMatchesTheLockTablesAfterEveryEvent) {
  // Each LockManager indexes the rows every transaction holds or is queued
  // on, and its per-transaction queries read only those rows: blocked(), a
  // probe's acquisition-edge check, the release-wait edges and the probe
  // BFS's out-edges rest on them.  After every event of T5-shaped episodes
  // (victim aborts, retries, grant reshuffles), at every site and for every
  // id, each answer must equal the same fact read off the whole table.
  constexpr std::uint32_t kClients = 24;
  std::vector<WaitEdge> edges;
  for (const std::uint32_t hot_set : {8u, 16u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      Cluster db({.n_sites = 4,
                  .n_resources = hot_set,
                  .options = detecting(),
                  .seed = seed});
      TxnScriptConfig cfg;
      cfg.locks_per_txn = 3;
      cfg.write_fraction = 0.8;
      cfg.hot_set = hot_set;
      cfg.max_retries = 25;
      TxnWorkload workload(db, cfg, seed * 7 + 3);
      workload.start(kClients);
      std::uint64_t events = 0;
      std::uint64_t queued_seen = 0;
      std::uint64_t waits_seen = 0;
      std::uint64_t origins_seen = 0;
      while (db.simulator().step()) {
        ++events;
        const std::uint32_t ids = db.transactions_begun();
        for (std::uint32_t s = 0; s < db.n_sites(); ++s) {
          const Controller& c = db.controller(SiteId{s});
          const LockManager& lm = c.locks();
          std::vector<std::uint32_t> queued(ids);
          std::vector<FlatSet<SiteId, 8>> queued_origins(ids);
          lm.for_each_queued([&](ResourceId, const LockRequest& r) {
            ++queued.at(r.txn.value());
            queued_origins.at(r.txn.value()).insert(r.origin);
          });
          lm.wait_edges(edges);
          for (std::uint32_t t = 0; t < ids; ++t) {
            const TransactionId txn{t};
            const auto where = [&] {
              return testing::Message()
                     << "hot set " << hot_set << " seed " << seed << " event "
                     << events << " site " << s << " txn " << t;
            };
            ASSERT_EQ(lm.queued(txn), queued[t]) << where();
            for (std::uint32_t o = 0; o < db.n_sites(); ++o) {
              ASSERT_EQ(lm.queued_from(txn, SiteId{o}),
                        queued_origins[t].contains(SiteId{o}))
                  << where() << " origin " << o;
            }
            std::vector<ResourceId> held;
            for (std::uint32_t r = 0; r < hot_set; ++r) {
              if (lm.holds(ResourceId{r}, txn)) held.push_back(ResourceId{r});
            }
            ASSERT_EQ(lm.held_by(txn), held) << where();
            // Every request of a transaction comes from its home.
            FlatSet<SiteId, 8> origins;
            if (!held.empty()) origins.insert(db.home_of(txn));
            ASSERT_EQ(lm.holding_origins(txn), origins) << where();
            FlatSet<TransactionId, 8> run;
            for (const auto& [w, b] : edges) {
              if (w == txn) run.insert(b);
            }
            FlatSet<TransactionId, 8> waits;
            lm.waits_of(txn, waits);
            ASSERT_EQ(waits, run) << where();
            ASSERT_EQ(c.blocked(txn),
                      queued[t] > 0 || !c.pending_remote_sites(txn).empty())
                << where();
            queued_seen += queued[t];
            waits_seen += run.size();
            origins_seen += origins.size();
          }
        }
      }
      EXPECT_EQ(workload.result().committed, kClients);
      EXPECT_GT(workload.result().aborted, 0u);
      EXPECT_GT(queued_seen, 0u);
      EXPECT_GT(waits_seen, 0u);
      EXPECT_GT(origins_seen, 0u);
    }
  }
}

TEST(TxnWorkload, LockCountsAreFrozenWhereTransactionsWait) {
  // Victim election keys each waiting transaction by the locks it holds
  // (DESIGN.md section 4f).  After every event of T5-shaped episodes, a
  // live transaction's count at its home equals the locks it has been
  // granted, and every site where its one outstanding request is queued
  // reads the same count.
  constexpr std::uint32_t kClients = 24;
  for (const std::uint32_t hot_set : {8u, 16u}) {
    for (const std::uint64_t seed : {1u, 2u}) {
      Cluster db({.n_sites = 4,
                  .n_resources = hot_set,
                  .options = detecting(),
                  .seed = seed});
      TxnScriptConfig cfg;
      cfg.locks_per_txn = 3;
      cfg.write_fraction = 0.8;
      cfg.hot_set = hot_set;
      cfg.max_retries = 25;
      TxnWorkload workload(db, cfg, seed * 7 + 3);
      workload.start(kClients);
      std::uint64_t queued_remote_seen = 0;
      std::uint64_t counted = 0;
      while (db.simulator().step()) {
        for (std::uint32_t t = 0; t < db.transactions_begun(); ++t) {
          const TransactionId txn{t};
          if (db.status(txn) != TxnStatus::kActive) continue;
          LockCount granted = 0;
          for (std::uint32_t r = 0; r < hot_set; ++r) {
            if (db.granted(txn, ResourceId{r})) ++granted;
          }
          const SiteId home = db.home_of(txn);
          ASSERT_EQ(db.controller(home).lock_count(txn), granted)
              << "hot set " << hot_set << " seed " << seed << " txn " << t;
          counted += granted;
          for (std::uint32_t s = 0; s < db.n_sites(); ++s) {
            const Controller& c = db.controller(SiteId{s});
            if (SiteId{s} == home || c.locks().queued(txn) == 0) continue;
            ASSERT_EQ(c.lock_count(txn), granted)
                << "hot set " << hot_set << " seed " << seed << " txn " << t
                << " site " << s;
            ++queued_remote_seen;
          }
        }
      }
      EXPECT_EQ(workload.result().committed, kClients);
      EXPECT_GT(counted, 0u);
      EXPECT_GT(queued_remote_seen, 0u);
    }
  }
}

/// Starvation guard: runs one T5-shaped episode (T = 2 ms, at most 25
/// retries) per seed in [first, last] at `hot_set`, and expects every
/// client to commit and no episode to end wedged.
void expect_no_give_ups(std::uint32_t hot_set, std::uint64_t first,
                        std::uint64_t last) {
  constexpr std::uint32_t kClients = 24;
  std::uint64_t committed = 0;
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    Cluster db({.n_sites = 4,
                .n_resources = hot_set,
                .options = detecting(),
                .seed = seed});
    TxnScriptConfig cfg;
    cfg.locks_per_txn = 3;
    cfg.write_fraction = 0.8;
    cfg.hot_set = hot_set;
    cfg.hold_time = SimTime::ms(2);
    cfg.max_retries = 25;
    TxnWorkload workload(db, cfg, seed * 7 + 3);
    workload.start(kClients);
    db.simulator().run();
    EXPECT_EQ(workload.result().given_up, 0u) << "seed " << seed;
    committed += workload.result().committed;
    EXPECT_TRUE(db.oracle_deadlocked().empty()) << "seed " << seed;
  }
  EXPECT_EQ(committed, (last - first + 1) * kClients);
}

TEST(TxnWorkload, NoTransactionGivesUpAtHotSet8) {
  // The youngest-victim rule elects a retried transaction again and again,
  // since each retry restarts with the highest id, however far it has got;
  // the fewest-locks rule spares a member that holds more locks than
  // another on its cycle.  In the T5 shape at hot set 8, every client of
  // these 40 episodes commits within 25 retries.  The seed range was fixed
  // before either election rule ran on it (EXPERIMENTS.md section P11 has
  // the give-up counts at hot set 4, where the youngest rule starves).
  expect_no_give_ups(8, 2001, 2040);
}

TEST(TxnWorkload, NoTransactionGivesUpAtHotSet4) {
  // At hot set 4 most transactions meet on a cycle, and a wait that
  // reaches another site's transaction starts its computation at once
  // (DESIGN.md section 4b, note 7), so more walks elect more victims.
  // Every client of these 100 episodes commits within 25 retries.  The
  // seed range was fixed before the rule ran on it (EXPERIMENTS.md section
  // P13 has the give-up counts over 307,200 transactions).
  expect_no_give_ups(4, 4001, 4100);
}

/// One T5 episode as perfbench/ draws episode `index` of run seed `seed`.
struct T5Episode {
  T5Episode(std::uint32_t hot_set, std::uint64_t seed,
                     std::uint64_t index)
      : db({.n_sites = 4,
            .n_resources = hot_set,
            .options = detecting(),
            .seed = episode_seed(seed, index)}),
        workload(db, script(hot_set),
                 episode_seed(seed, index) ^ kWorkloadSeedSalt) {}

  static TxnScriptConfig script(std::uint32_t hot_set) {
    TxnScriptConfig cfg;
    cfg.locks_per_txn = 3;
    cfg.write_fraction = 0.8;
    cfg.hot_set = hot_set;
    cfg.hold_time = SimTime::ms(2);
    cfg.max_retries = 25;
    return cfg;
  }

  Cluster db;
  TxnWorkload workload;
};

/// Fails the test if a declared victim calls lock() or commits afterwards.
class DoomedStayIdle final : public TxnObserver {
 public:
  explicit DoomedStayIdle(const Cluster& db) : db_(db) {}
  void before_lock(TransactionId txn) override {
    ++locks;
    EXPECT_FALSE(declared_.contains(txn))
        << txn << " locks after its declaration";
  }
  void on_declaration(const DdbDetection& d) override {
    ++declarations;
    // A victim still active here is one whose abort is on its way.
    if (db_.status(d.victim) == TxnStatus::kActive) ++active_victims;
    declared_.insert(d.victim);
  }
  void on_commit(TransactionId txn, std::uint32_t) override {
    EXPECT_FALSE(declared_.contains(txn))
        << txn << " commits after its declaration";
  }

  std::uint64_t locks{0};
  std::uint64_t declarations{0};
  std::uint64_t active_victims{0};

 private:
  const Cluster& db_;
  std::set<TransactionId> declared_;
};

TEST(TxnWorkload, DeclaredVictimIssuesNoFurtherLock) {
  std::uint64_t declarations = 0;
  std::uint64_t active_victims = 0;
  for (const std::uint32_t hot_set : {8u, 16u}) {
    for (std::uint64_t index = 0; index < 16; ++index) {
      T5Episode e(hot_set, 1, index);
      DoomedStayIdle idle(e.db);
      e.workload.set_observer(&idle);
      e.workload.start(24);
      e.db.simulator().run();
      EXPECT_EQ(e.workload.result().committed, 24u);
      EXPECT_GT(idle.locks, 0u);
      declarations += idle.declarations;
      active_victims += idle.active_victims;
    }
  }
  EXPECT_GT(declarations, 0u);
  EXPECT_GT(active_victims, 0u);
}

/// Watches everything and asks the cluster at every hook, as an observer
/// that measures does.
class Inquisitive final : public TxnObserver {
 public:
  explicit Inquisitive(const Cluster& db) : db_(db) {}
  void before_lock(TransactionId) override { ask(); }
  void after_lock(TransactionId) override { ask(); }
  void on_declaration(const DdbDetection&) override { ask(); }
  void on_commit(TransactionId, std::uint32_t) override { ask(); }
  std::uint64_t asked{0};

 private:
  void ask() { asked += 1 + db_.oracle_deadlocked().size(); }
  const Cluster& db_;
};

TEST(TxnWorkload, AnObserverLeavesTheEpisodeAsItIs) {
  struct Outcome {
    std::uint64_t committed, aborted, events;
    std::int64_t makespan_us;
    bool operator==(const Outcome&) const = default;
  };
  const auto run = [](std::uint32_t hot_set, std::uint64_t index,
                      bool observed) {
    T5Episode e(hot_set, 2, index);
    Inquisitive inquisitive(e.db);
    if (observed) e.workload.set_observer(&inquisitive);
    e.workload.start(24);
    const SimTime end = e.db.simulator().run();
    EXPECT_EQ(inquisitive.asked > 0, observed);
    return Outcome{e.workload.result().committed,
                   e.workload.result().aborted,
                   e.db.simulator().stats().events_processed, end.micros};
  };
  for (const std::uint32_t hot_set : {16u, 32u}) {
    for (std::uint64_t index = 0; index < 8; ++index) {
      EXPECT_EQ(run(hot_set, index, false), run(hot_set, index, true))
          << "hot set " << hot_set << " episode " << index;
    }
  }
}

class QOptEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QOptEquivalence, SameLivenessWithAndWithoutQOptimization) {
  // Detection driven exclusively by periodic check_all() sweeps, which is
  // the code path the section-6.7 flag selects between.  (Per-sweep
  // computation counts are compared in bench_t4 on frozen states; the two
  // runs here diverge after the first abort, so totals are not comparable.)
  for (const bool q : {true, false}) {
    DdbOptions options;
    options.initiation = DdbInitiation::kManual;
    options.abort_victim = true;
    options.q_optimization = q;
    Cluster db({.n_sites = 3,
                .n_resources = 6,
                .options = options,
                .seed = GetParam()});
    // Bounded periodic sweeps: 150 rounds x 2ms per site.
    for (int round = 1; round <= 150; ++round) {
      db.simulator().schedule(SimTime::ms(2 * round), [&db] {
        for (std::uint32_t s = 0; s < 3; ++s) {
          (void)db.controller(SiteId{s}).check_all();
        }
      });
    }
    TxnScriptConfig cfg;
    cfg.locks_per_txn = 3;
    cfg.hot_set = 6;
    cfg.write_fraction = 0.8;
    cfg.max_retries = 25;
    TxnWorkload workload(db, cfg, GetParam() * 3 + 2);
    workload.start(10);
    db.simulator().run();
    const auto& r = workload.result();
    EXPECT_EQ(r.committed + r.given_up, 10u) << "q_opt=" << q;
    EXPECT_TRUE(db.oracle_deadlocked().empty()) << "q_opt=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QOptEquivalence,
                         ::testing::Values(21, 22, 23, 24, 25, 26));

}  // namespace
}  // namespace cmh::ddb
