// End-to-end DDB scenarios: local (intra-controller) cycles, distributed
// cycles across sites, the section-6.7 Q optimization, and victim-abort
// liveness.
#include <gtest/gtest.h>

#include <array>
#include <bit>

#include "ddb/cluster.h"
#include "ddb/workload.h"

namespace cmh::ddb {
namespace {

DdbOptions manual_opts(bool abort_victim = false) {
  DdbOptions o;
  o.initiation = DdbInitiation::kManual;
  o.abort_victim = abort_victim;
  return o;
}

DdbOptions delayed_opts(bool abort_victim = true) {
  DdbOptions o;
  o.initiation = DdbInitiation::kDelayed;
  o.initiation_delay = SimTime::ms(2);
  o.abort_victim = abort_victim;
  return o;
}

// Resources are placed round-robin: resource r lives at site r % n_sites.
ResourceId at_site(std::uint32_t site, std::uint32_t k, std::uint32_t n_sites) {
  return ResourceId{site + k * n_sites};
}

TEST(DdbCluster, SingleSiteLockFlow) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts()});
  const auto t = db.begin(SiteId{0});
  db.lock(t, at_site(0, 0, 2), LockMode::kWrite);
  EXPECT_TRUE(db.granted(t, at_site(0, 0, 2)));
  db.finish(t);
  EXPECT_EQ(db.status(t), TxnStatus::kCommitted);
}

TEST(DdbCluster, RemoteLockFlow) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts()});
  const auto t = db.begin(SiteId{0});
  const auto r = at_site(1, 0, 2);  // resource at the other site
  db.lock(t, r, LockMode::kWrite);
  EXPECT_FALSE(db.granted(t, r));  // in flight
  db.simulator().run();
  EXPECT_TRUE(db.granted(t, r));
  db.finish(t);
  db.simulator().run();
  // After the purge, a second transaction can take the lock.
  const auto t2 = db.begin(SiteId{0});
  db.lock(t2, r, LockMode::kWrite);
  db.simulator().run();
  EXPECT_TRUE(db.granted(t2, r));
}

TEST(DdbCluster, QueuedRemoteGrantArrivesAfterRelease) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts()});
  const auto r = at_site(1, 0, 2);
  const auto t1 = db.begin(SiteId{0});
  db.lock(t1, r, LockMode::kWrite);
  db.simulator().run();
  const auto t2 = db.begin(SiteId{0});
  db.lock(t2, r, LockMode::kWrite);
  db.simulator().run();
  EXPECT_FALSE(db.granted(t2, r));
  db.finish(t1);
  db.simulator().run();
  EXPECT_TRUE(db.granted(t2, r));
}

// A stale declaration can name a transaction that has already committed:
// probes of an older computation were still in flight when its cycle
// dissolved.  The declaring site aborts it and broadcasts a purge with
// aborted=true; when that purge (or the declaration itself, at the home
// site) reaches the home controller, the commit must stand and the abort
// listener must stay silent -- only an active transaction can be a victim.
TEST(DdbCluster, StaleDeclarationCannotAbortCommittedTransaction) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts(true)});
  std::vector<TransactionId> aborted;
  db.set_abort_listener([&](TransactionId t) { aborted.push_back(t); });
  const auto t = db.begin(SiteId{0});
  const auto r = at_site(1, 0, 2);
  db.lock(t, r, LockMode::kWrite);
  db.simulator().run();
  ASSERT_TRUE(db.granted(t, r));
  db.finish(t);
  db.simulator().run();
  ASSERT_EQ(db.status(t), TxnStatus::kCommitted);

  // The remote site's stale victim abort: its purge reaches home site 0.
  db.controller(SiteId{1}).abort(t);
  db.simulator().run();
  EXPECT_EQ(db.status(t), TxnStatus::kCommitted);
  // The home site's own stale declaration.
  db.controller(SiteId{0}).abort(t);
  db.simulator().run();
  EXPECT_EQ(db.status(t), TxnStatus::kCommitted);
  EXPECT_TRUE(aborted.empty());
}

// Two sites can declare the same victim; the transaction is aborted once.
TEST(DdbCluster, VictimDeclaredTwiceAbortsOnce) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts(true)});
  std::vector<TransactionId> aborted;
  db.set_abort_listener([&](TransactionId t) { aborted.push_back(t); });
  const auto t = db.begin(SiteId{0});
  db.lock(t, at_site(1, 0, 2), LockMode::kWrite);
  db.controller(SiteId{1}).abort(t);
  db.controller(SiteId{0}).abort(t);
  db.simulator().run();
  EXPECT_EQ(db.status(t), TxnStatus::kAborted);
  EXPECT_EQ(aborted, (std::vector<TransactionId>{t}));
}

TEST(DdbCluster, LocalCycleDetectedWithoutProbes) {
  // Two local transactions at the same site deadlock over r0 and r2
  // (both site-0 resources): A0's intra-controller check catches it.
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts()});
  const auto ra = at_site(0, 0, 2);
  const auto rb = at_site(0, 1, 2);
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{0});
  db.lock(t1, ra, LockMode::kWrite);
  db.lock(t2, rb, LockMode::kWrite);
  db.lock(t1, rb, LockMode::kWrite);  // queues
  db.lock(t2, ra, LockMode::kWrite);  // queues -> local cycle
  db.simulator().run();
  EXPECT_EQ(db.controller(SiteId{0}).check_all(), 0u);  // no probes needed
  ASSERT_EQ(db.detections().size(), 1u);
  const auto stats = db.total_stats();
  EXPECT_EQ(stats.probes_sent, 0u);
  EXPECT_EQ(stats.local_cycle_detections, 1u);
}

TEST(DdbCluster, DistributedCycleDetectedByProbes) {
  // T1 (home S0) holds r0@S0, wants r1@S1; T2 (home S1) holds r1@S1,
  // wants r0@S0 -- the canonical two-site deadlock.
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts()});
  const auto r0 = at_site(0, 0, 2);
  const auto r1 = at_site(1, 0, 2);
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{1});
  db.lock(t1, r0, LockMode::kWrite);
  db.lock(t2, r1, LockMode::kWrite);
  db.simulator().run();
  db.lock(t1, r1, LockMode::kWrite);
  db.lock(t2, r0, LockMode::kWrite);
  db.simulator().run();
  // Both transactions deadlocked per the oracle.
  EXPECT_EQ(db.oracle_deadlocked().size(), 2u);
  // Either controller can find it.
  EXPECT_GT(db.controller(SiteId{0}).check_all(), 0u);
  db.simulator().run();
  ASSERT_FALSE(db.detections().empty());
  const auto victim = db.detections()[0].victim;
  EXPECT_TRUE(victim == t1 || victim == t2);
  EXPECT_GT(db.total_stats().probes_sent, 0u);
  EXPECT_GT(db.total_stats().meaningful_probes, 0u);
}

TEST(DdbCluster, ThreeSiteCycleDetected) {
  Cluster db({.n_sites = 3, .n_resources = 9, .options = manual_opts()});
  const auto r0 = at_site(0, 0, 3);
  const auto r1 = at_site(1, 0, 3);
  const auto r2 = at_site(2, 0, 3);
  const auto t0 = db.begin(SiteId{0});
  const auto t1 = db.begin(SiteId{1});
  const auto t2 = db.begin(SiteId{2});
  db.lock(t0, r0, LockMode::kWrite);
  db.lock(t1, r1, LockMode::kWrite);
  db.lock(t2, r2, LockMode::kWrite);
  db.simulator().run();
  db.lock(t0, r1, LockMode::kWrite);
  db.lock(t1, r2, LockMode::kWrite);
  db.lock(t2, r0, LockMode::kWrite);
  db.simulator().run();
  EXPECT_EQ(db.oracle_deadlocked().size(), 3u);
  EXPECT_GT(db.controller(SiteId{1}).check_all(), 0u);
  db.simulator().run();
  // S1's computation checks t0's forwarded request.  Its walk reaches t0's
  // home agent at S0 through t2's wait on t0's holding, so S0 declares
  // first; the walk goes on and S1, the initiator, declares the same victim.
  ASSERT_EQ(db.detections().size(), 2u);
  EXPECT_EQ(db.detections()[0].site, SiteId{0});
  EXPECT_EQ(db.detections()[0].tag.initiator, SiteId{1});
  EXPECT_EQ(db.detections()[1].site, SiteId{1});
  EXPECT_EQ(db.detections()[1].tag, db.detections()[0].tag);
  EXPECT_EQ(db.detections()[1].victim, db.detections()[0].victim);
}

TEST(DdbCluster, NoFalseDetectionOnCleanWorkload) {
  Cluster db({.n_sites = 3, .n_resources = 9, .options = manual_opts()});
  // Non-conflicting transactions.
  const auto t0 = db.begin(SiteId{0});
  const auto t1 = db.begin(SiteId{1});
  db.lock(t0, at_site(1, 0, 3), LockMode::kWrite);
  db.lock(t1, at_site(2, 0, 3), LockMode::kWrite);
  db.simulator().run();
  for (std::uint32_t s = 0; s < 3; ++s) {
    (void)db.controller(SiteId{s}).check_all();
  }
  db.simulator().run();
  EXPECT_TRUE(db.detections().empty());
}

TEST(DdbCluster, WaitChainWithoutCycleNotDeclared) {
  // T1 waits on T2 waits on T3 (no cycle) across two sites.
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts()});
  const auto r0 = at_site(0, 0, 2);
  const auto r1 = at_site(1, 0, 2);
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{0});
  const auto t3 = db.begin(SiteId{1});
  db.lock(t3, r1, LockMode::kWrite);
  db.simulator().run();
  db.lock(t2, r1, LockMode::kWrite);  // t2 waits on t3 (remote)
  db.lock(t2, r0, LockMode::kWrite);  // t2 holds r0
  db.simulator().run();
  db.lock(t1, r0, LockMode::kWrite);  // t1 waits on t2 (local)
  db.simulator().run();
  for (std::uint32_t s = 0; s < 2; ++s) {
    (void)db.controller(SiteId{s}).check_all();
  }
  db.simulator().run();
  EXPECT_TRUE(db.detections().empty());
  EXPECT_TRUE(db.oracle_deadlocked().empty());
}

TEST(DdbCluster, DelayedInitiationDetectsAutomatically) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = delayed_opts()});
  const auto r0 = at_site(0, 0, 2);
  const auto r1 = at_site(1, 0, 2);
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{1});
  db.lock(t1, r0, LockMode::kWrite);
  db.lock(t2, r1, LockMode::kWrite);
  db.simulator().run();
  db.lock(t1, r1, LockMode::kWrite);
  db.lock(t2, r0, LockMode::kWrite);
  db.simulator().run();
  ASSERT_FALSE(db.detections().empty());
  // Victim was aborted, and no transaction is left waiting (liveness): each
  // one either got every lock or was aborted without the lock it waited
  // for.  (Both sites' initiation timers fire before either abort lands, so
  // on this schedule both transactions are declared, and each one's
  // released lock is granted to the other while its own abort is in
  // flight; that grant must not be reported.)
  const auto victim = db.detections()[0].victim;
  EXPECT_EQ(db.status(victim), TxnStatus::kAborted);
  const std::pair<TransactionId, ResourceId> waits[] = {{t1, r1}, {t2, r0}};
  for (const auto& [t, awaited] : waits) {
    if (db.status(t) == TxnStatus::kAborted) {
      EXPECT_FALSE(db.granted(t, awaited));
    } else {
      EXPECT_TRUE(db.all_granted(t));
    }
  }
  EXPECT_TRUE(db.oracle_deadlocked().empty());
}

// A grant in flight when the home site aborts the transaction must not
// make the aborted transaction look like the lock's holder.
TEST(DdbCluster, GrantCrossingAbortIsNotReported) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = manual_opts()});
  const auto r = at_site(1, 0, 2);
  const auto t = db.begin(SiteId{0});
  db.lock(t, r, LockMode::kWrite);
  ASSERT_TRUE(db.simulator().step());  // request lands; grant in flight
  ASSERT_TRUE(db.controller(SiteId{1}).locks().holds(r, t));
  db.abort(t);
  db.simulator().run();
  EXPECT_EQ(db.status(t), TxnStatus::kAborted);
  EXPECT_FALSE(db.granted(t, r));
  EXPECT_FALSE(db.controller(SiteId{1}).locks().holds(r, t));
  // The purge freed the lock for the next transaction.
  const auto t2 = db.begin(SiteId{0});
  db.lock(t2, r, LockMode::kWrite);
  db.simulator().run();
  EXPECT_TRUE(db.granted(t2, r));
}

TEST(DdbCluster, VictimAbortUnblocksLocalCycleToo) {
  DdbOptions o = delayed_opts(true);
  Cluster db({.n_sites = 1, .n_resources = 4, .options = o});
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{0});
  db.lock(t1, ResourceId{0}, LockMode::kWrite);
  db.lock(t2, ResourceId{1}, LockMode::kWrite);
  db.lock(t1, ResourceId{1}, LockMode::kWrite);
  db.lock(t2, ResourceId{0}, LockMode::kWrite);
  db.simulator().run();
  ASSERT_FALSE(db.detections().empty());
  const auto victim = db.detections()[0].victim;
  const auto survivor = (victim == t1) ? t2 : t1;
  EXPECT_EQ(db.status(victim), TxnStatus::kAborted);
  EXPECT_TRUE(db.all_granted(survivor));
}

TEST(DdbCluster, QOptimizationInitiatesFewerComputations) {
  // Many local-only blocked transactions plus one distributed cycle: the
  // naive mode initiates for every blocked process, the Q mode only for
  // processes with incoming black inter-controller edges.
  auto build = [](DdbOptions o) {
    auto db = std::make_unique<Cluster>(
        ClusterConfig{.n_sites = 2, .n_resources = 32, .options = o});
    const auto r0 = ResourceId{0};  // site 0
    const auto r1 = ResourceId{1};  // site 1
    const auto t1 = db->begin(SiteId{0});
    const auto t2 = db->begin(SiteId{1});
    db->lock(t1, r0, LockMode::kWrite);
    db->lock(t2, r1, LockMode::kWrite);
    db->simulator().run();
    db->lock(t1, r1, LockMode::kWrite);
    db->lock(t2, r0, LockMode::kWrite);
    db->simulator().run();
    // Local-only waiters at site 0: t1 holds r0; they all queue behind it.
    for (int i = 0; i < 6; ++i) {
      const auto t = db->begin(SiteId{0});
      db->lock(t, r0, LockMode::kWrite);
    }
    db->simulator().run();
    return db;
  };

  DdbOptions naive = manual_opts();
  naive.q_optimization = false;
  auto db_naive = build(naive);
  const auto naive_count = db_naive->controller(SiteId{0}).check_all();

  DdbOptions qopt = manual_opts();
  qopt.q_optimization = true;
  auto db_q = build(qopt);
  const auto q_count = db_q->controller(SiteId{0}).check_all();

  EXPECT_LT(q_count, naive_count);
  // Both still find the deadlock.
  db_naive->simulator().run();
  db_q->simulator().run();
  EXPECT_FALSE(db_naive->detections().empty());
  EXPECT_FALSE(db_q->detections().empty());
}

TEST(DdbCluster, ReadSharingAcrossSitesNoDeadlock) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = delayed_opts()});
  const auto r = ResourceId{1};  // site 1
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{0});
  db.lock(t1, r, LockMode::kRead);
  db.lock(t2, r, LockMode::kRead);
  db.simulator().run();
  EXPECT_TRUE(db.granted(t1, r));
  EXPECT_TRUE(db.granted(t2, r));
  EXPECT_TRUE(db.detections().empty());
}

TEST(DdbCluster, UpgradeDeadlockAcrossSitesDetected) {
  // Both read r (remote), then both upgrade to write: cross-wait at the
  // owning site (intra-controller cycle there).
  Cluster db({.n_sites = 2, .n_resources = 8, .options = delayed_opts()});
  const auto r = ResourceId{1};  // site 1
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{0});
  db.lock(t1, r, LockMode::kRead);
  db.lock(t2, r, LockMode::kRead);
  db.simulator().run();
  db.lock(t1, r, LockMode::kWrite);
  db.lock(t2, r, LockMode::kWrite);
  db.simulator().run();
  ASSERT_FALSE(db.detections().empty());
  const auto victim = db.detections()[0].victim;
  const auto survivor = (victim == t1) ? t2 : t1;
  EXPECT_EQ(db.status(victim), TxnStatus::kAborted);
  EXPECT_TRUE(db.granted(survivor, r));
}

TEST(DdbCluster, DetectionListenerFiresAtDeclaration) {
  Cluster db({.n_sites = 2, .n_resources = 8, .options = delayed_opts()});
  std::vector<DdbDetection> seen;
  db.set_detection_listener(
      [&](const DdbDetection& d) { seen.push_back(d); });
  const auto t1 = db.begin(SiteId{0});
  const auto t2 = db.begin(SiteId{1});
  db.lock(t1, ResourceId{0}, LockMode::kWrite);
  db.lock(t2, ResourceId{1}, LockMode::kWrite);
  db.simulator().run();
  db.lock(t1, ResourceId{1}, LockMode::kWrite);
  db.lock(t2, ResourceId{0}, LockMode::kWrite);
  db.simulator().run();
  EXPECT_EQ(seen.size(), db.detections().size());
  ASSERT_FALSE(seen.empty());
}

// ControllerStats is a flat record of counters.  Viewed as an array, the
// test below covers every counter, including ones added later.
constexpr std::size_t kStatCounters =
    sizeof(ControllerStats) / sizeof(std::uint64_t);
static_assert(sizeof(ControllerStats) == kStatCounters * sizeof(std::uint64_t));
using StatWords = std::array<std::uint64_t, kStatCounters>;

TEST(DdbCluster, TotalStatsSumsEveryCounterOfEverySite) {
  // A contended T5-shaped episode, in which every counter is non-zero at
  // two sites at least.
  Cluster db({.n_sites = 4, .n_resources = 8, .options = delayed_opts(),
              .seed = 3});
  TxnScriptConfig cfg;
  cfg.locks_per_txn = 3;
  cfg.write_fraction = 0.8;
  cfg.hot_set = 8;
  cfg.max_retries = 25;
  TxnWorkload workload(db, cfg, 29);
  workload.start(24);
  db.simulator().run();

  StatWords sum{};
  std::array<std::uint32_t, kStatCounters> sites_counting{};
  for (std::uint32_t s = 0; s < db.n_sites(); ++s) {
    const auto words =
        std::bit_cast<StatWords>(db.controller(SiteId{s}).stats());
    for (std::size_t i = 0; i < kStatCounters; ++i) {
      sum[i] += words[i];
      if (words[i] != 0) ++sites_counting[i];
    }
  }
  const auto total = std::bit_cast<StatWords>(db.total_stats());
  for (std::size_t i = 0; i < kStatCounters; ++i) {
    EXPECT_GE(sites_counting[i], 2u) << "counter " << i;
    EXPECT_EQ(total[i], sum[i]) << "counter " << i;
  }
}

}  // namespace
}  // namespace cmh::ddb
