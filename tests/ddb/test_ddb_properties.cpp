// Randomized DDB property tests over the transaction workload driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ddb/cluster.h"
#include "ddb/workload.h"

namespace cmh::ddb {
namespace {

struct DdbPropertyCase {
  std::uint64_t seed;
  std::uint32_t sites;
  std::uint32_t txns;
  std::uint32_t hot_set;
  std::uint32_t locks_per_txn;
};

class DdbProperties : public ::testing::TestWithParam<DdbPropertyCase> {};

TEST_P(DdbProperties, WorkloadTerminatesAndAllClientsResolve) {
  const auto& p = GetParam();
  DdbOptions options;
  options.initiation = DdbInitiation::kDelayed;
  options.initiation_delay = SimTime::ms(2);
  options.abort_victim = true;
  Cluster db({.n_sites = p.sites,
              .n_resources = p.hot_set,
              .options = options,
              .seed = p.seed});
  TxnScriptConfig cfg;
  cfg.locks_per_txn = p.locks_per_txn;
  cfg.hot_set = p.hot_set;
  cfg.write_fraction = 0.7;
  TxnWorkload workload(db, cfg, p.seed * 13 + 1);
  workload.start(p.txns);
  db.simulator().run();

  // Liveness: with detection + victim abort, every client either commits or
  // exhausts retries; nothing is silently wedged.
  const auto& result = workload.result();
  EXPECT_EQ(result.committed + result.given_up, p.txns)
      << "committed=" << result.committed << " aborted=" << result.aborted
      << " given_up=" << result.given_up;
  // And the system itself ends quiescent: no deadlocked transactions left.
  EXPECT_TRUE(db.oracle_deadlocked().empty());
}

/// Asks the oracle at each declaration's instant whether the victim is on a
/// cycle (QRP2).
class SoundAtDeclaration final : public TxnObserver {
 public:
  explicit SoundAtDeclaration(Cluster& db) : db_(db) {}
  void on_declaration(const DdbDetection& d) override {
    const auto deadlocked = db_.oracle_deadlocked();
    EXPECT_NE(std::find(deadlocked.begin(), deadlocked.end(), d.victim),
              deadlocked.end())
        << d.victim << " declared at " << d.at
        << " but oracle disagrees (site " << d.site << ")";
  }

 private:
  Cluster& db_;
};

/// QRP2 at each declaration's instant and QRP1 at quiescence, abort-free,
/// under delayed initiation with delay `t`, transactions holding their
/// locks for `hold` once acquired.  Returns the controllers' summed stats.
ControllerStats check_detections_sound(const DdbPropertyCase& p, SimTime t,
                                       SimTime hold) {
  DdbOptions options;
  options.initiation = DdbInitiation::kDelayed;
  options.initiation_delay = t;
  // Soundness check runs without victim aborts: aborts release locks while
  // others wait (violating the DDB model's release-only-when-active axiom,
  // section 6.4 G2), which the paper's correctness proof does not cover.
  options.abort_victim = false;
  Cluster db({.n_sites = p.sites,
              .n_resources = p.hot_set,
              .options = options,
              .seed = p.seed});
  TxnScriptConfig cfg;
  cfg.locks_per_txn = p.locks_per_txn;
  cfg.hot_set = p.hot_set;
  cfg.write_fraction = 0.8;
  cfg.hold_time = hold;
  cfg.max_retries = 0;  // no retries: victims stay wedged (no aborts anyway)
  TxnWorkload workload(db, cfg, p.seed * 17 + 3);
  SoundAtDeclaration sound(db);
  workload.set_observer(&sound);
  workload.start(p.txns);
  db.simulator().run();

  // Completeness: every deadlocked transaction's cycle was found by someone
  // (at least one victim per wedged cycle declared).
  const auto deadlocked = db.oracle_deadlocked();
  if (!deadlocked.empty()) {
    EXPECT_FALSE(db.detections().empty())
        << deadlocked.size() << " transactions wedged, none declared";
  } else {
    EXPECT_EQ(db.detections().size(), 0u);
  }
  return db.total_stats();
}

TEST_P(DdbProperties, DetectionsAreSoundAtDeclaration) {
  check_detections_sound(GetParam(), SimTime::ms(2), SimTime::ms(2));
}

/// T = 50 ms, and transactions hold their locks 4T once acquired.  Only a
/// wait on a blocked transaction or another site's starts its computation
/// before T; those started still run while holders commit and their
/// waiters block again, and a waiter they reached is then followed along
/// its next request (DESIGN.md section 4b).  With a short hold every
/// transaction would have ended or wedged by T.
constexpr SimTime kLongT = SimTime::ms(50);
constexpr SimTime kLongHold = SimTime::ms(200);

class DdbPropertiesLongT : public DdbProperties {};

TEST_P(DdbPropertiesLongT, DetectionsAreSoundAtDeclaration) {
  check_detections_sound(GetParam(), kLongT, kLongHold);
}

std::vector<DdbPropertyCase> make_cases() {
  std::vector<DdbPropertyCase> cases;
  std::uint64_t seed = 100;
  for (const std::uint32_t sites : {2u, 4u}) {
    for (const std::uint32_t txns : {6u, 12u}) {
      for (const std::uint32_t hot : {4u, 8u}) {
        cases.push_back(DdbPropertyCase{seed++, sites, txns, hot, 3});
      }
    }
  }
  cases.push_back(DdbPropertyCase{200, 3, 20, 6, 4});
  cases.push_back(DdbPropertyCase{201, 5, 15, 10, 3});
  // The wide sweep: 3 and 6 sites, hot sets 3-16, 2-4 locks per
  // transaction.  Transactions that take several locks re-block often, so
  // probe computations follow new requests (DESIGN.md section 4b).
  seed = 300;
  for (const std::uint32_t sites : {3u, 6u}) {
    for (const std::uint32_t hot : {3u, 5u, 8u, 12u, 16u}) {
      for (const std::uint32_t locks : {2u, 3u, 4u}) {
        for (const std::uint32_t txns : {8u, 16u, 24u}) {
          cases.push_back(DdbPropertyCase{seed++, sites, txns, hot, locks});
        }
      }
    }
  }
  return cases;
}

// 3 and 6 sites, hot sets 3-16, 2-4 locks per transaction.
std::vector<DdbPropertyCase> make_long_t_cases() {
  std::vector<DdbPropertyCase> cases;
  std::uint64_t seed = 700;
  for (const std::uint32_t sites : {3u, 6u}) {
    for (const std::uint32_t hot : {3u, 5u, 8u, 12u, 16u}) {
      for (const std::uint32_t locks : {2u, 3u, 4u}) {
        for (const std::uint32_t txns : {8u, 24u}) {
          cases.push_back(DdbPropertyCase{seed++, sites, txns, hot, locks});
        }
      }
    }
  }
  return cases;
}

std::string case_name(
    const ::testing::TestParamInfo<DdbPropertyCase>& info) {
  const auto& p = info.param;
  return "s" + std::to_string(p.seed) + "_k" + std::to_string(p.sites) +
         "_t" + std::to_string(p.txns) + "_h" + std::to_string(p.hot_set);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DdbProperties,
                         ::testing::ValuesIn(make_cases()), case_name);
INSTANTIATE_TEST_SUITE_P(Sweep, DdbPropertiesLongT,
                         ::testing::ValuesIn(make_long_t_cases()), case_name);

TEST(DdbPropertiesLongTCoverage, ReachedTransactionsStartAtOnce) {
  // The long-T sweep exercises what it is there for: computations started
  // at block time (note 7), reached transactions followed along their next
  // request (note 4), and walks declared where they first reach their
  // target (note 6; DESIGN.md section 4b).
  ControllerStats total;
  for (const DdbPropertyCase& p : make_long_t_cases()) {
    total += check_detections_sound(p, kLongT, kLongHold);
  }
  EXPECT_GT(total.eager_initiations, 50u);
  EXPECT_GT(total.reaches_followed, 50u);
  EXPECT_GT(total.early_closures, 100u);
}

TEST(DdbPropertiesCoverage, WalksCloseAtTheFirstSiteReachingTheTarget) {
  // Over the main sweep, many walks are declared where they first reach an
  // agent of their target (DESIGN.md section 4b, note 6), each checked by
  // the oracle at its instant like every other declaration.
  ControllerStats total;
  for (const DdbPropertyCase& p : make_cases()) {
    total += check_detections_sound(p, SimTime::ms(2), SimTime::ms(2));
  }
  EXPECT_GT(total.early_closures, 250u);
}

}  // namespace
}  // namespace cmh::ddb
