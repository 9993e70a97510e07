// Closure-to-declaration latency of DDB deadlock detection against the
// initiation delay T (EXPERIMENTS.md P6, P7, P8 and P10), what each
// declaration names at its instant, and the retry tail (P11).  T delays
// only the computations of waits on transactions running at their home,
// the waiter's site (DESIGN.md section 4b, note 7; P13).
//
//   bench_closure_latency [--first-seed S] [--seeds N] [--episodes E]
//
// Runs the ddb_hot16 and ddb_hot32 episodes of perfbench/ (the T5 shape:
// 4 sites, 24 transactions of 3 locks, 80% writes, 2 ms hold, victim abort
// and retry after 1 ms, at most 25 retries) under delayed initiation with
// T = 0, 1 and 2 ms: E episodes for each of the N seeds S, S+1, ...  Each
// episode is a ddb::TxnWorkload seeded as perfbench seeds it
// (ddb::episode_seed()), so at T = 2 ms the commit rate of one seed equals
// perfbench's throughput_ops_s for it.  The bench drives no transaction
// itself: a ddb::TxnObserver watches the workload's clients.
//
// The oracle is asked around every lock() call.  When the requester is on a
// cycle of the global wait-for graph afterwards, that call closed the
// cycle, and it newly deadlocked the transactions on a cycle now but not
// before.  The latency of the closure is the simulated time from the call
// to the first declaration whose victim is one of them.  A closure that no
// such declaration resolves (another closure's victim broke its cycle) is
// not counted.
//
// The second table classifies every declaration at its instant, before the
// victim's abort, per commit: the victim is on an oracle cycle; its
// transaction is already over (its home has aborted it, or it committed);
// or it is still active and on no cycle -- the harmful kind, which can
// abort a live transaction for nothing.  "named before" counts the last
// kind whose victim an earlier declaration had already named (its abort is
// on its way).
//
// The third table is the retry tail of the same episodes: the share of
// commits whose client needed at least 5 retries, the most retries any
// commit needed, and the mean number of locks a declared victim held at
// the declaration's instant (the work its abort throws away).
//
// The last line is one JSON object, the T = 2 ms commit rate of each
// workload at full precision, for comparison with perfbench:
//   {"commits_per_sim_s_t2": {"ddb_hot16": R16, "ddb_hot32": R32}}
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ddb/cluster.h"
#include "ddb/workload.h"
#include "table.h"

namespace {

using namespace cmh;
using bench::fmt;

constexpr std::uint32_t kSites = 4;
constexpr std::uint32_t kTxns = 24;

/// Nearest-rank percentile; reorders `v`.
double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

/// Declarations by what their victim was at the declaration's instant.
struct DeclarationKinds {
  std::uint64_t on_cycle{0};
  std::uint64_t over{0};              // home aborted it, or it committed
  std::uint64_t active_off_cycle{0};  // the harmful kind
  std::uint64_t named_before{0};      // ... named by an earlier declaration
};

/// One table row: the episodes of one hot set and one T.
struct Row {
  std::vector<double> latencies_ms;
  DeclarationKinds kinds;
  std::vector<std::uint32_t> commit_retries;  // the client's, per commit
  std::uint64_t victim_locks{0};  // held by each declared victim, summed
  std::uint64_t committed{0};
  std::uint64_t failed{0};
  double sim_s{0};
};

/// Watches one T5 episode and adds to its row: each cycle closure's
/// latency to the declaration that resolves it, each declaration's kind,
/// and the retries of each commit.
class ClosureObserver final : public ddb::TxnObserver {
 public:
  ClosureObserver(ddb::Cluster& db, std::uint32_t hot_set, Row& row)
      : db_(db), hot_set_(hot_set), row_(row) {}

  /// The oracle before the call.  A local cycle is declared inside the
  /// call, so the closure is also noted from the declaration, which runs
  /// before the victim's abort.
  void before_lock(TransactionId txn) override {
    const auto before = db_.oracle_deadlocked();
    before_.assign(before.begin(), before.end());
    locking_ = txn;
  }

  void after_lock(TransactionId) override {
    if (locking_) note_closure();
  }

  void on_declaration(const ddb::DdbDetection& d) override {
    if (locking_) note_closure();
    classify(d.victim);
    for (std::uint32_t r = 0; r < hot_set_; ++r) {
      if (db_.granted(d.victim, ResourceId{r})) ++row_.victim_locks;
    }
    const auto it =
        std::find_if(open_.begin(), open_.end(), [&](const Closure& c) {
          return std::binary_search(c.newly.begin(), c.newly.end(), d.victim);
        });
    if (it != open_.end()) {
      row_.latencies_ms.push_back(
          static_cast<double>((d.at - it->at).micros) * 1e-3);
      open_.erase(it);
    }
  }

  void on_commit(TransactionId, std::uint32_t retries) override {
    row_.commit_retries.push_back(retries);
  }

 private:
  /// A lock() call that closed a cycle, waiting for its declaration.
  struct Closure {
    SimTime at;
    std::vector<TransactionId> newly;  // ascending
  };

  void note_closure() {
    const TransactionId txn = *locking_;
    locking_.reset();
    const auto now = db_.oracle_deadlocked();
    if (!std::binary_search(now.begin(), now.end(), txn)) return;
    Closure closure{db_.simulator().now(), {}};
    std::set_difference(now.begin(), now.end(), before_.begin(),
                        before_.end(), std::back_inserter(closure.newly));
    open_.push_back(std::move(closure));
  }

  void classify(TransactionId victim) {
    const auto deadlocked = db_.oracle_deadlocked();
    const bool named_before = !named_.insert(victim).second;
    if (std::binary_search(deadlocked.begin(), deadlocked.end(), victim)) {
      ++row_.kinds.on_cycle;
    } else if (db_.status(victim) != ddb::TxnStatus::kActive) {
      ++row_.kinds.over;
    } else {
      ++row_.kinds.active_off_cycle;
      if (named_before) ++row_.kinds.named_before;
    }
  }

  ddb::Cluster& db_;
  std::uint32_t hot_set_;
  Row& row_;
  std::vector<TransactionId> before_;
  std::optional<TransactionId> locking_;  // inside a lock() call, unnoted
  std::vector<Closure> open_;
  std::unordered_set<TransactionId> named_;  // victims declared so far
};

Row run(std::uint32_t hot_set, SimTime delay, std::uint64_t first_seed,
        std::uint64_t seeds, std::uint64_t episodes) {
  Row row;
  const ddb::TxnScriptConfig script = ddb::t5_script(hot_set);
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    for (std::uint64_t episode = 0; episode < episodes; ++episode) {
      const std::uint64_t eseed = ddb::episode_seed(seed, episode);
      ddb::DdbOptions options = ddb::t5_options();
      options.initiation_delay = delay;
      ddb::Cluster db({.n_sites = kSites,
                       .n_resources = hot_set,
                       .options = options,
                       .seed = eseed,
                       .delays = {}});
      ddb::TxnWorkload workload(db, script, eseed ^ ddb::kWorkloadSeedSalt);
      ClosureObserver observer(db, hot_set, row);
      workload.set_observer(&observer);
      workload.start(kTxns);
      row.sim_s += db.simulator().run().seconds();
      row.committed += workload.result().committed;
      row.failed += workload.result().given_up;
    }
  }
  return row;
}

std::string share_at_least(const std::vector<double>& v, double ms) {
  if (v.empty()) return "-";
  const auto n = std::count_if(v.begin(), v.end(),
                               [ms](double x) { return x >= ms; });
  return fmt(100.0 * static_cast<double>(n) / static_cast<double>(v.size()),
             1) + "%";
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t first_seed = 401;
  std::uint64_t seeds = 10;
  std::uint64_t episodes = 128;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::uint64_t value = std::strtoull(argv[i + 1], nullptr, 10);
    if (key == "--first-seed") {
      first_seed = value;
    } else if (key == "--seeds") {
      seeds = value;
    } else if (key == "--episodes") {
      episodes = value;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--first-seed S] [--seeds N] [--episodes E]\n",
                   argv[0]);
      return 2;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "%s: every option takes a value\n", argv[0]);
    return 2;
  }

  bench::Table table(
      "Closure-to-declaration latency vs initiation delay T (T5 shape, "
      "seeds " + fmt(first_seed) + "-" + fmt(first_seed + seeds - 1) + ", " +
          fmt(episodes) + " episodes each)",
      {"hot set", "T (ms)", "detections", "mean (ms)", "p50 (ms)", "p90 (ms)",
       "share >= T", "share >= 2 ms", "commits per sim s", "given up"});
  bench::Table kinds_table(
      "Declarations per commit by the victim's state at the instant (same "
      "episodes)",
      {"hot set", "T (ms)", "declarations", "on a cycle", "already over",
       "active, on no cycle", "named before"});
  bench::Table retries_table(
      "Retry tail and the work victims held (same episodes)",
      {"hot set", "T (ms)", "commits", "share >= 5 retries", "max retries",
       "locks held per declared victim"});
  std::uint64_t failed = 0;
  std::string rates_t2;  // the summary line's members
  for (const std::uint32_t hot : {16u, 32u}) {
    for (const std::int64_t t_ms : {0, 1, 2}) {
      Row row = run(hot, SimTime::ms(t_ms), first_seed, seeds, episodes);
      failed += row.failed;
      const double rate =
          row.sim_s > 0 ? static_cast<double>(row.committed) / row.sim_s : 0.0;
      if (t_ms == 2) {
        char member[64];
        std::snprintf(member, sizeof member, "%s\"ddb_hot%u\": %.17g",
                      rates_t2.empty() ? "" : ", ", hot, rate);
        rates_t2 += member;
      }
      auto& lat = row.latencies_ms;
      double mean = 0;
      for (const double x : lat) mean += x;
      if (!lat.empty()) mean /= static_cast<double>(lat.size());
      const std::string at_least_t =
          t_ms == 0 ? "-" : share_at_least(lat, static_cast<double>(t_ms));
      const std::string at_least_2 = share_at_least(lat, 2.0);
      table.row({fmt(hot), fmt(t_ms), fmt(lat.size()), fmt(mean),
                 fmt(percentile(lat, 0.50)), fmt(percentile(lat, 0.90)),
                 at_least_t, at_least_2, fmt(rate, 1), fmt(row.failed)});
      const DeclarationKinds& k = row.kinds;
      const auto per_commit = [&row](std::uint64_t n) {
        return fmt(row.committed > 0 ? static_cast<double>(n) /
                                           static_cast<double>(row.committed)
                                     : 0.0,
                   3);
      };
      kinds_table.row({fmt(hot), fmt(t_ms),
                       per_commit(k.on_cycle + k.over + k.active_off_cycle),
                       per_commit(k.on_cycle), per_commit(k.over),
                       per_commit(k.active_off_cycle),
                       per_commit(k.named_before)});
      const auto& retries = row.commit_retries;
      const auto tail = std::count_if(retries.begin(), retries.end(),
                                      [](std::uint32_t n) { return n >= 5; });
      const std::uint64_t declarations =
          k.on_cycle + k.over + k.active_off_cycle;
      retries_table.row(
          {fmt(hot), fmt(t_ms), fmt(retries.size()),
           retries.empty()
               ? "-"
               : fmt(100.0 * static_cast<double>(tail) /
                         static_cast<double>(retries.size()),
                     2) + "%",
           fmt(retries.empty()
                   ? 0u
                   : *std::max_element(retries.begin(), retries.end())),
           fmt(declarations > 0 ? static_cast<double>(row.victim_locks) /
                                      static_cast<double>(declarations)
                                : 0.0,
               3)});
    }
  }
  table.print();
  kinds_table.print();
  retries_table.print();
  std::printf(
      "Expected shape: the share waiting at least T grows with T but stays\n"
      "small: a cycle closed by a wait on a transaction blocked at the\n"
      "waiter's site or homed at another is declared without waiting T.\n"
      "Victims hold few locks (the fewest on their cycle), and few commits\n"
      "need many retries.\n");
  std::printf("{\"commits_per_sim_s_t2\": {%s}}\n", rates_t2.c_str());
  return failed == 0 ? 0 : 1;
}
