// Closure-to-declaration latency of DDB deadlock detection against the
// initiation delay T (EXPERIMENTS.md P6, P7, P8 and P10), what each
// declaration names at its instant, and the retry tail (P11).  T delays
// only the computations of waits on transactions running at their home,
// the waiter's site, that no live computation has reached (DESIGN.md
// section 4b, notes 5 and 7; P13).
//
//   bench_closure_latency [--first-seed S] [--seeds N] [--episodes E]
//
// Runs the ddb_hot16 and ddb_hot32 episodes of perfbench/ (the T5 shape:
// 4 sites, 24 transactions of 3 locks, 80% writes, 2 ms hold, victim abort
// and retry after 1 ms, at most 25 retries) under delayed initiation with
// T = 0, 1 and 2 ms: E episodes for each of the N seeds S, S+1, ..., drawn
// as perfbench draws them, so at T = 2 ms the commit rate equals
// perfbench's throughput_ops_s for those seeds.
//
// The oracle is asked after every lock() call.  When the requester is on a
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
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ddb/cluster.h"
#include "table.h"

namespace {

using namespace cmh;
using bench::fmt;

constexpr std::uint32_t kSites = 4;
constexpr std::uint32_t kTxns = 24;
constexpr std::uint32_t kLocksPerTxn = 3;
constexpr double kWriteFraction = 0.8;
constexpr SimTime kHold = SimTime::ms(2);
constexpr SimTime kRetryBackoff = SimTime::ms(1);
constexpr std::uint32_t kMaxRetries = 25;

/// Episode i of seed s, as perfbench derives it.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return Rng(seed * 0x632be59bd9b4e019ULL + index)();
}

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

  DeclarationKinds& operator+=(const DeclarationKinds& o) {
    on_cycle += o.on_cycle;
    over += o.over;
    active_off_cycle += o.active_off_cycle;
    named_before += o.named_before;
    return *this;
  }
};

/// perfbench's T5 clients (same draws, same decisions), recording each
/// cycle closure and the latency to the declaration that resolves it, and
/// classifying each declaration.
class ClosureClients {
 public:
  ClosureClients(ddb::Cluster& db, std::uint32_t hot_set, std::uint64_t seed)
      : db_(db), rng_(seed), clients_(kTxns), hot_set_(hot_set) {}

  ClosureClients(const ClosureClients&) = delete;
  ClosureClients& operator=(const ClosureClients&) = delete;

  void start() {
    db_.set_grant_listener(
        [this](TransactionId txn, ResourceId) { on_grant(txn); });
    db_.set_abort_listener([this](TransactionId txn) { on_abort(txn); });
    db_.set_detection_listener(
        [this](const ddb::DdbDetection& d) { on_detection(d); });
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      Client& c = clients_[i];
      c.home = SiteId{static_cast<std::uint32_t>(rng_.below(kSites))};
      while (c.plan.size() < std::min(kLocksPerTxn, hot_set_)) {
        const ResourceId r{static_cast<std::uint32_t>(rng_.below(hot_set_))};
        if (std::any_of(c.plan.begin(), c.plan.end(),
                        [r](const auto& p) { return p.first == r; })) {
          continue;
        }
        c.plan.emplace_back(r, rng_.chance(kWriteFraction)
                                   ? ddb::LockMode::kWrite
                                   : ddb::LockMode::kRead);
      }
      const auto stagger = SimTime::us(static_cast<std::int64_t>(
          rng_.below(static_cast<std::uint64_t>(kHold.micros) + 1)));
      db_.simulator().schedule(stagger, [this, i] { launch(i); });
    }
  }

  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<double>& latencies_ms() const {
    return latencies_ms_;
  }
  [[nodiscard]] const DeclarationKinds& kinds() const { return kinds_; }
  [[nodiscard]] const std::vector<std::uint32_t>& commit_retries() const {
    return commit_retries_;
  }
  [[nodiscard]] std::uint64_t victim_locks() const { return victim_locks_; }

 private:
  struct Client {
    SiteId home;
    std::vector<std::pair<ResourceId, ddb::LockMode>> plan;
    std::size_t next_lock{0};
    std::uint32_t retries{0};
    std::optional<TransactionId> txn;
    bool stepping{false};  // re-entrancy guard: grants can be synchronous
    bool doomed{false};    // declared a victim; the abort is on its way
  };

  /// A lock() call that closed a cycle, waiting for its declaration.
  struct Closure {
    SimTime at;
    std::vector<TransactionId> newly;  // ascending
  };

  void launch(std::size_t i) {
    Client& c = clients_[i];
    const TransactionId txn = db_.begin(c.home);
    c.txn = txn;
    owner_[txn] = i;
    c.next_lock = 0;
    c.doomed = false;
    step(i);
  }

  void step(std::size_t i) {
    Client& c = clients_[i];
    if (!c.txn || c.stepping || c.doomed) return;
    const TransactionId txn = *c.txn;
    if (db_.status(txn) != ddb::TxnStatus::kActive) return;
    c.stepping = true;
    while (c.next_lock < c.plan.size()) {
      const auto [r, mode] = c.plan[c.next_lock];
      if (!db_.granted(txn, r)) {
        locked_lock(txn, r, mode);
        // lock() may grant synchronously (the grant listener already ran)
        // or declare a local cycle and abort txn on the spot.
        if (c.txn != txn || c.doomed || !db_.granted(txn, r)) {
          c.stepping = false;
          return;
        }
      }
      ++c.next_lock;
    }
    c.stepping = false;
    db_.simulator().schedule(kHold, [this, i, txn] { commit(i, txn); });
  }

  /// db_.lock() bracketed by the oracle.  A local cycle is declared inside
  /// the call, so the closure is also noted from the declaration, which
  /// runs before the victim's abort.
  void locked_lock(TransactionId txn, ResourceId r, ddb::LockMode mode) {
    const auto before = db_.oracle_deadlocked();
    before_.assign(before.begin(), before.end());
    locking_ = txn;
    db_.lock(txn, r, mode);
    if (locking_) note_closure();
  }

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

  void on_detection(const ddb::DdbDetection& d) {
    if (locking_) note_closure();
    classify(d.victim);
    for (std::uint32_t r = 0; r < hot_set_; ++r) {
      if (db_.granted(d.victim, ResourceId{r})) ++victim_locks_;
    }
    const auto it =
        std::find_if(open_.begin(), open_.end(), [&](const Closure& c) {
          return std::binary_search(c.newly.begin(), c.newly.end(), d.victim);
        });
    if (it != open_.end()) {
      latencies_ms_.push_back(static_cast<double>((d.at - it->at).micros) *
                              1e-3);
      open_.erase(it);
    }
    const auto owner = owner_.find(d.victim);
    if (owner == owner_.end()) return;
    Client& c = clients_[owner->second];
    if (c.txn == d.victim) c.doomed = true;
  }

  void classify(TransactionId victim) {
    const auto deadlocked = db_.oracle_deadlocked();
    const bool named_before = !named_.insert(victim).second;
    if (std::binary_search(deadlocked.begin(), deadlocked.end(), victim)) {
      ++kinds_.on_cycle;
    } else if (db_.status(victim) != ddb::TxnStatus::kActive) {
      ++kinds_.over;
    } else {
      ++kinds_.active_off_cycle;
      if (named_before) ++kinds_.named_before;
    }
  }

  void on_grant(TransactionId txn) {
    const auto it = owner_.find(txn);
    if (it == owner_.end()) return;
    const Client& c = clients_[it->second];
    if (c.txn != txn || c.doomed) return;
    step(it->second);
  }

  void on_abort(TransactionId txn) {
    const auto it = owner_.find(txn);
    if (it == owner_.end()) return;
    const std::size_t i = it->second;
    owner_.erase(it);
    Client& c = clients_[i];
    if (c.txn != txn) return;
    c.txn.reset();
    c.doomed = false;
    if (++c.retries > kMaxRetries) {
      ++failed_;
      return;
    }
    db_.simulator().schedule(kRetryBackoff, [this, i] { launch(i); });
  }

  void commit(std::size_t i, TransactionId txn) {
    Client& c = clients_[i];
    if (c.txn != txn || c.doomed) return;
    if (db_.status(txn) != ddb::TxnStatus::kActive) return;
    db_.finish(txn);
    owner_.erase(txn);
    c.txn.reset();
    ++committed_;
    commit_retries_.push_back(c.retries);
  }

  ddb::Cluster& db_;
  Rng rng_;
  std::vector<Client> clients_;
  std::uint32_t hot_set_;
  std::unordered_map<TransactionId, std::size_t> owner_;  // live txn -> client
  std::vector<TransactionId> before_;
  std::optional<TransactionId> locking_;  // inside locked_lock(), unnoted
  std::vector<Closure> open_;
  std::vector<double> latencies_ms_;
  std::unordered_set<TransactionId> named_;  // victims declared so far
  DeclarationKinds kinds_;
  std::vector<std::uint32_t> commit_retries_;  // the client's, per commit
  std::uint64_t victim_locks_{0};  // held by each declared victim, summed
  std::uint64_t committed_{0};
  std::uint64_t failed_{0};
};

struct Row {
  std::vector<double> latencies_ms;
  DeclarationKinds kinds;
  std::vector<std::uint32_t> commit_retries;
  std::uint64_t victim_locks{0};
  std::uint64_t committed{0};
  std::uint64_t failed{0};
  double sim_s{0};
};

Row run(std::uint32_t hot_set, SimTime delay, std::uint64_t first_seed,
        std::uint64_t seeds, std::uint64_t episodes) {
  Row row;
  for (std::uint64_t seed = first_seed; seed < first_seed + seeds; ++seed) {
    for (std::uint64_t episode = 0; episode < episodes; ++episode) {
      const std::uint64_t eseed = derive_seed(seed, episode);
      ddb::DdbOptions options;
      options.initiation = ddb::DdbInitiation::kDelayed;
      options.initiation_delay = delay;
      options.abort_victim = true;
      ddb::Cluster db({.n_sites = kSites,
                       .n_resources = hot_set,
                       .options = options,
                       .seed = eseed,
                       .delays = {}});
      ClosureClients clients(db, hot_set, eseed ^ 0x5bd1e995ULL);
      clients.start();
      row.sim_s += db.simulator().run().seconds();
      row.committed += clients.committed();
      row.failed += clients.failed();
      row.kinds += clients.kinds();
      row.commit_retries.insert(row.commit_retries.end(),
                                clients.commit_retries().begin(),
                                clients.commit_retries().end());
      row.victim_locks += clients.victim_locks();
      row.latencies_ms.insert(row.latencies_ms.end(),
                              clients.latencies_ms().begin(),
                              clients.latencies_ms().end());
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
  for (const std::uint32_t hot : {16u, 32u}) {
    for (const std::int64_t t_ms : {0, 1, 2}) {
      Row row = run(hot, SimTime::ms(t_ms), first_seed, seeds, episodes);
      failed += row.failed;
      auto& lat = row.latencies_ms;
      double mean = 0;
      for (const double x : lat) mean += x;
      if (!lat.empty()) mean /= static_cast<double>(lat.size());
      const std::string at_least_t =
          t_ms == 0 ? "-" : share_at_least(lat, static_cast<double>(t_ms));
      const std::string at_least_2 = share_at_least(lat, 2.0);
      table.row({fmt(hot), fmt(t_ms), fmt(lat.size()), fmt(mean),
                 fmt(percentile(lat, 0.50)), fmt(percentile(lat, 0.90)),
                 at_least_t, at_least_2,
                 fmt(row.sim_s > 0 ? static_cast<double>(row.committed) /
                                         row.sim_s
                                   : 0.0,
                     1),
                 fmt(row.failed)});
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
      "waiter's site or homed at another, or by a transaction that a live\n"
      "computation had reached, is declared without waiting T.  Victims\n"
      "hold few locks (the fewest on their cycle), and few commits need many\n"
      "retries.\n");
  return failed == 0 ? 0 : 1;
}
