// End-to-end benchmark driver for the cmh deadlock-detection library.
//
//   perfbench_driver --workload ddb_hot16|ddb_hot32 --seed N --seconds S
//                    --trace 0|1
//
// Runs one workload for S wall-clock seconds, checks the library's outputs
// as it goes, and prints one JSON object as its last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
//
// The workloads are the shape of the repository's experiment T5
// (bench/bench_t5_ddb_throughput.cpp, "cmh" strategy; EXPERIMENTS.md): a
// 4-site ddb::Cluster, 24 concurrent transactions of 3 locks each, 80%
// writes, locks held 2 ms, delayed initiation T = 2 ms, victim abort and
// retry after 1 ms, at most 25 retries; the records are the hot set.
//   ddb_hot16  the most contended row of T5's sweep (32, 16, 8, 4) on which
//              no transaction runs out of retries (at 8, about one in 800
//              does): deadlocks are frequent, so probe computations, victim
//              aborts and retries sit on the commit path.
//   ddb_hot32  T5's low-contention row: few deadlocks, so the lock managers
//              and remote requests dominate and detection work is light.
// An episode is one T5 run.  A run repeats passes over a fixed set of 128
// episodes drawn from --seed for S seconds; the simulator is deterministic,
// so every pass must replay the first.
//
// End-to-end metrics:
//   throughput_ops_s  committed transactions per simulated second of the
//                     episodes (T5's commit/s).
//   latency_p50_ms, latency_p99_ms
//                     begin-to-commit latency of a transaction in simulated
//                     milliseconds, aborted attempts included.
//   setup_s           median wall time to construct an episode's ddb::Cluster,
//                     over the fastest quarter of the passes.
// The host's speed shifts by up to half over phases lasting seconds to
// minutes, which no statistic of one run can remove, so the gated figures
// other than setup_s are in simulated time and depend on the algorithm
// alone.  The simulator's own speed is the per-layer us_per_event.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ddb/cluster.h"

namespace {

using namespace cmh;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Independent stream per (run seed, index): episode i of seed s always sees
/// the same inputs, whatever ran before it.
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

// ---- workload ---------------------------------------------------------------------

constexpr std::uint32_t kSites = 4;
constexpr std::uint32_t kTxns = 24;
constexpr std::uint32_t kLocksPerTxn = 3;
constexpr double kWriteFraction = 0.8;
constexpr SimTime kHold = SimTime::ms(2);
constexpr SimTime kRetryBackoff = SimTime::ms(1);
constexpr std::uint32_t kMaxRetries = 25;

constexpr std::uint64_t kEpisodesPerPass = 128;

ddb::ClusterConfig cluster_config(std::uint32_t hot_set, std::uint64_t seed) {
  ddb::DdbOptions options;
  options.initiation = ddb::DdbInitiation::kDelayed;
  options.initiation_delay = SimTime::ms(2);
  options.abort_victim = true;
  return ddb::ClusterConfig{.n_sites = kSites,
                            .n_resources = hot_set,
                            .options = options,
                            .seed = seed,
                            .delays = {}};
}

/// T5's transactions, driven as ddb::TxnWorkload drives them (random
/// distinct plan in random order, locks taken one at a time, held, then
/// committed; a victim retried under a fresh id after the backoff), with
/// what TxnWorkload does not expose: each transaction's latency, a lock
/// table that convicts any conflicting grant, and the oracle's verdict on
/// every deadlock declaration at the instant it is made.
class TxnClients {
 public:
  TxnClients(ddb::Cluster& db, std::uint32_t hot_set, std::uint64_t seed)
      : db_(db), rng_(seed), clients_(kTxns), records_(hot_set) {}

  TxnClients(const TxnClients&) = delete;
  TxnClients& operator=(const TxnClients&) = delete;

  void start() {
    db_.set_grant_listener(
        [this](TransactionId txn, ResourceId r) { on_grant(txn, r); });
    db_.set_abort_listener([this](TransactionId txn) { on_abort(txn); });
    db_.set_detection_listener(
        [this](const ddb::DdbDetection& d) { on_detection(d); });
    const auto hot_set = static_cast<std::uint32_t>(records_.size());
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      Client& c = clients_[i];
      c.home = SiteId{static_cast<std::uint32_t>(rng_.below(kSites))};
      while (c.plan.size() < std::min(kLocksPerTxn, hot_set)) {
        const ResourceId r{static_cast<std::uint32_t>(rng_.below(hot_set))};
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
      db_.simulator().schedule(stagger, [this, i] {
        clients_[i].first_begin = db_.simulator().now();
        launch(i);
      });
    }
  }

  [[nodiscard]] bool finished() const {
    return std::all_of(clients_.begin(), clients_.end(),
                       [](const Client& c) { return c.done; });
  }
  [[nodiscard]] const std::string& violation() const { return violation_; }
  [[nodiscard]] std::uint64_t committed() const { return committed_; }
  [[nodiscard]] std::uint64_t aborts() const { return aborts_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t stale() const { return stale_; }
  /// Wall time spent in the oracle, to be taken out of the library's time.
  [[nodiscard]] double oracle_s() const { return oracle_s_; }
  [[nodiscard]] const std::vector<double>& latencies_ms() const {
    return latencies_ms_;
  }

 private:
  struct Client {
    SiteId home;
    std::vector<std::pair<ResourceId, ddb::LockMode>> plan;
    std::size_t next_lock{0};
    std::uint32_t retries{0};
    std::optional<TransactionId> txn;
    SimTime first_begin;
    bool stepping{false};  // re-entrancy guard: grants can be synchronous
    bool doomed{false};    // declared a victim; the abort is on its way
    bool done{false};      // committed or out of retries
    std::vector<std::pair<ResourceId, ddb::LockMode>> held;
  };

  struct RecordState {
    std::uint32_t readers{0};
    bool writer{false};
  };

  void launch(std::size_t i) {
    Client& c = clients_[i];
    const TransactionId txn = db_.begin(c.home);
    c.txn = txn;
    owner_[txn] = i;
    c.next_lock = 0;
    c.doomed = false;
    c.held.clear();
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
        db_.lock(txn, r, mode);
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

  /// The controller calls this before it aborts the victim, so the oracle
  /// still sees the wait-for graph the declaration was made on.  The paper's
  /// soundness proof assumes locks are released only by active transactions;
  /// a victim abort breaks that (see the DDB property tests), and probes of
  /// other computations still in flight can then declare a victim that is
  /// not, or never was, on a cycle.  So the oracle must confirm the episode's
  /// first declaration, made before any abort, and later declarations off a
  /// cycle are counted as stale.  A declared victim's locks are released
  /// before its home site hears of the abort; forget them here so those
  /// grants are not taken for conflicts.
  void on_detection(const ddb::DdbDetection& d) {
    const auto t0 = Clock::now();
    const auto deadlocked = db_.oracle_deadlocked();
    if (std::find(deadlocked.begin(), deadlocked.end(), d.victim) ==
        deadlocked.end()) {
      if (declarations_ == 0) fail("a declared victim was not deadlocked");
      ++stale_;
    }
    ++declarations_;
    oracle_s_ += seconds_between(t0, Clock::now());
    const auto it = owner_.find(d.victim);
    if (it == owner_.end()) return;
    Client& c = clients_[it->second];
    if (c.txn != d.victim) return;
    c.doomed = true;
    release_held(c);
  }

  void on_grant(TransactionId txn, ResourceId r) {
    const auto it = owner_.find(txn);
    if (it == owner_.end()) return;
    Client& c = clients_[it->second];
    if (c.txn != txn || c.doomed) return;
    if (std::any_of(c.held.begin(), c.held.end(),
                    [r](const auto& h) { return h.first == r; })) {
      return;
    }
    const auto planned =
        std::find_if(c.plan.begin(), c.plan.end(),
                     [r](const auto& p) { return p.first == r; });
    if (planned == c.plan.end()) {
      fail("grant of a record the transaction never requested");
      return;
    }
    RecordState& rec = records_[r.value()];
    if (planned->second == ddb::LockMode::kWrite) {
      if (rec.writer || rec.readers > 0) fail("write lock granted over a holder");
      rec.writer = true;
    } else {
      if (rec.writer) fail("read lock granted over a writer");
      ++rec.readers;
    }
    c.held.push_back(*planned);
    step(it->second);
  }

  void on_abort(TransactionId txn) {
    const auto it = owner_.find(txn);
    if (it == owner_.end()) return;
    const std::size_t i = it->second;
    owner_.erase(it);
    Client& c = clients_[i];
    if (c.txn != txn) return;
    ++aborts_;
    release_held(c);
    c.txn.reset();
    c.doomed = false;
    if (++c.retries > kMaxRetries) {
      ++failed_;
      c.done = true;
      return;
    }
    db_.simulator().schedule(kRetryBackoff, [this, i] { launch(i); });
  }

  void commit(std::size_t i, TransactionId txn) {
    Client& c = clients_[i];
    if (c.txn != txn || c.doomed) return;
    if (db_.status(txn) != ddb::TxnStatus::kActive) return;
    release_held(c);
    db_.finish(txn);
    owner_.erase(txn);
    c.txn.reset();
    c.done = true;
    latencies_ms_.push_back(
        static_cast<double>((db_.simulator().now() - c.first_begin).micros) *
        1e-3);
    ++committed_;
  }

  void release_held(Client& c) {
    for (const auto& [r, mode] : c.held) {
      RecordState& rec = records_[r.value()];
      if (mode == ddb::LockMode::kWrite) {
        rec.writer = false;
      } else {
        --rec.readers;
      }
    }
    c.held.clear();
  }

  void fail(const char* what) {
    if (violation_.empty()) violation_ = what;
  }

  ddb::Cluster& db_;
  Rng rng_;
  std::vector<Client> clients_;
  std::vector<RecordState> records_;
  std::unordered_map<TransactionId, std::size_t> owner_;  // live txn -> client
  std::vector<double> latencies_ms_;
  std::uint64_t committed_{0};
  std::uint64_t aborts_{0};
  std::uint64_t failed_{0};
  std::uint64_t declarations_{0};
  std::uint64_t stale_{0};
  double oracle_s_{0};
  std::string violation_;
};

/// After an episode has drained: every client finished, nothing deadlocked,
/// queued or held anywhere.
std::string check_episode(ddb::Cluster& db, const TxnClients& clients,
                          std::uint32_t hot_set) {
  if (!clients.violation().empty()) return clients.violation();
  if (!db.simulator().idle()) return "simulator still busy after run()";
  if (!clients.finished()) return "clients left with unfinished transactions";
  if (!db.oracle_deadlocked().empty()) return "deadlocked transactions remain";
  const TransactionId probe{0xFFFFFFFFu};
  for (std::uint32_t s = 0; s < kSites; ++s) {
    if (!db.controller(SiteId{s}).locks().queued_requests().empty()) {
      return "lock requests still queued after the episode";
    }
  }
  for (std::uint32_t r = 0; r < hot_set; ++r) {
    const ResourceId rid{r};
    const auto& locks = db.controller(db.owner_of(rid)).locks();
    if (!locks.blockers(rid, probe, ddb::LockMode::kWrite).empty()) {
      return "locks still held after every transaction ended";
    }
  }
  return {};
}

// ---- run --------------------------------------------------------------------------

/// Wall-clock record of one pass over the run's episodes.
struct Pass {
  double library_s{0};  // inside the library, oracle checks excluded
  std::vector<double> setup_s;
};

struct RunResult {
  std::string error;  // first correctness failure; empty if none
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  std::vector<Pass> passes;
  // Simulated outcome of one pass; every pass replays it.
  std::uint64_t pass_committed{0};
  double pass_sim_s{0};
  std::vector<double> latencies_ms;
  // Per-layer totals over every pass.
  std::uint64_t ops{0};
  std::uint64_t msgs{0};
  std::uint64_t events{0};
  std::uint64_t requests{0};
  std::uint64_t probes{0};
  std::uint64_t computations{0};
  std::uint64_t declarations{0};
  std::uint64_t stale{0};
  std::uint64_t aborts{0};
};

RunResult run(std::uint32_t hot_set, std::uint64_t seed, double seconds) {
  RunResult res;
  struct Outcome {
    std::uint64_t committed, aborts, events;
    bool operator==(const Outcome&) const = default;
  };
  std::vector<Outcome> first_pass;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(seconds);
  for (std::uint64_t pass = 0;
       res.error.empty() && (pass == 0 || Clock::now() < deadline); ++pass) {
    Pass& cur = res.passes.emplace_back();
    for (std::uint64_t episode = 0;
         res.error.empty() && episode < kEpisodesPerPass; ++episode) {
      const std::uint64_t eseed = derive_seed(seed, episode);
      const auto t0 = Clock::now();
      const auto db =
          std::make_unique<ddb::Cluster>(cluster_config(hot_set, eseed));
      const auto t1 = Clock::now();
      TxnClients clients(*db, hot_set, eseed ^ 0x5bd1e995ULL);
      const auto t2 = Clock::now();
      clients.start();
      const SimTime makespan = db->simulator().run();
      const auto t3 = Clock::now();
      cur.setup_s.push_back(seconds_between(t0, t1));
      cur.library_s += seconds_between(t0, t1) + seconds_between(t2, t3) -
                       clients.oracle_s();
      res.error = check_episode(*db, clients, hot_set);
      res.attempted += kTxns;
      res.failed += clients.failed();
      res.ops += clients.committed();
      res.aborts += clients.aborts();
      res.stale += clients.stale();
      const ddb::ControllerStats st = db->total_stats();
      const sim::SimStats& ss = db->simulator().stats();
      res.msgs += ss.messages_sent;
      res.events += ss.events_processed;
      res.requests += st.local_requests + st.remote_requests_sent;
      res.probes += st.probes_sent;
      res.computations += st.computations_initiated;
      res.declarations += st.deadlocks_declared;
      const Outcome outcome{clients.committed(), clients.aborts(),
                            ss.events_processed};
      if (pass == 0) {
        first_pass.push_back(outcome);
        res.pass_committed += clients.committed();
        res.pass_sim_s += makespan.seconds();
        const auto& lat = clients.latencies_ms();
        res.latencies_ms.insert(res.latencies_ms.end(), lat.begin(),
                                lat.end());
      } else if (res.error.empty() && !(outcome == first_pass[episode])) {
        res.error = "an episode did not replay its first pass";
      }
    }
  }
  if (res.error.empty() && res.failed > 0) {
    res.error = "a transaction ran out of retries";
  }
  if (res.error.empty() && res.ops == 0) res.error = "no operation completed";
  return res;
}

// ---- reporting ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
    } else if (key == "--trace") {
      args.trace = std::string_view(value) == "1";
    } else {
      return std::nullopt;
    }
    if (end != nullptr && *end != '\0') return std::nullopt;
  }
  if (argc % 2 == 0 || !have_workload || !(args.seconds > 0)) {
    return std::nullopt;
  }
  return args;
}

void add_metric(std::string& out, const char* name, double value,
                const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", name, value, unit);
  out += buf;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload ddb_hot16|ddb_hot32 --seed N "
                 "--seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
  std::uint32_t hot_set = 0;
  if (args->workload == "ddb_hot16") {
    hot_set = 16;
  } else if (args->workload == "ddb_hot32") {
    hot_set = 32;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  RunResult res = run(hot_set, args->seed, args->seconds);

  double library_s = 0;
  for (const Pass& pass : res.passes) library_s += pass.library_s;
  // Set-up is timed on the wall clock: take it from the fastest quarter of
  // the passes, which keeps the host's shorter slow phases out of it.
  std::sort(res.passes.begin(), res.passes.end(),
            [](const Pass& a, const Pass& b) {
              return a.library_s < b.library_s;
            });
  const std::size_t kept = std::max<std::size_t>(1, res.passes.size() / 4);
  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kept; ++i) {
    const Pass& pass = res.passes[i];
    setup_s.insert(setup_s.end(), pass.setup_s.begin(), pass.setup_s.end());
  }
  const std::size_t samples = res.latencies_ms.size();
  const double ops = static_cast<double>(res.ops);
  std::string metrics;
  if (!args->trace) {
    add_metric(metrics, "throughput_ops_s",
               ratio(static_cast<double>(res.pass_committed), res.pass_sim_s),
               "1/s");
    add_metric(metrics, "latency_p50_ms", percentile(res.latencies_ms, 0.50),
               "ms");
    add_metric(metrics, "latency_p99_ms", percentile(res.latencies_ms, 0.99),
               "ms");
    add_metric(metrics, "setup_s", percentile(setup_s, 0.50), "s");
  } else {
    const auto per_op = [&](std::uint64_t n) {
      return ratio(static_cast<double>(n), ops);
    };
    add_metric(metrics, "msgs_per_op", per_op(res.msgs), "count");
    add_metric(metrics, "events_per_op", per_op(res.events), "count");
    add_metric(metrics, "requests_per_op", per_op(res.requests), "count");
    add_metric(metrics, "probes_per_op", per_op(res.probes), "count");
    add_metric(metrics, "computations_per_op", per_op(res.computations),
               "count");
    add_metric(metrics, "declarations_per_op", per_op(res.declarations),
               "count");
    add_metric(metrics, "stale_declarations_per_op", per_op(res.stale),
               "count");
    add_metric(metrics, "aborts_per_op", per_op(res.aborts), "count");
    add_metric(metrics, "useful_attempt_ratio",
               ratio(ops, static_cast<double>(res.ops + res.aborts)), "ratio");
    add_metric(metrics, "us_per_event",
               ratio(library_s * 1e6, static_cast<double>(res.events)), "us");
  }

  std::printf("perfbench %s seed=%llu: %zu passes of %llu episodes, %.3f s "
              "in the library, %zu latency samples, %zu set-ups kept%s%s\n",
              args->workload.c_str(),
              static_cast<unsigned long long>(args->seed), res.passes.size(),
              static_cast<unsigned long long>(kEpisodesPerPass), library_s,
              samples, setup_s.size(),
              res.error.empty() ? "" : "; ERROR: ", res.error.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.error.empty() ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(
                  res.attempted, 1)),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return res.error.empty() ? 0 : 1;
}
