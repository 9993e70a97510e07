// Transaction workload driver for ddb::Cluster.
//
// Stands in for the client applications of a production DDB (see DESIGN.md
// substitutions): each transaction acquires a sequence of locks (in order),
// holds them for a think time, then commits.  Aborted victims are retried
// with a fresh transaction id after a backoff, which is how real lock
// managers consume deadlock detection.  These are the T5 clients that
// perfbench/ runs: the same draws and the same decisions, so an episode
// seeded as perfbench seeds it is perfbench's episode.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/block_pool.h"
#include "common/rng.h"
#include "ddb/cluster.h"

namespace cmh::ddb {

struct TxnScriptConfig {
  std::uint32_t locks_per_txn{3};
  double write_fraction{0.5};
  /// Think time between acquiring all locks and committing.
  SimTime hold_time{SimTime::ms(2)};
  /// Retry backoff after an abort.
  SimTime retry_backoff{SimTime::ms(1)};
  std::uint32_t max_retries{10};
  /// Client-side lock-wait timeout (0 = disabled).  When a lock is not
  /// granted within this window the client aborts the transaction itself --
  /// the "detection" strategy CMH replaces; bench_t5 compares the two.
  SimTime lock_wait_timeout{SimTime::zero()};
  /// Draw resources from [0, hot_set) to control contention.
  std::uint32_t hot_set{16};
};

/// The T5 shape (EXPERIMENTS.md T5, and perfbench's workloads).  Clients:
/// 3 locks per transaction drawn from `hot_set` resources, 80% of them
/// writes, held 2 ms, an abort retried after 1 ms at most 25 times.
[[nodiscard]] inline TxnScriptConfig t5_script(std::uint32_t hot_set) {
  return {.locks_per_txn = 3, .write_fraction = 0.8,
          .hold_time = SimTime::ms(2), .retry_backoff = SimTime::ms(1),
          .max_retries = 25, .hot_set = hot_set};
}
/// Detection: delayed initiation at T = 2 ms, victim abort.
[[nodiscard]] inline DdbOptions t5_options() {
  return {.initiation = DdbInitiation::kDelayed,
          .initiation_delay = SimTime::ms(2), .abort_victim = true};
}

struct WorkloadResult {
  std::uint64_t committed{0};
  std::uint64_t aborted{0};
  std::uint64_t given_up{0};
};

/// Episode `index` of a run seeded `seed`: an independent stream per (run
/// seed, index), so an episode sees the same inputs whatever ran before it.
/// perfbench/ seeds episode i's Cluster with episode_seed(seed, i) and its
/// TxnWorkload with episode_seed(seed, i) ^ kWorkloadSeedSalt.
[[nodiscard]] std::uint64_t episode_seed(std::uint64_t seed,
                                         std::uint64_t index);
inline constexpr std::uint64_t kWorkloadSeedSalt = 0x5bd1e995;

/// Sees what a TxnWorkload's clients do, and changes none of it.
class TxnObserver {
 public:
  virtual ~TxnObserver() = default;
  /// Bracket each Cluster::lock() a client calls.  Whatever the call does
  /// synchronously (a grant, a local cycle's declaration, an abort) is seen
  /// between the two.
  virtual void before_lock(TransactionId /*txn*/) {}
  virtual void after_lock(TransactionId /*txn*/) {}
  /// A deadlock declaration at its instant, before its victim is aborted.
  virtual void on_declaration(const DdbDetection& /*d*/) {}
  /// A commit; `retries` counts the aborted attempts of its client before it.
  virtual void on_commit(TransactionId /*txn*/, std::uint32_t /*retries*/) {}
};

/// Runs `n_txns` scripted transactions concurrently (all started at virtual
/// time 0, with small random stagger) and drives each to commit or
/// exhausted retries.  The workload owns the cluster's grant, abort and
/// detection listeners; a caller that needs to see declarations attaches a
/// TxnObserver.
class TxnWorkload {
 public:
  TxnWorkload(Cluster& cluster, TxnScriptConfig config, std::uint64_t seed);

  TxnWorkload(const TxnWorkload&) = delete;
  TxnWorkload& operator=(const TxnWorkload&) = delete;

  /// nullptr detaches.  The observer must outlive the run.
  void set_observer(TxnObserver* observer) { observer_ = observer; }

  /// Launches `n_txns` clients; run the cluster simulator afterwards.
  void start(std::uint32_t n_txns);

  [[nodiscard]] const WorkloadResult& result() const { return result_; }

 private:
  struct Client {
    SiteId home;
    std::vector<std::pair<ResourceId, LockMode>> plan;
    std::uint32_t next_lock{0};
    std::uint32_t retries{0};
    std::optional<TransactionId> txn;
    bool stepping{false};  // re-entrancy guard (synchronous grants)
    bool doomed{false};    // declared a victim; the abort is on its way
  };

  void launch(std::size_t client);
  void step(std::size_t client);  // issue the next lock, or hold and commit
  void commit(std::size_t client, TransactionId txn);
  void on_abort(TransactionId txn);
  void on_declaration(const DdbDetection& d);
  /// The client running `txn`, if one runs it now.
  [[nodiscard]] std::optional<std::size_t> client_of(TransactionId txn) const;

  Cluster& cluster_;
  TxnScriptConfig config_;
  Rng rng_;
  PooledVector<Client> clients_;  // pooled: 24 clients take 1.3 KiB
  /// Indexed by the dense transaction id: the client that began it.
  std::vector<std::uint32_t> client_by_txn_;
  TxnObserver* observer_{nullptr};
  WorkloadResult result_;
};

}  // namespace cmh::ddb
