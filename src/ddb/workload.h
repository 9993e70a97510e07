// Transaction workload driver for ddb::Cluster.
//
// Stands in for the client applications of a production DDB (see DESIGN.md
// substitutions): each transaction acquires a sequence of locks (in order),
// holds them for a think time, then commits.  Aborted victims are retried
// with a fresh transaction id after a backoff, which is how real lock
// managers consume deadlock detection.
#pragma once

#include <optional>
#include <vector>

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

struct WorkloadResult {
  std::uint64_t committed{0};
  std::uint64_t aborted{0};
  std::uint64_t given_up{0};
};

/// Runs `n_txns` scripted transactions concurrently (all started at virtual
/// time 0, with small random stagger) and drives each to commit or
/// exhausted retries.
class TxnWorkload {
 public:
  TxnWorkload(Cluster& cluster, TxnScriptConfig config, std::uint64_t seed);

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
  };

  void launch(std::size_t client);
  void step(std::size_t client);  // issue next lock / hold / commit
  /// The client running `txn`, if one runs it now.
  [[nodiscard]] std::optional<std::size_t> client_of(TransactionId txn) const;

  Cluster& cluster_;
  TxnScriptConfig config_;
  Rng rng_;
  std::vector<Client> clients_;
  /// Indexed by the dense transaction id: the client that began it.
  std::vector<std::uint32_t> client_by_txn_;
  WorkloadResult result_;
};

}  // namespace cmh::ddb
