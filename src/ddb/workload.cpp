#include "ddb/workload.h"

#include <algorithm>
#include <set>

namespace cmh::ddb {

namespace {
constexpr std::uint32_t kNoClient = ~std::uint32_t{0};
}  // namespace

TxnWorkload::TxnWorkload(Cluster& cluster, TxnScriptConfig config,
                         std::uint64_t seed)
    : cluster_(cluster), config_(config), rng_(seed) {}

void TxnWorkload::start(std::uint32_t n_txns) {
  clients_.resize(n_txns);
  for (std::uint32_t i = 0; i < n_txns; ++i) {
    Client& c = clients_[i];
    c.home = SiteId{static_cast<std::uint32_t>(
        rng_.below(cluster_.n_sites()))};
    // Distinct resources per plan; lock order deliberately *unordered*
    // (random), which is what makes deadlock possible.
    std::set<std::uint32_t> picked;
    while (picked.size() <
           std::min(config_.locks_per_txn, config_.hot_set)) {
      picked.insert(
          static_cast<std::uint32_t>(rng_.below(config_.hot_set)));
    }
    for (const std::uint32_t r : picked) {
      const LockMode mode = rng_.chance(config_.write_fraction)
                                ? LockMode::kWrite
                                : LockMode::kRead;
      c.plan.emplace_back(ResourceId{r}, mode);
    }
    // Shuffle acquisition order.
    for (std::size_t k = c.plan.size(); k > 1; --k) {
      std::swap(c.plan[k - 1], c.plan[rng_.below(k)]);
    }
  }

  cluster_.set_grant_listener([this](TransactionId txn, ResourceId) {
    if (const auto i = client_of(txn)) step(*i);
  });
  cluster_.set_abort_listener([this](TransactionId txn) {
    const auto i = client_of(txn);
    if (!i) return;
    Client& c = clients_[*i];
    ++result_.aborted;
    c.txn.reset();
    c.next_lock = 0;
    if (++c.retries > config_.max_retries) {
      ++result_.given_up;
      return;
    }
    cluster_.simulator().schedule(config_.retry_backoff,
                                  [this, client = *i] { launch(client); });
  });

  for (std::uint32_t i = 0; i < n_txns; ++i) {
    const auto stagger = SimTime::us(static_cast<std::int64_t>(
        rng_.below(1 + static_cast<std::uint64_t>(
                           config_.hold_time.micros))));
    cluster_.simulator().schedule(stagger, [this, i] { launch(i); });
  }
}

void TxnWorkload::launch(std::size_t client) {
  Client& c = clients_[client];
  c.txn = cluster_.begin(c.home);
  if (client_by_txn_.size() <= c.txn->value()) {
    client_by_txn_.resize(c.txn->value() + 1, kNoClient);
  }
  client_by_txn_[c.txn->value()] = static_cast<std::uint32_t>(client);
  c.next_lock = 0;
  step(client);
}

std::optional<std::size_t> TxnWorkload::client_of(TransactionId txn) const {
  if (txn.value() >= client_by_txn_.size()) return std::nullopt;
  const std::uint32_t i = client_by_txn_[txn.value()];
  // A client that was aborted or has committed no longer runs txn.
  if (i == kNoClient || clients_[i].txn != txn) return std::nullopt;
  return i;
}

void TxnWorkload::step(std::size_t client) {
  Client& c = clients_[client];
  if (!c.txn || cluster_.status(*c.txn) != TxnStatus::kActive) return;
  if (c.stepping) return;  // synchronous grant re-entered via the listener

  // Issue locks one at a time; a synchronous grant continues inline.
  c.stepping = true;
  while (c.next_lock < c.plan.size()) {
    const auto [resource, mode] = c.plan[c.next_lock];
    ++c.next_lock;
    if (cluster_.granted(*c.txn, resource)) continue;
    const TransactionId txn = *c.txn;
    cluster_.lock(txn, resource, mode);
    // The lock call can synchronously declare deadlock and abort us (the
    // abort listener resets c.txn); bail out if so.
    if (c.txn != txn || cluster_.status(txn) != TxnStatus::kActive ||
        !cluster_.granted(txn, resource)) {
      if (config_.lock_wait_timeout > SimTime::zero() && c.txn == txn &&
          cluster_.status(txn) == TxnStatus::kActive) {
        cluster_.simulator().schedule(
            config_.lock_wait_timeout, [this, client, txn, resource] {
              const Client& cl = clients_[client];
              if (cl.txn == txn &&
                  cluster_.status(txn) == TxnStatus::kActive &&
                  !cluster_.granted(txn, resource)) {
                cluster_.abort(txn);  // presume deadlock after the timeout
              }
            });
      }
      c.stepping = false;
      return;  // a grant (or the abort retry path) will resume us
    }
  }
  c.stepping = false;

  // All locks held: think, then commit.
  const TransactionId txn = *c.txn;
  cluster_.simulator().schedule(config_.hold_time, [this, client, txn] {
    Client& cl = clients_[client];
    if (cl.txn != txn) return;  // aborted and relaunched meanwhile
    if (cluster_.status(txn) != TxnStatus::kActive) return;
    cluster_.finish(txn);
    ++result_.committed;
    cl.txn.reset();
  });
}

}  // namespace cmh::ddb
