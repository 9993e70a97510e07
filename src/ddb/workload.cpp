#include "ddb/workload.h"

#include <algorithm>

namespace cmh::ddb {

namespace {
constexpr std::uint32_t kNoClient = ~std::uint32_t{0};
}  // namespace

std::uint64_t episode_seed(std::uint64_t seed, std::uint64_t index) {
  return Rng(seed * 0x632be59bd9b4e019ULL + index)();
}

TxnWorkload::TxnWorkload(Cluster& cluster, TxnScriptConfig config,
                         std::uint64_t seed)
    : cluster_(cluster), config_(config), rng_(seed) {}

void TxnWorkload::start(std::uint32_t n_txns) {
  cluster_.set_grant_listener([this](TransactionId txn, ResourceId) {
    if (const auto i = client_of(txn)) step(*i);
  });
  cluster_.set_abort_listener([this](TransactionId txn) { on_abort(txn); });
  cluster_.set_detection_listener(
      [this](const DdbDetection& d) { on_declaration(d); });

  // Per client: its home, then distinct resources by rejection, each with
  // its mode, then its stagger.  The plan's order is the draw's, unordered,
  // which is what makes deadlock possible.
  const std::uint32_t locks = std::min(config_.locks_per_txn, config_.hot_set);
  clients_.resize(n_txns);
  for (std::uint32_t i = 0; i < n_txns; ++i) {
    Client& c = clients_[i];
    c.home = SiteId{static_cast<std::uint32_t>(
        rng_.below(cluster_.n_sites()))};
    while (c.plan.size() < locks) {
      const ResourceId r{
          static_cast<std::uint32_t>(rng_.below(config_.hot_set))};
      if (std::any_of(c.plan.begin(), c.plan.end(),
                      [r](const auto& p) { return p.first == r; })) {
        continue;
      }
      c.plan.emplace_back(r, rng_.chance(config_.write_fraction)
                                 ? LockMode::kWrite
                                 : LockMode::kRead);
    }
    const auto stagger = SimTime::us(static_cast<std::int64_t>(rng_.below(
        static_cast<std::uint64_t>(config_.hold_time.micros) + 1)));
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
  c.doomed = false;
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
  if (!c.txn || c.stepping || c.doomed) return;
  const TransactionId txn = *c.txn;
  if (cluster_.status(txn) != TxnStatus::kActive) return;

  // Issue locks one at a time; a synchronous grant continues inline.
  c.stepping = true;
  while (c.next_lock < c.plan.size()) {
    const auto [resource, mode] = c.plan[c.next_lock];
    if (!cluster_.granted(txn, resource)) {
      if (observer_ != nullptr) observer_->before_lock(txn);
      cluster_.lock(txn, resource, mode);
      if (observer_ != nullptr) observer_->after_lock(txn);
      // lock() may grant synchronously (the grant listener already ran), or
      // declare a local cycle and abort txn or doom it on the spot.
      if (c.txn != txn || c.doomed || !cluster_.granted(txn, resource)) {
        c.stepping = false;
        if (config_.lock_wait_timeout > SimTime::zero() && c.txn == txn &&
            !c.doomed && cluster_.status(txn) == TxnStatus::kActive) {
          cluster_.simulator().schedule(
              config_.lock_wait_timeout, [this, client, txn, resource] {
                if (clients_[client].txn == txn &&
                    cluster_.status(txn) == TxnStatus::kActive &&
                    !cluster_.granted(txn, resource)) {
                  cluster_.abort(txn);  // presume deadlock after the timeout
                }
              });
        }
        return;  // a grant (or the abort retry path) will resume us
      }
    }
    ++c.next_lock;
  }
  c.stepping = false;

  // All locks held: think, then commit.
  cluster_.simulator().schedule(config_.hold_time,
                                [this, client, txn] { commit(client, txn); });
}

void TxnWorkload::commit(std::size_t client, TransactionId txn) {
  Client& c = clients_[client];
  if (c.txn != txn || c.doomed) return;  // aborted meanwhile, or on its way
  if (cluster_.status(txn) != TxnStatus::kActive) return;
  cluster_.finish(txn);
  c.txn.reset();
  ++result_.committed;
  if (observer_ != nullptr) observer_->on_commit(txn, c.retries);
}

void TxnWorkload::on_abort(TransactionId txn) {
  const auto i = client_of(txn);
  if (!i) return;
  Client& c = clients_[*i];
  ++result_.aborted;
  c.txn.reset();
  c.doomed = false;
  if (++c.retries > config_.max_retries) {
    ++result_.given_up;
    return;
  }
  cluster_.simulator().schedule(config_.retry_backoff,
                                [this, client = *i] { launch(client); });
}

void TxnWorkload::on_declaration(const DdbDetection& d) {
  if (observer_ != nullptr) observer_->on_declaration(d);
  // The victim issues no further lock and skips its commit.
  if (const auto i = client_of(d.victim)) clients_[*i].doomed = true;
}

}  // namespace cmh::ddb
