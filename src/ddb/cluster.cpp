#include "ddb/cluster.h"

#include <algorithm>
#include <stdexcept>

namespace cmh::ddb {

namespace {
// A transaction's lock list is sorted by resource.
template <typename Locks>
auto lower_lock(Locks& locks, ResourceId resource) {
  return std::lower_bound(
      locks.begin(), locks.end(), resource,
      [](const auto& l, ResourceId r) { return l.resource < r; });
}

template <typename Locks>
auto find_lock(Locks& locks, ResourceId resource) {
  const auto it = lower_lock(locks, resource);
  return it != locks.end() && it->resource == resource ? it : locks.end();
}
}  // namespace

Cluster::Cluster(ClusterConfig config)
    : config_(config),
      sim_(config.seed, config.delays),
      outbox_(config.n_sites,
              [this](SiteId from, SiteId to, BytesView payload) {
                sim_.send(from.value(), to.value(), payload);
              }),
      controllers_(config.n_sites) {
  sim_.set_step_hook(this);
  sim_.reserve_nodes(config_.n_sites);
  for (std::uint32_t i = 0; i < config_.n_sites; ++i) sim_.add_node({});
  for (std::uint32_t i = 0; i < config_.n_sites; ++i) {
    const SiteId site{i};
    Controller& controller = controllers_[i].emplace(
        site, config_.n_sites,
        [this, site](SiteId to, BytesView payload) {
          outbox_.send(site, to, payload);
        },
        [this](ResourceId r) { return owner_of(r); }, config_.options,
        [this](SimTime delay, std::function<void()> fn) {
          sim_.schedule(delay, std::move(fn));
        });
    controller.set_grant_callback(
        [this](TransactionId txn, ResourceId resource) {
          if (txn.value() < txns_.size()) {
            auto& locks = txns_[txn.value()].locks;
            const auto it = find_lock(locks, resource);
            if (it != locks.end()) it->granted = true;
          }
          if (grant_listener_) grant_listener_(txn, resource);
        });
    controller.set_abort_callback([this, site](TransactionId txn) {
      if (txn.value() >= txns_.size()) return;
      TxnState& state = txns_[txn.value()];
      // Only a live transaction can become a victim.  A stale declaration
      // may name one that has already committed (or was already aborted by
      // another site's declaration); its purge must not rewrite history.
      if (state.home != site || state.status != TxnStatus::kActive) return;
      state.status = TxnStatus::kAborted;
      if (abort_listener_) abort_listener_(txn);
    });
    controller.set_deadlock_callback(
        [this, site](TransactionId victim, const DdbProbeTag& tag) {
          const DdbDetection d{victim, tag, site, sim_.now()};
          detections_.push_back(d);
          if (detection_listener_) detection_listener_(d);
        });
    sim_.set_handler(i, [this, i](sim::NodeId from, BytesView payload) {
      Controller& c = *controllers_[i];
      const Status st = for_each_frame(payload, [&c, from](BytesView frame) {
        return c.on_message(SiteId{from}, frame);
      });
      if (!st.ok()) {
        throw std::logic_error("ddb::Cluster: bad frame: " + st.to_string());
      }
    });
  }
}

const Cluster::TxnState& Cluster::state(TransactionId txn) const {
  return txns_.at(txn.value());
}

Cluster::TxnState& Cluster::state(TransactionId txn) {
  return txns_.at(txn.value());
}

TransactionId Cluster::begin(SiteId home) {
  if (home.value() >= config_.n_sites) {
    throw std::out_of_range("Cluster::begin: bad home site");
  }
  const TransactionId txn{static_cast<std::uint32_t>(txns_.size())};
  txns_.push_back(TxnState{home, TxnStatus::kActive, {}});
  return txn;
}

void Cluster::lock(TransactionId txn, ResourceId resource, LockMode mode) {
  auto& s = state(txn);
  if (s.status != TxnStatus::kActive) {
    throw std::logic_error("Cluster::lock: transaction not active");
  }
  const LockCount held = controller(s.home).lock_count(txn);
  const auto it = lower_lock(s.locks, resource);
  if (it == s.locks.end() || it->resource != resource) {
    s.locks.insert(it, TxnLock{resource, mode, false, held});
  } else if (mode == LockMode::kWrite && it->mode == LockMode::kRead) {
    // Upgrade: not granted again until the write lock is actually held.
    it->mode = mode;
    it->granted = false;
    it->held = held;
  }
  const Outbox::Step step(outbox_);
  controller(s.home).lock(txn, resource, mode);
}

void Cluster::finish(TransactionId txn) {
  auto& s = state(txn);
  if (s.status != TxnStatus::kActive) return;
  s.status = TxnStatus::kCommitted;
  const Outbox::Step step(outbox_);
  controller(s.home).finish(txn);
}

void Cluster::abort(TransactionId txn) {
  const auto& s = state(txn);
  if (s.status != TxnStatus::kActive) return;
  // The controller's abort broadcast triggers the home-site abort callback,
  // which flips the status and notifies the listener.
  const Outbox::Step step(outbox_);
  controller(s.home).abort(txn);
}

TxnStatus Cluster::status(TransactionId txn) const { return state(txn).status; }

bool Cluster::granted(TransactionId txn, ResourceId resource) const {
  const auto& locks = state(txn).locks;
  const auto it = find_lock(locks, resource);
  return it != locks.end() && it->granted;
}

bool Cluster::all_granted(TransactionId txn) const {
  const auto& locks = state(txn).locks;
  return std::all_of(locks.begin(), locks.end(),
                     [](const TxnLock& l) { return l.granted; });
}

SiteId Cluster::home_of(TransactionId txn) const { return state(txn).home; }

std::span<const TransactionId> Cluster::oracle_deadlocked() const {
  // Union of every site's local wait edges at the transaction level, plus
  // the waits implied by in-flight (grey) requests (append_grey_waits()).
  // At simulator idle there are no in-flight requests and this is exactly
  // the global transaction-wait-for graph.
  oracle_edges_.clear();
  for (const auto& c : controllers_) {
    c->intra_edges(oracle_site_edges_);
    oracle_edges_.insert(oracle_edges_.end(), oracle_site_edges_.begin(),
                         oracle_site_edges_.end());
  }
  for (std::uint32_t t = 0; t < txns_.size(); ++t) {
    const TxnState& s = txns_[t];
    if (s.status != TxnStatus::kActive) continue;
    const TransactionId txn{t};
    for (const TxnLock& l : s.locks) {
      if (l.granted) continue;
      append_grey_waits(controllers_[owner_of(l.resource).value()]->locks(),
                        txn, l.resource, l.mode, l.held, oracle_edges_);
    }
  }
  return oracle_.on_cycle(oracle_edges_);
}

ControllerStats Cluster::total_stats() const {
  ControllerStats total;
  for (const auto& c : controllers_) total += c->stats();
  return total;
}

}  // namespace cmh::ddb
