#include "ddb/cluster.h"

#include <stdexcept>

namespace cmh::ddb {

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
  for (std::uint32_t i = 0; i < config_.n_sites; ++i) {
    controllers_[i].emplace(SiteId{i}, config_.n_sites,
                            static_cast<SiteHost&>(*this), config_.options);
    sim_.add_node([this, i](sim::NodeId from, BytesView payload) {
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

void Cluster::on_grant(SiteId, TransactionId txn, ResourceId resource) {
  ledger_.grant(txn, resource);
  if (grant_listener_) grant_listener_(txn, resource);
}

void Cluster::on_abort(SiteId site, TransactionId txn) {
  if (txn.value() >= ledger_.size() || ledger_.home_of(txn) != site) return;
  // Only a live transaction can become a victim.  A stale declaration may
  // name one that has already committed (or was already aborted by another
  // site's declaration); its purge must not rewrite history.
  if (!ledger_.end(txn, TxnStatus::kAborted)) return;
  if (abort_listener_) abort_listener_(txn);
}

void Cluster::on_deadlock(SiteId site, TransactionId victim,
                          const DdbProbeTag& tag) {
  const DdbDetection d{victim, tag, site, sim_.now()};
  detections_.push_back(d);
  if (detection_listener_) detection_listener_(d);
}

TransactionId Cluster::begin(SiteId home) {
  if (home.value() >= config_.n_sites) {
    throw std::out_of_range("Cluster::begin: bad home site");
  }
  return ledger_.begin(home);
}

void Cluster::lock(TransactionId txn, ResourceId resource, LockMode mode) {
  if (ledger_.status(txn) != TxnStatus::kActive) {
    throw std::logic_error("Cluster::lock: transaction not active");
  }
  Controller& home = controller(ledger_.home_of(txn));
  ledger_.request(txn, resource, mode, home.lock_count(txn));
  const Outbox::Step step(outbox_);
  home.lock(txn, resource, mode);
}

void Cluster::finish(TransactionId txn) {
  if (!ledger_.end(txn, TxnStatus::kCommitted)) return;
  const Outbox::Step step(outbox_);
  controller(ledger_.home_of(txn)).finish(txn);
}

void Cluster::abort(TransactionId txn) {
  if (ledger_.status(txn) != TxnStatus::kActive) return;
  // The home controller's abort reports to on_abort(), which flips the
  // status and notifies the listener.
  const Outbox::Step step(outbox_);
  controller(ledger_.home_of(txn)).abort(txn);
}

ControllerStats Cluster::total_stats() const {
  ControllerStats total;
  for (const auto& c : controllers_) total += c->stats();
  return total;
}

}  // namespace cmh::ddb
