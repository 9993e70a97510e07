#include "runtime/sim_cluster.h"

#include <stdexcept>

namespace cmh::runtime {

SimCluster::SimCluster(std::uint32_t n, core::Options options,
                       std::uint64_t seed, sim::DelayModel delays)
    : SimCluster(n, options,
                 SimClusterConfig{.seed = seed, .delays = delays}) {}

SimCluster::SimCluster(std::uint32_t n, core::Options options,
                       const SimClusterConfig& config)
    : sim_(config.seed, config.delays, config.shards),
      track_oracle_(config.track_oracle) {
  if (track_oracle_ && config.shards > 1) {
    throw std::invalid_argument(
        "SimCluster: the oracle graph is global mutable state and cannot be "
        "tracked while shard workers run handlers concurrently; construct "
        "with track_oracle = false");
  }
  if (config.audit) {
    if (config.shards > 1) {
      throw std::invalid_argument(
          "SimCluster: the invariant auditor is global mutable state and "
          "cannot observe concurrent shard workers; construct with "
          "audit = false");
    }
    // QRP1 ("every dark cycle has a declarer") is only sound when edge
    // creation guarantees a probe computation; manual initiation makes
    // missed cycles the harness's choice, not a protocol bug.
    auditor_ = std::make_unique<check::InvariantAuditor>(check::AuditorConfig{
        .abort_on_violation = config.abort_on_violation,
        .check_qrp1 = options.initiation != core::InitiationMode::kManual});
    audit_adapter_ = std::make_unique<AuditAdapter>(*auditor_);
    sim_.set_observer(audit_adapter_.get());
  }
  processes_.reserve(n);
  // Node ids equal process ids by construction.
  for (std::uint32_t i = 0; i < n; ++i) sim_.add_node({});
  for (std::uint32_t i = 0; i < n; ++i) {
    const ProcessId id{i};
    auto process = std::make_unique<core::BasicProcess>(
        id,
        [this, id](ProcessId to, BytesView payload) {
          sim_.send(id.value(), to.value(), payload);
        },
        options,
        [this](SimTime delay, std::function<void()> fn) {
          sim_.schedule(delay, std::move(fn));
        });
    process->set_deadlock_callback([this, id](const ProbeTag& tag) {
      const DeadlockEvent event{tag, id, sim_.now()};
      // QRP2 is checked at this exact instant: the shadow graph still
      // reflects the moment of declaration.
      if (auditor_) auditor_->on_declare(id, event.at);
      {
        const MutexLock lock(detections_mutex_);
        detections_.push_back(event);
        detection_count_.store(detections_.size(), std::memory_order_release);
      }
      if (on_detection_) on_detection_(event);
    });
    processes_.push_back(std::move(process));
    sim_.set_handler(i, [this, id](sim::NodeId from, BytesView payload) {
      on_delivery(id, ProcessId{from}, payload);
    });
  }
}

void SimCluster::on_delivery(ProcessId to, ProcessId from,
                             BytesView payload) {
  if (!track_oracle_) {
    // Perf path (and the only shard-safe path): no decode, no global graph,
    // no hooks -- just the process.  Runs concurrently across shards.
    const auto st = processes_[to.value()]->on_message(from, payload);
    if (!st.ok()) throw std::logic_error("on_message: " + st.to_string());
    if (auditor_) {
      auditor_->check_local_view(*processes_[to.value()], sim_.now());
    }
    return;
  }
  // Oracle transitions happen at delivery instants (G2, G4); decode first to
  // classify, then hand the same bytes to the process.
  auto decoded = core::decode(payload);
  if (!decoded.ok()) {
    throw std::logic_error("SimCluster: undecodable payload: " +
                           decoded.status().to_string());
  }
  if (std::holds_alternative<core::RequestMsg>(*decoded)) {
    const auto st = oracle_.blacken(from, to);
    if (!st.ok()) throw std::logic_error("oracle blacken: " + st.to_string());
  } else if (std::holds_alternative<core::ReplyMsg>(*decoded)) {
    const auto st = oracle_.remove(to, from);
    if (!st.ok()) throw std::logic_error("oracle remove: " + st.to_string());
  }
  const auto st = processes_.at(to.value())->on_message(from, payload);
  if (!st.ok()) throw std::logic_error("on_message: " + st.to_string());
  // P3: the receiver's local view must equal the shadow graph's projection
  // now that it has folded in this delivery.
  if (auditor_) {
    auditor_->check_local_view(*processes_[to.value()], sim_.now());
  }
  for (const DeliveryHook& hook : hooks_) hook(to, from, *decoded);
}

void SimCluster::request(ProcessId from, ProcessId to) {
  if (track_oracle_) {
    const auto st = oracle_.create(from, to);
    if (!st.ok()) throw std::logic_error("oracle create: " + st.to_string());
  }
  process(from).send_request(to);
}

void SimCluster::reply(ProcessId from, ProcessId to) {
  // Edge (to, from) whitens when p_from sends the reply (G3).
  if (track_oracle_) {
    const auto st = oracle_.whiten(to, from);
    if (!st.ok()) throw std::logic_error("oracle whiten: " + st.to_string());
  }
  process(from).send_reply(to);
}

void SimCluster::add_delivery_hook(DeliveryHook hook) {
  if (!track_oracle_) {
    throw std::logic_error(
        "SimCluster::add_delivery_hook: the oracle-free delivery path does "
        "not decode messages, so hooks would never fire");
  }
  hooks_.push_back(std::move(hook));
}

core::ProcessStats SimCluster::total_stats() const {
  core::ProcessStats total;
  for (const auto& p : processes_) {
    const auto& s = p->stats();
    total.requests_sent += s.requests_sent;
    total.replies_sent += s.replies_sent;
    total.probes_sent += s.probes_sent;
    total.probes_received += s.probes_received;
    total.meaningful_probes += s.meaningful_probes;
    total.computations_initiated += s.computations_initiated;
    total.deadlocks_declared += s.deadlocks_declared;
    total.wfgd_messages_sent += s.wfgd_messages_sent;
    total.wfgd_messages_received += s.wfgd_messages_received;
  }
  return total;
}

SimTime SimCluster::run() {
  const SimTime t = sim_.run();
  if (auditor_) auditor_->finalize(t);
  return t;
}

bool SimCluster::run_until_detection() {
  const bool found =
      sim_.run_while_pending([this] { return detection_count() > 0; });
  // An early stop leaves frames legitimately in flight; only a drained
  // transport is quiescent enough for the P4/QRP1 oracles.
  if (auditor_ && sim_.idle()) auditor_->finalize(sim_.now());
  return found;
}

}  // namespace cmh::runtime
