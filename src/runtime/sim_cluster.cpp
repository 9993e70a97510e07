#include "runtime/sim_cluster.h"

#include <stdexcept>

namespace cmh::runtime {

SimCluster::SimCluster(std::uint32_t n, core::Options options,
                       std::uint64_t seed, sim::DelayModel delays)
    : SimCluster(n, options,
                 SimClusterConfig{.seed = seed, .delays = delays}) {}

SimCluster::SimCluster(std::uint32_t n, core::Options options,
                       const SimClusterConfig& config)
    : SimHost(n, config.seed, config.delays, config.shards, options),
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
    simulator().set_observer(audit_adapter_.get());
  }
}

void SimCluster::on_deadlock(ProcessId who, const ProbeTag& tag) {
  // QRP2 is checked at this exact instant: the shadow graph still reflects
  // the moment of declaration.
  if (auditor_) auditor_->on_declare(who, simulator().now());
  SimHost::on_deadlock(who, tag);
}

void SimCluster::deliver(ProcessId to, ProcessId from, BytesView payload) {
  if (!track_oracle_) {
    // Perf path (and the only shard-safe path): no decode, no global graph,
    // no hooks -- just the process.  Runs concurrently across shards.
    SimHost::deliver(to, from, payload);
    if (auditor_) auditor_->check_local_view(process(to), simulator().now());
    return;
  }
  // Oracle transitions happen at delivery instants (G2, G4); decode once to
  // classify, then hand the decoded message to the process.
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
  process(to).handle(from, *decoded);
  // P3: the receiver's local view must equal the shadow graph's projection
  // now that it has folded in this delivery.
  if (auditor_) auditor_->check_local_view(process(to), simulator().now());
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

SimTime SimCluster::run() {
  const SimTime t = SimHost::run();
  if (auditor_) auditor_->finalize(t);
  return t;
}

bool SimCluster::run_until_detection() {
  const bool found =
      simulator().run_while_pending([this] { return detection_count() > 0; });
  // An early stop leaves frames legitimately in flight; only a drained
  // transport is quiescent enough for the P4/QRP1 oracles.
  if (auditor_ && simulator().idle()) auditor_->finalize(simulator().now());
  return found;
}

}  // namespace cmh::runtime
