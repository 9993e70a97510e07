// SimCluster -- a SimHost of N BasicProcess instances that maintains a
// ground-truth colored wait-for graph alongside.
//
// The oracle graph is updated at the *true* instants of the model:
//   create  -- when a request is sent        (G1)
//   blacken -- when the request is delivered (G2)
//   whiten  -- when the reply is sent        (G3)
//   remove  -- when the reply is delivered   (G4)
// so at every point in virtual time the oracle is exactly the paper's global
// wait-for graph, and QRP1/QRP2 can be checked literally against it.
// Sharded runs: construct with SimClusterConfig{.shards = K} to put the
// cluster on the parallel simulation engine.  The oracle is one shared
// mutable graph touched from every delivery, so it cannot be kept while
// handlers run concurrently -- large-scale perf runs set
// track_oracle = false (detection events themselves are still recorded,
// under a mutex).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/invariant_auditor.h"
#include "core/basic_process.h"
#include "graph/wait_for_graph.h"
#include "runtime/sim_host.h"

namespace cmh::runtime {

/// Whether SimClusterConfig::audit defaults on: yes in Debug/sanitizer
/// builds (catch protocol regressions everywhere tests run), no in Release
/// (the auditor copies every in-flight frame -- perf runs opt in).
#ifdef NDEBUG
inline constexpr bool kAuditDefault = false;
#else
inline constexpr bool kAuditDefault = true;
#endif

/// Construction knobs beyond the per-process Options.
struct SimClusterConfig {
  std::uint64_t seed{1};
  sim::DelayModel delays{};
  /// Simulator shard count; >1 runs the cluster on the parallel engine.
  std::uint32_t shards{1};
  /// Maintain the ground-truth colored wait-for graph (and delivery hooks).
  /// Must be false when shards > 1: the oracle is global mutable state.
  bool track_oracle{true};
  /// Attach the paper-invariant auditor (src/check): re-derives the colored
  /// WFG from message traffic and checks G1-G4/P1-P4 plus QRP1/QRP2.
  /// Defaults on in Debug builds, off in Release; must be false when
  /// shards > 1 (same reason as the oracle).
  bool audit{kAuditDefault};
  /// Auditor failure mode: true throws check::InvariantViolationError at the
  /// first violation; false accumulates into audit_report() so a harness can
  /// log every finding.
  bool abort_on_violation{true};
};

class SimCluster final : public SimHost<core::BasicProcess> {
 public:
  SimCluster(std::uint32_t n, core::Options options, std::uint64_t seed = 1,
             sim::DelayModel delays = {});
  SimCluster(std::uint32_t n, core::Options options,
             const SimClusterConfig& config);

  [[nodiscard]] const graph::WaitForGraph& oracle() const { return oracle_; }

  /// p_from sends a request to p_to (kicks the initiation policy).
  void request(ProcessId from, ProcessId to);

  /// p_from replies to p_to's pending request.
  void reply(ProcessId from, ProcessId to);

  /// Per-delivery hooks (run after the process handled the message).  Used
  /// by workloads and baseline detectors to react to request/reply arrivals.
  /// Requires oracle tracking: the hook path decodes every delivery.
  using DeliveryHook =
      std::function<void(ProcessId to, ProcessId from, const core::Message&)>;
  void add_delivery_hook(DeliveryHook hook);

  /// Runs the simulator until idle; returns final virtual time.  With the
  /// auditor attached, the end-of-run checks (P4, QRP1) fire at quiescence.
  SimTime run();

  /// Runs until the first deadlock declaration or until idle.  Returns true
  /// if a declaration happened.  Auditor end-of-run checks fire only if the
  /// transport drained (an early stop leaves frames legitimately in flight).
  bool run_until_detection();

  /// The attached auditor, or nullptr when SimClusterConfig::audit is off.
  [[nodiscard]] check::InvariantAuditor* auditor() { return auditor_.get(); }

  /// Violations accumulated so far (empty string when clean or audit off).
  [[nodiscard]] std::string audit_report() const {
    return auditor_ ? auditor_->report() : std::string{};
  }

 private:
  /// NodeId <-> ProcessId shim between the simulator's observer hook and the
  /// auditor (node ids equal process ids by construction).
  class AuditAdapter final : public sim::SimObserver {
   public:
    explicit AuditAdapter(check::InvariantAuditor& auditor)
        : auditor_(auditor) {}
    void on_send(sim::NodeId from, sim::NodeId to, BytesView payload,
                 SimTime at) override {
      auditor_.on_send(ProcessId{from}, ProcessId{to}, payload, at);
    }
    void on_deliver(sim::NodeId from, sim::NodeId to, BytesView payload,
                    SimTime at) override {
      auditor_.on_deliver(ProcessId{from}, ProcessId{to}, payload, at);
    }

   private:
    check::InvariantAuditor& auditor_;
  };

  void deliver(ProcessId to, ProcessId from, BytesView payload) override;
  void on_deadlock(ProcessId who, const ProbeTag& tag) override;

  bool track_oracle_;
  std::unique_ptr<check::InvariantAuditor> auditor_;
  std::unique_ptr<AuditAdapter> audit_adapter_;
  graph::WaitForGraph oracle_;
  std::vector<DeliveryHook> hooks_;
};

}  // namespace cmh::runtime
