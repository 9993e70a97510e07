// SimCluster + InvariantAuditor integration: clean runs stay silent, forged
// traffic is caught at the exact axiom, and the multi-shard guard rails hold.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/axioms.h"
#include "core/messages.h"
#include "core/options.h"
#include "runtime/sim_cluster.h"
#include "sim/simulator.h"

namespace cmh::runtime {
namespace {

SimClusterConfig audited(bool abort_on_violation = true) {
  SimClusterConfig config;
  config.seed = 7;
  config.audit = true;
  config.abort_on_violation = abort_on_violation;
  return config;
}

Bytes forged_probe() {
  return core::encode(
      core::Message{core::ProbeMsg{ProbeTag{ProcessId{1}, 1}}});
}

TEST(AuditedCluster, RingDeadlockRunsCleanUnderAbortModeAudit) {
  // abort_on_violation means the run itself is the assertion: any axiom
  // violation would throw out of the event loop.
  SimCluster cluster(3, core::Options{}, audited());
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{2});
  cluster.request(ProcessId{2}, ProcessId{0});
  EXPECT_TRUE(cluster.run_until_detection());
  cluster.run();  // drain remaining traffic; fires P4/QRP1 end-of-run checks

  ASSERT_NE(cluster.auditor(), nullptr);
  EXPECT_TRUE(cluster.auditor()->violations().empty())
      << cluster.audit_report();
  EXPECT_FALSE(cluster.auditor()->declared().empty());
  // The re-derived shadow graph agrees with the cluster's own oracle.
  EXPECT_EQ(cluster.auditor()->derived().edges().size(),
            cluster.oracle().edges().size());
}

TEST(AuditedCluster, RequestReplyChurnRunsClean) {
  SimCluster cluster(3, core::Options{}, audited());
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.run();
  cluster.request(ProcessId{1}, ProcessId{2});
  cluster.run();
  cluster.reply(ProcessId{2}, ProcessId{1});
  cluster.run();
  cluster.reply(ProcessId{1}, ProcessId{0});
  cluster.run();

  ASSERT_NE(cluster.auditor(), nullptr);
  EXPECT_TRUE(cluster.auditor()->violations().empty())
      << cluster.audit_report();
  EXPECT_TRUE(cluster.auditor()->derived().edges().empty());
  EXPECT_TRUE(cluster.detections().empty());
}

TEST(AuditedCluster, ForgedProbeThrowsInAbortMode) {
  SimCluster cluster(2, core::Options{}, audited());
  // A probe along a wait-for edge that does not exist (P1), injected
  // directly at the transport below the process layer.
  EXPECT_THROW(cluster.simulator().send(1, 0, forged_probe()),
               check::InvariantViolationError);
}

TEST(AuditedCluster, ForgedProbeAccumulatesStructuredP1Report) {
  SimCluster cluster(2, core::Options{},
                     audited(/*abort_on_violation=*/false));
  cluster.simulator().send(1, 0, forged_probe());
  cluster.run();

  ASSERT_NE(cluster.auditor(), nullptr);
  ASSERT_EQ(cluster.auditor()->violations().size(), 1u)
      << cluster.audit_report();
  const check::Violation& v = cluster.auditor()->violations().front();
  EXPECT_EQ(v.axiom, check::Axiom::kP1);
  EXPECT_EQ(v.from, ProcessId{1});
  EXPECT_EQ(v.to, ProcessId{0});
  EXPECT_NE(cluster.audit_report().find(check::to_string(check::Axiom::kP1)),
            std::string::npos);
}

TEST(AuditedCluster, ManualInitiationGatesQRP1Off) {
  // kManual means nobody ever initiates a computation, so an undeclared
  // cycle at quiescence is expected, not a missed deadlock.
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  SimCluster cluster(2, options, audited());
  cluster.request(ProcessId{0}, ProcessId{1});
  cluster.request(ProcessId{1}, ProcessId{0});
  cluster.run();  // would throw QRP1 if the gate were wrong

  ASSERT_NE(cluster.auditor(), nullptr);
  EXPECT_TRUE(cluster.auditor()->violations().empty())
      << cluster.audit_report();
}

TEST(AuditedCluster, AuditOffMeansNoAuditor) {
  SimClusterConfig config;
  config.audit = false;
  SimCluster cluster(2, core::Options{}, config);
  EXPECT_EQ(cluster.auditor(), nullptr);
  EXPECT_EQ(cluster.audit_report(), "");
}

TEST(AuditedCluster, AuditRejectsMultiShard) {
  SimClusterConfig config;
  config.shards = 2;
  config.track_oracle = false;
  config.audit = true;
  EXPECT_THROW(SimCluster(4, core::Options{}, config),
               std::invalid_argument);
}

TEST(AuditedCluster, ObserverHookRejectsMultiShard) {
  class NullObserver final : public sim::SimObserver {
   public:
    void on_send(sim::NodeId, sim::NodeId, BytesView, SimTime) override {}
    void on_deliver(sim::NodeId, sim::NodeId, BytesView, SimTime) override {}
  };
  NullObserver observer;
  sim::Simulator sharded(1, sim::DelayModel{}, /*shards=*/2);
  EXPECT_THROW(sharded.set_observer(&observer), std::logic_error);

  sim::Simulator single(1, sim::DelayModel{}, /*shards=*/1);
  single.set_observer(&observer);
  EXPECT_EQ(single.observer(), &observer);
  single.set_observer(nullptr);  // detaching is always allowed
  EXPECT_EQ(single.observer(), nullptr);
}

}  // namespace
}  // namespace cmh::runtime
