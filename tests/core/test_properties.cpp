// Randomized property tests: QRP1 (completeness) and QRP2 (soundness) under
// adversarial schedules produced by the random workload driver, across many
// seeds, delay models and initiation policies.
#include <gtest/gtest.h>

#include "runtime/sim_cluster.h"
#include "runtime/workload.h"

namespace cmh {
namespace {

using runtime::SimCluster;

struct PropertyCase {
  std::uint64_t seed;
  std::uint32_t processes;
  std::int64_t delay_t_ms;  // T of kDelayed; 0 initiates on every request
  std::int64_t net_min_us;
  std::int64_t net_max_us;
};

class ProbeProperties : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ProbeProperties, SoundAndComplete) {
  const auto& param = GetParam();
  core::Options options;
  options.initiation_delay = SimTime::ms(param.delay_t_ms);

  SimCluster cluster(param.processes, options, param.seed,
                     sim::DelayModel::uniform(SimTime::us(param.net_min_us),
                                              SimTime::us(param.net_max_us)));

  // QRP2 at declaration instants: the declarer is on a dark cycle NOW.
  std::size_t declarations = 0;
  cluster.set_detection_callback([&](const runtime::DeadlockEvent& e) {
    ++declarations;
    EXPECT_TRUE(cluster.oracle().on_dark_cycle(e.process))
        << "false deadlock declared by " << e.process << " at " << e.at;
    EXPECT_EQ(e.tag.initiator, e.process);
  });

  runtime::WorkloadConfig wl;
  wl.mean_interarrival = SimTime::us(150);
  wl.mean_service = SimTime::us(800);
  wl.max_outstanding = 3;
  wl.issue_until = SimTime::ms(30);
  runtime::RandomWorkload workload(cluster, wl, param.seed * 31 + 7);
  workload.start();
  cluster.run();

  // QRP1 at quiescence: if the system wedged into dark cycles, somebody on
  // a cycle must have declared.
  const auto deadlocked = cluster.oracle().deadlocked_vertices();
  if (!deadlocked.empty()) {
    EXPECT_GT(declarations, 0u)
        << deadlocked.size() << " vertices deadlocked but nobody declared";
    for (const auto& d : cluster.detections()) {
      EXPECT_TRUE(cluster.oracle().on_dark_cycle(d.process));
    }
  } else {
    // No deadlock ever formed (first_deadlock_at catches mid-run cycles,
    // which by permanence would still exist now).
    EXPECT_EQ(declarations, 0u);
    EXPECT_FALSE(workload.first_deadlock_at().has_value());
  }
}

std::vector<PropertyCase> make_cases() {
  std::vector<PropertyCase> cases;
  std::uint64_t seed = 1;
  for (const std::int64_t t_ms : {0, 2}) {
    for (const std::uint32_t n : {4u, 8u, 16u}) {
      for (const auto& [lo, hi] :
           {std::pair<std::int64_t, std::int64_t>{50, 500},
            std::pair<std::int64_t, std::int64_t>{1, 5000}}) {
        for (int rep = 0; rep < 3; ++rep) {
          cases.push_back(PropertyCase{seed++, n, t_ms, lo, hi});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ProbeProperties, ::testing::ValuesIn(make_cases()),
    [](const auto& info) {
      const auto& p = info.param;
      // m0 is T = 0 (section 4.2's rule), m1 is T = 2 ms (section 4.3).
      return "s" + std::to_string(p.seed) + "_n" +
             std::to_string(p.processes) + "_m" +
             std::to_string(p.delay_t_ms == 0 ? 0 : 1) + "_d" +
             std::to_string(p.net_max_us);
    });

// ---- stale-tag ablation keeps correctness ---------------------------------------
//
// NOTE: both ablations disable the paper's traffic-bounding rules, whose
// absence is combinatorially explosive on dense graphs (that is the point of
// bench_a1/bench_a2).  The correctness checks therefore run on small planted
// scenarios, not the random workload.

TEST(StaleTagAblation, ProcessingStaleTagsStillSound) {
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  options.ignore_stale_computations = false;
  SimCluster cluster(6, options, 77);
  cluster.set_detection_callback([&](const runtime::DeadlockEvent& e) {
    EXPECT_TRUE(cluster.oracle().on_dark_cycle(e.process));
  });
  runtime::issue_scenario(cluster, graph::make_ring(6, 6));
  cluster.run();
  // Initiate twice: the second computation supersedes, but with the
  // ablation the first one's probes are processed too.
  (void)cluster.process(ProcessId{0}).initiate();
  (void)cluster.process(ProcessId{0}).initiate();
  cluster.run();
  EXPECT_FALSE(cluster.detections().empty());
}

// ---- forward-every ablation keeps correctness ------------------------------------

TEST(ForwardEveryAblation, StillSoundJustNoisier) {
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  options.forward_every_meaningful_probe = true;
  SimCluster cluster(8, options, 79);
  cluster.set_detection_callback([&](const runtime::DeadlockEvent& e) {
    EXPECT_TRUE(cluster.oracle().on_dark_cycle(e.process));
  });
  // A ring plus a couple of chords: meaningful probes arrive several times
  // at some vertices; correctness must survive the extra forwarding.
  runtime::issue_scenario(cluster, graph::make_ring(8, 8));
  cluster.request(ProcessId{1}, ProcessId{4});
  cluster.request(ProcessId{3}, ProcessId{7});
  cluster.run();
  (void)cluster.process(ProcessId{0}).initiate();
  cluster.run();
  EXPECT_FALSE(cluster.detections().empty());
}

}  // namespace
}  // namespace cmh
