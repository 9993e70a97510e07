// Experiment F1 -- the section-4.3 initiation-timer tradeoff.
//
// "if T is too small too many probe computations are initiated and if T is
// too large the time taken to detect deadlock (which is at least T) is too
// large."  Two workloads isolate the two sides:
//   (a) overhead: contended but deadlock-free traffic (every wait is
//       transient) -- counts probe computations avoided as T grows;
//   (b) latency: a ring deadlock planted at a known instant -- measures
//       detection delay, which is bounded below by T.
//
// The churn side's request stream is not the same at every T.  The
// simulator draws message i's delay on a channel from i, and a channel is
// FIFO, so the probes a T sends shift the delays of the requests and
// replies behind them, and with them when each process issues its next
// request.  Over the six clean seeds the churn side issues 31.8 requests
// per run at T = 0, 33.7 at T = 1 ms, 29.3 at T = 2 ms and 30.8 from
// T = 5 ms on; so its computations column mixes the T effect with that
// drift (ROADMAP item 8: a delay draw per traffic class fixes it).
#include "graph/generators.h"
#include "runtime/sim_cluster.h"
#include "runtime/workload.h"
#include "table.h"

namespace {

using namespace cmh;
using bench::fmt;

core::Options delayed(SimTime t) {
  core::Options o;
  o.initiation = core::InitiationMode::kDelayed;
  o.initiation_delay = t;
  o.propagate_wfgd = false;
  return o;
}

/// (a) Deadlock-free churn: single-outstanding requests, no requests while
/// blocked, generous service -- waits are transient, a few ms long.
struct ChurnSample {
  std::uint64_t computations{0};
  std::uint64_t probes{0};
  bool deadlocked{false};
};

ChurnSample run_churn(SimTime t, std::uint64_t seed) {
  runtime::SimCluster cluster(16, delayed(t), seed);
  runtime::WorkloadConfig wl;
  wl.mean_interarrival = SimTime::us(400);
  wl.mean_service = SimTime::ms(2);
  wl.max_outstanding = 1;
  wl.ordered_requests = true;  // lock-ordering discipline: live by design
  wl.issue_until = SimTime::ms(60);
  runtime::RandomWorkload workload(cluster, wl, seed * 7 + 5);
  workload.start();
  cluster.run();
  ChurnSample s;
  const auto stats = cluster.total_stats();
  s.computations = stats.computations_initiated;
  s.probes = stats.probes_sent;
  s.deadlocked = workload.first_deadlock_at().has_value();
  return s;
}

/// (b) Planted ring: the cycle completes at a known virtual time.
double run_latency(SimTime t, std::uint64_t seed) {
  runtime::SimCluster cluster(8, delayed(t), seed);
  const SimTime plant_at = SimTime::ms(5);
  for (std::uint32_t i = 0; i < 6; ++i) {
    cluster.simulator().schedule(
        plant_at + SimTime::us(100 * i), [&cluster, i] {
          cluster.request(ProcessId{i}, ProcessId{(i + 1) % 6});
        });
  }
  const SimTime formed = plant_at + SimTime::us(100 * 5);
  cluster.run();
  if (cluster.detections().empty()) return -1;
  return (cluster.detections()[0].at - formed).seconds() * 1e3;
}

void run() {
  bench::Table table(
      "F1: initiation timer T sweep -- overhead on transient waits vs "
      "detection latency on a real deadlock",
      {"T (ms)", "computations (churn)", "probes (churn)",
       "detect latency (ms)", "missed"});

  const std::vector<std::int64_t> timer_ms = {0, 1, 2, 5, 10, 20, 50};
  const std::vector<std::uint64_t> seeds = {3, 5, 9, 11, 17, 23};

  // Deadlock-free seeds are picked once, at T = 5 ms.  The request stream
  // differs across T (see the header), but ordered requests keep every
  // stream deadlock-free, so the check below is defensive.
  std::vector<std::uint64_t> clean_seeds;
  for (std::uint64_t seed = 1; seed < 200 && clean_seeds.size() < 6; ++seed) {
    if (!run_churn(SimTime::ms(5), seed).deadlocked) {
      clean_seeds.push_back(seed);
    }
  }

  for (const auto t : timer_ms) {
    double computations = 0;
    double probes = 0;
    int churn_runs = 0;
    for (const auto seed : clean_seeds) {
      const ChurnSample s = run_churn(SimTime::ms(t), seed);
      if (s.deadlocked) continue;  // defensive; should not happen
      computations += static_cast<double>(s.computations);
      probes += static_cast<double>(s.probes);
      ++churn_runs;
    }
    double latency = 0;
    int missed = 0;
    for (const auto seed : seeds) {
      const double l = run_latency(SimTime::ms(t), seed);
      if (l < 0) {
        ++missed;
      } else {
        latency += l;
      }
    }
    const int detected = static_cast<int>(seeds.size()) - missed;
    table.row({fmt(static_cast<std::int64_t>(t)),
               churn_runs ? bench::fmt(computations / churn_runs, 1) : "-",
               churn_runs ? bench::fmt(probes / churn_runs, 1) : "-",
               detected ? bench::fmt(latency / detected, 2) : "-",
               fmt(static_cast<std::int64_t>(missed))});
  }
  table.print();
  std::printf(
      "Expected shape: on the churn side, computations collapse once T\n"
      "exceeds the typical transient wait (~2-4ms here) -- the section-4.3\n"
      "saving.  On the deadlock side, latency ~= T + one cycle round-trip\n"
      "and 'missed' stays 0: the timer postpones detection, never loses\n"
      "it.\n");
}

}  // namespace

int main() {
  run();
  return 0;
}
