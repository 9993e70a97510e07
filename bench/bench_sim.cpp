// Simulator-level macro benchmarks (google-benchmark): end-to-end event
// throughput of the discrete-event core, full detection waves on the
// cluster harness and whole DDB episodes at scale.  These are the
// trajectory numbers behind BENCH_sim.json; bench_micro.cpp covers the
// per-operation costs.
#include <benchmark/benchmark.h>

#include <chrono>

#include "ddb/cluster.h"
#include "ddb/workload.h"
#include "graph/generators.h"
#include "runtime/sim_cluster.h"
#include "runtime/workload.h"
#include "sim/simulator.h"

namespace {

using namespace cmh;

/// Rigs an n-node ring where every delivery forwards the payload to the
/// next node until `hops` runs dry, then injects one frame per node.
/// Measures raw event-loop throughput: queue ops, FIFO clamping, payload
/// copies, handler dispatch.
void BM_SimMessageChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr std::int64_t kHopsPerRound = 20000;
  sim::Simulator sim(1, sim::DelayModel::fixed(SimTime::us(10)));
  std::int64_t hops = 0;
  for (std::uint32_t i = 0; i < n; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < n; ++i) {
    sim.set_handler(i, [&sim, &hops, i, n](sim::NodeId, BytesView p) {
      if (hops-- > 0) sim.send(i, (i + 1) % n, p);
    });
  }
  const Bytes frame{0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49};
  std::uint64_t events = 0;
  for (auto _ : state) {
    hops = kHopsPerRound;
    for (std::uint32_t i = 0; i < n; ++i) sim.send(i, (i + 1) % n, frame);
    sim.run();
    events += kHopsPerRound + n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimMessageChurn)->Arg(2)->Arg(16)->Arg(128);

/// Same churn drained through run_batch: the throughput interface the
/// experiment drivers use.
void BM_SimBatchedChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  constexpr std::int64_t kHopsPerRound = 20000;
  sim::Simulator sim(1, sim::DelayModel::fixed(SimTime::us(10)));
  std::int64_t hops = 0;
  for (std::uint32_t i = 0; i < n; ++i) sim.add_node({});
  for (std::uint32_t i = 0; i < n; ++i) {
    sim.set_handler(i, [&sim, &hops, i, n](sim::NodeId, BytesView p) {
      if (hops-- > 0) sim.send(i, (i + 1) % n, p);
    });
  }
  const Bytes frame{0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49};
  std::uint64_t events = 0;
  for (auto _ : state) {
    hops = kHopsPerRound;
    for (std::uint32_t i = 0; i < n; ++i) sim.send(i, (i + 1) % n, frame);
    while (sim.run_batch(256) > 0) {
    }
    events += kHopsPerRound + n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_SimBatchedChurn)->Arg(16);

/// Timer-heavy load: interleaves timers with message traffic, stressing
/// the callback event kind and the shared priority queue.
void BM_SimTimerStorm(benchmark::State& state) {
  sim::Simulator sim(3, sim::DelayModel::fixed(SimTime::us(5)));
  const sim::NodeId a = sim.add_node({});
  const sim::NodeId b = sim.add_node([](sim::NodeId, BytesView) {});
  (void)a;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(SimTime::us(i % 97), [] {});
      if (i % 4 == 0) sim.send(a, b, Bytes{1});
    }
    sim.run();
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(sim.stats().events_processed));
}
BENCHMARK(BM_SimTimerStorm);

/// Full detection wave: wedge an n-ring (with tails), initiate, and run to
/// quiescence.  Covers request/reply traffic, probe fan-out, the oracle's
/// graph bookkeeping, and every codec -- the paper's T1/T2 experiments in
/// benchmark form.
void BM_DetectionWaveRing(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  std::uint64_t probes = 0;
  for (auto _ : state) {
    runtime::SimCluster cluster(n, options, /*seed=*/17);
    runtime::issue_scenario(cluster, graph::make_ring(n, n));
    cluster.run();
    benchmark::DoNotOptimize(cluster.process(ProcessId{0}).initiate());
    cluster.run();
    if (cluster.detections().empty()) {
      state.SkipWithError("ring detection failed");
      return;
    }
    probes += cluster.total_stats().probes_sent;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DetectionWaveRing)->Range(8, 256)->Complexity();

/// Parallel-engine scaling sweep: 65536 processes tiled into 4096 disjoint
/// 16-cycles (contiguous blocks, so the cycles stay shard-local), every ring
/// head initiating at once.  Only the detection wave is timed (manual time);
/// cluster construction and the wedge run are setup.  The arg is the shard
/// count K -- identical schedule for every K by the determinism invariant,
/// so the sweep isolates pure engine scaling.  The oracle is off: it is
/// global state the parallel engine must not share (and its bookkeeping
/// would dwarf the event loop at this scale anyway).
void BM_ShardedDetectionWave(benchmark::State& state) {
  const auto shards = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kProcs = 65536;
  constexpr std::uint32_t kRingLen = 16;
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  const graph::Scenario scenario =
      graph::make_disjoint_rings(kProcs, kRingLen);
  std::uint64_t probes = 0;
  for (auto _ : state) {
    runtime::SimCluster cluster(
        kProcs, options,
        // audit = false explicitly: it defaults on in Debug builds and
        // rejects shards > 1 (the auditor is global mutable state).
        runtime::SimClusterConfig{.seed = 17,
                                  .shards = shards,
                                  .track_oracle = false,
                                  .audit = false});
    runtime::issue_scenario(cluster, scenario);
    cluster.run();  // wedge: all requests delivered, every process blocked
    for (const ProcessId head : scenario.planted_cycle) {
      cluster.process(head).initiate();
    }
    const auto t0 = std::chrono::steady_clock::now();
    cluster.run();  // timed: 4096 concurrent detection waves
    const auto t1 = std::chrono::steady_clock::now();
    if (cluster.detections().size() < scenario.planted_cycle.size()) {
      state.SkipWithError("detection waves incomplete");
      return;
    }
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    probes += cluster.total_stats().probes_sent;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(probes));
}
BENCHMARK(BM_ShardedDetectionWave)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

/// Random request/reply workload at steady state: the closest thing to the
/// paper's "normal operation" overhead measurements.  ordered_requests
/// keeps the traffic contended but deadlock-free so every round drains.
void BM_WorkloadChurn(benchmark::State& state) {
  const core::Options options;  // T = 0: every request initiates
  runtime::WorkloadConfig cfg;
  cfg.issue_until = SimTime::ms(20);
  cfg.ordered_requests = true;
  for (auto _ : state) {
    runtime::SimCluster cluster(32, options, /*seed=*/23);
    runtime::RandomWorkload workload(cluster, cfg, /*seed=*/23);
    workload.start();
    cluster.run();
    benchmark::DoNotOptimize(cluster.total_stats().probes_sent);
    benchmark::DoNotOptimize(workload.requests_issued());
  }
}
BENCHMARK(BM_WorkloadChurn);

/// One DDB transaction episode at scale: 4 sites and `txns` closed-loop
/// transactions of 3 locks (80% writes) over `txns` resources, all of them
/// hot; delayed initiation at T = 2 ms with victim abort and retry; cluster
/// seed 1, workload seed 10.  Items are simulator events, so the rate reads
/// as µs per event: flat in `txns` iff detection cost follows the wait-for
/// neighbourhood rather than the size of a site's lock table.
void BM_DdbScaleEpisode(benchmark::State& state) {
  const auto txns = static_cast<std::uint32_t>(state.range(0));
  ddb::DdbOptions options;
  options.initiation = ddb::DdbInitiation::kDelayed;
  options.initiation_delay = SimTime::ms(2);
  options.abort_victim = true;
  ddb::TxnScriptConfig cfg;
  cfg.locks_per_txn = 3;
  cfg.write_fraction = 0.8;
  cfg.hot_set = txns;
  cfg.hold_time = SimTime::ms(2);
  cfg.max_retries = 25;
  std::uint64_t events = 0;
  for (auto _ : state) {
    ddb::Cluster db(
        {.n_sites = 4, .n_resources = txns, .options = options, .seed = 1});
    ddb::TxnWorkload workload(db, cfg, /*seed=*/10);
    workload.start(txns);
    (void)db.simulator().run();
    if (workload.result().committed + workload.result().given_up != txns) {
      state.SkipWithError("episode did not drain");
      return;
    }
    events += db.simulator().stats().events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.counters["events"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_DdbScaleEpisode)
    ->Arg(96)
    ->Arg(384)
    ->Arg(1536)
    ->Arg(6144);

}  // namespace

BENCHMARK_MAIN();
