// Microbenchmarks (google-benchmark): hot-path costs of the building
// blocks -- message codecs, lock-manager operations, probe handling (basic
// model and DDB controller), a whole T5-shaped DDB episode, and oracle cycle
// checks.  These are the per-operation costs behind the experiment tables.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "core/basic_process.h"
#include "core/messages.h"
#include "ddb/cluster.h"
#include "ddb/lock_manager.h"
#include "ddb/workload.h"
#include "graph/generators.h"
#include "graph/wait_for_graph.h"

namespace {

using namespace cmh;

void BM_EncodeProbe(benchmark::State& state) {
  const core::Message msg{core::ProbeMsg{ProbeTag{ProcessId{7}, 123456}}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode(msg));
  }
}
BENCHMARK(BM_EncodeProbe);

void BM_DecodeProbe(benchmark::State& state) {
  const Bytes bytes =
      core::encode(core::Message{core::ProbeMsg{ProbeTag{ProcessId{7}, 1}}});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::decode(bytes));
  }
}
BENCHMARK(BM_DecodeProbe);

void BM_EncodeWfgd(benchmark::State& state) {
  core::WfgdMsg msg;
  for (std::uint32_t i = 0; i < state.range(0); ++i) {
    msg.edges.push_back(graph::Edge{ProcessId{i}, ProcessId{i + 1}});
  }
  const core::Message m{msg};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode(m));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EncodeWfgd)->Range(1, 1 << 10)->Complexity(benchmark::oN);

// The host of a lone basic-model process: counts the bytes it sends.
class ByteSinkHost final : public core::ProcessHost {
 public:
  void send(ProcessId, ProcessId, BytesView payload) override {
    bytes += payload.size();
  }
  void schedule(ProcessId, SimTime, std::function<void()>) override {}
  void on_deadlock(ProcessId, const ProbeTag&) override {}

  std::uint64_t bytes{0};
};

void BM_ProbeHandling(benchmark::State& state) {
  // One meaningful-probe delivery at a non-initiator with an out edge.
  core::Options options;
  options.initiation = core::InitiationMode::kManual;
  ByteSinkHost host;
  core::BasicProcess p(ProcessId{1}, host, options);
  p.send_request(ProcessId{2});
  if (!p.on_message(ProcessId{0},
                    core::encode(core::Message{core::RequestMsg{}}))
           .ok()) {
    state.SkipWithError("request delivery failed");
    return;
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const Bytes probe = core::encode(
        core::Message{core::ProbeMsg{ProbeTag{ProcessId{0}, ++seq}}});
    benchmark::DoNotOptimize(p.on_message(ProcessId{0}, probe));
  }
  benchmark::DoNotOptimize(host.bytes);
}
BENCHMARK(BM_ProbeHandling);

void BM_LockAcquireAbort(benchmark::State& state) {
  ddb::LockManager lm;
  const ddb::LockMode mode = ddb::LockMode::kWrite;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.acquire(ResourceId{1}, TransactionId{1}, mode, SiteId{0}));
    benchmark::DoNotOptimize(lm.abort(TransactionId{1}));
  }
}
BENCHMARK(BM_LockAcquireAbort);

void BM_LockContendedQueue(benchmark::State& state) {
  std::vector<ddb::WaitEdge> edges;
  for (auto _ : state) {
    state.PauseTiming();
    ddb::LockManager lm;
    (void)lm.acquire(ResourceId{1}, TransactionId{0}, ddb::LockMode::kWrite,
                     SiteId{0});
    state.ResumeTiming();
    for (std::uint32_t t = 1; t <= state.range(0); ++t) {
      benchmark::DoNotOptimize(lm.acquire(ResourceId{1}, TransactionId{t},
                                          ddb::LockMode::kWrite, SiteId{0}));
    }
    lm.wait_edges(edges);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_LockContendedQueue)->Range(4, 256)->Complexity();

// The host of a lone controller S0 of two sites (resources live at site
// r % 2): counts the bytes sent and ignores everything else.
class SinkHost final : public ddb::SiteHost {
 public:
  void send(SiteId, SiteId, BytesView payload) override {
    bytes += payload.size();
  }
  [[nodiscard]] SiteId owner_of(ResourceId r) const override {
    return SiteId{r.value() % 2};
  }
  void schedule(SimTime, std::function<void()>) override {}
  void on_grant(SiteId, TransactionId, ResourceId) override {}
  void on_abort(SiteId, TransactionId) override {}
  void on_deadlock(SiteId, TransactionId, const ddb::DdbProbeTag&) override {}

  std::uint64_t bytes{0};
};

void BM_DdbHandleProbe(benchmark::State& state) {
  // One meaningful probe of a foreign computation at a warmed-up DDB
  // controller: stale-floor pruning, the section-6.5 black-edge check,
  // intra-reachability, labelling and one forwarded probe.  Local picture
  // at S0: t1 holds r0 and waits for r1@S1; t2, forwarded from S1 while
  // it holds one lock there, is queued on r0 behind t1.
  ddb::DdbOptions options;
  options.initiation = ddb::DdbInitiation::kManual;
  options.abort_victim = false;
  SinkHost host;
  ddb::Controller c(SiteId{0}, 2, host, options);
  const TransactionId t1{1};
  const TransactionId t2{2};
  (void)c.lock(t1, ResourceId{0}, ddb::LockMode::kWrite);
  (void)c.lock(t1, ResourceId{1}, ddb::LockMode::kWrite);
  if (!c.on_message(SiteId{1},
                    ddb::encode_small(ddb::RemoteLockRequestMsg{
                                          t2, ResourceId{0}, 1,
                                          ddb::LockMode::kWrite})
                        .view())
           .ok()) {
    state.SkipWithError("request delivery failed");
    return;
  }
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    const ddb::DdbFrame probe = ddb::encode_small(
        ddb::DdbProbeMsg{ddb::DdbProbeTag{SiteId{1}, seq}, seq, t2, false,
                         t2, 1, t2});
    benchmark::DoNotOptimize(c.on_message(SiteId{1}, probe.view()));
  }
  benchmark::DoNotOptimize(host.bytes);
  if (c.stats().meaningful_probes != seq) {
    state.SkipWithError("probes were not meaningful");
  }
}
BENCHMARK(BM_DdbHandleProbe);

// T5's controller options: delayed initiation T = 2 ms, victim abort.
ddb::DdbOptions t5_options() {
  ddb::DdbOptions options;
  options.initiation = ddb::DdbInitiation::kDelayed;
  options.initiation_delay = SimTime::ms(2);
  options.abort_victim = true;
  return options;
}

void BM_ClusterConstruct(benchmark::State& state) {
  // Building and tearing down the 4-site T5 cluster (hot set 16): the
  // set-up cost perfbench/ reports as setup_s, without the episode.
  for (auto _ : state) {
    ddb::Cluster db({.n_sites = 4,
                     .n_resources = 16,
                     .options = t5_options(),
                     .seed = 1});
    benchmark::DoNotOptimize(&db);
  }
}
BENCHMARK(BM_ClusterConstruct);

void BM_ClusterConstructAfterTeardown(benchmark::State& state) {
  // Building the same cluster on the heap perfbench/ leaves between its
  // episodes: the previous cluster torn down, then about 50 32-byte blocks
  // freed (its clients).  glibc parks most of those small chunks in
  // fastbins, and the next request of 1 KiB or more merges them all first
  // (DESIGN.md section 4e).  BM_ClusterConstruct frees nothing small between
  // iterations, so it cannot see that cost.  Only the construction is
  // timed; the teardown and the small frees run with the timer paused.
  std::optional<ddb::Cluster> db;
  std::vector<void*> crumbs(50);
  for (auto _ : state) {
    state.PauseTiming();
    db.reset();
    for (void*& c : crumbs) {
      c = ::operator new(32);
      benchmark::DoNotOptimize(c);
    }
    for (void* c : crumbs) ::operator delete(c);
    state.ResumeTiming();
    db.emplace(ddb::ClusterConfig{.n_sites = 4,
                                  .n_resources = 16,
                                  .options = t5_options(),
                                  .seed = 1});
    benchmark::DoNotOptimize(&*db);
  }
}
BENCHMARK(BM_ClusterConstructAfterTeardown);

void BM_DdbT5Episode(benchmark::State& state) {
  // One whole T5 episode (EXPERIMENTS.md T5 at hot set 16: 4 sites, 24
  // transactions of 3 locks, 80% writes, delayed initiation T = 2 ms, victim
  // abort and retry), construction and teardown included: the unit of work
  // of the end-to-end benchmark in perfbench/: its ddb_hot16 episode 0 of
  // seed 1.
  const ddb::DdbOptions options = t5_options();
  ddb::TxnScriptConfig cfg;
  cfg.locks_per_txn = 3;
  cfg.write_fraction = 0.8;
  cfg.hot_set = 16;
  cfg.hold_time = SimTime::ms(2);
  cfg.max_retries = 25;
  const std::uint64_t seed = ddb::episode_seed(1, 0);
  std::uint64_t events = 0;
  for (auto _ : state) {
    ddb::Cluster db({.n_sites = 4,
                     .n_resources = cfg.hot_set,
                     .options = options,
                     .seed = seed});
    ddb::TxnWorkload workload(db, cfg, seed ^ ddb::kWorkloadSeedSalt);
    workload.start(24);
    (void)db.simulator().run();
    events += db.simulator().stats().events_processed;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_DdbT5Episode);

void BM_OracleDarkCycle(benchmark::State& state) {
  const auto scenario = graph::make_ring_with_tails(
      static_cast<std::uint32_t>(state.range(0)),
      static_cast<std::uint32_t>(state.range(0)) / 4,
      static_cast<std::uint32_t>(state.range(0)) / 2, 7);
  const graph::WaitForGraph g =
      graph::replay(scenario, scenario.script.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.on_dark_cycle(ProcessId{0}));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_OracleDarkCycle)->Range(16, 1024)->Complexity();

}  // namespace

BENCHMARK_MAIN();
