// Allocation accounting for the steady-state hot paths.  The overhaul's
// contract: once warmed up, probe encode/handle/forward at a process, a DDB
// controller's probe, grant, initiation and re-block paths, and message traffic
// through the simulator perform ZERO heap allocations; small simulator
// frames never touch the heap, a ddb::Cluster is built from a handful
// of blocks, and on a thread that has run one it takes its tables' blocks
// from the thread's BlockPool.
// A counting global operator new makes that an assertable property instead
// of a benchmark anecdote.  (The override is binary-wide but only counts;
// it delegates to malloc/free.)
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/basic_process.h"
#include "core/messages.h"
#include "ddb/cluster.h"
#include "ddb/controller.h"
#include "ddb/workload.h"
#include "sim/simulator.h"

namespace {
// Atomic because the sharded round-trip test runs shard workers; the
// measured tests themselves are single-threaded.
std::atomic<std::size_t> g_alloc_count{0};
// Requests of 1 KiB or more: the ones that send glibc down its large-block
// path, which merges every parked small chunk first (DESIGN.md 4e).
std::atomic<std::size_t> g_large_count{0};

void count(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (n >= 1024) g_large_count.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t n) {
  count(n);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned types go through the aligned forms; count them too, so an
// over-aligned allocation cannot slip past the budgets below.
void* operator new(std::size_t n, std::align_val_t al) {
  count(n);
  const auto align = static_cast<std::size_t>(al);
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cmh::core {
namespace {

// The host of a lone process: counts the bytes it sends.
class ByteSinkHost final : public ProcessHost {
 public:
  void send(ProcessId, ProcessId, BytesView payload) override {
    bytes += payload.size();
  }
  void schedule(ProcessId, SimTime, std::function<void()>) override {}
  void on_deadlock(ProcessId, const ProbeTag&) override {}

  std::uint64_t bytes{0};
};

TEST(ZeroAlloc, SteadyStateProbeEncodeHandleForward) {
  Options options;
  options.initiation = InitiationMode::kManual;
  ByteSinkHost host;
  const std::uint64_t& sink = host.bytes;
  BasicProcess p(ProcessId{1}, host, options);
  p.send_request(ProcessId{2});  // outgoing edge: probes will forward
  ASSERT_TRUE(
      p.on_message(ProcessId{0}, encode(Message{RequestMsg{}})).ok());

  // Warm-up: first probe of an initiator creates its computation record.
  std::uint64_t seq = 0;
  for (int i = 0; i < 16; ++i) {
    const SmallFrame probe =
        encode_small(ProbeMsg{ProbeTag{ProcessId{0}, ++seq}});
    ASSERT_TRUE(p.on_message(ProcessId{0}, probe.view()).ok());
  }

  // Measured phase: every probe is meaningful, starts a fresh computation
  // sequence, and forwards along the outgoing edge -- the full detection
  // hot path.  (No gtest macros inside: their success paths may allocate.)
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (int i = 0; i < 10000; ++i) {
    const SmallFrame probe =
        encode_small(ProbeMsg{ProbeTag{ProcessId{0}, ++seq}});
    all_ok &= p.on_message(ProcessId{0}, probe.view()).ok();
  }
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(p.stats().probes_received, 10016u);
  EXPECT_GT(sink, 0u);
}

TEST(ZeroAlloc, SteadyStateSimulatorTraffic) {
  sim::Simulator sim(7, sim::DelayModel::fixed(SimTime::us(10)));
  int remaining = 4000;
  const sim::NodeId a = sim.add_node({});
  const sim::NodeId b = sim.add_node({});
  const auto forward = [&sim, &remaining, a, b](sim::NodeId from,
                                                BytesView payload) {
    if (remaining-- > 0) sim.send(from == a ? b : a, from, payload);
  };
  sim.set_handler(a, forward);
  sim.set_handler(b, forward);
  const SmallFrame probe = encode_small(ProbeMsg{ProbeTag{ProcessId{0}, 1}});
  sim.send(a, b, probe.view());

  // Warm-up: slab, queue and channel matrix reach capacity.
  (void)sim.run_batch(1000);

  // Measured phase: pure slot recycling -- pop, deliver, re-send.
  const std::size_t before = g_alloc_count;
  const std::size_t processed = sim.run_batch(2000);
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_EQ(processed, 2000u);
  EXPECT_EQ(allocations, 0u);
  EXPECT_GE(sim.stats().messages_delivered, 3000u);
}

// Allocations a fresh simulator makes to relay `frames` frames of `size`
// bytes, eight chains at a time, between two nodes.
std::size_t fresh_relay_allocations(int frames, std::size_t size) {
  const std::size_t before = g_alloc_count;
  sim::Simulator sim(7, sim::DelayModel::fixed(SimTime::us(10)));
  int remaining = frames;
  const sim::NodeId a = sim.add_node({});
  const sim::NodeId b = sim.add_node({});
  const auto relay = [&sim, &remaining, a, b](sim::NodeId from,
                                              BytesView payload) {
    if (--remaining > 0) sim.send(from == a ? b : a, from, payload);
  };
  sim.set_handler(a, relay);
  sim.set_handler(b, relay);
  const std::array<std::uint8_t, sim::Simulator::kInlinePayload> frame{};
  for (int chain = 0; chain < 8; ++chain) {
    sim.send(a, b, BytesView{frame.data(), size});
  }
  sim.run();
  return g_alloc_count - before;
}

// Every DDB frame, the 42-byte probe included, rides inline.
static_assert(ddb::kDdbFrameCapacity <= sim::Simulator::kInlinePayload);

TEST(ZeroAlloc, FreshSimulatorRelaysSmallFramesFromInlineStorage) {
  // Frames of up to kInlinePayload bytes live in the slab entry: the
  // allocations are the simulator's fixed set-up plus slab and queue growth
  // to the in-flight peak, however many frames pass and whatever their
  // size.  (Fixed delays keep that peak independent of the frame count.)
  // Measured on a warm thread: the first simulator fills the thread's
  // BlockPool, and the ones after it take their larger blocks from it.
  (void)fresh_relay_allocations(500, 0);
  const std::size_t few = fresh_relay_allocations(500, 0);
  const std::size_t many = fresh_relay_allocations(4000, 0);
  const std::size_t many_full =
      fresh_relay_allocations(4000, sim::Simulator::kInlinePayload);
  EXPECT_EQ(many, few);
  EXPECT_EQ(many_full, few);
}

}  // namespace
}  // namespace cmh::core

namespace cmh::sim {
namespace {

// Sends each payload from node 0 to `peer` and back; returns true iff both
// hops delivered the bytes intact.
bool round_trips(std::uint32_t shards, NodeId peer, const Bytes& payload) {
  Simulator sim(11, DelayModel{}, shards);
  std::vector<Bytes> got;
  for (NodeId i = 0; i < 8; ++i) {
    sim.add_node([&sim, &got, i](NodeId from, BytesView p) {
      got.emplace_back(p.begin(), p.end());
      if (i != 0) sim.send(i, from, p);  // echo
    });
  }
  sim.send(0, peer, payload);
  sim.run();
  return got.size() == 2 && got[0] == payload && got[1] == payload;
}

TEST(SimulatorPayload, RoundTripsAcrossTheInlineBoundary) {
  // 48 B is the largest inline payload and 49 B the smallest pooled one; 8
  // MiB exercises a large pooled buffer.  Peer 1 shares node 0's shard and
  // peer 7 crosses shards (through the window outboxes) when K = 4.
  constexpr std::size_t kInline = Simulator::kInlinePayload;
  for (const std::size_t size :
       {std::size_t{0}, kInline, kInline + 1, std::size_t{8} << 20}) {
    Bytes payload(size);
    for (std::size_t i = 0; i < size; ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
    }
    for (const std::uint32_t shards : {1u, 4u}) {
      for (const NodeId peer : {NodeId{1}, NodeId{7}}) {
        EXPECT_TRUE(round_trips(shards, peer, payload))
            << "size " << size << ", shards " << shards << ", peer " << peer;
      }
    }
  }
}

}  // namespace
}  // namespace cmh::sim

namespace cmh::ddb {
namespace {

// The host of a lone controller S0 of two sites (resources live at site
// r % 2): counts the bytes sent, the grants reported and the declarations
// naming `watched`, and drops every timer.
class CountingHost final : public SiteHost {
 public:
  void send(SiteId, SiteId, BytesView payload) override {
    frames += payload.size();
  }
  [[nodiscard]] SiteId owner_of(ResourceId r) const override {
    return SiteId{r.value() % 2};
  }
  void schedule(SimTime, std::function<void()>) override {}
  void on_grant(SiteId, TransactionId, ResourceId) override { ++grants; }
  void on_abort(SiteId, TransactionId) override {}
  void on_deadlock(SiteId, TransactionId victim,
                   const DdbProbeTag&) override {
    watched_declared += victim == watched ? 1 : 0;
  }

  std::uint64_t frames{0};
  std::uint64_t grants{0};
  TransactionId watched{};
  std::uint64_t watched_declared{0};
};

// Controller S0 of two sites, with this local picture:
//   t1 (home S0) holds rA@S0 and waits for rB@S1   (pending remote request)
//   t2 from S1 is queued on rA behind t1           (incoming black edge)
//   t4 (home S0) holds rC@S0 and waits for rD@S1
//   t3 from S1 is queued on rC behind t4
// Each measured round runs the three detection paths against it:
//   * initiate_for(t2): A0 for t2, probing t1's edge to S1;
//   * that computation's probe coming back on t3's edge (meaningful, does
//     not reach t2, forwards along t4's edge; its floor prunes the older
//     rounds' records), and a probe of an S1 computation on t2's edge;
//   * the grant of rB and t1's re-request of it.
TEST(ZeroAlloc, WarmDdbControllerProbesGrantsAndInitiation) {
  const SiteId s0{0};
  const SiteId s1{1};
  const TransactionId t1{1};
  const TransactionId t2{2};
  const TransactionId t3{3};
  const TransactionId t4{4};
  const ResourceId rA{0};  // resources live at site r % 2
  const ResourceId rB{1};
  const ResourceId rC{2};
  const ResourceId rD{3};

  DdbOptions options;
  options.initiation = DdbInitiation::kManual;
  options.abort_victim = false;
  CountingHost host;
  Controller c(s0, 2, host, options);

  const auto deliver = [&c](SiteId from, const DdbMessage& m) {
    return c.on_message(from, encode_small(m).view()).ok();
  };
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t1, rB, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t2, rA, 0, LockMode::kWrite}));
  ASSERT_TRUE(c.lock(t4, rC, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t4, rD, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t3, rC, 0, LockMode::kWrite}));

  std::uint64_t foreign_seq = 0;
  const auto round = [&]() {
    bool ok = true;
    const std::optional<DdbProbeTag> tag = c.initiate_for(t2);
    ok &= tag.has_value();
    if (!tag) return false;
    ok &= deliver(s1,
                  DdbProbeMsg{*tag, tag->sequence, t3, false, t3, 0, t2});
    ++foreign_seq;
    ok &= deliver(s1, DdbProbeMsg{DdbProbeTag{s1, foreign_seq}, foreign_seq,
                                  t2, false, t2, 0, t2});
    ok &= deliver(s1, RemoteLockGrantMsg{t1, rB});
    ok &= !c.lock(t1, rB, LockMode::kWrite);
    return ok;
  };

  // Warm-up: tables, pools and scratch buffers reach their working size.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(round());
  const ControllerStats warm = c.stats();

  // Measured phase.  (No gtest macros inside: their success paths may
  // allocate.)
  constexpr int kRounds = 5000;
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (int i = 0; i < kRounds; ++i) all_ok &= round();
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  const ControllerStats& st = c.stats();
  EXPECT_EQ(st.computations_initiated - warm.computations_initiated,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.meaningful_probes - warm.meaningful_probes,
            std::uint64_t{2 * kRounds});
  // Per round: t1's edge from initiate_for, t4's edge from the returning
  // probe, t1's edge from the S1 probe.
  EXPECT_EQ(st.probes_sent - warm.probes_sent, std::uint64_t{3 * kRounds});
  EXPECT_EQ(st.grants_received - warm.grants_received,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.deadlocks_declared, 0u);
  EXPECT_GT(host.frames, 0u);
  EXPECT_EQ(host.grants, 64u + kRounds + 2);  // + the two local grants
}

// The same controller picture plus a local cycle t5 <-> t6 at S0, swept by
// check_all() each round:
//   * the A0 sweep over the six blocked processes elects t6 for the local
//     cycle from both t5 and t6 and declares it once (victims stay alive);
//   * the Q set {t2, t3} starts two computations, probing t1's and t4's
//     edges to S1;
//   * the first computation's probe comes back on t3's edge, forwarding
//     along t4's edge; its floor prunes the older rounds' records.
TEST(ZeroAlloc, WarmDdbControllerCheckAll) {
  const SiteId s0{0};
  const SiteId s1{1};
  const TransactionId t1{1};
  const TransactionId t2{2};
  const TransactionId t3{3};
  const TransactionId t4{4};
  const TransactionId t5{5};
  const TransactionId t6{6};
  const ResourceId rA{0};  // resources live at site r % 2
  const ResourceId rB{1};
  const ResourceId rC{2};
  const ResourceId rD{3};
  const ResourceId rE{4};
  const ResourceId rF{6};

  DdbOptions options;
  options.initiation = DdbInitiation::kManual;
  options.abort_victim = false;
  CountingHost host;
  Controller c(s0, 2, host, options);

  const auto deliver = [&c](SiteId from, const DdbMessage& m) {
    return c.on_message(from, encode_small(m).view()).ok();
  };
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t1, rB, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t2, rA, 0, LockMode::kWrite}));
  ASSERT_TRUE(c.lock(t4, rC, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t4, rD, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t3, rC, 0, LockMode::kWrite}));
  ASSERT_TRUE(c.lock(t5, rE, LockMode::kWrite));
  ASSERT_TRUE(c.lock(t6, rF, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t5, rF, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t6, rE, LockMode::kWrite));

  std::uint64_t last_seq = 0;
  const auto round = [&]() {
    bool ok = c.check_all() == 2;
    // check_all() started the computations of t2 and t3, in that order,
    // after the local-cycle declaration took one sequence number.
    const DdbProbeTag first{s0, last_seq + 2};
    last_seq += 3;
    ok &= deliver(s1,
                  DdbProbeMsg{first, first.sequence, t3, false, t3, 0, t2});
    return ok;
  };

  // Warm-up: tables, pools and scratch buffers reach their working size.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(round());
  const ControllerStats warm = c.stats();

  // Measured phase.  (No gtest macros inside: their success paths may
  // allocate.)
  constexpr int kRounds = 5000;
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (int i = 0; i < kRounds; ++i) all_ok &= round();
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  const ControllerStats& st = c.stats();
  EXPECT_EQ(st.local_cycle_detections - warm.local_cycle_detections,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.deadlocks_declared - warm.deadlocks_declared,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.computations_initiated - warm.computations_initiated,
            std::uint64_t{2 * kRounds});
  EXPECT_EQ(st.meaningful_probes - warm.meaningful_probes,
            std::uint64_t{kRounds});
  // Per round: t1's and t4's edges from the two initiations, t4's edge
  // again from the returning probe (a different computation).
  EXPECT_EQ(st.probes_sent - warm.probes_sent, std::uint64_t{3 * kRounds});
  EXPECT_GT(host.frames, 0u);
}

// A home agent that computations reach, re-blocking each round: t1 (home
// S0) holds rA@S0, t2 (home S1) waits for rA, t1 waits for rB@S1.  Each
// round
//   * a new S1 computation arrives on t2's edge (its floor prunes the last
//     round's record), reaches t1's home agent, records there and probes
//     t1's edge to S1;
//   * rB is granted and t1 asks S1 for it again: the request is a new
//     instance of that edge, so the recorded computation follows it.
// Delayed initiation, whose host here drops the block-check timers: t1
// waits on S1, which this site cannot see, so its own computation waits T.
TEST(ZeroAlloc, WarmDdbControllerFollowsAReBlockedTransaction) {
  const SiteId s0{0};
  const SiteId s1{1};
  const TransactionId t1{1};
  const TransactionId t2{2};
  const ResourceId rA{0};  // resources live at site r % 2
  const ResourceId rB{1};

  DdbOptions options;
  options.initiation = DdbInitiation::kDelayed;
  options.abort_victim = false;
  CountingHost host;
  Controller c(s0, 2, host, options);

  const auto deliver = [&c](SiteId from, const DdbMessage& m) {
    return c.on_message(from, encode_small(m).view()).ok();
  };
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t2, rA, 0, LockMode::kWrite}));
  ASSERT_FALSE(c.lock(t1, rB, LockMode::kWrite));

  std::uint64_t seq = 0;
  const auto round = [&]() {
    ++seq;
    bool ok = deliver(
        s1, DdbProbeMsg{DdbProbeTag{s1, seq}, seq, t2, false, t2, 0, t2});
    ok &= deliver(s1, RemoteLockGrantMsg{t1, rB});
    ok &= !c.lock(t1, rB, LockMode::kWrite);
    return ok;
  };

  // Warm-up: tables, pools and scratch buffers reach their working size.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(round());
  const ControllerStats warm = c.stats();

  // Measured phase.  (No gtest macros inside: their success paths may
  // allocate.)
  constexpr int kRounds = 5000;
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (int i = 0; i < kRounds; ++i) all_ok &= round();
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  const ControllerStats& st = c.stats();
  EXPECT_EQ(st.meaningful_probes - warm.meaningful_probes,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.reaches_followed - warm.reaches_followed,
            std::uint64_t{kRounds});
  // Per round: t1's edge from the arriving probe, and again from the
  // follow.
  EXPECT_EQ(st.probes_sent - warm.probes_sent, std::uint64_t{2 * kRounds});
  EXPECT_EQ(st.computations_initiated, 0u);
  EXPECT_EQ(st.deadlocks_declared, 0u);
  EXPECT_GT(host.frames, 0u);
}

// A reached home agent re-blocking each round starts its own computation
// at once (T = 0), and none of those computations' probes ever comes back,
// so no floor prunes their records: t1 (home S0) holds rB@S1 and waits for
// rD@S1.  Each round
//   * a new S1 computation arrives on t1's release-wait edge from S1 (its
//     floor prunes the last round's record), records at t1's home agent
//     and probes t1's edge to S1;
//   * rD is granted and t1 asks S1 for it again: the recorded computation
//     follows, and t1 starts its own computation at once.
// Only the latest two own computations of t1 keep a record, so the pool
// stops growing.
TEST(ZeroAlloc, WarmDdbControllerEagerInitiation) {
  const SiteId s0{0};
  const SiteId s1{1};
  const TransactionId t1{1};
  const TransactionId t2{2};  // the S1 computations' target, waiting on t1
  const ResourceId rB{1};  // resources live at site r % 2
  const ResourceId rD{3};

  DdbOptions options;
  options.initiation = DdbInitiation::kDelayed;
  options.initiation_delay = SimTime::zero();
  options.abort_victim = false;
  CountingHost host;
  Controller c(s0, 2, host, options);

  const auto deliver = [&c](SiteId from, const DdbMessage& m) {
    return c.on_message(from, encode_small(m).view()).ok();
  };
  ASSERT_FALSE(c.lock(t1, rB, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockGrantMsg{t1, rB}));
  ASSERT_FALSE(c.lock(t1, rD, LockMode::kWrite));

  std::uint64_t seq = 0;
  const auto round = [&]() {
    ++seq;
    bool ok = deliver(
        s1, DdbProbeMsg{DdbProbeTag{s1, seq}, seq, t1, true, t2, 0, t2});
    ok &= deliver(s1, RemoteLockGrantMsg{t1, rD});
    ok &= !c.lock(t1, rD, LockMode::kWrite);
    return ok;
  };

  // Warm-up: tables, pools and scratch buffers reach their working size.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(round());
  const ControllerStats warm = c.stats();

  // Measured phase.  (No gtest macros inside: their success paths may
  // allocate.)
  constexpr int kRounds = 5000;
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (int i = 0; i < kRounds; ++i) all_ok &= round();
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  const ControllerStats& st = c.stats();
  EXPECT_EQ(st.computations_initiated - warm.computations_initiated,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.reaches_followed - warm.reaches_followed,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.meaningful_probes - warm.meaningful_probes,
            std::uint64_t{kRounds});
  EXPECT_EQ(st.deadlocks_declared, 0u);
  EXPECT_GT(host.frames, 0u);
}

// A walk that closes one hop early, each round: t1 (home S1) holds rA@S0
// and t2's request for rA, forwarded from S1, queues behind it.  Each
// round a new S1 computation for t1 arrives on t2's edge (its floor prunes
// the last round's record); the BFS from t2 reaches t1's agent through
// t2's wait, so S0 declares t2, the walk's only waiting member, and then
// goes on along t1's release-wait edge back to S1.
TEST(ZeroAlloc, WarmDdbControllerEarlyClosure) {
  const SiteId s0{0};
  const SiteId s1{1};
  const TransactionId t1{1};
  const TransactionId t2{2};
  const ResourceId rA{0};  // resources live at site r % 2

  DdbOptions options;
  options.initiation = DdbInitiation::kManual;
  options.abort_victim = false;
  CountingHost host;
  Controller c(s0, 2, host, options);
  host.watched = t2;

  const auto deliver = [&c](SiteId from, const DdbMessage& m) {
    return c.on_message(from, encode_small(m).view()).ok();
  };
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t1, rA, 0, LockMode::kWrite}));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t2, rA, 0, LockMode::kWrite}));

  std::uint64_t seq = 0;
  const auto round = [&]() {
    ++seq;
    return deliver(
        s1, DdbProbeMsg{DdbProbeTag{s1, seq}, seq, t2, false, t2, 0, t1});
  };

  // Warm-up: tables, pools and scratch buffers reach their working size.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(round());
  const ControllerStats warm = c.stats();

  // Measured phase.  (No gtest macros inside: their success paths may
  // allocate.)
  constexpr int kRounds = 5000;
  const std::size_t before = g_alloc_count;
  bool all_ok = true;
  for (int i = 0; i < kRounds; ++i) all_ok &= round();
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_TRUE(all_ok);
  EXPECT_EQ(allocations, 0u);
  const ControllerStats& st = c.stats();
  EXPECT_EQ(st.early_closures - warm.early_closures, std::uint64_t{kRounds});
  EXPECT_EQ(st.deadlocks_declared, st.early_closures);
  EXPECT_EQ(host.watched_declared, st.early_closures);
  // Per round: t1's release-wait edge, after the declaration.
  EXPECT_EQ(st.probes_sent - warm.probes_sent, std::uint64_t{kRounds});
  EXPECT_EQ(st.aborts_executed, 0u);
  EXPECT_GT(host.frames, 0u);
}

TEST(ZeroAlloc, ClusterConstructionTakesAFewBlocks) {
  // The T5 shape: four sites, delayed initiation, victim abort.  Three
  // blocks today: the simulator's shard state, its node table and the
  // controllers' block; each controller's tables start empty or inline.
  // (Fewer on a thread whose BlockPool already holds the first and the
  // last: WarmThreadBuildsAClusterFromRecycledBlocks.)
  DdbOptions options;
  options.initiation = DdbInitiation::kDelayed;
  options.initiation_delay = SimTime::ms(2);
  const ClusterConfig config{.n_sites = 4, .n_resources = 16,
                             .options = options, .seed = 1, .delays = {}};
  const std::size_t before = g_alloc_count;
  const Cluster db(config);
  const std::size_t allocations = g_alloc_count - before;
  // The outbox sizes its buffers at the first frame it holds back.
  EXPECT_LE(allocations, 3u);
  EXPECT_EQ(db.n_sites(), 4u);
}

// One T5 episode (EXPERIMENTS.md T5 at hot set 16, perfbench's episode 0
// of seed 1) on a Cluster built and torn down on this thread; returns the
// allocations the Cluster's construction made.
std::size_t run_t5_episode() {
  const DdbOptions options = t5_options();
  const TxnScriptConfig script = t5_script(16);
  const std::uint64_t seed = episode_seed(1, 0);
  const std::size_t before = g_alloc_count;
  Cluster db({.n_sites = 4, .n_resources = script.hot_set,
              .options = options, .seed = seed});
  const std::size_t construction = g_alloc_count - before;
  TxnWorkload workload(db, script, seed ^ kWorkloadSeedSalt);
  workload.start(24);
  (void)db.simulator().run();
  EXPECT_EQ(workload.result().committed, 24u);
  EXPECT_GT(db.total_stats().deadlocks_declared, 0u);
  return construction;
}

TEST(ZeroAlloc, WarmThreadBuildsAClusterFromRecycledBlocks) {
  // The first episode grows every table to its peak; its teardown parks
  // the blocks in this thread's BlockPool.  The same episode again takes
  // them back: its construction allocates only the simulator's node table
  // (160 B), and nothing in it asks operator new for 1 KiB or more, so
  // glibc never merges the small chunks the first episode left behind.
  (void)run_t5_episode();
  const std::size_t large_before = g_large_count;
  const std::size_t construction = run_t5_episode();
  EXPECT_LE(construction, 1u);
  EXPECT_EQ(g_large_count - large_before, 0u);
}

// Steps that send several frames to one site: a control timer re-requests
// four read locks at site 1 for a transaction homed at site 0 and for one
// homed at site 2, so each home sends site 1 one four-frame envelope (53 B,
// past the simulator's inline payload), and site 1 answers each with one
// envelope of four grants.  After warm-up the outbox lanes, the simulator's
// slabs and its payload-buffer pool are all recycled.
TEST(ZeroAlloc, WarmClusterBatchesWithoutAllocating) {
  DdbOptions options;
  options.initiation = DdbInitiation::kManual;
  Cluster db({.n_sites = 4, .n_resources = 16, .options = options});
  const TransactionId t0 = db.begin(SiteId{0});
  const TransactionId t2 = db.begin(SiteId{2});
  const auto burst = [&db, t0, t2] {
    for (const TransactionId t : {t0, t2}) {
      for (const std::uint32_t r : {1u, 5u, 9u, 13u}) {
        db.lock(t, ResourceId{r}, LockMode::kRead);
      }
    }
  };
  for (int i = 0; i < 64; ++i) {
    db.simulator().schedule(SimTime::zero(), burst);
    db.simulator().run();
  }
  const std::uint64_t sent_before = db.simulator().stats().messages_sent;

  const std::size_t before = g_alloc_count;
  for (int i = 0; i < 1000; ++i) {
    db.simulator().schedule(SimTime::zero(), burst);
    db.simulator().run();
  }
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_EQ(allocations, 0u);
  // Per burst: two request envelopes and two grant envelopes.
  EXPECT_EQ(db.simulator().stats().messages_sent - sent_before, 4000u);
  EXPECT_TRUE(db.all_granted(t0));
  EXPECT_TRUE(db.all_granted(t2));
}

}  // namespace
}  // namespace cmh::ddb
