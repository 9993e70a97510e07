// Allocation accounting for the steady-state hot paths.  The overhaul's
// contract: once warmed up, probe encode/handle/forward at a process, a DDB
// controller's probe, grant and initiation paths, and message traffic
// through the simulator perform ZERO heap allocations.
// A counting global operator new makes that an assertable property instead
// of a benchmark anecdote.  (The override is binary-wide but only counts;
// it delegates to malloc/free.)
#include <gtest/gtest.h>

#include <cstdlib>
#include <new>

#include "core/basic_process.h"
#include "core/messages.h"
#include "ddb/controller.h"
#include "sim/simulator.h"

namespace {
// Not atomic: every test in this binary is single-threaded, and the net
// transports are not exercised here.
std::size_t g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t n) {
  ++g_alloc_count;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t n) { return ::operator new(n); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace cmh::core {
namespace {

TEST(ZeroAlloc, SteadyStateProbeEncodeHandleForward) {
  Options options;
  options.initiation = InitiationMode::kManual;
  std::uint64_t sink = 0;
  BasicProcess p(
      ProcessId{1}, [&sink](ProcessId, BytesView b) { sink += b.size(); },
      options);
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
                                                const Bytes& payload) {
    if (remaining-- > 0) sim.send(from == a ? b : a, from, payload);
  };
  sim.set_handler(a, forward);
  sim.set_handler(b, forward);
  const SmallFrame probe = encode_small(ProbeMsg{ProbeTag{ProcessId{0}, 1}});
  sim.send(a, b, probe.view());

  // Warm-up: slab, queue, channel matrix and buffer pool reach capacity.
  (void)sim.run_batch(1000);

  // Measured phase: pure pooled recycling -- pop, deliver, re-send.
  const std::size_t before = g_alloc_count;
  const std::size_t processed = sim.run_batch(2000);
  const std::size_t allocations = g_alloc_count - before;

  EXPECT_EQ(processed, 2000u);
  EXPECT_EQ(allocations, 0u);
  EXPECT_GE(sim.stats().messages_delivered, 3000u);
}

}  // namespace
}  // namespace cmh::core

namespace cmh::ddb {
namespace {

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
  std::uint64_t frames = 0;
  std::uint64_t grants = 0;
  Controller c(
      s0, 2, [&frames](SiteId, BytesView b) { frames += b.size(); },
      [](ResourceId r) { return SiteId{r.value() % 2}; }, options, nullptr);
  c.set_grant_callback([&grants](TransactionId, ResourceId) { ++grants; });

  const auto deliver = [&c](SiteId from, const DdbMessage& m) {
    return c.on_message(from, encode_small(m).view()).ok();
  };
  ASSERT_TRUE(c.lock(t1, rA, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t1, rB, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t2, rA, LockMode::kWrite}));
  ASSERT_TRUE(c.lock(t4, rC, LockMode::kWrite));
  ASSERT_FALSE(c.lock(t4, rD, LockMode::kWrite));
  ASSERT_TRUE(deliver(s1, RemoteLockRequestMsg{t3, rC, LockMode::kWrite}));

  std::uint64_t foreign_seq = 0;
  const auto round = [&]() {
    bool ok = true;
    const std::optional<DdbProbeTag> tag = c.initiate_for(t2);
    ok &= tag.has_value();
    if (!tag) return false;
    ok &= deliver(s1, DdbProbeMsg{*tag, tag->sequence,
                                  InterEdge{AgentId{t3, s1}, AgentId{t3, s0}},
                                  false});
    ++foreign_seq;
    ok &= deliver(s1, DdbProbeMsg{DdbProbeTag{s1, foreign_seq}, foreign_seq,
                                  InterEdge{AgentId{t2, s1}, AgentId{t2, s0}},
                                  false});
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
  EXPECT_TRUE(c.declared_victims().empty());
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(grants, 64u + kRounds + 2);  // + the two local grants
}

}  // namespace
}  // namespace cmh::ddb
