// Deterministic discrete-event simulator with an optional sharded parallel
// engine.
//
// Hosts a set of nodes that exchange byte-payload messages over reliable,
// in-order, finite-delay channels -- exactly the communication assumption of
// the paper ("messages are received correctly and in order", P4/finite
// delivery).  Per-message delays are drawn from a seeded distribution; FIFO
// order per (src,dst) channel is enforced by clamping each delivery to be no
// earlier than the previous delivery on the same channel.  The simulator also
// provides timers, which the initiation policies and the workload drivers
// use, and counters for the benchmark harness.
//
// Determinism invariant (DESIGN.md section 4c): the event schedule is a pure
// function of (seed, workload) and is *bit-identical for every shard count*.
//   * Delays are counter-based: message i on channel (src,dst) always draws
//     hash(seed, src, dst, i), no matter which thread computes it or in what
//     global order -- there is no shared RNG stream to race on.
//   * Events are totally ordered by the canonical key (time, a, b, seq)
//     where (a,b,seq) = (src, dst, channel-index) for messages and
//     (owner, kTimerLane, owner-index) for timers.  The key never mentions
//     shards or threads.
//
// Sharded mode (shards > 1): nodes are partitioned into contiguous blocks,
// one per shard; each shard owns its own event queue, slab, buffer pool and
// channel state.  Shards advance in conservative time windows of length
// DelayModel::min (the lookahead): any message sent at time t is delivered at
// >= t + min, so within a window no shard can affect another, and cross-shard
// sends are exchanged through per-shard-pair outboxes at the window barrier.
// Rules for multi-shard runs (all hold trivially when shards == 1):
//   * add all nodes before enqueuing the first event;
//   * a handler may only send on behalf of nodes of its own shard (in
//     practice: from == the node being delivered to / the timer's owner);
//   * handlers of nodes on different shards run concurrently and must not
//     share mutable state;
//   * DelayModel::min must be >= 1us.
//
// Hot-path layout (the event loop dominates every experiment bench):
//   * Per-shard two-level ladder queues (event_queue.h) replace the global
//     binary heap: O(1) amortized scheduling instead of O(log n), with
//     bucket-local memory traffic at large event counts.
//   * Events are slab entries with a free list, one slab for message
//     payloads and one for timer callables; message deliveries carry (src,
//     dst, payload) instead of boxing a closure in std::function, and only
//     explicit timers pay for one.
//   * Payloads of up to kInlinePayload bytes (every DDB and core frame) are
//     stored inline in the slab entry; larger ones use a buffer pooled per
//     shard.  Either way steady-state traffic performs zero heap
//     allocations, and small frames leave no heap objects behind.
//   * Channel FIFO fronts live in a flat src*stride+dst matrix once the node
//     count is known (per-shard hash maps beyond kFlatChannelLimit nodes;
//     crossing the limit migrates the matrix into the maps).
#pragma once

#include <array>
#include <atomic>
#include <barrier>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/block_pool.h"
#include "common/serialize.h"
#include "common/sync.h"
#include "common/time.h"
#include "sim/event_queue.h"

namespace cmh::sim {

using NodeId = std::uint32_t;

/// Distribution of per-message network delays.  `min` doubles as the
/// conservative lookahead of the sharded engine.
struct DelayModel {
  SimTime min{SimTime::us(50)};
  SimTime max{SimTime::us(500)};

  static DelayModel fixed(SimTime d) { return {d, d}; }
  static DelayModel uniform(SimTime lo, SimTime hi) { return {lo, hi}; }
};

/// Counters exposed to tests and benchmarks.  Aggregated across shards;
/// totals are shard-count-independent.
struct SimStats {
  std::uint64_t messages_sent{0};
  std::uint64_t messages_delivered{0};
  std::uint64_t bytes_sent{0};
  std::uint64_t timers_fired{0};
  std::uint64_t events_processed{0};
};

/// Observation hook for correctness tooling (src/check).  Callbacks fire
/// synchronously on the simulator thread: on_send inside send() at the send
/// instant, on_deliver inside dispatch immediately *before* the receiving
/// node's handler runs, so an observer sees every state transition at the
/// instant the model says it happens.  Observers are only supported in
/// single-shard mode: with shards > 1 deliveries on different shards run
/// concurrently and a global observer would be a data race by construction.
class SimObserver {
 public:
  virtual ~SimObserver() = default;
  virtual void on_send(NodeId from, NodeId to, BytesView payload,
                       SimTime at) = 0;
  virtual void on_deliver(NodeId from, NodeId to, BytesView payload,
                          SimTime at) = 0;
};

/// Brackets every dispatched event, message or timer: begin_step() runs
/// before the node's handler or the timer's callable, end_step() after it
/// returns or throws, both inside the dispatch (now() is the event's time
/// and sends leave at that instant).  A host uses it to treat each dispatch
/// as one atomic step; ddb::Cluster flushes its per-step outbox at
/// end_step().  Single-shard only, like SimObserver.
class StepHook {
 public:
  virtual ~StepHook() = default;
  virtual void begin_step() = 0;
  virtual void end_step() = 0;
};

class Simulator {
 public:
  /// Invoked once per delivered message.  The payload view is only valid
  /// for the duration of the call (it points into the dispatcher's stack
  /// frame or a pooled buffer); a handler that keeps the bytes copies them.
  using MessageHandler = std::function<void(NodeId from, BytesView payload)>;

  /// Payloads up to this size travel inline in the event slab.
  static constexpr std::size_t kInlinePayload = 48;

  explicit Simulator(std::uint64_t seed = 1, DelayModel delays = DelayModel{},
                     std::uint32_t shards = 1);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Registers a node; returns its id (dense, starting at 0).  In multi-shard
  /// mode all nodes must be added before the first send/schedule.
  NodeId add_node(MessageHandler handler);

  /// Sizes the node table for `n` nodes up front, so the following
  /// add_node calls do not grow them one push at a time.
  void reserve_nodes(std::size_t n);

  /// Replaces the handler of an existing node (used by harnesses that
  /// construct nodes after wiring).
  void set_handler(NodeId node, MessageHandler handler);

  /// Attaches (or detaches, with nullptr) a traffic observer.  The observer
  /// is borrowed and must outlive the simulator or be detached first.
  /// Throws std::logic_error in multi-shard mode -- see SimObserver.
  void set_observer(SimObserver* observer);

  [[nodiscard]] SimObserver* observer() const { return observer_; }

  /// Attaches (or detaches, with nullptr) the step hook; borrowed like the
  /// observer.  Throws std::logic_error in multi-shard mode -- see StepHook.
  void set_step_hook(StepHook* hook);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }

  [[nodiscard]] std::uint32_t shard_count() const { return shard_count_; }

  /// Shard owning `node` (contiguous-block partition, frozen at the first
  /// event in multi-shard mode).  Placement-aware workloads use this to keep
  /// tightly-coupled node groups on one shard.
  [[nodiscard]] std::uint32_t shard_of(NodeId node) const {
    return shard_count_ == 1 ? 0u
                             : static_cast<std::uint32_t>(node / shard_block_);
  }

  /// Enqueues a message for in-order delivery after a seeded random delay.
  /// The payload is copied (inline up to kInlinePayload bytes, else into a
  /// pooled buffer); the view need only be valid for the duration of the
  /// call.  Both endpoints must be registered nodes.
  void send(NodeId from, NodeId to, BytesView payload);

  /// Schedules `fn` to run at now() + delay.  The timer is owned by the node
  /// whose event is currently dispatching (or by the control context outside
  /// dispatch) and fires on that owner's shard.
  void schedule(SimTime delay, std::function<void()> fn);

  /// Current virtual time: the dispatching event's time inside a handler
  /// (shard-local in parallel runs), the last completed time outside.
  [[nodiscard]] SimTime now() const;

  [[nodiscard]] const SimStats& stats() const;
  void reset_stats();

  /// Processes the single earliest pending event in canonical key order.
  /// Returns false if idle.  (Sequential for any shard count.)
  bool step();

  /// Runs until no events remain.  Returns the final virtual time.  With
  /// shards > 1 this is the parallel windowed engine.
  SimTime run();

  /// Batched-delivery mode: processes up to `max_events` events without
  /// per-event caller round-trips; returns the number processed (less than
  /// `max_events` iff the queue drained).  Event order is identical to
  /// step()-ing in a loop -- this is a throughput interface, not a different
  /// schedule (and therefore sequential; use run()/run_until() for parallel
  /// throughput).
  std::size_t run_batch(std::size_t max_events);

  /// Runs until the given virtual time (inclusive) or until idle.  With
  /// shards > 1 this is the parallel windowed engine.
  void run_until(SimTime t);

  /// Runs until `pred()` holds or the event queue drains; returns pred().
  /// Sequential for any shard count (the predicate is checked between
  /// events).
  bool run_while_pending(const std::function<bool()>& pred);

  [[nodiscard]] bool idle() const;

 private:
  // Timer events use this lane in the canonical key; no node can own it.
  static constexpr std::uint32_t kTimerLane = 0xFFFFFFFFu;
  // Owner id for timers scheduled outside any dispatch (tests, harness
  // setup); their events run on shard 0.
  static constexpr NodeId kControlNode = 0xFFFFFFFFu;

  // Above this node count the flat channel matrix would be too large; fall
  // back to per-shard hash maps (1024^2 entries == 16 MiB).
  static constexpr std::size_t kFlatChannelLimit = 1024;

  // A message payload between send and delivery: inline when it fits,
  // otherwise in a pooled heap buffer.  The inline bytes are value-
  // initialized so copying the whole array is always defined.
  struct Payload {
    std::uint32_t size{0};
    std::array<std::uint8_t, kInlinePayload> inline_bytes{};
    Bytes heap;
  };

  // Event records with a free list: slots are recycled, so a warmed-up
  // slab allocates nothing.  Messages and timers keep separate slabs, so a
  // timer record is just its callable and a message record its payload.
  template <typename T>
  struct Slab {
    PooledVector<T> items;
    PooledVector<std::uint32_t> free;

    std::uint32_t acquire() {
      if (!free.empty()) {
        const std::uint32_t slot = free.back();
        free.pop_back();
        return slot;
      }
      items.emplace_back();
      return static_cast<std::uint32_t>(items.size() - 1);
    }
    void release(std::uint32_t slot) { free.push_back(slot); }
  };

  // A registered node: its handler and its timer counter (the canonical key
  // seq for the timer lane).
  struct Node {
    MessageHandler handler;
    std::uint64_t timer_seq{0};
  };

  // Per-channel FIFO + determinism state: last scheduled delivery time and
  // the number of messages sent so far (the counter the delay draw hashes).
  struct ChannelState {
    SimTime front{SimTime::zero()};
    std::uint64_t count{0};
  };

  // A message crossing shards, parked in a per-(src,dst)-shard outbox until
  // the window barrier.
  struct CrossMsg {
    SimTime time;
    NodeId from{0};
    NodeId to{0};
    std::uint64_t seq{0};
    Payload payload;
  };

  // Everything a shard touches while processing a window.  Padded so two
  // shards' hot state never shares a cache line.  Trailing padding rather
  // than alignas(64): an over-aligned type goes through the aligned
  // operator new, whose split-and-free path cost about a fifth of a
  // ddb::Cluster's construction time.
  struct ShardState {
    EventQueue queue;
    Slab<Payload> messages;
    Slab<std::function<void()>> timers;
    std::vector<Bytes> buffer_pool;
    std::unordered_map<std::uint64_t, ChannelState> channel_spill;
    SimTime now{SimTime::zero()};
    SimStats stats;
    std::exception_ptr error;
    // Last member: a cache line that reaches into the next shard's state
    // holds only padding of this one.
    std::array<std::byte, 64> false_sharing_pad{};

    explicit ShardState(std::int64_t width_hint) : queue(width_hint) {}
  };

  struct WindowCompletion {
    Simulator* sim;
    void operator()() const noexcept { sim->compute_next_window(); }
  };

  Bytes take_buffer(ShardState& shard);
  void recycle_buffer(ShardState& shard, Bytes&& buffer);
  // Copies `bytes` into `out`, drawing a heap buffer from `pool` only when
  // they do not fit inline.
  void store_payload(ShardState& pool, Payload& out, BytesView bytes);

  ChannelState& channel_state(NodeId from, NodeId to);
  void migrate_flat_to_spill();
  [[nodiscard]] SimTime channel_delay(NodeId from, NodeId to,
                                      std::uint64_t count) const;

  void ensure_partition();
  void enqueue_message(ShardState& dst, SimTime at, NodeId from, NodeId to,
                       std::uint64_t seq, Payload&& payload);
  void dispatch_on(std::uint32_t shard_idx, const EventQueue::Entry& entry);
  void deliver(std::uint32_t shard_idx, const EventQueue::Entry& entry,
               BytesView payload);

  // Sequential engine: canonical-order merge across shard queues.
  [[nodiscard]] int min_shard();
  bool step_sequential();

  // Parallel windowed engine.
  void run_parallel(SimTime limit);
  void start_pool();
  void stop_pool();
  void parallel_worker(std::uint32_t shard_idx);
  void window_loop(std::uint32_t shard_idx);
  void compute_next_window() noexcept;

  std::uint64_t seed_;
  DelayModel delays_;
  std::uint32_t shard_count_;
  std::size_t shard_block_{1};
  bool partition_frozen_{false};

  SimTime now_{SimTime::zero()};
  SimObserver* observer_{nullptr};
  StepHook* step_hook_{nullptr};
  std::vector<Node> nodes_;
  // Pooled (common/block_pool.h), like the slabs and the queue's vectors:
  // a simulator built on a thread that has torn one down reuses its blocks.
  PooledVector<ShardState> shards_;

  // Timer counter of the control context (see kControlNode).
  std::uint64_t control_timer_seq_{0};

  // Channel FIFO/counter state: flat matrix while node count fits, per-shard
  // spill maps beyond (see channel_state()).
  std::vector<ChannelState> channel_flat_;
  std::size_t channel_stride_{0};

  // ---- parallel runtime ----------------------------------------------------
  // Ownership-transfer fields (no mutex; see DESIGN.md section 7.2): these
  // are synchronized by the window protocol itself, which the thread-safety
  // analysis cannot model, so each carries a CMH_GUARDED_BY_PROTOCOL marker
  // stating the handoff instead of a capability.
  //
  // Outboxes, indexed src_shard * K + dst_shard.  A cell is written only by
  // the src worker during the processing phase and drained only by the dst
  // worker after the barrier, so the barrier provides all synchronization.
  std::vector<std::vector<CrossMsg>> outbox_
      CMH_GUARDED_BY_PROTOCOL("drain_bar_: src writes phase-before dst reads");
  // Written by compute_next_window() on exactly one thread while every
  // worker is parked at window_bar_; workers read them only after crossing
  // that barrier.
  std::int64_t job_limit_ CMH_GUARDED_BY_PROTOCOL("window_bar_"){INT64_MAX};
  std::int64_t win_end_ CMH_GUARDED_BY_PROTOCOL("window_bar_"){0};
  bool win_done_ CMH_GUARDED_BY_PROTOCOL("window_bar_"){false};
  std::atomic<bool> abort_{false};
  // Atomic because shard workers consult it inside send() (shard-affinity
  // check) without taking pool_mutex_; the pool condvar handshake publishes
  // the store that matters before any worker runs.
  std::atomic<bool> parallel_active_{false};
  std::unique_ptr<std::barrier<WindowCompletion>> window_bar_;
  std::unique_ptr<std::barrier<>> drain_bar_;
  std::vector<std::thread> pool_;
  Mutex pool_mutex_;
  CondVar pool_cv_;
  CondVar pool_done_cv_;
  std::uint64_t job_gen_ CMH_GUARDED_BY(pool_mutex_){0};
  std::uint32_t jobs_done_ CMH_GUARDED_BY(pool_mutex_){0};
  bool pool_quit_ CMH_GUARDED_BY(pool_mutex_){false};

  mutable SimStats stats_agg_;
};

}  // namespace cmh::sim
