// Simulator: the event loop every experiment bench runs on.  Message
// payloads travel inline in the slab or in pooled buffers, so warmed-up
// traffic makes no heap allocations (tests/core/test_zero_alloc.cpp).
// cmh:hot-path -- steady-state delivery path; lint enforces zero-alloc.
#include "sim/simulator.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace cmh::sim {

namespace {

std::uint64_t channel_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

// Bounds each shard's payload-buffer pool; beyond this, buffers are freed.
constexpr std::size_t kMaxPooledBuffers = 4096;

// SplitMix64 finalizer: the bijective avalanche behind the counter-based
// delay draws.  Statistically equivalent to the old stream RNG (same
// construction as common/rng.h) but addressable by (seed, channel, index)
// instead of draw order, which is what makes the schedule independent of the
// shard count.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Which (simulator, shard, owner-node) is currently dispatching on this
// thread.  Routes send()/schedule()/now() issued from inside handlers
// without any shared mutable state.
struct CurCtx {
  const void* sim{nullptr};
  std::uint32_t shard{0};
  std::uint32_t owner{0};
};

thread_local CurCtx g_ctx;

struct CtxGuard {
  CurCtx saved;
  CtxGuard(const void* sim, std::uint32_t shard, std::uint32_t owner)
      : saved(g_ctx) {
    g_ctx = CurCtx{sim, shard, owner};
  }
  ~CtxGuard() { g_ctx = saved; }
  CtxGuard(const CtxGuard&) = delete;
  CtxGuard& operator=(const CtxGuard&) = delete;
};

// One dispatch as a step of the attached StepHook, if any.
class StepScope {
 public:
  explicit StepScope(StepHook* hook) : hook_(hook) {
    if (hook_ != nullptr) hook_->begin_step();
  }
  ~StepScope() {
    if (hook_ != nullptr) hook_->end_step();
  }
  StepScope(const StepScope&) = delete;
  StepScope& operator=(const StepScope&) = delete;

 private:
  StepHook* hook_;
};

}  // namespace

Simulator::Simulator(std::uint64_t seed, DelayModel delays,
                     std::uint32_t shards)
    : seed_(seed),
      delays_(delays),
      shard_count_(shards == 0 ? 1 : shards) {
  if (shard_count_ > 1 && delays_.min < SimTime::us(1)) {
    throw std::invalid_argument(
        "Simulator: sharded mode needs DelayModel::min >= 1us (it is the "
        "conservative lookahead)");
  }
  // Bucket width tuned so the delay span covers a fraction of the ring.
  const std::int64_t width_hint =
      std::max<std::int64_t>(1, delays_.max.micros / 64);
  shards_.reserve(shard_count_);
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    shards_.emplace_back(width_hint);
  }
  // Single-shard keeps the fully lazy legacy behavior (grow-as-you-go
  // channel matrix, add_node at any time); multi-shard freezes the
  // partition at the first event.
  partition_frozen_ = (shard_count_ == 1);
}

Simulator::~Simulator() { stop_pool(); }

NodeId Simulator::add_node(MessageHandler handler) {
  if (partition_frozen_ && shard_count_ > 1) {
    throw std::logic_error(
        "Simulator::add_node: node set is frozen once the first event is "
        "scheduled in sharded mode");
  }
  nodes_.push_back(Node{std::move(handler), 0});
  return static_cast<NodeId>(nodes_.size() - 1);
}

void Simulator::reserve_nodes(std::size_t n) { nodes_.reserve(n); }

void Simulator::set_handler(NodeId node, MessageHandler handler) {
  nodes_.at(node).handler = std::move(handler);
}

void Simulator::set_observer(SimObserver* observer) {
  if (observer != nullptr && shard_count_ > 1) {
    throw std::logic_error(
        "Simulator::set_observer: observers require shards == 1 (concurrent "
        "shard workers would race on the observer)");
  }
  observer_ = observer;
}

void Simulator::set_step_hook(StepHook* hook) {
  if (hook != nullptr && shard_count_ > 1) {
    throw std::logic_error(
        "Simulator::set_step_hook: step hooks require shards == 1 (concurrent "
        "shard workers would race on the hook)");
  }
  step_hook_ = hook;
}

void Simulator::ensure_partition() {
  // Only reachable with shard_count_ > 1 (single-shard constructs frozen).
  const std::size_t n = nodes_.size();
  shard_block_ = std::max<std::size_t>(1, (n + shard_count_ - 1) / shard_count_);
  if (n > 0 && n <= kFlatChannelLimit) {
    channel_stride_ = n;
    channel_flat_.assign(n * n, ChannelState{});
  }
  partition_frozen_ = true;
}

Bytes Simulator::take_buffer(ShardState& shard) {
  if (shard.buffer_pool.empty()) return Bytes{};
  Bytes buf = std::move(shard.buffer_pool.back());
  shard.buffer_pool.pop_back();
  return buf;
}

void Simulator::recycle_buffer(ShardState& shard, Bytes&& buffer) {
  if (shard.buffer_pool.size() >= kMaxPooledBuffers) return;
  buffer.clear();  // keeps capacity
  shard.buffer_pool.push_back(std::move(buffer));
}

void Simulator::store_payload(ShardState& pool, Payload& out,
                              BytesView bytes) {
  out.size = static_cast<std::uint32_t>(bytes.size());
  if (bytes.size() <= kInlinePayload) {
    if (!bytes.empty()) {
      std::memcpy(out.inline_bytes.data(), bytes.data(), bytes.size());
    }
    return;
  }
  out.heap = take_buffer(pool);
  out.heap.assign(bytes.begin(), bytes.end());
}

Simulator::ChannelState& Simulator::channel_state(NodeId from, NodeId to) {
  if (nodes_.size() <= kFlatChannelLimit) {
    if (channel_stride_ < nodes_.size()) {
      // Single-shard lazy growth (multi-shard pre-sizes at the freeze).
      // Grow geometrically so repeated add_node/send interleavings stay
      // O(n^2) total; entries are remapped from the old stride.
      const std::size_t fresh_stride =
          std::max<std::size_t>(nodes_.size(), channel_stride_ * 2);
      std::vector<ChannelState> fresh(fresh_stride * fresh_stride);
      for (std::size_t f = 0; f < channel_stride_; ++f) {
        for (std::size_t t = 0; t < channel_stride_; ++t) {
          fresh[f * fresh_stride + t] = channel_flat_[f * channel_stride_ + t];
        }
      }
      channel_flat_ = std::move(fresh);
      channel_stride_ = fresh_stride;
    }
    return channel_flat_[static_cast<std::size_t>(from) * channel_stride_ + to];
  }
  if (!channel_flat_.empty()) migrate_flat_to_spill();
  return shards_[shard_of(from)].channel_spill[channel_key(from, to)];
}

void Simulator::migrate_flat_to_spill() {
  // The node count just crossed kFlatChannelLimit (single-shard only:
  // multi-shard freezes the node count up front).  Carry live FIFO fronts
  // and channel counters into the spill maps -- dropping them would both
  // break per-channel FIFO and rewind the delay counters.
  for (std::size_t f = 0; f < channel_stride_; ++f) {
    for (std::size_t t = 0; t < channel_stride_; ++t) {
      const ChannelState& ch = channel_flat_[f * channel_stride_ + t];
      if (ch.count != 0 || ch.front != SimTime::zero()) {
        shards_[shard_of(static_cast<NodeId>(f))]
            .channel_spill[channel_key(static_cast<NodeId>(f),
                                       static_cast<NodeId>(t))] = ch;
      }
    }
  }
  channel_flat_ = std::vector<ChannelState>{};
  channel_stride_ = 0;
}

SimTime Simulator::channel_delay(NodeId from, NodeId to,
                                 std::uint64_t count) const {
  const auto span =
      static_cast<std::uint64_t>(delays_.max.micros - delays_.min.micros);
  if (span == 0) return delays_.min;
  // hash(seed, channel, index): every draw is addressable, so any thread
  // computing it gets the same value.  The 128-bit multiply maps the hash
  // onto [0, span] with bias < 2^-64 (Lemire's method minus the rejection
  // loop, which determinism cannot afford to re-draw).
  std::uint64_t h =
      mix64(seed_ ^ (channel_key(from, to) * 0x9e3779b97f4a7c15ULL));
  h = mix64(h + count);
  const auto offset = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(h) * (span + 1)) >> 64);
  return SimTime::us(delays_.min.micros + static_cast<std::int64_t>(offset));
}

void Simulator::enqueue_message(ShardState& dst, SimTime at, NodeId from,
                                NodeId to, std::uint64_t seq,
                                Payload&& payload) {
  const std::uint32_t slot = dst.messages.acquire();
  dst.messages.items[slot] = std::move(payload);
  dst.queue.insert(EventQueue::Entry{at, from, to, seq, slot});
}

void Simulator::send(NodeId from, NodeId to, BytesView payload) {
  if (from >= nodes_.size()) {
    throw std::out_of_range("Simulator::send: unknown source node");
  }
  if (to >= nodes_.size()) {
    throw std::out_of_range("Simulator::send: unknown destination node");
  }
  if (!partition_frozen_) ensure_partition();

  const bool in_dispatch = (g_ctx.sim == this);
  const std::uint32_t src_shard = in_dispatch ? g_ctx.shard : 0;
  if (parallel_active_ && in_dispatch && shard_of(from) != src_shard) {
    throw std::logic_error(
        "Simulator::send: in a parallel run a handler may only send on "
        "behalf of nodes of its own shard");
  }
  ShardState& src = shards_[src_shard];
  ++src.stats.messages_sent;
  src.stats.bytes_sent += payload.size();

  ChannelState& ch = channel_state(from, to);
  const SimTime base = in_dispatch ? src.now : now_;
  if (observer_ != nullptr) observer_->on_send(from, to, payload, base);
  SimTime deliver_at = base + channel_delay(from, to, ch.count);
  // FIFO per channel: never deliver before an earlier message on the same
  // channel.  (+1us keeps distinct deliveries strictly ordered, which also
  // makes the canonical key (time, from, to, seq) unique.)
  if (deliver_at <= ch.front) deliver_at = ch.front + SimTime::us(1);
  ch.front = deliver_at;
  const std::uint64_t seq = ch.count++;

  const std::uint32_t dst_shard = shard_of(to);
  if (parallel_active_ && dst_shard != src_shard) {
    // Park until the window barrier; the destination worker owns its queue.
    CrossMsg& msg =
        outbox_[static_cast<std::size_t>(src_shard) * shard_count_ + dst_shard]
            .emplace_back(CrossMsg{deliver_at, from, to, seq, {}});
    store_payload(src, msg.payload, payload);
  } else {
    // Written straight into the slot: no intermediate copy.
    ShardState& dst = shards_[dst_shard];
    const std::uint32_t slot = dst.messages.acquire();
    store_payload(src, dst.messages.items[slot], payload);
    dst.queue.insert(EventQueue::Entry{deliver_at, from, to, seq, slot});
  }
}

void Simulator::schedule(SimTime delay, std::function<void()> fn) {
  if (delay.micros < 0) {
    throw std::invalid_argument("Simulator::schedule: negative delay");
  }
  if (!partition_frozen_) ensure_partition();

  const bool in_dispatch = (g_ctx.sim == this);
  const std::uint32_t shard_idx = in_dispatch ? g_ctx.shard : 0;
  const NodeId owner = in_dispatch ? g_ctx.owner : kControlNode;
  const std::uint64_t seq = (owner == kControlNode)
                                ? control_timer_seq_++
                                : nodes_[owner].timer_seq++;

  ShardState& sh = shards_[shard_idx];
  const SimTime at = (in_dispatch ? sh.now : now_) + delay;
  const std::uint32_t slot = sh.timers.acquire();
  sh.timers.items[slot] = std::move(fn);
  sh.queue.insert(EventQueue::Entry{at, owner, kTimerLane, seq, slot});
}

SimTime Simulator::now() const {
  if (g_ctx.sim == this) return shards_[g_ctx.shard].now;
  return now_;
}

const SimStats& Simulator::stats() const {
  stats_agg_ = SimStats{};
  for (const ShardState& sh : shards_) {
    stats_agg_.messages_sent += sh.stats.messages_sent;
    stats_agg_.messages_delivered += sh.stats.messages_delivered;
    stats_agg_.bytes_sent += sh.stats.bytes_sent;
    stats_agg_.timers_fired += sh.stats.timers_fired;
    stats_agg_.events_processed += sh.stats.events_processed;
  }
  return stats_agg_;
}

void Simulator::reset_stats() {
  for (ShardState& sh : shards_) sh.stats = SimStats{};
}

void Simulator::dispatch_on(std::uint32_t shard_idx,
                            const EventQueue::Entry& entry) {
  ShardState& sh = shards_[shard_idx];
  sh.now = entry.time;
  ++sh.stats.events_processed;
  // Move everything out of the slot and release it BEFORE invoking the
  // handler: handlers enqueue further events, which may reuse the slot or
  // reallocate the slab, so the handler never sees a view into the slab.
  if (entry.b != kTimerLane) {
    ++sh.stats.messages_delivered;
    Payload& stored = sh.messages.items[entry.slot];
    const std::size_t size = stored.size;
    if (size <= kInlinePayload) {
      // Whole-array copy: a fixed 48-byte move beats a sized memcpy.
      const std::array<std::uint8_t, kInlinePayload> bytes =
          stored.inline_bytes;
      sh.messages.release(entry.slot);
      deliver(shard_idx, entry, BytesView{bytes.data(), size});
    } else {
      Bytes bytes = std::move(stored.heap);
      sh.messages.release(entry.slot);
      deliver(shard_idx, entry, bytes);
      recycle_buffer(sh, std::move(bytes));
    }
  } else {
    auto fn = std::move(sh.timers.items[entry.slot]);
    sh.timers.release(entry.slot);
    ++sh.stats.timers_fired;
    CtxGuard guard(this, shard_idx, entry.a);
    // Inside the guard: the hook's end_step() may send at this instant.
    const StepScope step(step_hook_);
    fn();
  }
}

void Simulator::deliver(std::uint32_t shard_idx,
                        const EventQueue::Entry& entry, BytesView payload) {
  if (observer_ != nullptr) {
    observer_->on_deliver(entry.a, entry.b, payload, shards_[shard_idx].now);
  }
  const CtxGuard guard(this, shard_idx, entry.b);
  const StepScope step(step_hook_);
  const MessageHandler& handler = nodes_[entry.b].handler;
  if (handler) handler(entry.a, payload);
}

int Simulator::min_shard() {
  int best = -1;
  const EventQueue::Entry* best_entry = nullptr;
  for (std::uint32_t s = 0; s < shard_count_; ++s) {
    const EventQueue::Entry* e = shards_[s].queue.peek();
    if (e != nullptr &&
        (best_entry == nullptr || EventQueue::key_before(*e, *best_entry))) {
      best = static_cast<int>(s);
      best_entry = e;
    }
  }
  return best;
}

bool Simulator::step_sequential() {
  const int s = min_shard();
  if (s < 0) return false;
  auto& sh = shards_[static_cast<std::size_t>(s)];
  dispatch_on(static_cast<std::uint32_t>(s), sh.queue.pop());
  if (sh.now > now_) now_ = sh.now;
  return true;
}

bool Simulator::step() {
  if (shard_count_ == 1) {
    ShardState& sh = shards_[0];
    if (sh.queue.empty()) return false;
    dispatch_on(0, sh.queue.pop());
    if (sh.now > now_) now_ = sh.now;
    return true;
  }
  return step_sequential();
}

SimTime Simulator::run() {
  if (shard_count_ == 1) {
    ShardState& sh = shards_[0];
    while (!sh.queue.empty()) dispatch_on(0, sh.queue.pop());
    if (sh.now > now_) now_ = sh.now;
    return now_;
  }
  run_parallel(SimTime{INT64_MAX});
  return now_;
}

std::size_t Simulator::run_batch(std::size_t max_events) {
  std::size_t processed = 0;
  if (shard_count_ == 1) {
    ShardState& sh = shards_[0];
    while (processed < max_events && !sh.queue.empty()) {
      dispatch_on(0, sh.queue.pop());
      ++processed;
    }
    if (sh.now > now_) now_ = sh.now;
    return processed;
  }
  while (processed < max_events && step_sequential()) ++processed;
  return processed;
}

void Simulator::run_until(SimTime t) {
  if (shard_count_ == 1) {
    ShardState& sh = shards_[0];
    while (!sh.queue.empty() && sh.queue.next_time() <= t) {
      dispatch_on(0, sh.queue.pop());
    }
    if (sh.now > now_) now_ = sh.now;
  } else {
    run_parallel(t);
  }
  if (now_ < t) now_ = t;
}

bool Simulator::run_while_pending(const std::function<bool()>& pred) {
  while (!pred() && step()) {
  }
  return pred();
}

bool Simulator::idle() const {
  for (const ShardState& sh : shards_) {
    if (!sh.queue.empty()) return false;
  }
  return true;
}

// ---- parallel windowed engine ----------------------------------------------

void Simulator::run_parallel(SimTime limit) {
  if (!partition_frozen_) ensure_partition();
  start_pool();
  job_limit_ = limit.micros;
  abort_.store(false, std::memory_order_relaxed);
  win_done_ = false;
  compute_next_window();
  if (!win_done_) {
    {
      const MutexLock lk(pool_mutex_);
      parallel_active_ = true;
      ++job_gen_;
      jobs_done_ = 0;
    }
    pool_cv_.notify_all();
    window_loop(0);  // the caller participates as shard 0
    {
      const MutexLock lk(pool_mutex_);
      pool_done_cv_.wait(pool_mutex_, [&] {
        pool_mutex_.assert_held();  // held by CondVar::wait's contract
        return jobs_done_ == shard_count_ - 1;
      });
      parallel_active_ = false;
    }
  }
  for (const ShardState& sh : shards_) {
    if (sh.now > now_) now_ = sh.now;
  }
  for (ShardState& sh : shards_) {
    if (sh.error) {
      const std::exception_ptr first = sh.error;
      for (ShardState& other : shards_) other.error = nullptr;
      std::rethrow_exception(first);
    }
  }
}

void Simulator::start_pool() {
  if (shard_count_ == 1 || !pool_.empty()) return;
  outbox_.resize(static_cast<std::size_t>(shard_count_) * shard_count_);
  // Sharded-pool set-up, once per simulator:
  // lint:allow(hot-path-alloc)
  window_bar_ = std::make_unique<std::barrier<WindowCompletion>>(
      shard_count_, WindowCompletion{this});
  // lint:allow(hot-path-alloc)
  drain_bar_ = std::make_unique<std::barrier<>>(shard_count_);
  pool_.reserve(shard_count_ - 1);
  for (std::uint32_t s = 1; s < shard_count_; ++s) {
    pool_.emplace_back([this, s] { parallel_worker(s); });
  }
}

void Simulator::stop_pool() {
  if (pool_.empty()) return;
  {
    const MutexLock lk(pool_mutex_);
    pool_quit_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& t : pool_) t.join();
  pool_.clear();
}

void Simulator::parallel_worker(std::uint32_t shard_idx) {
  std::uint64_t seen_gen = 0;
  for (;;) {
    {
      const MutexLock lk(pool_mutex_);
      pool_cv_.wait(pool_mutex_, [&] {
        pool_mutex_.assert_held();  // held by CondVar::wait's contract
        return pool_quit_ || job_gen_ != seen_gen;
      });
      if (pool_quit_) return;
      seen_gen = job_gen_;
    }
    window_loop(shard_idx);
    {
      const MutexLock lk(pool_mutex_);
      ++jobs_done_;
    }
    pool_done_cv_.notify_one();
  }
}

void Simulator::window_loop(std::uint32_t shard_idx) {
  ShardState& sh = shards_[shard_idx];
  const std::uint32_t k = shard_count_;
  for (;;) {
    // Process phase: everything this shard owns inside [.., win_end_).
    // Same-shard sends land at >= win_end_ (lookahead), zero/short timers
    // may land inside the window and are drained too.
    if (!abort_.load(std::memory_order_relaxed)) {
      try {
        while (sh.queue.next_time().micros < win_end_) {
          dispatch_on(shard_idx, sh.queue.pop());
          if (abort_.load(std::memory_order_relaxed)) break;
        }
      } catch (...) {
        sh.error = std::current_exception();
        abort_.store(true, std::memory_order_relaxed);
      }
    }
    // All outbox writes complete before anyone reads them.
    drain_bar_->arrive_and_wait();
    for (std::uint32_t src = 0; src < k; ++src) {
      auto& box = outbox_[static_cast<std::size_t>(src) * k + shard_idx];
      for (CrossMsg& msg : box) {
        enqueue_message(sh, msg.time, msg.from, msg.to, msg.seq,
                        std::move(msg.payload));
      }
      box.clear();
    }
    // Completion computes the next window from the updated queues.
    window_bar_->arrive_and_wait();
    if (win_done_) return;
  }
}

void Simulator::compute_next_window() noexcept {
  // Runs on exactly one thread while every worker is blocked at the window
  // barrier, so it may touch all shard queues.
  if (abort_.load(std::memory_order_relaxed)) {
    win_done_ = true;
    return;
  }
  std::int64_t min_next = INT64_MAX;
  for (ShardState& sh : shards_) {
    min_next = std::min(min_next, sh.queue.next_time().micros);
  }
  if (min_next == INT64_MAX || min_next > job_limit_) {
    win_done_ = true;
    return;
  }
  const std::int64_t lookahead = std::max<std::int64_t>(1, delays_.min.micros);
  std::int64_t end = (min_next > INT64_MAX - lookahead) ? INT64_MAX
                                                        : min_next + lookahead;
  if (job_limit_ != INT64_MAX && end > job_limit_) end = job_limit_ + 1;
  win_end_ = end;
  win_done_ = false;
}

}  // namespace cmh::sim
