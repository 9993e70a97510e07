// SimHost -- the simulator plumbing shared by SimCluster (basic model) and
// OrCluster (OR model): one sim::Simulator with N machines on nodes
// 0..N-1, the core::ProcessHost they reach the world through, and the
// detection log.  `Machine` (core::BasicProcess or core::OrProcess) is
// built as Machine(id, host, args...).  A cluster derives from SimHost and
// watches traffic and declarations by overriding deliver() and
// on_deadlock().
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "core/process_host.h"
#include "sim/simulator.h"

namespace cmh::runtime {

struct DeadlockEvent {
  ProbeTag tag;       // which computation detected
  ProcessId process;  // who declared (== tag.initiator)
  SimTime at;         // virtual time of declaration
};

template <typename Machine>
class SimHost : private core::ProcessHost {
 public:
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(machines_.size());
  }
  [[nodiscard]] Machine& process(ProcessId id) {
    return *machines_.at(id.value());
  }
  [[nodiscard]] const Machine& process(ProcessId id) const {
    return *machines_.at(id.value());
  }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

  /// Deadlock declarations observed so far (chronological).  Returns a
  /// snapshot by value: in sharded runs declarations land from shard worker
  /// threads, so handing out a reference to the live vector would let the
  /// caller read it unguarded.
  [[nodiscard]] std::vector<DeadlockEvent> detections() const {
    const MutexLock lock(detections_mutex_);
    return detections_;
  }

  /// Number of declarations so far (lock-free; safe from any thread).
  [[nodiscard]] std::size_t detection_count() const {
    return detection_count_.load(std::memory_order_acquire);
  }

  /// Invoked synchronously at the instant a process declares deadlock, so
  /// a cluster's oracle still reflects that exact moment.
  using DetectionCallback = std::function<void(const DeadlockEvent&)>;
  void set_detection_callback(DetectionCallback cb) {
    on_detection_ = std::move(cb);
  }

  /// Sum of the per-process counters across the cluster.
  [[nodiscard]] auto total_stats() const {
    std::decay_t<decltype(machines_[0]->stats())> total;
    for (const auto& m : machines_) total += m->stats();
    return total;
  }

  /// Runs the simulator until idle; returns the final virtual time.
  SimTime run() { return sim_.run(); }

 protected:
  /// Builds Machine(id, *this, args...) for ids 0..n-1, each on the
  /// simulator node of the same id.
  template <typename... Args>
  SimHost(std::uint32_t n, std::uint64_t seed, sim::DelayModel delays,
          std::uint32_t shards, const Args&... args)
      : sim_(seed, delays, shards) {
    machines_.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const ProcessId id{i};
      machines_.push_back(std::make_unique<Machine>(
          id, static_cast<core::ProcessHost&>(*this), args...));
      sim_.add_node([this, id](sim::NodeId from, BytesView payload) {
        deliver(id, ProcessId{from}, payload);
      });
    }
  }
  ~SimHost() = default;

  /// One frame delivered to `to`: hands it to the machine.  Runs
  /// concurrently across shards when the simulator is sharded.
  virtual void deliver(ProcessId to, ProcessId from, BytesView payload) {
    const Status st = machines_[to.value()]->on_message(from, payload);
    if (!st.ok()) throw std::logic_error("on_message: " + st.to_string());
  }

  void send(ProcessId from, ProcessId to, BytesView payload) final {
    sim_.send(from.value(), to.value(), payload);
  }
  void schedule(ProcessId /*who*/, SimTime delay,
                std::function<void()> fn) final {
    sim_.schedule(delay, std::move(fn));
  }
  void on_deadlock(ProcessId who, const ProbeTag& tag) override {
    const DeadlockEvent event{tag, who, sim_.now()};
    {
      const MutexLock lock(detections_mutex_);
      detections_.push_back(event);
      detection_count_.store(detections_.size(), std::memory_order_release);
    }
    if (on_detection_) on_detection_(event);
  }

 private:
  sim::Simulator sim_;
  std::vector<std::unique_ptr<Machine>> machines_;
  // Declarations may come from shard workers; the atomic count lets a
  // sequential run-until-detection predicate poll without taking the lock
  // on every event.
  mutable Mutex detections_mutex_;
  std::vector<DeadlockEvent> detections_ CMH_GUARDED_BY(detections_mutex_);
  std::atomic<std::size_t> detection_count_{0};
  DetectionCallback on_detection_;
};

}  // namespace cmh::runtime
