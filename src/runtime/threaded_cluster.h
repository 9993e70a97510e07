// ThreadedCluster -- hosts BasicProcess instances on a real (threaded)
// Transport: InMemoryTransport or the epoll TcpTransport.
//
// Each process is guarded by its own mutex; the transport's per-node
// delivery serialization plus this mutex give the paper's atomic-step
// property even when the application thread issues requests concurrently
// with message deliveries.
//
// Capability model (DESIGN.md section 7.2): Cell::mutex guards the hosted
// BasicProcess (every touch of the process happens under it, whether from
// the application thread, a transport deliverer, or a timer callback --
// schedule(who, ...) re-takes who's mutex around the callback);
// detect_mutex_ guards the detection log.  Lock order where they nest:
// Cell::mutex before detect_mutex_ (on_deadlock runs inside on_message).
#pragma once

#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "core/basic_process.h"
#include "net/transport.h"

namespace cmh::runtime {

/// Runs callbacks after a delay on a dedicated scheduler thread (wall
/// clock).
class ThreadTimerService {
 public:
  ThreadTimerService();
  ~ThreadTimerService();

  ThreadTimerService(const ThreadTimerService&) = delete;
  ThreadTimerService& operator=(const ThreadTimerService&) = delete;

  void schedule(SimTime delay, std::function<void()> fn);
  void stop();

 private:
  void loop();

  Mutex mutex_;
  CondVar cv_;
  std::multimap<std::chrono::steady_clock::time_point, std::function<void()>>
      pending_ CMH_GUARDED_BY(mutex_);
  bool stopping_ CMH_GUARDED_BY(mutex_){false};
  std::thread worker_;
};

class ThreadedCluster final : private core::ProcessHost {
 public:
  /// The transport must be freshly constructed (no nodes yet) and outlive
  /// the cluster.  The cluster registers n nodes and starts the transport.
  ThreadedCluster(net::Transport& transport, std::uint32_t n,
                  core::Options options);
  ~ThreadedCluster();

  ThreadedCluster(const ThreadedCluster&) = delete;
  ThreadedCluster& operator=(const ThreadedCluster&) = delete;

  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(cells_.size());
  }

  void request(ProcessId from, ProcessId to);
  void reply(ProcessId from, ProcessId to);
  std::optional<ProbeTag> initiate(ProcessId p);

  /// Thread-safe snapshot helpers.
  [[nodiscard]] bool deadlocked(ProcessId p) const;
  [[nodiscard]] bool declared(ProcessId p) const;
  [[nodiscard]] core::ProcessStats stats(ProcessId p) const;
  [[nodiscard]] std::set<graph::Edge> wfgd_edges(ProcessId p) const;

  /// Blocks until some process declares deadlock or the timeout elapses.
  /// Returns the declarer if any.
  std::optional<ProcessId> wait_for_detection(std::chrono::milliseconds max);

  /// Total declarations so far.
  [[nodiscard]] std::size_t detection_count() const;

  void stop();

 private:
  struct Cell {
    mutable Mutex mutex;
    // The pointer is set once during construction (pre-concurrency); the
    // pointee is the per-process critical state.
    std::unique_ptr<core::BasicProcess> process CMH_PT_GUARDED_BY(mutex);
  };

  void send(ProcessId from, ProcessId to, BytesView payload) override;
  void schedule(ProcessId who, SimTime delay,
                std::function<void()> fn) override;
  void on_deadlock(ProcessId who, const ProbeTag& tag) override;

  net::Transport& transport_;
  ThreadTimerService timers_;
  std::vector<std::unique_ptr<Cell>> cells_;

  mutable Mutex detect_mutex_;
  CondVar detect_cv_;
  std::vector<ProcessId> detections_ CMH_GUARDED_BY(detect_mutex_);
  bool stopped_ CMH_GUARDED_BY(detect_mutex_){false};
};

}  // namespace cmh::runtime
