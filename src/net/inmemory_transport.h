// Multithreaded in-process transport.
//
// Each node owns a FIFO mailbox drained by a dedicated delivery thread, so
// handlers for one node run strictly sequentially (the paper's atomic-step
// requirement) while different nodes run genuinely concurrently.  Per-channel
// FIFO holds because a sender enqueues into the destination mailbox in
// program order under the mailbox lock.
//
// Capability model (DESIGN.md section 7.2): the node registry is guarded by
// nodes_mutex_ and frozen at start(); each node's mailbox state is guarded
// by that node's own mutex.  The two are never nested in the same direction
// twice: registry lookups copy a Node* out before touching per-node state.
#pragma once

#include <atomic>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "net/transport.h"

namespace cmh::net {

class InMemoryTransport final : public Transport {
 public:
  InMemoryTransport() = default;
  ~InMemoryTransport() override { stop(); }

  InMemoryTransport(const InMemoryTransport&) = delete;
  InMemoryTransport& operator=(const InMemoryTransport&) = delete;

  /// Rejected after start(): the delivery threads read node handlers without
  /// a lock, which is only sound while the handler set is frozen.
  NodeId add_node(Handler handler) override;
  void send(NodeId from, NodeId to, BytesView payload) override;
  void start() override;
  void stop() override;

 private:
  struct Mail {
    NodeId from;
    Bytes payload;
  };
  struct Node {
    // Written only before start() (add_node enforces it), read
    // by the worker thread afterwards: the thread creation in start()
    // publishes it, so no lock is needed once the set is frozen.
    Handler handler;
    Mutex mutex;
    CondVar cv;
    std::deque<Mail> queue CMH_GUARDED_BY(mutex);
    std::thread worker;
  };

  void worker_loop(Node& node);

  /// Registry snapshot for the phases that must not hold nodes_mutex_ while
  /// touching per-node locks (stop joins workers that may be inside send(),
  /// which takes nodes_mutex_).
  [[nodiscard]] std::vector<Node*> snapshot_nodes() CMH_EXCLUDES(nodes_mutex_);

  Mutex nodes_mutex_;
  std::vector<std::unique_ptr<Node>> nodes_ CMH_GUARDED_BY(nodes_mutex_);
  bool started_ CMH_GUARDED_BY(nodes_mutex_){false};
  std::atomic<bool> stopping_{false};
};

}  // namespace cmh::net
