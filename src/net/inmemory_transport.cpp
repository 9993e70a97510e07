#include "net/inmemory_transport.h"

#include <stdexcept>

namespace cmh::net {

NodeId InMemoryTransport::add_node(Handler handler) {
  const MutexLock lock(nodes_mutex_);
  if (started_) {
    throw std::logic_error("InMemoryTransport: add_node after start()");
  }
  auto node = std::make_unique<Node>();
  node->handler = std::move(handler);
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

std::vector<InMemoryTransport::Node*> InMemoryTransport::snapshot_nodes() {
  const MutexLock lock(nodes_mutex_);
  std::vector<Node*> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node.get());
  return out;
}

void InMemoryTransport::send(NodeId from, NodeId to, BytesView payload) {
  Node* node = nullptr;
  {
    const MutexLock lock(nodes_mutex_);
    node = nodes_.at(to).get();
  }
  {
    const MutexLock lock(node->mutex);
    node->queue.push_back(Mail{from, Bytes(payload.begin(), payload.end())});
  }
  node->cv.notify_one();
}

void InMemoryTransport::start() {
  const MutexLock lock(nodes_mutex_);
  if (started_) return;
  started_ = true;
  stopping_ = false;
  for (auto& node : nodes_) {
    node->worker = std::thread([this, n = node.get()] { worker_loop(*n); });
  }
}

void InMemoryTransport::stop() {
  {
    const MutexLock lock(nodes_mutex_);
    if (!started_ || stopping_) return;
    stopping_ = true;
  }
  // Per-node work below runs on a registry snapshot: joining workers while
  // holding nodes_mutex_ would deadlock against handlers calling send().
  const std::vector<Node*> nodes = snapshot_nodes();
  for (Node* node : nodes) {
    // Take the node mutex before notifying so a worker between its
    // predicate check and wait() cannot miss the wakeup.
    { const MutexLock lock(node->mutex); }
    node->cv.notify_all();
  }
  for (Node* node : nodes) {
    if (node->worker.joinable()) node->worker.join();
  }
  const MutexLock lock(nodes_mutex_);
  started_ = false;
}

void InMemoryTransport::worker_loop(Node& node) {
  for (;;) {
    Mail mail;
    {
      const MutexLock lock(node.mutex);
      node.cv.wait(node.mutex, [&] {
        // Held by CondVar::wait's contract; the analysis cannot see through
        // the predicate lambda boundary.
        node.mutex.assert_held();
        return stopping_.load() || !node.queue.empty();
      });
      if (node.queue.empty()) return;  // stopping and drained
      mail = std::move(node.queue.front());
      node.queue.pop_front();
    }
    if (node.handler) node.handler(mail.from, mail.payload);
  }
}

}  // namespace cmh::net
