// Transport abstraction.
//
// Algorithm code never talks to a socket or a simulator directly; it sends
// byte payloads to node ids through this interface.  Two implementations
// exist:
//   * InMemoryTransport  -- real threads, lock-protected FIFO queues
//   * TcpTransport       -- localhost TCP sockets, length-prefixed frames,
//                           epoll event loops
// Both guarantee the paper's communication model: reliable, in-order (per
// channel), finite-delay delivery.  The deterministic simulator
// (sim::Simulator) is the third host of the same model; it has its own
// interface.
#pragma once

#include <cstdint>
#include <functional>

#include "common/serialize.h"

namespace cmh::net {

using NodeId = std::uint32_t;

class Transport {
 public:
  /// Invoked once per delivered message.  For threaded transports the
  /// handler runs on a delivery thread; one handler is never invoked
  /// concurrently with itself for the same node (per-node serialization),
  /// which realizes the paper's atomic-step requirement (note under A0-A2).
  /// The payload view is only valid for the duration of the call -- the
  /// same contract as send() -- so a handler that keeps the bytes copies
  /// them.  (The same type as sim::Simulator::MessageHandler.)
  using Handler = std::function<void(NodeId from, BytesView payload)>;

  virtual ~Transport() = default;

  /// Registers a node; ids are dense from 0 in registration order.
  virtual NodeId add_node(Handler handler) = 0;

  /// Sends payload from `from` to `to`.  Never blocks on the receiver.
  /// The view is only valid for the duration of the call; transports that
  /// defer delivery copy it (into pooled or queued storage).
  virtual void send(NodeId from, NodeId to, BytesView payload) = 0;

  /// Begins delivery (no-op for transports that deliver eagerly).
  virtual void start() {}

  /// Stops delivery and joins internal threads.  Idempotent.
  virtual void stop() {}
};

}  // namespace cmh::net
