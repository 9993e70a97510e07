// Localhost TCP transport on an epoll event-loop pool.
//
// Every node runs a listening socket on 127.0.0.1.  The first frame on a
// connection is a handshake carrying the sender's node id; subsequent
// frames are 4-byte-big-endian length-prefixed payloads.  One outbound
// connection is established lazily per (src,dst) channel; TCP's byte-stream
// ordering plus the channel's queue lock give per-channel FIFO.
//
// The hot path is syscall-frugal by design:
//   * send() is enqueue-and-wake: the caller pushes a pre-framed buffer
//     onto the channel's write queue and (only when no flush is already
//     pending) wakes the channel's event loop through an eventfd.  The
//     caller thread never touches the socket.
//   * The loop flushes with one sendmsg() carrying the length prefixes AND
//     payloads of up to 64 queued frames -- under load
//     the measured syscalls-per-frame drops well below one.
//   * The receive side reads into a per-connection ring buffer (one recv()
//     per readiness, many frames) and slices complete frames out of it
//     without a per-frame resize().
//
// Connects are non-blocking and complete on the loop; a failed dial puts
// the channel into capped exponential backoff, and frames sent while the
// peer is unreachable are counted per channel (dropped_frames()) instead
// of blocking the caller.
//
// Delivered messages still funnel through a per-destination mailbox thread
// so handlers stay sequential per node (the paper's atomic-step
// requirement).
//
// Capability model (DESIGN.md section 7.2): the node registry is guarded
// by nodes_mutex_ and frozen at start() (node_index_ is the lock-free
// post-start snapshot, published by started_); each channel's connection
// state and write queue are guarded by that channel's own mutex; each
// node's mailbox by its mail_mutex.  Socket lifecycle (connect completion,
// teardown, epoll arming) happens only on the owning loop thread, so a
// sender holding the channel mutex never races fd ownership.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/event_loop.h"
#include "net/transport.h"

namespace cmh::net {

/// Framing bound: a length prefix larger than this is treated as stream
/// corruption and the connection is dropped.
inline constexpr std::uint32_t kMaxFrameBytes = 64u << 20;  // 64 MiB

/// Monotonic I/O counters (relaxed atomics; a snapshot is consistent only
/// in the quiescent state).  `frames_sent` versus `write_syscalls` is the
/// coalescing ratio the event loop optimizes: under load one sendmsg()
/// carries many queued frames.
struct TransportIoStats {
  std::uint64_t frames_enqueued{0};   ///< accepted by send()
  std::uint64_t frames_sent{0};       ///< fully handed to the kernel
  std::uint64_t frames_dropped{0};    ///< lost to connect failure / backoff
  std::uint64_t frames_delivered{0};  ///< handler invocations completed
  std::uint64_t write_syscalls{0};    ///< sendmsg() calls
  std::uint64_t read_syscalls{0};     ///< recv() calls
  std::uint64_t bytes_sent{0};        ///< payload + prefix bytes written
  std::uint64_t connect_attempts{0};  ///< outbound dials (incl. retries)
};

struct TcpTransportConfig {
  /// Event-loop threads to run; 0 means min(4, hardware_concurrency).
  unsigned event_loops = 0;
  /// First retry delay after a failed connect; doubles per failure.
  std::chrono::milliseconds reconnect_backoff_initial{5};
  /// Ceiling for the exponential backoff.
  std::chrono::milliseconds reconnect_backoff_max{1000};
};

class TcpTransport final : public Transport {
 public:
  /// Ports are allocated by the OS (bind to port 0); peers learn each
  /// other's ports through the shared registry inside this object, which
  /// stands in for out-of-band configuration in a real deployment.
  TcpTransport() = default;
  explicit TcpTransport(const TcpTransportConfig& config) : config_(config) {}
  ~TcpTransport() override { stop(); }

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  /// Rejected after start(): deliverer and loop threads read node state
  /// without a lock, which is only sound while the node set is frozen.
  NodeId add_node(Handler handler) override;
  /// Enqueue-and-wake; never performs socket I/O on the caller thread.
  /// Throws std::logic_error before start().
  void send(NodeId from, NodeId to, BytesView payload) override;
  void start() override;
  void stop() override;

  /// Port the given node listens on (valid after start()).
  [[nodiscard]] std::uint16_t port(NodeId node) const;

  /// Aggregate I/O counters (relaxed snapshot).
  [[nodiscard]] TransportIoStats io_stats() const;

  /// Frames dropped on the (from,to) channel because the peer was
  /// unreachable (failed dial or backoff window).  Valid after start().
  [[nodiscard]] std::uint64_t dropped_frames(NodeId from, NodeId to) const;

  /// Fault injection for tests: closes `node`'s listening socket so every
  /// later dial to it fails (simulates a crashed peer).  Blocks until the
  /// owning loop has executed the close.  No-op before start().
  void close_listener(NodeId node);

 private:
  struct Node;
  struct Channel;
  struct ListenConn;
  struct InboundConn;
  struct OutboundConn;

  enum class ChannelState : std::uint8_t {
    kIdle,        // never dialed
    kConnecting,  // non-blocking connect in flight on the loop
    kUp,          // established; flushes allowed
    kBackoff,     // last dial failed; retry gated by next_retry
  };

  /// Outbound (src -> dst) connection state.  The queue holds pre-framed
  /// buffers (4-byte prefix + payload, one Bytes each).
  struct Channel {
    Mutex mutex;
    ChannelState state CMH_GUARDED_BY(mutex){ChannelState::kIdle};
    std::deque<Bytes> queue CMH_GUARDED_BY(mutex);
    std::size_t front_offset CMH_GUARDED_BY(mutex){0};
    /// True while a flush task is posted or EPOLLOUT is armed -- senders
    /// skip the wake when set, which is what makes bursts coalesce.
    bool flush_scheduled CMH_GUARDED_BY(mutex){false};
    int fd CMH_GUARDED_BY(mutex){-1};
    /// Loop-owned; only the loop thread dereferences it.
    OutboundConn* conn CMH_GUARDED_BY(mutex){nullptr};
    std::chrono::steady_clock::time_point next_retry CMH_GUARDED_BY(mutex){};
    std::chrono::milliseconds backoff CMH_GUARDED_BY(mutex){0};

    std::atomic<std::uint64_t> dropped{0};

    // Fixed at start(), immutable afterwards.
    EventLoop* loop{nullptr};
    NodeId src{0};
    NodeId dst{0};
    std::uint16_t dst_port{0};
  };

  struct Node {
    // handler/id/port/listen_fd/loop/channels are written only before the
    // worker threads exist (add_node / start(), pre-publication) and are
    // immutable afterwards; publication happens via started_.
    Handler handler;
    NodeId id{0};
    std::uint16_t port{0};
    int listen_fd{-1};
    EventLoop* loop{nullptr};
    std::vector<std::unique_ptr<Channel>> channels;
    /// Set during loop-side registration; dereferenced only on the loop
    /// thread (close_listener's task).
    CMH_GUARDED_BY_PROTOCOL("loop thread only")
    ListenConn* listener{nullptr};

    // Inbound delivery mailbox (serializes handler execution).
    Mutex mail_mutex;
    CondVar mail_cv;
    std::deque<std::pair<NodeId, Bytes>> mailbox CMH_GUARDED_BY(mail_mutex);
    std::thread deliverer;
  };

  void deliverer_loop(Node& node);

  // Loop-thread-only channel lifecycle (each takes ch.mutex internally).
  void connect_channel(Channel& ch);
  void flush_channel(Channel& ch);
  void flush_channel_locked(Channel& ch) CMH_REQUIRES(ch.mutex);
  void fail_channel_locked(Channel& ch) CMH_REQUIRES(ch.mutex);
  void deliver_batch(Node& node, NodeId from,
                     std::vector<Bytes>&& payloads);

  TcpTransportConfig config_{};

  mutable Mutex nodes_mutex_;
  std::vector<std::unique_ptr<Node>> nodes_ CMH_GUARDED_BY(nodes_mutex_);

  /// Lock-free registry snapshot for the post-start hot path; built in
  /// start() and published by started_.store(release).
  CMH_GUARDED_BY_PROTOCOL("frozen at start(); published by started_")
  std::vector<Node*> node_index_;

  /// Loops are created in start() and stopped (joined) in stop(), but the
  /// objects live until destruction so a send() racing stop() posts to a
  /// dead-but-alive loop instead of freed memory.
  CMH_GUARDED_BY_PROTOCOL("created in start() pre-publication")
  std::vector<std::unique_ptr<EventLoop>> loops_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  // Relaxed I/O counters (see TransportIoStats).
  std::atomic<std::uint64_t> frames_enqueued_{0};
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> frames_dropped_{0};
  std::atomic<std::uint64_t> frames_delivered_{0};
  std::atomic<std::uint64_t> write_syscalls_{0};
  std::atomic<std::uint64_t> read_syscalls_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> connect_attempts_{0};
};

}  // namespace cmh::net
