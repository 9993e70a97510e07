#include "net/tcp_transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "common/logging.h"

namespace cmh::net {

namespace {

/// Upper bound on frames folded into a single sendmsg(), clamped to the
/// OS IOV_MAX; also the size of the stack iovec array.
constexpr std::size_t kMaxCoalescedFrames = std::min<std::size_t>(64, IOV_MAX);

/// Readable space requested from the ring buffer per recv() call.
constexpr std::size_t kRecvChunk = 64 * 1024;

/// Pre-frames a payload: 4-byte big-endian length prefix + bytes, one
/// contiguous buffer so a single iovec carries the whole frame.
Bytes make_frame(BytesView payload) {
  Bytes frame(4 + payload.size());
  const auto len = static_cast<std::uint32_t>(payload.size());
  frame[0] = static_cast<std::uint8_t>(len >> 24);
  frame[1] = static_cast<std::uint8_t>(len >> 16);
  frame[2] = static_cast<std::uint8_t>(len >> 8);
  frame[3] = static_cast<std::uint8_t>(len);
  if (!payload.empty()) {
    std::memcpy(frame.data() + 4, payload.data(), payload.size());
  }
  return frame;
}

/// Handshake frame: the sender's node id as a 4-byte payload (host order,
/// same wire format as the original transport).
Bytes make_hello(NodeId id) {
  Bytes payload(sizeof(NodeId));
  std::memcpy(payload.data(), &id, sizeof(id));
  return make_frame(payload);
}

/// Grow-only ring buffer for the receive path: one recv() lands many
/// frames, complete frames are sliced out in place, and the storage is
/// compacted (not reallocated) when the read head moves past data.  No
/// per-frame resize() anywhere.
class RecvBuffer {
 public:
  /// Contiguous writable space of at least `min` bytes (compacts, then
  /// grows geometrically if needed).
  std::uint8_t* writable(std::size_t min) {
    if (buf_.size() - tail_ < min) {
      if (head_ > 0) {
        std::memmove(buf_.data(), buf_.data() + head_, tail_ - head_);
        tail_ -= head_;
        head_ = 0;
      }
      if (buf_.size() - tail_ < min) {
        buf_.resize(std::max(buf_.size() * 2, tail_ + min));
      }
    }
    return buf_.data() + tail_;
  }

  [[nodiscard]] std::size_t writable_size() const { return buf_.size() - tail_; }
  void commit(std::size_t n) { tail_ += n; }
  [[nodiscard]] std::size_t buffered() const { return tail_ - head_; }

  /// Extracts the next complete frame's payload as a view into the buffer
  /// (valid until the next writable() call).  Returns false when no
  /// complete frame is buffered -- or the stream is corrupt (see corrupt()).
  bool next_frame(BytesView& payload) {
    if (buffered() < 4) return false;
    const std::uint8_t* p = buf_.data() + head_;
    const std::uint32_t len = (static_cast<std::uint32_t>(p[0]) << 24) |
                              (static_cast<std::uint32_t>(p[1]) << 16) |
                              (static_cast<std::uint32_t>(p[2]) << 8) |
                              static_cast<std::uint32_t>(p[3]);
    if (len > kMaxFrameBytes) {
      corrupt_ = true;
      return false;
    }
    if (buffered() < 4 + static_cast<std::size_t>(len)) return false;
    payload = BytesView{buf_.data() + head_ + 4, len};
    head_ += 4 + len;
    return true;
  }

  [[nodiscard]] bool corrupt() const { return corrupt_; }

 private:
  Bytes buf_ = Bytes(4096);
  std::size_t head_{0};
  std::size_t tail_{0};
  bool corrupt_{false};
};

}  // namespace

// ---- pollables --------------------------------------------------------------

/// Accepts inbound connections for one node and hands each to an
/// InboundConn on the same loop.
struct TcpTransport::ListenConn final : Pollable {
  ListenConn(TcpTransport& transport, Node& node, int fd)
      : Pollable(fd), t(transport), node(node) {}

  void on_events(std::uint32_t) override;

  TcpTransport& t;
  Node& node;
};

/// One accepted connection: ring-buffered reads, handshake, then frames
/// into the node's mailbox.  All state is loop-thread confined.
struct TcpTransport::InboundConn final : Pollable {
  InboundConn(TcpTransport& transport, Node& node, int fd)
      : Pollable(fd), t(transport), node(node) {}

  void on_events(std::uint32_t events) override;
  /// Slices complete frames out of the ring buffer; false on protocol
  /// corruption (oversized length prefix, malformed handshake).
  bool parse();

  TcpTransport& t;
  Node& node;
  RecvBuffer buf;
  bool got_hello{false};
  NodeId peer{0};
};

/// The socket behind one outbound channel.  Owned by the loop's registry;
/// the channel's mutex covers all shared state, and every fd-lifecycle
/// operation happens on the loop thread.
struct TcpTransport::OutboundConn final : Pollable {
  OutboundConn(TcpTransport& transport, Channel& channel, int fd)
      : Pollable(fd), t(transport), ch(channel) {}

  void on_events(std::uint32_t events) override;

  TcpTransport& t;
  Channel& ch;
  bool want_write{false};  // EPOLLOUT armed (loop thread only)
};

void TcpTransport::ListenConn::on_events(std::uint32_t) {
  for (;;) {
    const int cfd = ::accept4(fd(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (cfd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or transient error; level-trigger re-arms
    }
    int one = 1;
    ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    node.loop->add(std::make_shared<InboundConn>(t, node, cfd), EPOLLIN);
  }
}

void TcpTransport::InboundConn::on_events(std::uint32_t) {
  // Level-triggered: read until the socket is drained (short read / EAGAIN)
  // so one readiness event never leaves buffered frames behind.
  for (;;) {
    std::uint8_t* dst = buf.writable(kRecvChunk);
    const std::size_t cap = buf.writable_size();
    const ssize_t n = ::recv(fd(), dst, cap, 0);
    if (n > 0) {
      t.read_syscalls_.fetch_add(1, std::memory_order_relaxed);
      buf.commit(static_cast<std::size_t>(n));
      if (!parse()) {
        node.loop->destroy(*this);
        return;
      }
      if (static_cast<std::size_t>(n) < cap) return;  // drained
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
    node.loop->destroy(*this);  // EOF or hard error
    return;
  }
}

bool TcpTransport::InboundConn::parse() {
  BytesView frame;
  std::vector<Bytes> batch;
  while (buf.next_frame(frame)) {
    if (!got_hello) {
      if (frame.size() != sizeof(NodeId)) return false;
      std::memcpy(&peer, frame.data(), sizeof(peer));
      got_hello = true;
      continue;
    }
    batch.emplace_back(frame.begin(), frame.end());
  }
  if (buf.corrupt()) return false;
  if (!batch.empty()) t.deliver_batch(node, peer, std::move(batch));
  return true;
}

void TcpTransport::OutboundConn::on_events(std::uint32_t events) {
  if (events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
    // Our protocol never sends data back on an outbound connection, so
    // inbound readiness is either junk to drain or a close/reset.
    bool dead = (events & (EPOLLHUP | EPOLLERR)) != 0;
    std::uint8_t sink[256];
    for (;;) {
      const ssize_t n = ::recv(fd(), sink, sizeof(sink), 0);
      if (n > 0) continue;  // protocol junk; ignore
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      dead = true;  // EOF or hard error
      break;
    }
    if (dead) {
      const MutexLock lock(ch.mutex);
      // `this` may be stale if the channel already reconnected.
      if (ch.conn == this) t.fail_channel_locked(ch);  // destroys this conn
      return;
    }
  }
  if (events & EPOLLOUT) {
    const MutexLock lock(ch.mutex);
    if (ch.conn != this) return;  // stale event from a previous dial
    if (ch.state == ChannelState::kConnecting) {
      int err = 0;
      socklen_t len = sizeof(err);
      ::getsockopt(fd(), SOL_SOCKET, SO_ERROR, &err, &len);
      if (err != 0) {
        t.fail_channel_locked(ch);  // destroys this conn
        return;
      }
      ch.state = ChannelState::kUp;
      ch.backoff = {};
      // The handshake precedes everything queued while the dial was in
      // flight; teardown always clears the queue, so the front is ours.
      ch.queue.push_front(make_hello(ch.src));
    }
    if (ch.state == ChannelState::kUp) t.flush_channel_locked(ch);
  }
}

// ---- registry ---------------------------------------------------------------

NodeId TcpTransport::add_node(Handler handler) {
  const MutexLock lock(nodes_mutex_);
  if (started_) {
    throw std::logic_error("TcpTransport: add_node after start()");
  }
  auto node = std::make_unique<Node>();
  node->handler = std::move(handler);
  node->id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

std::uint16_t TcpTransport::port(NodeId node) const {
  const MutexLock lock(nodes_mutex_);
  return nodes_.at(node)->port;
}

// ---- lifecycle --------------------------------------------------------------

void TcpTransport::start() {
  const MutexLock lock(nodes_mutex_);
  if (started_) return;
  if (stopping_) {
    // The loops were joined and every channel poisoned; rebuilding them in
    // place is not worth the complexity -- construct a fresh transport.
    throw std::logic_error("TcpTransport: restart after stop() unsupported");
  }

  for (auto& node : nodes_) {
    const int fd =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("TcpTransport: socket() failed");
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // let the OS pick
    // lint:allow(no-reinterpret-cast) -- the sockaddr cast the BSD API demands
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      throw std::runtime_error("TcpTransport: bind() failed");
    }
    if (::listen(fd, 128) != 0) {
      ::close(fd);
      throw std::runtime_error("TcpTransport: listen() failed");
    }
    socklen_t len = sizeof(addr);
    // lint:allow(no-reinterpret-cast) -- the sockaddr cast the BSD API demands
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
    node->listen_fd = fd;
    node->port = ntohs(addr.sin_port);
  }

  unsigned n_loops = config_.event_loops;
  if (n_loops == 0) {
    n_loops = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  }
  for (unsigned i = 0; i < n_loops; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    loops_.back()->start();
  }

  const auto n = static_cast<std::uint32_t>(nodes_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    Node* node = nodes_[i].get();
    node->loop = loops_[i % n_loops].get();
    node->channels.reserve(n);
    for (std::uint32_t j = 0; j < n; ++j) {
      auto ch = std::make_unique<Channel>();
      // Spread channels across the pool independently of the listener
      // placement so heavy senders and heavy receivers do not pile onto
      // the same loop.
      ch->loop = loops_[(static_cast<std::size_t>(i) * n + j) % n_loops].get();
      ch->src = i;
      ch->dst = j;
      ch->dst_port = nodes_[j]->port;
      node->channels.push_back(std::move(ch));
    }
    node_index_.push_back(node);
  }

  for (auto& node : nodes_) {
    Node* raw = node.get();
    raw->loop->post([this, raw] {
      auto listener = std::make_shared<ListenConn>(*this, *raw, raw->listen_fd);
      raw->listener = listener.get();
      raw->loop->add(std::move(listener), EPOLLIN);
    });
  }

  for (auto& node : nodes_) {
    node->deliverer =
        std::thread([this, raw = node.get()] { deliverer_loop(*raw); });
  }
  started_.store(true, std::memory_order_release);
}

void TcpTransport::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  // Raise stopping_ *before* clearing started_: a deliverer thread sending
  // from a handler in between would otherwise take the transport for one
  // that was never started and throw.  The exchange also makes concurrent
  // stop() calls run the teardown once.
  if (stopping_.exchange(true)) return;
  started_.store(false, std::memory_order_release);

  // Poison every channel so senders that raced past the stopping_ check
  // drop instead of scheduling work on a dying loop, and queued frames are
  // released (drops at shutdown are acceptable).
  for (Node* node : node_index_) {
    for (auto& ch : node->channels) {
      const MutexLock lock(ch->mutex);
      ch->queue.clear();
      ch->front_offset = 0;
      ch->flush_scheduled = false;
      ch->state = ChannelState::kBackoff;
      ch->next_retry =
          std::chrono::steady_clock::now() + std::chrono::hours(24);
    }
  }

  // Joins every loop thread; each closes its registered fds on the way
  // out.  The EventLoop objects stay alive (see loops_ comment).
  for (auto& loop : loops_) loop->stop();

  for (Node* node : node_index_) {
    // Take the mail mutex before notifying so a deliverer between its
    // predicate check and wait() cannot miss the wakeup.
    { const MutexLock lock(node->mail_mutex); }
    node->mail_cv.notify_all();
    if (node->deliverer.joinable()) node->deliverer.join();
  }
}

void TcpTransport::close_listener(NodeId node) {
  if (!started_.load(std::memory_order_acquire)) return;
  Node* raw = node_index_.at(node);
  Mutex done_mutex;
  CondVar done_cv;
  bool done = false;
  const bool posted = raw->loop->post([raw, &done_mutex, &done_cv, &done] {
    if (raw->listener != nullptr && !raw->listener->closed()) {
      raw->loop->destroy(*raw->listener);
    }
    // Notify while holding the mutex: the waiter owns done_cv on its
    // stack and destroys it as soon as it reacquires the lock and sees
    // done — an unlocked notify could still be touching the condvar then.
    const MutexLock lock(done_mutex);
    done = true;
    done_cv.notify_all();
  });
  if (!posted) return;  // loop already stopped; its exit closed the fd
  const MutexLock lock(done_mutex);
  done_cv.wait(done_mutex, [&] {
    done_mutex.assert_held();  // held by CondVar::wait's contract
    return done;
  });
}

// ---- send path --------------------------------------------------------------

void TcpTransport::send(NodeId from, NodeId to, BytesView payload) {
  if (stopping_) return;  // shutting down; drops are acceptable
  if (!started_.load(std::memory_order_acquire)) {
    // stop() raises stopping_ before clearing started_, so a send that saw
    // the cleared flag and then finds stopping_ raced a stop(): drop it.
    if (stopping_) return;
    throw std::logic_error("TcpTransport::send: transport not started");
  }
  if (from >= node_index_.size() || to >= node_index_.size()) {
    throw std::out_of_range("TcpTransport::send: unknown node");
  }
  if (payload.size() > kMaxFrameBytes) {
    throw std::length_error("TcpTransport::send: frame exceeds kMaxFrameBytes");
  }
  Channel& ch = *node_index_[from]->channels[to];
  Bytes frame = make_frame(payload);  // framed outside the lock

  bool post_connect = false;
  bool post_flush = false;
  {
    const MutexLock lock(ch.mutex);
    switch (ch.state) {
      case ChannelState::kBackoff:
        if (std::chrono::steady_clock::now() < ch.next_retry) {
          ch.dropped.fetch_add(1, std::memory_order_relaxed);
          frames_dropped_.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        [[fallthrough]];
      case ChannelState::kIdle:
        ch.state = ChannelState::kConnecting;
        post_connect = true;
        break;
      case ChannelState::kConnecting:
        break;  // queued frames flush when the dial completes
      case ChannelState::kUp:
        if (!ch.flush_scheduled) {
          ch.flush_scheduled = true;
          post_flush = true;
        }
        break;
    }
    ch.queue.push_back(std::move(frame));
  }
  frames_enqueued_.fetch_add(1, std::memory_order_relaxed);
  // Wake the loop only when no flush is pending -- every send that lands
  // while one is scheduled rides along in the same sendmsg() batch.
  if (post_connect) {
    ch.loop->post([this, &ch] { connect_channel(ch); });
  } else if (post_flush) {
    ch.loop->post([this, &ch] { flush_channel(ch); });
  }
}

void TcpTransport::connect_channel(Channel& ch) {
  connect_attempts_.fetch_add(1, std::memory_order_relaxed);
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  const MutexLock lock(ch.mutex);
  if (stopping_ || ch.state != ChannelState::kConnecting) {
    if (fd >= 0) ::close(fd);
    return;
  }
  if (fd < 0) {
    fail_channel_locked(ch);
    return;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(ch.dst_port);
  // lint:allow(no-reinterpret-cast) -- the sockaddr cast the BSD API demands
  const int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    fail_channel_locked(ch);
    return;
  }
  auto conn = std::make_shared<OutboundConn>(*this, ch, fd);
  OutboundConn* raw = conn.get();
  const bool connected = rc == 0;
  if (!connected) raw->want_write = true;  // completion arrives as EPOLLOUT
  ch.loop->add(std::move(conn),
               connected ? EPOLLIN : (EPOLLIN | EPOLLOUT));
  if (raw->closed()) {  // add() failed and closed the fd
    fail_channel_locked(ch);
    return;
  }
  ch.conn = raw;
  ch.fd = fd;
  if (connected) {
    ch.state = ChannelState::kUp;
    ch.backoff = {};
    ch.queue.push_front(make_hello(ch.src));
    flush_channel_locked(ch);
  }
}

void TcpTransport::flush_channel(Channel& ch) {
  const MutexLock lock(ch.mutex);
  if (ch.state != ChannelState::kUp) return;  // flushes resume on promotion
  flush_channel_locked(ch);
}

void TcpTransport::flush_channel_locked(Channel& ch) {
  iovec iov[kMaxCoalescedFrames];
  for (;;) {
    if (ch.queue.empty()) {
      ch.flush_scheduled = false;
      if (ch.conn != nullptr && ch.conn->want_write) {
        ch.conn->want_write = false;
        ch.loop->set_events(*ch.conn, EPOLLIN);
      }
      return;
    }
    // One sendmsg() carries prefix+payload of up to kMaxCoalescedFrames
    // queued frames.
    std::size_t cnt = 0;
    std::size_t requested = 0;
    for (auto it = ch.queue.begin();
         it != ch.queue.end() && cnt < kMaxCoalescedFrames; ++it, ++cnt) {
      const std::size_t off = cnt == 0 ? ch.front_offset : 0;
      iov[cnt].iov_base = it->data() + off;
      iov[cnt].iov_len = it->size() - off;
      requested += iov[cnt].iov_len;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = cnt;
    const ssize_t n = ::sendmsg(ch.fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Kernel buffer full: flush_scheduled stays true, EPOLLOUT drives
        // the next round.
        if (ch.conn != nullptr && !ch.conn->want_write) {
          ch.conn->want_write = true;
          ch.loop->set_events(*ch.conn, EPOLLIN | EPOLLOUT);
        }
        return;
      }
      fail_channel_locked(ch);  // peer reset mid-stream
      return;
    }
    write_syscalls_.fetch_add(1, std::memory_order_relaxed);
    bytes_sent_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
    std::size_t left = static_cast<std::size_t>(n);
    while (left > 0) {
      Bytes& front = ch.queue.front();
      const std::size_t avail = front.size() - ch.front_offset;
      if (left >= avail) {
        left -= avail;
        ch.front_offset = 0;
        ch.queue.pop_front();
        frames_sent_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ch.front_offset += left;
        left = 0;
      }
    }
  }
}

void TcpTransport::fail_channel_locked(Channel& ch) {
  const auto lost = static_cast<std::uint64_t>(ch.queue.size());
  if (lost > 0) {
    ch.dropped.fetch_add(lost, std::memory_order_relaxed);
    frames_dropped_.fetch_add(lost, std::memory_order_relaxed);
  }
  ch.queue.clear();
  ch.front_offset = 0;
  ch.flush_scheduled = false;
  ch.backoff = ch.backoff.count() == 0
                   ? config_.reconnect_backoff_initial
                   : std::min(ch.backoff * 2, config_.reconnect_backoff_max);
  ch.next_retry = std::chrono::steady_clock::now() + ch.backoff;
  ch.state = ChannelState::kBackoff;
  if (ch.conn != nullptr) {
    ch.loop->destroy(*ch.conn);
    ch.conn = nullptr;
  }
  ch.fd = -1;
  CMH_LOG(kWarn, "tcp") << "channel " << ch.src << "->" << ch.dst
                        << " down; retry in " << ch.backoff.count() << " ms ("
                        << lost << " frame(s) dropped)";
}

// ---- delivery ---------------------------------------------------------------

void TcpTransport::deliver_batch(Node& node, NodeId from,
                                 std::vector<Bytes>&& payloads) {
  {
    const MutexLock lock(node.mail_mutex);
    for (auto& payload : payloads) {
      node.mailbox.emplace_back(from, std::move(payload));
    }
  }
  node.mail_cv.notify_one();
}

void TcpTransport::deliverer_loop(Node& node) {
  for (;;) {
    std::pair<NodeId, Bytes> mail;
    {
      const MutexLock lock(node.mail_mutex);
      node.mail_cv.wait(node.mail_mutex, [&] {
        // Held by CondVar::wait's contract; the analysis cannot see through
        // the predicate lambda boundary.
        node.mail_mutex.assert_held();
        return stopping_.load() || !node.mailbox.empty();
      });
      if (node.mailbox.empty()) return;
      mail = std::move(node.mailbox.front());
      node.mailbox.pop_front();
    }
    if (node.handler) node.handler(mail.first, mail.second);
    frames_delivered_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- introspection ----------------------------------------------------------

TransportIoStats TcpTransport::io_stats() const {
  TransportIoStats s;
  s.frames_enqueued = frames_enqueued_.load(std::memory_order_relaxed);
  s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
  s.frames_dropped = frames_dropped_.load(std::memory_order_relaxed);
  s.frames_delivered = frames_delivered_.load(std::memory_order_relaxed);
  s.write_syscalls = write_syscalls_.load(std::memory_order_relaxed);
  s.read_syscalls = read_syscalls_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.connect_attempts = connect_attempts_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t TcpTransport::dropped_frames(NodeId from, NodeId to) const {
  return node_index_.at(from)->channels.at(to)->dropped.load(
      std::memory_order_relaxed);
}

}  // namespace cmh::net
