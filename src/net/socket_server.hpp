// SocketServer: the ShardedEngine served over real loopback TCP by an
// epoll loop.
//
// One poll thread owns an epoll loop (net::Poller) with the listener, a
// cross-thread wakeup eventfd, and every accepted connection. Each
// connection carries a FrameConduit: inbound bytes read until EAGAIN
// reassemble into v2 frames for the serving core's router; outbound frames
// the shard workers' sinks staged drain through writev as the socket
// accepts them, with EPOLLOUT interest armed only while output is pending.
// Routing, backpressure, error containment, and ADMIN answering are the
// shared policy in net/serving_core.hpp.
#pragma once

#include <cstdint>
#include <cstddef>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "net/serving_core.hpp"

namespace ribltx::net {

template <Symbol T, typename Hasher = SipHasher<T>>
class SocketServer {
 public:
  /// Binds the listener immediately (so port() is valid before start());
  /// the engine must not be start()ed -- the server owns its sink.
  explicit SocketServer(sync::ShardedEngine<T, Hasher>& engine,
                        SocketServerOptions options = {})
      : core_(engine, options, "epoll"), listener_(options.port) {}

  ~SocketServer() { stop(); }

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  /// Starts the shard workers (engine.start with the core's sink) and the
  /// poll thread.
  void start() {
    if (running_) throw std::logic_error("SocketServer: already started");
    core_.start([this] { wakeup_.signal(); });
    poll_thread_ = std::thread([this] { poll_loop(); });
    running_ = true;
  }

  /// Unblocks and joins the shard workers, then the poll thread; closes
  /// every connection. Idempotent.
  void stop() {
    if (!running_) return;
    core_.stop_workers();
    wakeup_.signal();
    if (poll_thread_.joinable()) poll_thread_.join();
    core_.clear();
    running_ = false;
  }

  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] SocketServerStats stats() const { return core_.stats(); }

 private:
  struct Conn : ServingConn {
    using ServingConn::ServingConn;
    bool want_write = false;  ///< poll thread: current epoll interest
  };
  using ConnPtr = std::shared_ptr<Conn>;

  static constexpr std::uint64_t kListenerKey = 0;
  static constexpr std::uint64_t kWakeupKey = 1;
  static constexpr std::uint64_t kFirstConnKey = 2;

  void poll_loop() {
    poller_.add(listener_.fd(), kPollIn, kListenerKey);
    poller_.add(wakeup_.fd(), kPollIn, kWakeupKey);
    Poller::Event events[64];
    while (!core_.stopping()) {
      const std::size_t n = poller_.wait(events, /*timeout_ms=*/200);
      core_.cells().syscalls_wait->inc();
      for (std::size_t i = 0; i < n; ++i) {
        const Poller::Event& ev = events[i];
        if (ev.key == kListenerKey) {
          accept_all();
        } else if (ev.key == kWakeupKey) {
          wakeup_.drain();
        } else {
          on_conn_event(ev);
        }
      }
      core_.drain_dirty([this](const ConnPtr& conn) { close_conn(*conn); },
                        [this](Conn& conn) { flush_conn(conn); });
    }
  }

  void accept_all() {
    for (;;) {
      const int fd = listener_.accept_conn();
      if (fd < 0) return;
      set_send_buffer(fd, core_.options().send_buffer);
      auto conn = std::make_shared<Conn>(fd, next_conn_key_++,
                                         core_.options().max_frame);
      poller_.add(conn->io.fd(), kPollIn, conn->key);
      core_.add_conn(std::move(conn));
    }
  }

  void on_conn_event(const Poller::Event& ev) {
    const ConnPtr conn = core_.conn_of(ev.key);
    if (!conn) return;  // already closed this round
    if (ev.broken()) {
      close_conn(*conn);
      return;
    }
    if (ev.readable() && !read_ready(conn)) return;
    if (ev.writable()) flush_conn(*conn);
  }

  /// Reads until EAGAIN, feeding the conduit and routing complete frames.
  /// Returns false when the connection died (and was closed).
  bool read_ready(const ConnPtr& conn) {
    std::byte buf[64 * 1024];
    for (;;) {
      const TcpConn::IoResult r = conn->io.read_some(buf);
      core_.cells().syscalls_read->inc();
      if (r.status == TcpConn::Io::kWouldBlock) break;
      if (r.status == TcpConn::Io::kClosed) {
        close_conn(*conn);
        return false;
      }
      try {
        conn->conduit.feed(std::span<const std::byte>(buf, r.bytes));
      } catch (const sync::ProtocolError&) {
        core_.count_poison();
        close_conn(*conn);
        return false;
      }
      while (auto frame = conn->conduit.next_frame()) {
        if (!core_.route_inbound(conn, std::move(*frame))) {
          close_conn(*conn);
          return false;
        }
      }
    }
    return true;
  }

  /// writev-drains the conduit, then maintains EPOLLOUT interest and the
  /// backpressure watermark signal.
  void flush_conn(Conn& conn) {
    if (!conn.io.open()) return;
    while (conn.conduit.has_output()) {
      std::span<const std::byte> chunks[TcpConn::kMaxIov];
      const std::size_t n = conn.conduit.gather(chunks);
      const TcpConn::IoResult r =
          conn.io.write_gather(std::span<const std::span<const std::byte>>(
              chunks, n));
      core_.cells().syscalls_write->inc();
      if (r.status == TcpConn::Io::kClosed) {
        close_conn(conn);
        return;
      }
      if (r.status == TcpConn::Io::kWouldBlock || r.bytes == 0) break;
      conn.conduit.consume(r.bytes);
    }
    const bool want = conn.conduit.has_output();
    if (want != conn.want_write) {
      conn.want_write = want;
      poller_.modify(conn.io.fd(), want ? (kPollIn | kPollOut) : kPollIn,
                     conn.key);
    }
    core_.after_flush(conn);
  }

  void close_conn(Conn& conn) {
    core_.orphan(conn);
    if (conn.io.open()) {
      poller_.remove(conn.io.fd());
      conn.io.close();
    }
    core_.retire_conn(conn.key);
  }

  ServingCore<T, Hasher, Conn> core_;
  TcpListener listener_;
  Poller poller_;
  WakeupFd wakeup_;
  std::thread poll_thread_;
  std::uint64_t next_conn_key_ = kFirstConnKey;  ///< poll thread only
  bool running_ = false;
};

}  // namespace ribltx::net
