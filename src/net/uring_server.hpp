// UringServer: the ShardedEngine served over loopback TCP by an io_uring
// submission loop -- the C10K->C1M half of the transport tier.
//
// Same surface and same semantics as the epoll SocketServer (bind-before-
// start, port(), stats(), and the shared routing, backpressure, and error
// containment policy of net/serving_core.hpp), different engine room:
//
//   accept    one multishot accept SQE produces a CQE per connection
//             instead of one epoll wakeup + accept4 syscall each.
//   recv      multishot recv through a provided-buffer ring: the kernel
//             picks a buffer per completion, so parked paced sessions cost
//             zero armed read buffers and zero syscalls while idle.
//   send      the conduit's scatter output drains through one outstanding
//             sendmsg SQE per connection. Deliberately NOT a linked SQE
//             chain: a short write completes the link "successfully"
//             without severing it, so the next linked send would transmit
//             from the wrong offset and corrupt the stream. One in-flight
//             gather per connection re-armed on completion is short-write
//             safe and still batches all connections into one submit.
//   wakeup    shard workers nudge the serving thread via IORING_OP_MSG_RING
//             on a shared sender ring (a CQE, no eventfd round trip),
//             coalesced to one wakeup per drain cycle.
//   close     io_uring ops hold a reference to the file, so close() alone
//             neither cancels them nor closes the socket. Teardown is
//             shutdown(SHUT_RDWR) -> pending ops error out -> the conn is
//             erased once its last in-flight op completes.
//
// The server needs every one of these features: uring_available()
// (net/uring.hpp) is the one gate, and the constructor throws when it
// fails. Every caller that wants "best available server" should use
// AnyServer (bottom of this header): it instantiates UringServer when the
// build has <linux/io_uring.h> AND the runtime probe passes (every feature
// present, no seccomp denial, RIBLT_NO_URING unset), else the epoll
// SocketServer.
#pragma once

#include <cstdint>
#include <optional>

#include "net/socket_server.hpp"
#include "net/uring.hpp"

#if defined(RIBLT_HAS_IO_URING)

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace ribltx::net {

template <Symbol T, typename Hasher = SipHasher<T>>
class UringServer {
 public:
  /// Binds the listener immediately (port() valid before start()) and
  /// creates the rings, so construction throws -- rather than start()
  /// failing later -- when io_uring is unusable (uring_available() false,
  /// or the kernel refuses a ring). Gate on uring_available().
  explicit UringServer(sync::ShardedEngine<T, Hasher>& engine,
                       SocketServerOptions options = {})
      : core_(engine, options, "uring"), listener_(options.port) {
    if (!uring_available()) {
      throw std::runtime_error(
          std::string("UringServer: io_uring unavailable (") +
          uring_caps().reason + ")");
    }
    // Deep CQ: multishot accept/recv complete many times per SQE, and an
    // overflowed CQ stalls the whole ring.
    ring_ = std::make_unique<Uring>(kSqEntries, kCqEntries);
    // The uring data path's only steady-state syscall is io_uring_enter.
    ring_->count_into(core_.cells().syscalls_wait, core_.cells().sqe_submits);
    ring_->setup_buf_ring(kBufGroup, kBufRingEntries, kRecvBufSize);
    // Tiny sender ring shared by all sink threads (mutex-guarded): its
    // only job is posting wakeup CQEs onto the serving ring.
    sender_ring_ = std::make_unique<Uring>(/*sq_entries=*/4);
  }

  ~UringServer() { stop(); }

  UringServer(const UringServer&) = delete;
  UringServer& operator=(const UringServer&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept {
    return listener_.port();
  }

  void start() {
    if (running_) throw std::logic_error("UringServer: already started");
    core_.start([this] { wake(); });
    serve_thread_ = std::thread([this] { serve_loop(); });
    running_ = true;
  }

  void stop() {
    if (!running_) return;
    core_.stop_workers();
    wake();
    if (serve_thread_.joinable()) serve_thread_.join();
    core_.clear();
    running_ = false;
  }

  [[nodiscard]] bool running() const noexcept { return running_; }

  [[nodiscard]] SocketServerStats stats() const { return core_.stats(); }

 private:
  static constexpr unsigned kSqEntries = 1024;
  static constexpr unsigned kCqEntries = 8192;
  static constexpr std::uint16_t kBufGroup = 1;
  static constexpr unsigned kBufRingEntries = 256;
  static constexpr std::size_t kRecvBufSize = 32u << 10;
  static constexpr std::size_t kSendIov = 32;
  static constexpr std::size_t kReapBatch = 256;

  // user_data: low 8 bits op kind, high 56 bits connection key.
  enum Ud : std::uint8_t {
    kUdAccept = 1,
    kUdTimeout = 2,
    kUdWakeup = 3,
    kUdCancel = 4,
    kUdRecv = 5,
    kUdSend = 6,
  };
  [[nodiscard]] static constexpr std::uint64_t make_ud(
      Ud op, std::uint64_t key = 0) noexcept {
    return (key << 8) | op;
  }
  [[nodiscard]] static constexpr Ud ud_op(std::uint64_t ud) noexcept {
    return static_cast<Ud>(ud & 0xff);
  }
  [[nodiscard]] static constexpr std::uint64_t ud_key(
      std::uint64_t ud) noexcept {
    return ud >> 8;
  }

  struct Conn : ServingConn {
    using ServingConn::ServingConn;
    // io_uring state, serving thread only.
    bool recv_armed = false;
    bool send_armed = false;
    bool closing = false;
    // Stable storage for the in-flight sendmsg (the kernel may import the
    // iovec after submission on the async path).
    msghdr msg{};
    iovec iov[kSendIov]{};
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// Nudges the serving thread out of submit_and_wait: MSG_RING posts a
  /// CQE straight onto the serving ring. One syscall (counted by the
  /// core's coalescing nudge).
  void wake() {
    const std::lock_guard<std::mutex> lk(sender_mu_);
    io_uring_sqe* sqe = sender_ring_->get_sqe();
    Uring::prep_msg_ring(*sqe, ring_->ring_fd(), make_ud(kUdWakeup),
                         make_ud(kUdWakeup));
    (void)sender_ring_->submit();
    // The MSG_RING op posts its own completion on the SENDER ring too;
    // discard them here or its small CQ overflows after a few wakes.
    Uring::Cqe scratch[8];
    while (sender_ring_->reap(scratch) != 0) {
    }
  }

  // -------------------------------------------------------- serving thread

  void serve_loop() {
    arm_accept();
    arm_timeout();
    Uring::Cqe cqes[kReapBatch];
    while (!core_.stopping()) {
      (void)ring_->submit_and_wait(1);
      std::size_t n;
      while ((n = ring_->reap(cqes)) != 0) {
        for (std::size_t i = 0; i < n; ++i) on_cqe(cqes[i]);
      }
      core_.drain_dirty(
          [this](const ConnPtr& conn) {
            begin_close(conn);
            maybe_finish_close(conn);
          },
          [this](Conn& conn) {
            core_.after_flush(conn);
            arm_send(conn);
          });
    }
    teardown_drain();
  }

  void on_cqe(const Uring::Cqe& cqe) {
    switch (ud_op(cqe.user_data)) {
      case kUdAccept:
        if (!cqe.more()) {
          inflight_--;
          accept_armed_ = false;
        }
        on_accept(cqe);
        break;
      case kUdTimeout:
        inflight_--;
        timeout_armed_ = false;
        arm_timeout();  // the 200ms stop-flag tick; also re-arms a downed
        if (!accept_armed_) arm_accept();  // accept after transient errors
        break;
      case kUdWakeup:  // a MSG_RING nudge: no op of ours was in flight
        break;
      case kUdCancel:
        inflight_--;
        break;
      case kUdRecv:
        on_recv(cqe);
        break;
      case kUdSend:
        on_send(cqe);
        break;
    }
  }

  void on_accept(const Uring::Cqe& cqe) {
    if (cqe.res < 0) {
      // EMFILE, ECONNABORTED, ...: the accept SQE is down; the timeout
      // tick re-arms it, which rate-limits a hot error loop.
      return;
    }
    const int fd = cqe.res;
    int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    set_send_buffer(fd, core_.options().send_buffer);
    auto conn = std::make_shared<Conn>(fd, next_conn_key_++,
                                       core_.options().max_frame);
    arm_recv(*conn);
    core_.add_conn(std::move(conn));
  }

  void on_recv(const Uring::Cqe& cqe) {
    const ConnPtr conn = core_.conn_of(ud_key(cqe.user_data));
    const bool rearmed = cqe.more();
    if (!rearmed && conn) conn->recv_armed = false;
    if (!rearmed) inflight_--;
    if (!conn) {
      if (cqe.has_buffer()) ring_->recycle_buffer(cqe.buffer_id());
      return;
    }
    if (conn->closing) {
      if (cqe.has_buffer()) ring_->recycle_buffer(cqe.buffer_id());
      maybe_finish_close(conn);
      return;
    }
    if (cqe.res == -ENOBUFS) {
      // Provided-buffer ring momentarily empty; buffers recycle within
      // this same drain cycle, so re-arming immediately is safe.
      if (!conn->recv_armed) arm_recv(*conn);
      return;
    }
    if (cqe.res <= 0 || !cqe.has_buffer()) {
      if (cqe.has_buffer()) ring_->recycle_buffer(cqe.buffer_id());
      begin_close(conn);
      maybe_finish_close(conn);
      return;
    }
    const std::uint16_t bid = cqe.buffer_id();
    const std::span<const std::byte> data =
        ring_->buffer(bid).first(static_cast<std::size_t>(cqe.res));
    bool alive = true;
    try {
      conn->conduit.feed(data);
    } catch (const sync::ProtocolError&) {
      core_.count_poison();
      begin_close(conn);
      alive = false;
    }
    ring_->recycle_buffer(bid);
    if (alive) {
      while (auto frame = conn->conduit.next_frame()) {
        if (!core_.route_inbound(conn, std::move(*frame))) {
          begin_close(conn);
          alive = false;
          break;
        }
      }
    }
    if (!alive) {
      maybe_finish_close(conn);
      return;
    }
    if (!conn->recv_armed) arm_recv(*conn);
  }

  void on_send(const Uring::Cqe& cqe) {
    inflight_--;
    const ConnPtr conn = core_.conn_of(ud_key(cqe.user_data));
    if (!conn) return;
    conn->send_armed = false;
    if (conn->closing) {
      maybe_finish_close(conn);
      return;
    }
    if (cqe.res < 0) {
      begin_close(conn);
      maybe_finish_close(conn);
      return;
    }
    conn->conduit.consume(static_cast<std::size_t>(cqe.res));
    core_.after_flush(*conn);
    arm_send(*conn);
  }

  // ------------------------------------------------------------ arm helpers

  void arm_accept() {
    if (accept_armed_ || core_.stopping()) return;
    io_uring_sqe* sqe = ring_->get_sqe();
    Uring::prep_accept(*sqe, listener_.fd(), make_ud(kUdAccept));
    accept_armed_ = true;
    inflight_++;
  }

  void arm_timeout() {
    if (timeout_armed_) return;
    tick_ts_ = {0, 200 * 1000 * 1000};  // 200ms, matches the epoll tick
    io_uring_sqe* sqe = ring_->get_sqe();
    Uring::prep_timeout(*sqe, &tick_ts_, make_ud(kUdTimeout));
    timeout_armed_ = true;
    inflight_++;
  }

  void arm_recv(Conn& conn) {
    if (conn.recv_armed || conn.closing) return;
    io_uring_sqe* sqe = ring_->get_sqe();
    Uring::prep_recv_multishot(*sqe, conn.io.fd(), kBufGroup,
                               make_ud(kUdRecv, conn.key));
    conn.recv_armed = true;
    inflight_++;
  }

  /// Arms at most ONE outstanding sendmsg per connection over the
  /// conduit's current scatter head (see the header comment for why not a
  /// linked chain). Iovec/msghdr live in the Conn, stable until the CQE.
  void arm_send(Conn& conn) {
    if (conn.send_armed || conn.closing || !conn.conduit.has_output()) return;
    std::span<const std::byte> chunks[kSendIov];
    const std::size_t n = conn.conduit.gather(chunks);
    if (n == 0) return;
    for (std::size_t i = 0; i < n; ++i) {
      conn.iov[i].iov_base =
          const_cast<std::byte*>(chunks[i].data());
      conn.iov[i].iov_len = chunks[i].size();
    }
    conn.msg = msghdr{};
    conn.msg.msg_iov = conn.iov;
    conn.msg.msg_iovlen = n;
    io_uring_sqe* sqe = ring_->get_sqe();
    Uring::prep_sendmsg(*sqe, conn.io.fd(), &conn.msg,
                        make_ud(kUdSend, conn.key));
    conn.send_armed = true;
    inflight_++;
  }

  // ------------------------------------------------------------ close path

  /// First half of closing: stop the sessions (engine close queued, sinks
  /// released, socket shutdown so in-flight ops error out).
  /// The Conn stays in the core's table until its last op completes -- the
  /// kernel still owns references into its buffers.
  void begin_close(const ConnPtr& conn) {
    if (conn->closing) return;
    conn->closing = true;
    conn->io.shutdown_both();
    core_.orphan(*conn);
  }

  /// Second half: once no op references the conn, close the fd and erase.
  void maybe_finish_close(const ConnPtr& conn) {
    if (!conn->closing || conn->recv_armed || conn->send_armed) return;
    conn->io.close();
    core_.retire_conn(conn->key);
  }

  // -------------------------------------------------------------- teardown

  /// Cancels everything in flight and reaps until the kernel has released
  /// every op (it may hold references into conn buffers until then; the
  /// iteration cap only guards against a kernel that ignores CANCEL_ANY).
  void teardown_drain() {
    for (const ConnPtr& conn : core_.conns()) conn->io.shutdown_both();
    io_uring_sqe* sqe = ring_->get_sqe();
    Uring::prep_cancel_all(*sqe, make_ud(kUdCancel));
    inflight_++;
    Uring::Cqe cqes[kReapBatch];
    int rounds = 0;
    while (inflight_ > 0 && rounds++ < 64) {
      (void)ring_->submit_and_wait(1);
      std::size_t n;
      while ((n = ring_->reap(cqes)) != 0) {
        for (std::size_t i = 0; i < n; ++i) teardown_cqe(cqes[i]);
      }
      // Liveness: if non-timeout ops are still pending, keep a timeout
      // armed so submit_and_wait can never block indefinitely.
      if (!timeout_armed_ && inflight_ > 0) arm_timeout();
      if (timeout_armed_ && inflight_ == 1) {
        // Only our own tick left: let it fire once un-re-armed.
        (void)ring_->submit_and_wait(1);
        while ((n = ring_->reap(cqes)) != 0) {
          for (std::size_t i = 0; i < n; ++i) teardown_cqe(cqes[i]);
        }
      }
    }
    // Every accepted conn must eventually count as closed (the epoll
    // server's invariant): conns whose terminal CQEs landed only during
    // teardown never went through maybe_finish_close, so settle them here.
    for (const ConnPtr& conn : core_.conns()) {
      conn->io.close();
      core_.retire_conn(conn->key);
    }
  }

  /// Minimal CQE dispatch during teardown: release buffers, clear armed
  /// flags, balance the inflight count. No re-arming except the liveness
  /// timeout handled by the caller.
  void teardown_cqe(const Uring::Cqe& cqe) {
    switch (ud_op(cqe.user_data)) {
      case kUdAccept:
        if (!cqe.more()) {
          inflight_--;
          accept_armed_ = false;
        }
        if (cqe.res >= 0) ::close(cqe.res);  // accepted during shutdown
        break;
      case kUdTimeout:
        inflight_--;
        timeout_armed_ = false;
        break;
      case kUdWakeup:
        break;
      case kUdCancel:
        inflight_--;
        break;
      case kUdRecv: {
        if (cqe.has_buffer()) ring_->recycle_buffer(cqe.buffer_id());
        if (!cqe.more()) {
          inflight_--;
          if (auto conn = core_.conn_of(ud_key(cqe.user_data))) {
            conn->recv_armed = false;
          }
        }
        break;
      }
      case kUdSend:
        inflight_--;
        if (auto conn = core_.conn_of(ud_key(cqe.user_data))) {
          conn->send_armed = false;
        }
        break;
    }
  }

  ServingCore<T, Hasher, Conn> core_;
  TcpListener listener_;
  std::unique_ptr<Uring> ring_;         ///< serving thread (after start)
  std::unique_ptr<Uring> sender_ring_;  ///< sink threads, sender_mu_-guarded
  std::mutex sender_mu_;
  __kernel_timespec tick_ts_{};
  std::uint64_t next_conn_key_ = 1;  ///< serving thread only

  // Serving thread only: armed-op accounting for teardown.
  std::size_t inflight_ = 0;
  bool accept_armed_ = false;
  bool timeout_armed_ = false;

  std::thread serve_thread_;
  bool running_ = false;
};

}  // namespace ribltx::net

#else  // !RIBLT_HAS_IO_URING

namespace ribltx::net {

/// Builds without <linux/io_uring.h> get the epoll server under the uring
/// name, so callers (tests, benches) compile unchanged and the runtime
/// probe -- always false here -- tells them which path they are really on.
template <Symbol T, typename Hasher = SipHasher<T>>
using UringServer = SocketServer<T, Hasher>;

}  // namespace ribltx::net

#endif  // RIBLT_HAS_IO_URING

namespace ribltx::net {

enum class ServerBackend : std::uint8_t { kEpoll, kUring };

/// "Best available server": UringServer when the build has io_uring support
/// AND the runtime probe passes, else the epoll SocketServer -- one type
/// callers can hold without caring which engine room they got. The probe
/// passes only with every feature UringServer uses, so any kernel short of
/// one (in practice anything older than Linux 6.0) serves epoll. (In an
/// epoll-only build UringServer is the SocketServer alias and the probe is
/// always false, so the same code compiles and picks epoll.)
template <Symbol T, typename Hasher = SipHasher<T>>
class AnyServer {
 public:
  /// `allow_uring` false forces the epoll path (forced-fallback testing).
  explicit AnyServer(sync::ShardedEngine<T, Hasher>& engine,
                     SocketServerOptions options = {},
                     bool allow_uring = true) {
    if (allow_uring && uring_available()) {
      uring_.emplace(engine, options);
    } else {
      epoll_.emplace(engine, options);
    }
  }

  [[nodiscard]] ServerBackend backend() const noexcept {
    return uring_ ? ServerBackend::kUring : ServerBackend::kEpoll;
  }

  [[nodiscard]] std::uint16_t port() const noexcept {
    return uring_ ? uring_->port() : epoll_->port();
  }

  void start() { uring_ ? uring_->start() : epoll_->start(); }

  void stop() { uring_ ? uring_->stop() : epoll_->stop(); }

  [[nodiscard]] bool running() const noexcept {
    return uring_ ? uring_->running() : epoll_->running();
  }

  [[nodiscard]] SocketServerStats stats() const {
    return uring_ ? uring_->stats() : epoll_->stats();
  }

 private:
  std::optional<SocketServer<T, Hasher>> epoll_;
  std::optional<UringServer<T, Hasher>> uring_;
};

}  // namespace ribltx::net
