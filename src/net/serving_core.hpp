// ServingCore: the transport-independent half of serving a ShardedEngine
// over TCP -- everything the epoll SocketServer and the io_uring
// UringServer do identically, written once. Each server keeps only its I/O
// loop (epoll readiness vs. uring completions) and its close path, and
// calls in here for the policy:
//
//   routing       inbound frames route to the engine via
//                 v2::peek_session_id + submit(), recording sid ->
//                 connection so replies find their way back; ADMIN verbs
//                 are answered on the serving thread.
//   backpressure  a shard worker's sink blocks while the destination
//                 connection's queued output (staged + conduit) sits above
//                 the high watermark, and resumes when the serving thread
//                 drains it below the low watermark -- the worker streams
//                 exactly as fast as the peer's socket accepts, the paper's
//                 serve-at-line-rate model with real kernel send buffers as
//                 the rate signal. Slow peers stall only their own
//                 sessions' shard progress, never the serving thread (which
//                 never blocks on the engine) nor other connections.
//   containment   a frame whose routing prefix cannot be parsed poisons only
//                 its connection (framing is intact, so it is a hostile or
//                 broken client, and with no session id there is nobody to
//                 ERROR); a frame the router rejects (unknown session, bad
//                 topology) gets a v2 ERROR frame back on its connection;
//                 failures inside an established session already produce
//                 in-band ERROR frames from the engine.
//
// Threads: sink() runs on the shard workers; everything else except stats()
// runs on the server's single serving thread.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame_conduit.hpp"
#include "net/tcp.hpp"
#include "obs/prom.hpp"
#include "sync/sharded.hpp"

namespace ribltx::net {

struct SocketServerOptions {
  std::uint16_t port = 0;            ///< 0 = ephemeral; see port()
  std::size_t high_watermark = 64u << 10;  ///< sink blocks above this
  std::size_t low_watermark = 16u << 10;   ///< sink resumes below this
  /// SO_SNDBUF cap per accepted connection (0 = kernel default). The total
  /// runway a rateless stream has before the worker's sink blocks is
  /// watermark + this + the peer's receive buffer, so keep all three small
  /// relative to the expected per-session transfer -- otherwise a server
  /// on a fast link encodes megabytes of symbols the peer's DONE will
  /// throw away (the measured default was ~600 KB of waste per session on
  /// unbounded loopback buffers).
  int send_buffer = 64 << 10;
  std::size_t max_frame = FrameConduit::kDefaultMaxFrame;
  /// Longest a shard worker's sink blocks on one connection's backpressure
  /// before the connection is doomed and closed (a peer that stops reading
  /// would otherwise wedge its shard's worker forever -- and with it every
  /// other session on that shard, including the idle-reap sweep). 0 keeps
  /// the historical wait-forever behavior.
  double sink_timeout_s = 0;
  /// UringServer-only knobs (the epoll server ignores them): disable the
  /// provided-buffer-ring multishot recv or the MSG_RING wakeup to force
  /// the single-shot recv / eventfd fallback paths without an old kernel.
  bool uring_buffer_ring = true;
  bool uring_msg_ring = true;
  /// Live exposition taps (optional; must outlive the server). With
  /// `metrics` set the in-band ADMIN verbs "METRICS" (Prometheus text)
  /// and "METRICS_JSON" answer with a live registry snapshot composed
  /// with the server's transport counters and the engine roll-up; with
  /// `tracer` set "TRACE" answers with chrome://tracing JSON. A verb
  /// whose tap is unset gets an in-band ERROR frame. Pass the same
  /// registry/tracer the engine's EngineOptions carry so one scrape
  /// covers every tier.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Transport-layer counters (engine-layer stats live in ShardedStats).
/// The syscall columns are the bench's syscalls/session source -- counted
/// at the call sites, not strace'd -- and are populated by both servers:
/// the epoll path counts read/sendmsg/epoll_wait/eventfd-write; the uring
/// path counts io_uring_enter under `syscalls_wait` (its only steady-state
/// syscall) plus `sqe_submits` for the batching numerator.
struct SocketServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frames_dropped = 0;   ///< outbound with no live route
  std::uint64_t protocol_errors = 0;  ///< router rejects + framing poisons
  std::uint64_t syscalls_read = 0;    ///< read()s (epoll path)
  std::uint64_t syscalls_write = 0;   ///< sendmsg()s (epoll path)
  std::uint64_t syscalls_wait = 0;    ///< epoll_wait()s / io_uring_enter()s
  std::uint64_t wakeups = 0;          ///< cross-thread wakeup syscalls
  std::uint64_t sqe_submits = 0;      ///< SQEs handed to the kernel (uring)
  std::uint64_t routes = 0;           ///< live sid->connection routes (gauge)

  /// Total data-path syscalls (sqe_submits excluded: an SQE is not a
  /// syscall, that is the whole point).
  ///
  /// Consistency (audited): this sums columns of ONE materialized stats()
  /// snapshot, so it can never tear a live counter mid-read -- but the
  /// snapshot itself samples each underlying atomic with a separate
  /// relaxed load. Each column is individually torn-free (single 64-bit
  /// atomics) and monotone across successive snapshots; the SUM is a
  /// smear: a read counted between the syscalls_read load and the
  /// syscalls_wait load lands in neither. Deltas between two snapshots
  /// bracket the true syscall count, which is what the benches divide by
  /// sessions. Same contract as obs::MetricsRegistry::snapshot().
  [[nodiscard]] std::uint64_t syscalls() const noexcept {
    return syscalls_read + syscalls_write + syscalls_wait + wakeups;
  }
};

/// Appends the transport counters as synthetic snapshot families -- the
/// "thin view" composition: the hot counters stay in the server's padded
/// atomics, and scrape time folds one stats() sample into the exposition
/// next to the registry-native families. `labels` distinguishes servers
/// sharing a registry (conventionally {{"server", "epoll"|"uring"}}).
inline void append_server_stats(obs::MetricsSnapshot& snap,
                                const SocketServerStats& s,
                                obs::Labels labels = {}) {
  snap.add_counter("riblt_server_connections_accepted_total",
                   "Connections accepted", s.connections_accepted, labels);
  snap.add_counter("riblt_server_connections_closed_total",
                   "Connections closed", s.connections_closed, labels);
  snap.add_counter("riblt_server_frames_in_total",
                   "Frames reassembled off sockets", s.frames_in, labels);
  snap.add_counter("riblt_server_frames_out_total",
                   "Frames staged for sending", s.frames_out, labels);
  snap.add_counter("riblt_server_frames_dropped_total",
                   "Outbound frames with no live route", s.frames_dropped,
                   labels);
  snap.add_counter("riblt_server_protocol_errors_total",
                   "Router rejects plus framing poisons", s.protocol_errors,
                   labels);
  auto op = [&labels](const char* v) {
    obs::Labels l = labels;
    l.emplace_back("op", v);
    return l;
  };
  const char* const syscall_help = "Data-path syscalls by call site";
  snap.add_counter("riblt_server_syscalls_total", syscall_help,
                   s.syscalls_read, op("read"));
  snap.add_counter("riblt_server_syscalls_total", syscall_help,
                   s.syscalls_write, op("write"));
  snap.add_counter("riblt_server_syscalls_total", syscall_help,
                   s.syscalls_wait, op("wait"));
  snap.add_counter("riblt_server_syscalls_total", syscall_help, s.wakeups,
                   op("wakeup"));
  snap.add_counter("riblt_server_sqe_submits_total",
                   "SQEs handed to the kernel (uring)", s.sqe_submits,
                   labels);
  snap.add_gauge("riblt_server_routes",
                 "Live session-to-connection routes",
                 static_cast<std::int64_t>(s.routes), labels);
}

/// Per-connection state both servers share; each server's Conn derives
/// from it and adds only its I/O loop's own fields.
struct ServingConn {
  ServingConn(int fd, std::uint64_t key_, std::size_t max_frame)
      : io(fd), key(key_), conduit(max_frame) {}

  TcpConn io;
  const std::uint64_t key;  ///< I/O-loop key / connection-table index
  FrameConduit conduit;     ///< serving thread only, both directions

  std::mutex mu;  ///< guards staged/staged_bytes (sink <-> serving thread)
  std::condition_variable cv;  ///< backpressure wait/wake
  std::deque<std::vector<std::byte>> staged;  ///< sink -> serving thread
  std::size_t staged_bytes = 0;
  /// Conduit-side pending bytes mirrored for the sink's watermark check
  /// (the conduit itself is serving-thread-only).
  std::atomic<std::size_t> conduit_pending{0};
  std::atomic<bool> dead{false};
  /// A sink timed out on this connection's backpressure: the serving
  /// thread closes it at the next drain cycle (sinks must not close --
  /// only the serving thread owns the fd/op lifecycle).
  std::atomic<bool> doomed{false};
  /// In the serving thread's dirty list (has undrained staged frames).
  /// Guard against re-enqueueing; see drain_dirty() for the ordering.
  std::atomic<bool> dirty{false};
};

template <Symbol T, typename Hasher, typename Conn>
class ServingCore {
 public:
  using ConnPtr = std::shared_ptr<Conn>;
  /// Fills the transport-specific syscall columns of a stats() sample
  /// (scrape time only, never on the per-frame path).
  using IoStats = std::function<void(SocketServerStats&)>;

  /// `label` names the server in the exposition ("epoll" | "uring").
  ServingCore(sync::ShardedEngine<T, Hasher>& engine,
              const SocketServerOptions& options, const char* label,
              IoStats io_stats)
      : engine_(engine),
        options_(options),
        label_(label),
        io_stats_(std::move(io_stats)) {
    if (options_.low_watermark >= options_.high_watermark) {
      throw std::invalid_argument("SocketServerOptions: watermarks out of "
                                  "order");
    }
    if (options_.metrics != nullptr) {
      obs_conduit_depth_ = &options_.metrics->histogram(
          "riblt_server_conduit_pending_bytes",
          "Bytes queued in a connection's conduit after a flush",
          {{"server", label_}});
    }
  }

  [[nodiscard]] const SocketServerOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] bool stopping() const noexcept {
    return stopping_.load(std::memory_order_acquire);
  }

  /// Starts the shard workers with this core's sink; `wake` is the
  /// server's cross-thread nudge (one syscall, counted here).
  template <typename Wake>
  void start(Wake wake) {
    stopping_.store(false, std::memory_order_release);
    engine_.start([this, wake](std::vector<std::byte> frame) {
      sink(std::move(frame), wake);
    });
  }

  /// First half of stop(): releases every parked sink, then unblocks and
  /// joins the shard workers. The server then wakes and joins its serving
  /// thread and calls clear().
  void stop_workers() {
    stopping_.store(true, std::memory_order_release);
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto& [key, conn] : conns_) {
        // Take the conn mutex before notifying: a sink that evaluated its
        // wait predicate just before stopping_ flipped must be fully
        // parked (mutex released into the wait) before the notify fires,
        // or the wakeup is lost and the worker sleeps forever.
        { const std::lock_guard<std::mutex> conn_lk(conn->mu); }
        conn->cv.notify_all();
      }
    }
    engine_.stop();
  }

  void clear() {
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.clear();
      routes_.clear();
    }
    const std::lock_guard<std::mutex> lk(dirty_mu_);
    dirty_.clear();
  }

  [[nodiscard]] SocketServerStats stats() const {
    SocketServerStats out;
    out.connections_accepted = accepted_.load(std::memory_order_relaxed);
    out.connections_closed = closed_.load(std::memory_order_relaxed);
    out.frames_in = frames_in_.load(std::memory_order_relaxed);
    out.frames_out = frames_out_.load(std::memory_order_relaxed);
    out.frames_dropped = dropped_.load(std::memory_order_relaxed);
    out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
    out.wakeups = wakeups_.load(std::memory_order_relaxed);
    io_stats_(out);
    const std::lock_guard<std::mutex> lk(conns_mu_);
    out.routes = routes_.size();
    return out;
  }

  // ------------------------------------------------------ connection table

  void add_conn(ConnPtr conn) {
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.emplace(conn->key, std::move(conn));
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }

  [[nodiscard]] ConnPtr conn_of(std::uint64_t key) const {
    const std::lock_guard<std::mutex> lk(conns_mu_);
    const auto it = conns_.find(key);
    return it == conns_.end() ? nullptr : it->second;
  }

  [[nodiscard]] std::vector<ConnPtr> conns() const {
    std::vector<ConnPtr> out;
    const std::lock_guard<std::mutex> lk(conns_mu_);
    out.reserve(conns_.size());
    for (const auto& [key, conn] : conns_) out.push_back(conn);
    return out;
  }

  /// Erases a closed connection from the table and counts it closed.
  void retire_conn(std::uint64_t key) {
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.erase(key);
    }
    closed_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Framing poisoned (oversized/garbled length): unrecoverable on a byte
  /// stream; the caller closes the connection.
  void count_poison() {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
  }

  // ---------------------------------------------------------- serving path

  /// Routes one reassembled frame into the engine. Returns false when the
  /// frame poisoned its connection (valid framing, unparseable routing
  /// prefix); the caller then closes it its own way.
  [[nodiscard]] bool route_inbound(const ConnPtr& conn,
                                   std::vector<std::byte> frame) {
    frames_in_.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t sid = 0;
    try {
      // Also rejects the empty (zero-length) frame, so the type read below
      // is in bounds.
      sid = sync::v2::peek_session_id(frame);
    } catch (const sync::ProtocolError&) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const auto type = static_cast<std::uint8_t>(frame[0]);
    if (type == static_cast<std::uint8_t>(sync::v2::FrameType::kAdmin)) {
      // Observability verbs are transport-level: answered here on the
      // serving thread, never submitted to the engine (which rejects them)
      // and never recorded in the reply routes -- the chunked ADMIN_REPLY
      // rides stage_local back on this same connection, so a scrape works
      // mid-load from a second connection without touching any session.
      handle_admin(conn, sid, frame);
      return true;
    }
    bool inserted_route = false;
    {
      // Record the reply route up front: the HELLO_ACK can race out of the
      // shard worker before submit() returns. A sid already routed to a
      // DIFFERENT connection is a hijack attempt: reject without touching
      // the live session.
      const std::lock_guard<std::mutex> lk(conns_mu_);
      const auto [it, inserted] = routes_.emplace(sid, conn);
      if (!inserted && it->second.get() != conn.get()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        stage_local(conn, sync::v2::make_error_frame(
                              sid, "session belongs to another connection"));
        return true;
      }
      inserted_route = inserted;
    }
    try {
      engine_.submit(std::move(frame));
    } catch (const sync::ProtocolError& e) {
      // Router-level reject (bad topology, unknown session, duplicate
      // HELLO): contained to this session; tell the peer in-band. Only a
      // route THIS frame created is undone -- a duplicate HELLO must not
      // sever the live session's reply route.
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      if (inserted_route) drop_route_if_self(sid, *conn);
      stage_local(conn, sync::v2::make_error_frame(sid, e.what()));
      return true;
    }
    if (type == static_cast<std::uint8_t>(sync::v2::FrameType::kDone) ||
        type == static_cast<std::uint8_t>(sync::v2::FrameType::kError)) {
      // The client ended the session; nothing meaningful flows back. The
      // engine-side session went terminal on the same frame, so the worker
      // retires it -- no abort needed.
      drop_route_if_self(sid, *conn);
    }
    return true;
  }

  /// One drain cycle over only the connections sinks have staged onto
  /// since the last one (a full-table sweep is O(connections) per loop
  /// iteration -- ruinous at 10k mostly-idle paced sessions). Doomed
  /// connections go to `close`; the rest have their staged frames moved
  /// into the conduit and go to `flush`.
  template <typename Close, typename Flush>
  void drain_dirty(Close&& close, Flush&& flush) {
    // Clear the pending-wakeup flag BEFORE draining: a sink that stages
    // after the clear signals a fresh wakeup; one that staged before it is
    // picked up by this very drain. Clear-after-drain would strand frames
    // staged in the window until the 200ms tick.
    wake_pending_.store(false, std::memory_order_release);
    std::vector<ConnPtr> batch;
    {
      const std::lock_guard<std::mutex> lk(dirty_mu_);
      batch.swap(dirty_);
    }
    for (auto& conn : batch) {
      // Clear before draining: a sink staging concurrently either lands in
      // this drain (staged before the clear) or re-enqueues the conn
      // (exchange sees false after it). Clear-after-drain loses frames
      // staged in between.
      conn->dirty.store(false, std::memory_order_release);
      if (conn->dead.load(std::memory_order_acquire)) continue;
      if (conn->doomed.load(std::memory_order_acquire)) {
        close(conn);  // sink timed out: stalled peer
        continue;
      }
      std::deque<std::vector<std::byte>> staged;
      {
        const std::lock_guard<std::mutex> lk(conn->mu);
        staged.swap(conn->staged);
        conn->staged_bytes = 0;
      }
      for (auto& frame : staged) conn->conduit.send(std::move(frame));
      conn->conduit_pending.store(conn->conduit.pending_bytes(),
                                  std::memory_order_release);
      flush(*conn);
    }
  }

  /// Post-flush bookkeeping: mirror the conduit depth for the sinks'
  /// watermark check, record it, and release backpressured sinks once
  /// below the low watermark.
  void after_flush(Conn& conn) {
    const std::size_t pending = conn.conduit.pending_bytes();
    conn.conduit_pending.store(pending, std::memory_order_release);
    if (obs_conduit_depth_ != nullptr) obs_conduit_depth_->record(pending);
    if (pending < options_.low_watermark) {
      // Lock-then-notify so a sink between predicate check and park
      // cannot miss the drain.
      { const std::lock_guard<std::mutex> lk(conn.mu); }
      conn.cv.notify_all();
    }
  }

  /// The close-time orphan step: marks `conn` dead, releases its sinks,
  /// drops its routes, and aborts the engine side of every session it
  /// still owned. Without the abort a rateless session stays kActive
  /// forever, its shard worker spinning out SYMBOLS frames that drop on
  /// the floor (one disconnect pinned a core and generated ~160k dropped
  /// frames/sec). A synthetic in-band ERROR is FIFO-correct even when the
  /// session's HELLO is still queued in the shard inbox -- the worker
  /// opens the session, then fails and retires it on the very next frame.
  void orphan(Conn& conn) {
    {
      // Under the conn mutex so a sink mid-wait-entry cannot miss the dead
      // flag (see the matching comment in stop_workers()).
      const std::lock_guard<std::mutex> lk(conn.mu);
      conn.dead.store(true, std::memory_order_release);
    }
    conn.cv.notify_all();
    std::vector<std::uint64_t> orphaned;
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      for (auto it = routes_.begin(); it != routes_.end();) {
        if (it->second.get() == &conn) {
          orphaned.push_back(it->first);
          it = routes_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const std::uint64_t sid : orphaned) {
      try {
        engine_.submit(sync::v2::make_error_frame(sid, "peer disconnected"));
      } catch (const sync::ProtocolError&) {
        // Router no longer knows the session (already retired): done.
      }
    }
  }

 private:
  /// Delivery callback running on the shard workers. Blocking here is the
  /// designed backpressure: the worker stops pumping this shard's sessions
  /// until the peer's socket drains.
  template <typename Wake>
  void sink(std::vector<std::byte> frame, const Wake& wake) {
    std::uint64_t sid = 0;
    try {
      sid = sync::v2::peek_session_id(frame);
    } catch (const sync::ProtocolError&) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // engine frames are well-formed; defensive only
    }
    ConnPtr conn;
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      const auto it = routes_.find(sid);
      if (it != routes_.end()) conn = it->second;
    }
    if (!conn) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;  // peer disconnected (or finished) mid-stream
    }
    {
      std::unique_lock<std::mutex> lk(conn->mu);
      const auto drained = [&] {
        return stopping_.load(std::memory_order_acquire) ||
               conn->dead.load(std::memory_order_acquire) ||
               conn->staged_bytes +
                       conn->conduit_pending.load(std::memory_order_acquire) <
                   options_.high_watermark;
      };
      bool woke = true;
      if (options_.sink_timeout_s > 0) {
        woke = conn->cv.wait_for(
            lk, std::chrono::duration<double>(options_.sink_timeout_s),
            drained);
      } else {
        conn->cv.wait(lk, drained);
      }
      if (!woke) {
        // The peer sat above the high watermark for the whole timeout: it
        // stopped reading. Doom the connection and move on -- the serving
        // thread closes it (which aborts its sessions in-band), and this
        // worker is free to serve the shard's other sessions again.
        lk.unlock();
        conn->doomed.store(true, std::memory_order_release);
        dropped_.fetch_add(1, std::memory_order_relaxed);
        mark_dirty(conn);
        nudge(wake);
        return;
      }
      if (stopping_.load(std::memory_order_acquire) ||
          conn->dead.load(std::memory_order_acquire)) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      conn->staged_bytes += frame.size();
      conn->staged.push_back(std::move(frame));
    }
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    mark_dirty(conn);
    nudge(wake);
  }

  /// Coalesced wakeup: one wakeup is pending until the serving thread
  /// clears the flag at the start of its drain cycle; stages landing
  /// before the clear ride the already-pending wakeup (a wakeup per frame
  /// was thousands of syscalls/sec the loop collapsed into one drain).
  template <typename Wake>
  void nudge(const Wake& wake) {
    if (!wake_pending_.exchange(true, std::memory_order_acq_rel)) {
      wake();
      wakeups_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Enqueues `conn` for the serving thread's next drain cycle (idempotent
  /// until the serving thread clears the flag).
  void mark_dirty(const ConnPtr& conn) {
    if (!conn->dirty.exchange(true, std::memory_order_acq_rel)) {
      const std::lock_guard<std::mutex> lk(dirty_mu_);
      dirty_.push_back(conn);
    }
  }

  /// Stages a serving-thread-generated frame (ERROR and ADMIN replies)
  /// onto `conn`, bypassing the sink watermark: these must get out even
  /// when the peer is backpressured. Delivery rides the next drain_dirty()
  /// sweep -- flushing inline could close the conn in the middle of its
  /// own inbound frame loop.
  void stage_local(const ConnPtr& conn, std::vector<std::byte> frame) {
    {
      const std::lock_guard<std::mutex> lk(conn->mu);
      conn->staged_bytes += frame.size();
      conn->staged.push_back(std::move(frame));
    }
    frames_out_.fetch_add(1, std::memory_order_relaxed);
    mark_dirty(conn);
  }

  void drop_route_if_self(std::uint64_t sid, const Conn& conn) {
    const std::lock_guard<std::mutex> lk(conns_mu_);
    const auto it = routes_.find(sid);
    if (it != routes_.end() && it->second.get() == &conn) routes_.erase(it);
  }

  /// Answers one ADMIN verb in-band through the shared dispatcher; the
  /// METRICS snapshot composes this server's transport counters and the
  /// engine roll-up (engine_.stats() takes each shard lock briefly;
  /// workers never block holding one -- sinks run outside the shard lock
  /// -- so this cannot deadlock against backpressure). ERROR answers count
  /// as protocol errors.
  void handle_admin(const ConnPtr& conn, std::uint64_t sid,
                    std::span<const std::byte> raw) {
    sync::v2::AdminAnswer answer = sync::v2::answer_admin(
        sid, raw, options_.metrics, options_.tracer,
        [this](obs::MetricsSnapshot& snap) {
          append_server_stats(snap, stats(), {{"server", label_}});
          sync::append_engine_totals(snap, engine_.stats().totals);
        });
    if (!answer.ok) protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    for (auto& reply : answer.frames) stage_local(conn, std::move(reply));
  }

  sync::ShardedEngine<T, Hasher>& engine_;
  const SocketServerOptions options_;
  const char* const label_;
  const IoStats io_stats_;

  mutable std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, ConnPtr> conns_;
  std::unordered_map<std::uint64_t, ConnPtr> routes_;  ///< sid -> conn

  std::mutex dirty_mu_;
  std::vector<ConnPtr> dirty_;  ///< staged-but-undrained conns
  std::atomic<bool> wake_pending_{false};  ///< wakeup coalescing
  std::atomic<bool> stopping_{false};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> frames_in_{0};
  std::atomic<std::uint64_t> frames_out_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> wakeups_{0};
  obs::Histogram* obs_conduit_depth_ = nullptr;  ///< null = untapped
};

}  // namespace ribltx::net
