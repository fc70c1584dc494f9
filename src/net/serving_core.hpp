// ServingCore: the transport-independent half of serving a ShardedEngine
// over TCP -- everything the epoll SocketServer and the io_uring
// UringServer do identically, written once. Each server keeps only its I/O
// loop (epoll readiness vs. uring completions) and its close path, and
// calls in here for the policy:
//
//   routing       inbound frames route to the engine via
//                 v2::peek_session_id + submit(), tagged with their
//                 connection's key as the owner; the engine addresses every
//                 frame it emits to its session's owner, so the sink finds
//                 the connection by that key and the core keeps no session
//                 table. ADMIN verbs are answered on the serving thread.
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
//                 ERROR); every other frame reaches the engine, whose shard
//                 worker answers a rejected one (unknown session, another
//                 connection's session, bad topology) with an ERROR by the
//                 engine's one rule (SyncEngine::reject_answer); failures
//                 inside an established session produce in-band ERROR
//                 frames from the engine too. A closing connection queues
//                 the engine's close of every session it owns.
//
//   accounting    the transport counters are registry cells (ServerCells),
//                 bound to SocketServerOptions::metrics or to a private
//                 registry; stats() is a typed read of them.
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
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/frame_conduit.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
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
  /// Live exposition taps (optional; must outlive the server). The
  /// server's transport counters live in `metrics` (or in a private
  /// registry when it is null), and with it set the in-band ADMIN verbs
  /// "METRICS" (Prometheus text) and "METRICS_JSON" answer with a live
  /// snapshot of it; with `tracer` set "TRACE" answers with
  /// chrome://tracing JSON. A verb whose tap is unset gets an in-band
  /// ERROR frame. Pass the same registry/tracer the engine's
  /// EngineOptions carry so one scrape covers every tier.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// Transport-layer counters (engine-layer stats live in ShardedStats),
/// read back from the server's cells. The syscall columns are the bench's
/// syscalls/session source -- counted at the call sites, not strace'd --
/// and are populated by both servers: the epoll path counts
/// read/sendmsg/epoll_wait/eventfd-write; the uring path counts
/// io_uring_enter under `syscalls_wait` (its only steady-state syscall)
/// plus `sqe_submits` for the batching numerator.
struct SocketServerStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frames_dropped = 0;   ///< outbound for a closed connection
  std::uint64_t protocol_errors = 0;  ///< ADMIN errors, framing poisons
  std::uint64_t syscalls_read = 0;    ///< read()s (epoll path)
  std::uint64_t syscalls_write = 0;   ///< sendmsg()s (epoll path)
  std::uint64_t syscalls_wait = 0;    ///< epoll_wait()s / io_uring_enter()s
  std::uint64_t wakeups = 0;          ///< cross-thread wakeup syscalls
  std::uint64_t sqe_submits = 0;      ///< SQEs handed to the kernel (uring)

  /// Total data-path syscalls (sqe_submits excluded: an SQE is not a
  /// syscall, that is the whole point).
  ///
  /// Consistency: each column is one relaxed load of its cell, so each is
  /// torn-free and monotone across successive stats() calls, but the SUM
  /// is a smear: a read counted between the syscalls_read load and the
  /// syscalls_wait load lands in neither. Deltas between two samples
  /// bracket the true syscall count, which is what the benches divide by
  /// sessions. Same contract as obs::MetricsRegistry::snapshot().
  [[nodiscard]] std::uint64_t syscalls() const noexcept {
    return syscalls_read + syscalls_write + syscalls_wait + wakeups;
  }
};

/// A server's registry cells, labeled {server=<label>} (and {op=...} for
/// the syscall family).
struct ServerCells {
  ServerCells(obs::MetricsRegistry& m, const char* label) {
    const obs::Labels l{{"server", label}};
    const auto op = [&l](const char* v) {
      obs::Labels out = l;
      out.emplace_back("op", v);
      return out;
    };
    const char* const syscall_help = "Data-path syscalls by call site";
    accepted = &m.counter("riblt_server_connections_accepted_total",
                          "Connections accepted", l);
    closed = &m.counter("riblt_server_connections_closed_total",
                        "Connections closed", l);
    frames_in = &m.counter("riblt_server_frames_in_total",
                           "Frames reassembled off sockets", l);
    frames_out = &m.counter("riblt_server_frames_out_total",
                            "Frames staged for sending", l);
    dropped = &m.counter("riblt_server_frames_dropped_total",
                         "Outbound frames for a closed connection", l);
    protocol_errors = &m.counter("riblt_server_protocol_errors_total",
                                 "ADMIN errors and framing poisons", l);
    syscalls_read = &m.counter("riblt_server_syscalls_total", syscall_help,
                               op("read"));
    syscalls_write = &m.counter("riblt_server_syscalls_total", syscall_help,
                                op("write"));
    syscalls_wait = &m.counter("riblt_server_syscalls_total", syscall_help,
                               op("wait"));
    wakeups = &m.counter("riblt_server_syscalls_total", syscall_help,
                         op("wakeup"));
    sqe_submits = &m.counter("riblt_server_sqe_submits_total",
                             "SQEs handed to the kernel (uring)", l);
    conduit_depth = &m.histogram(
        "riblt_server_conduit_pending_bytes",
        "Bytes queued in a connection's conduit after a flush", l);
  }

  /// One relaxed load per cell, in SocketServerStats field order.
  [[nodiscard]] SocketServerStats stats() const {
    return {accepted->load(),      closed->load(),
            frames_in->load(),     frames_out->load(),
            dropped->load(),       protocol_errors->load(),
            syscalls_read->load(), syscalls_write->load(),
            syscalls_wait->load(), wakeups->load(),
            sqe_submits->load()};
  }

  obs::Counter* accepted = nullptr;
  obs::Counter* closed = nullptr;
  obs::Counter* frames_in = nullptr;
  obs::Counter* frames_out = nullptr;
  obs::Counter* dropped = nullptr;
  obs::Counter* protocol_errors = nullptr;
  obs::Counter* syscalls_read = nullptr;
  obs::Counter* syscalls_write = nullptr;
  obs::Counter* syscalls_wait = nullptr;
  obs::Counter* wakeups = nullptr;
  obs::Counter* sqe_submits = nullptr;
  obs::Histogram* conduit_depth = nullptr;
};

/// Per-connection state both servers share; each server's Conn derives
/// from it and adds only its I/O loop's own fields.
struct ServingConn {
  ServingConn(int fd, std::uint64_t key_, std::size_t max_frame)
      : io(fd), key(key_), conduit(max_frame) {}

  TcpConn io;
  const std::uint64_t key;  ///< loop key, table index, its sessions' owner
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

  /// `label` names the server in the exposition ("epoll" | "uring").
  ServingCore(sync::ShardedEngine<T, Hasher>& engine,
              const SocketServerOptions& options, const char* label)
      : engine_(engine),
        options_(options),
        cells_(obs::registry_or_own(options.metrics, own_metrics_), label) {
    if (options_.low_watermark >= options_.high_watermark) {
      throw std::invalid_argument("SocketServerOptions: watermarks out of "
                                  "order");
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
    engine_.start(
        [this, wake](std::uint64_t owner, std::vector<std::byte> frame) {
          sink(owner, std::move(frame), wake);
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
    }
    const std::lock_guard<std::mutex> lk(dirty_mu_);
    dirty_.clear();
  }

  [[nodiscard]] SocketServerStats stats() const { return cells_.stats(); }

  /// The server's cells; the I/O loops count their syscalls here.
  [[nodiscard]] const ServerCells& cells() const noexcept { return cells_; }

  // ------------------------------------------------------ connection table

  void add_conn(ConnPtr conn) {
    {
      const std::lock_guard<std::mutex> lk(conns_mu_);
      conns_.emplace(conn->key, std::move(conn));
    }
    cells_.accepted->inc();
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
    cells_.closed->inc();
  }

  /// Framing poisoned (oversized/garbled length): unrecoverable on a byte
  /// stream; the caller closes the connection.
  void count_poison() { cells_.protocol_errors->inc(); }

  // ---------------------------------------------------------- serving path

  /// Routes one reassembled frame into the engine. Returns false when the
  /// frame poisoned its connection (valid framing, unparseable routing
  /// prefix); the caller then closes it its own way.
  [[nodiscard]] bool route_inbound(const ConnPtr& conn,
                                   std::vector<std::byte> frame) {
    cells_.frames_in->inc();
    std::uint64_t sid = 0;
    try {
      // Also rejects the empty (zero-length) frame, so the type read below
      // is in bounds.
      sid = sync::v2::peek_session_id(frame);
    } catch (const sync::ProtocolError&) {
      cells_.protocol_errors->inc();
      return false;
    }
    if (frame[0] == static_cast<std::byte>(sync::v2::FrameType::kAdmin)) {
      // Observability verbs are transport-level: answered here on the
      // serving thread, never submitted to the engine (which rejects them)
      // -- the chunked ADMIN_REPLY rides stage_local back on this same
      // connection, so a scrape works mid-load from a second connection
      // without touching any session.
      handle_admin(conn, sid, frame);
      return true;
    }
    // The prefix parsed, so submit() cannot throw: a frame the engine
    // rejects comes back from its shard worker (see the containment note).
    engine_.submit(std::move(frame), conn->key);
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
    cells_.conduit_depth->record(pending);
    if (pending < options_.low_watermark) {
      // Lock-then-notify so a sink between predicate check and park
      // cannot miss the drain.
      { const std::lock_guard<std::mutex> lk(conn.mu); }
      conn.cv.notify_all();
    }
  }

  /// The close-time orphan step: marks `conn` dead, releases its sinks,
  /// and queues the engine's close of every session the connection owns.
  /// Without it a rateless session stays kActive forever, its shard worker
  /// spinning out SYMBOLS frames that drop on the floor (one disconnect
  /// pinned a core and generated ~160k dropped frames/sec). The close
  /// queues behind the frames the connection already submitted, so a HELLO
  /// still in a shard inbox opens its session and then retires it.
  void orphan(Conn& conn) {
    {
      // Under the conn mutex so a sink mid-wait-entry cannot miss the dead
      // flag (see the matching comment in stop_workers()).
      const std::lock_guard<std::mutex> lk(conn.mu);
      conn.dead.store(true, std::memory_order_release);
    }
    conn.cv.notify_all();
    engine_.close_owner(conn.key);
  }

 private:
  /// Delivery callback running on the shard workers: `owner` is the key of
  /// the connection the frame is addressed to. Blocking here is the
  /// designed backpressure: the worker stops pumping this shard's sessions
  /// until the peer's socket drains.
  template <typename Wake>
  void sink(std::uint64_t owner, std::vector<std::byte> frame,
            const Wake& wake) {
    const ConnPtr conn = conn_of(owner);
    if (!conn) {
      cells_.dropped->inc();
      return;  // the connection closed mid-stream
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
        // thread closes it (which closes the sessions it owns), and this
        // worker is free to serve the shard's other sessions again.
        lk.unlock();
        conn->doomed.store(true, std::memory_order_release);
        cells_.dropped->inc();
        mark_dirty(conn);
        nudge(wake);
        return;
      }
      if (stopping_.load(std::memory_order_acquire) ||
          conn->dead.load(std::memory_order_acquire)) {
        cells_.dropped->inc();
        return;
      }
      conn->staged_bytes += frame.size();
      conn->staged.push_back(std::move(frame));
    }
    cells_.frames_out->inc();
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
      cells_.wakeups->inc();
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

  /// Stages a serving-thread-generated frame (an ADMIN reply or its ERROR)
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
    cells_.frames_out->inc();
    mark_dirty(conn);
  }

  /// Answers one ADMIN verb in-band through the shared dispatcher (a
  /// snapshot of the tapped registry: every tier's cells, no locks).
  /// ERROR answers count as protocol errors.
  void handle_admin(const ConnPtr& conn, std::uint64_t sid,
                    std::span<const std::byte> raw) {
    sync::v2::AdminAnswer answer = sync::v2::answer_admin(
        sid, raw, options_.metrics, options_.tracer);
    if (!answer.ok) cells_.protocol_errors->inc();
    for (auto& reply : answer.frames) stage_local(conn, std::move(reply));
  }

  sync::ShardedEngine<T, Hasher>& engine_;
  const SocketServerOptions options_;
  /// Private registry when options_.metrics is null; declared before
  /// cells_ so it outlives them.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  const ServerCells cells_;

  mutable std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, ConnPtr> conns_;

  std::mutex dirty_mu_;
  std::vector<ConnPtr> dirty_;  ///< staged-but-undrained conns
  std::atomic<bool> wake_pending_{false};  ///< wakeup coalescing
  std::atomic<bool> stopping_{false};
};

}  // namespace ribltx::net
