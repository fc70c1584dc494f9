// Multi-core sharded serving: a stateless router over K per-shard engines.
//
// One SyncEngine is single-threaded by design (one SequenceCache, one
// session table). To scale a server past one core, ShardedEngine partitions
// the *item space* into K shards with a consistent keyed hash: shard k owns
// a SyncEngine (with its own SequenceCache) holding exactly the items that
// hash into shard k. A client splits its local set with the same hash --
// both ends share the SipHash key already, so the partition is identical by
// construction -- and opens one session per shard; the per-shard symmetric
// differences are disjoint and their union is exactly the full difference,
// so sharded reconciliation recovers the same diff as unsharded (the
// cross-shard parity test pins this).
//
// Routing is by session id alone: sub-session s of a sharded client lives
// on shard shard_of_session(sid, K) = (sid - 1) mod K (ShardedClient
// numbers its sub-sessions that way), so the router reads the id with
// v2::peek_session_id (no payload copy) and keeps no table. A sharded
// HELLO still carries (shard_index, shard_count) behind v2::kFlagSharded
// as the consistency check: the shard engine rejects one whose fields
// disagree with the shard it reached before symbols flow. Topology, owner,
// duplicate and unknown-session verdicts all belong to the shard engines.
//
// Threaded serving: start() launches one worker per shard, each owning its
// engine behind the shard mutex with an inbox of (owner, frame) pairs, the
// owner being the sender's transport tag (sync/engine.hpp). A worker
// drains its inbox, then pumps one SYMBOLS frame per active session per
// round, handing output with its session's owner to the sink *outside* the
// shard lock (so a sink may call submit() -- even back into the same shard
// -- without deadlock). A blocking sink is the backpressure: the worker
// streams as fast as the sink accepts, which is the paper's
// serve-at-line-rate model. The worker answers a rejected frame by the
// engine's one rule (SyncEngine::reject_answer). Set
// churn (add_item/remove_item/contains/item_count) bypasses the shard mutex
// entirely -- SyncEngine's ingest surface is internally synchronized
// (striped index, lock-free cache churn, per-lane probes), so any number
// of writer threads can churn a shard while its worker streams sessions;
// only the session machinery takes the shard locks. stats() takes none:
// it reads the registry cells every shard records into.
//
// bench/extra_shard_scaling.cpp measures sessions/sec against shard count;
// tests/test_sharded.cpp holds the parity and threaded-smoke coverage.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstddef>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "sync/engine.hpp"

namespace ribltx::sync {

/// The consistent item->shard map: fixed-point scaling of the hash's high
/// bits (deterministic across platforms, unbiased for any shard count, and
/// keyed because the hash is the parties' shared SipHash).
[[nodiscard]] constexpr std::size_t shard_of_hash(
    std::uint64_t hash, std::size_t shard_count) noexcept {
  return static_cast<std::size_t>(
      ((hash >> 32) * static_cast<std::uint64_t>(shard_count)) >> 32);
}

/// The consistent session->shard map: ShardedClient gives sub-session s of
/// base id B the id (B-1)*K + s + 1, so the id alone names its shard. Id 0
/// is reserved (v2::peek_session_id rejects it), so sid - 1 never wraps.
[[nodiscard]] constexpr std::size_t shard_of_session(
    std::uint64_t session_id, std::size_t shard_count) noexcept {
  return static_cast<std::size_t>((session_id - 1) %
                                  static_cast<std::uint64_t>(shard_count));
}

/// Whole-engine stats: the shards' shared accounting cells plus the live
/// item count.
struct ShardedStats {
  std::size_t items = 0;
  /// Frames the shard workers rejected (riblt_shard_protocol_errors_total).
  std::size_t protocol_errors = 0;
  EngineTotals totals{};
};

template <Symbol T, typename Hasher = SipHasher<T>>
class ShardedEngine {
 public:
  /// Delivery callback for threaded serving; invoked concurrently from the
  /// shard workers (one frame at a time per shard), never under a shard
  /// lock, with the owner the frame is addressed to; block to apply
  /// backpressure.
  using Sink = std::function<void(std::uint64_t owner, std::vector<std::byte>)>;

  explicit ShardedEngine(std::size_t shard_count, Hasher hasher = Hasher{},
                         EngineOptions options = EngineOptions{})
      : hasher_(std::move(hasher)),
        cells_(obs::registry_or_own(options.metrics, own_metrics_)) {
    if (shard_count == 0 || shard_count > kMaxShards) {
      throw std::invalid_argument("ShardedEngine: shard count out of range");
    }
    // With an idle deadline configured, idle workers wake on a bounded
    // tick (half the deadline, capped at 200 ms) so reaping runs even when
    // no frames arrive -- the maintenance tick of the serving path.
    if (options.idle_deadline_s > 0) {
      reap_wait_s_ = std::min(options.idle_deadline_s / 2, 0.2);
    }
    // Every shard engine binds its cells in the same registry, so the
    // shards share one set (cells_ is that set too) and stats() is one
    // read of it. The router adds its own: inbox depth per worker wakeup
    // and the frames the workers reject.
    obs::MetricsRegistry& m =
        options.metrics != nullptr ? *options.metrics : *own_metrics_;
    options.metrics = &m;
    shards_.reserve(shard_count);
    for (std::size_t k = 0; k < shard_count; ++k) {
      EngineOptions shard_options = options;
      shard_options.shard_index = static_cast<std::uint32_t>(k);
      shard_options.shard_count = static_cast<std::uint32_t>(shard_count);
      shards_.push_back(std::make_unique<Shard>(hasher_, shard_options));
    }
    inbox_depth_ = &m.histogram(
        "riblt_shard_inbox_depth",
        "Frames drained per shard worker wakeup (non-empty drains)");
    protocol_errors_ = &m.counter(
        "riblt_shard_protocol_errors_total",
        "Frames the shard engines rejected (hijacked session ids included), "
        "plus failed sink calls; a reject is answered with an ERROR unless "
        "it is a DONE or ERROR or its sender holds a session with its id");
  }

  ~ShardedEngine() { stop(); }

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// The shard an item routes to (what a client must compute identically).
  [[nodiscard]] std::size_t shard_of(const T& item) const {
    return shard_of_hash(hasher_(item), shards_.size());
  }

  // ---------------------------------------------------------- set churn

  /// Adds an item to its shard's engine (hashed once). Concurrent-ingest
  /// path: no shard mutex -- SyncEngine's ingest surface is internally
  /// synchronized, so writer threads never queue behind a worker that is
  /// streaming sessions (nor behind each other, beyond a striped-index
  /// bucket). Safe from any thread while workers run; false on duplicate.
  bool add_item(const T& item) {
    const HashedSymbol<T> hs = hasher_.hashed(item);
    return shards_[shard_of_hash(hs.hash, shards_.size())]
        ->engine.add_hashed_item(hs);
  }

  /// Removes an item from its shard's engine (hashed once); same lock-free
  /// ingest path as add_item. False if absent.
  bool remove_item(const T& item) {
    const HashedSymbol<T> hs = hasher_.hashed(item);
    return shards_[shard_of_hash(hs.hash, shards_.size())]
        ->engine.remove_hashed_item(hs);
  }

  [[nodiscard]] bool contains(const T& item) const {
    const HashedSymbol<T> hs = hasher_.hashed(item);
    return shards_[shard_of_hash(hs.hash, shards_.size())]
        ->engine.contains_hashed(hs);
  }

  [[nodiscard]] std::size_t item_count() const {
    std::size_t n = 0;
    for (const auto& sh : shards_) n += sh->engine.item_count();
    return n;
  }

  // ------------------------------------------- synchronous (router) path

  /// Routes one client frame to its shard engine and returns the replies --
  /// the single-threaded mirror of SyncEngine::handle_frame, used by tests
  /// and in-process callers. Throws ProtocolError exactly where the shard's
  /// SyncEngine does (unattributable frames, topology mismatches).
  std::vector<std::vector<std::byte>> handle_frame(
      std::span<const std::byte> data) {
    Shard& sh = shard_for(v2::peek_session_id(data));
    const std::lock_guard<std::mutex> lk(sh.mu);
    return sh.engine.handle_frame(data);
  }

  /// Produces the next SYMBOLS frame for a session (synchronous path).
  std::optional<std::vector<std::byte>> next_frame(std::uint64_t session_id) {
    Shard& sh = shard_for(session_id);
    const std::lock_guard<std::mutex> lk(sh.mu);
    return sh.engine.next_frame(session_id);
  }

  bool close_session(std::uint64_t session_id) {
    Shard& sh = shard_for(session_id);
    const std::lock_guard<std::mutex> lk(sh.mu);
    return sh.engine.close_session(session_id);
  }

  // ------------------------------------------------------ threaded path

  /// Launches one worker thread per shard delivering output through `sink`.
  void start(Sink sink) {
    if (running_.load(std::memory_order_acquire)) {
      throw std::logic_error("ShardedEngine: already started");
    }
    sink_ = std::move(sink);
    if (!sink_) throw std::invalid_argument("ShardedEngine: null sink");
    for (auto& sh : shards_) {
      sh->stop = false;
      sh->thread = std::thread([this, shard = sh.get()] { worker(*shard); });
    }
    running_.store(true, std::memory_order_release);
  }

  /// Stops and joins the workers; queued inbox frames may go unprocessed.
  void stop() {
    if (!running_.exchange(false, std::memory_order_acq_rel)) return;
    for (auto& sh : shards_) {
      {
        const std::lock_guard<std::mutex> lk(sh->mu);
        sh->stop = true;
      }
      sh->cv.notify_all();
    }
    for (auto& sh : shards_) {
      if (sh->thread.joinable()) sh->thread.join();
    }
  }

  [[nodiscard]] bool running() const noexcept {
    return running_.load(std::memory_order_acquire);
  }

  /// Enqueues one raw client frame from `owner` for the worker of the shard
  /// its session id names. Thread-safe. Throws ProtocolError only on a
  /// frame whose routing prefix does not parse; every other verdict
  /// (unknown session, another owner's session, duplicate HELLO, bad
  /// topology) is the shard engine's, counted and answered by its worker.
  void submit(std::vector<std::byte> frame, std::uint64_t owner = 0) {
    Shard& sh = shard_for(v2::peek_session_id(frame));
    enqueue(sh, owner, std::move(frame));
  }

  /// Queues SyncEngine::close_owner(owner) on every shard, behind the frames
  /// `owner` already submitted (its transport is gone): each shard retires
  /// the sessions that owner opened, counting active ones as failed.
  /// Thread-safe.
  void close_owner(std::uint64_t owner) {
    for (auto& sh : shards_) enqueue(*sh, owner, {});
  }

  /// Typed read of the shards' shared cells (EngineCells::totals) plus
  /// the live item count; takes no lock. Same snapshot model as
  /// obs::MetricsRegistry::snapshot(): each field is torn-free and
  /// monotone fields never run backwards, but fields bumped by one event
  /// can be a few events apart while workers run.
  [[nodiscard]] ShardedStats stats() const {
    return {item_count(), protocol_errors_->load(), cells_.totals()};
  }

  static constexpr std::size_t kMaxShards = 4096;

 private:
  struct Shard {
    Shard(const Hasher& hasher, const EngineOptions& options)
        : engine(hasher, options) {}

    SyncEngine<T, Hasher> engine;
    mutable std::mutex mu;
    std::condition_variable cv;
    /// (owner, frame); an empty frame -- which submit() never queues, the
    /// routing peek rejects it -- is close_owner's marker.
    std::deque<OwnedFrame> inbox;
    bool stop = false;
    std::thread thread;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t session_id) {
    return *shards_[shard_of_session(session_id, shards_.size())];
  }

  void enqueue(Shard& sh, std::uint64_t owner, std::vector<std::byte> frame) {
    {
      const std::lock_guard<std::mutex> lk(sh.mu);
      sh.inbox.emplace_back(owner, std::move(frame));
    }
    sh.cv.notify_one();
  }

  void worker(Shard& sh) {
    std::vector<OwnedFrame> outgoing;
    std::deque<OwnedFrame> batch;
    bool streaming = false;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(sh.mu);
        if (!streaming) {
          if (reap_wait_s_ > 0) {
            // Bounded wait = the maintenance tick: an otherwise idle shard
            // still wakes to reap sessions whose peers went silent.
            sh.cv.wait_for(
                lk, std::chrono::duration<double>(reap_wait_s_),
                [&] { return sh.stop || !sh.inbox.empty(); });
          } else {
            sh.cv.wait(lk, [&] { return sh.stop || !sh.inbox.empty(); });
          }
        }
        if (sh.stop) return;
        batch.clear();
        batch.swap(sh.inbox);
        // Empty drains (maintenance ticks, streaming rounds) are skipped
        // so the histogram reflects queueing, not the wakeup cadence.
        if (!batch.empty()) inbox_depth_->record(batch.size());
        for (const auto& [owner, frame] : batch) {
          if (frame.empty()) {
            (void)sh.engine.close_owner(owner);
            continue;
          }
          try {
            for (auto& reply : sh.engine.handle_frame(frame, owner)) {
              outgoing.emplace_back(owner, std::move(reply));
            }
          } catch (const ProtocolError& e) {
            // No transport to throw to on the worker: count every reject
            // and answer it by the engine's one rule.
            protocol_errors_->inc();
            if (auto answer = sh.engine.reject_answer(frame, owner, e.what())) {
              outgoing.emplace_back(owner, std::move(*answer));
            }
          }
        }
        // The engine's own ERRORs -- cap evictions, and sessions reaped
        // past the idle deadline -- go to the sink like any reply, so the
        // (possibly half-dead) peer hears why its session died.
        for (auto& reaped : sh.engine.reap_idle()) {
          outgoing.push_back(std::move(reaped));
        }
        // One frame per active session per round keeps sessions fair and
        // bounds how far the server runs ahead of in-flight DONEs.
        // Sessions that reached a terminal state retire immediately, so a
        // long-running server neither re-scans dead sessions every round
        // nor runs into the max_sessions cap from sessions long finished.
        for (const std::uint64_t sid : sh.engine.session_ids()) {
          const SessionStats& stats = *sh.engine.session(sid);
          if (stats.state != SessionState::kActive) {
            (void)sh.engine.close_session(sid);
            continue;
          }
          if (auto frame = sh.engine.next_frame(sid)) {
            outgoing.emplace_back(stats.owner, std::move(*frame));
          }
        }
        streaming = !outgoing.empty();
      }
      // Deliver outside the lock: a sink may block (backpressure) or call
      // submit() -- even into this shard -- without deadlocking. A sink
      // that throws is contained per frame and counted, not allowed to
      // escape the thread entry point and terminate the process.
      for (auto& [owner, frame] : outgoing) {
        try {
          sink_(owner, std::move(frame));
        } catch (const std::exception&) {
          protocol_errors_->inc();
        }
      }
      outgoing.clear();
    }
  }

  Hasher hasher_;
  /// Private registry when the options carry none; declared before every
  /// member holding its cells so it outlives them.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  EngineCells cells_;  ///< the cells every shard engine records into
  obs::Histogram* inbox_depth_ = nullptr;
  obs::Counter* protocol_errors_ = nullptr;
  double reap_wait_s_ = 0;  ///< idle-worker wake interval (0 = wait forever)
  std::vector<std::unique_ptr<Shard>> shards_;
  Sink sink_;
  std::atomic<bool> running_{false};
};

/// Client-side counterpart: splits one local set across K per-shard
/// SyncClient sessions with the same consistent hash and merges the
/// per-shard differences. Sub-session s of a client with base id B gets
/// session id (B-1)*K + s + 1, so distinct bases never collide and
/// shard_of_session() maps every sub-session id back to its shard.
///
/// Thread-safety: handle_frame for different shards touches disjoint
/// sub-clients, so the K shard workers of a ShardedEngine may call it
/// concurrently (each worker only ever delivers its own shard's sessions);
/// complete()/failed() are safe to poll from any thread, and diff() is
/// valid once complete() returns true.
template <Symbol T, typename Hasher = SipHasher<T>>
class ShardedClient {
 public:
  ShardedClient(std::uint64_t base_session_id, std::size_t shard_count,
                BackendId backend, Hasher hasher = Hasher{},
                ReconcilerConfig config = ReconcilerConfig{})
      : hasher_(std::move(hasher)), base_(base_session_id) {
    if (base_session_id == 0) {
      throw std::invalid_argument("ShardedClient: session id 0 is reserved");
    }
    if (shard_count == 0 || shard_count > ShardedEngine<T>::kMaxShards) {
      throw std::invalid_argument("ShardedClient: shard count out of range");
    }
    if (base_session_id >
        std::numeric_limits<std::uint64_t>::max() / shard_count) {
      // B*K must fit: past it the sub-session ids (and owns()) wrap.
      throw std::invalid_argument(
          "ShardedClient: base id overflows the sub-session ids");
    }
    subs_.reserve(shard_count);
    terminal_ = std::make_unique<std::atomic<std::size_t>>(0);
    failures_ = std::make_unique<std::atomic<std::size_t>>(0);
    for (std::size_t s = 0; s < shard_count; ++s) {
      subs_.push_back(std::make_unique<SyncClient<T, Hasher>>(
          (base_ - 1) * shard_count + s + 1, backend, hasher_, config));
      subs_.back()->set_shard(static_cast<std::uint32_t>(s),
                              static_cast<std::uint32_t>(shard_count));
    }
    counted_.assign(shard_count, 0);
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return subs_.size();
  }

  [[nodiscard]] std::uint64_t sub_session_id(std::size_t shard) const {
    return subs_[shard]->session_id();
  }

  /// Adds a local item: hashed once, routed to its shard's sub-client,
  /// reused as HashedSymbol end-to-end.
  void add_item(const T& item) {
    const HashedSymbol<T> hs = hasher_.hashed(item);
    subs_[shard_of_hash(hs.hash, subs_.size())]->add_hashed_item(hs);
  }

  /// Requests adaptive negotiation on every sub-session. Each sub-client
  /// probes only its own shard's slice, and the server's per-shard engines
  /// keep independent EWMAs keyed by the same peer_id -- the adaptive
  /// contract composes per shard with no cross-shard coordination. Must
  /// precede hellos().
  void set_adaptive(std::uint64_t peer_id, bool send_probe = true) {
    for (auto& sub : subs_) sub->set_adaptive(peer_id, send_probe);
  }

  /// The K opening frames (one sharded HELLO per shard), in shard order.
  [[nodiscard]] std::vector<std::vector<std::byte>> hellos() {
    std::vector<std::vector<std::byte>> out;
    out.reserve(subs_.size());
    for (auto& sub : subs_) out.push_back(sub->hello());
    return out;
  }

  /// True iff `session_id` is one of this client's sub-sessions. Transports
  /// multiplexing several clients' sessions (or sequential sessions whose
  /// rateless tails overlap) over one connection use this to route/drop.
  [[nodiscard]] bool owns(std::uint64_t session_id) const noexcept {
    return session_id > (base_ - 1) * subs_.size() &&
           session_id <= base_ * subs_.size();
  }

  /// Consumes one server frame (routed to the owning sub-client by session
  /// id); returns the client frames to send back.
  std::vector<std::vector<std::byte>> handle_frame(
      std::span<const std::byte> data) {
    const std::uint64_t sid = v2::peek_session_id(data);
    if (!owns(sid)) {
      throw ProtocolError("frame for a different sharded client");
    }
    const std::size_t s = shard_of_session(sid, subs_.size());
    SyncClient<T, Hasher>& sub = *subs_[s];
    auto out = sub.handle_frame(data);
    if (!counted_[s] && (sub.complete() || sub.failed())) {
      counted_[s] = 1;  // only this shard's worker touches sub/counted_[s]
      if (sub.failed()) failures_->fetch_add(1, std::memory_order_relaxed);
      terminal_->fetch_add(1, std::memory_order_release);
    }
    return out;
  }

  /// True once every sub-session completed successfully.
  [[nodiscard]] bool complete() const {
    return terminal_->load(std::memory_order_acquire) == subs_.size() &&
           failures_->load(std::memory_order_relaxed) == 0;
  }

  /// True as soon as any sub-session failed.
  [[nodiscard]] bool failed() const {
    return failures_->load(std::memory_order_relaxed) != 0;
  }

  /// True once no sub-session is still in flight (complete or failed).
  [[nodiscard]] bool terminal() const {
    return terminal_->load(std::memory_order_acquire) == subs_.size();
  }

  /// The merged symmetric difference; meaningful once complete().
  [[nodiscard]] SetDiff<T> diff() const {
    SetDiff<T> out;
    for (const auto& sub : subs_) {
      const SetDiff<T>& d = sub->diff();
      out.remote.insert(out.remote.end(), d.remote.begin(), d.remote.end());
      out.local.insert(out.local.end(), d.local.begin(), d.local.end());
    }
    return out;
  }

  /// Total SYMBOLS payload bytes absorbed across shards.
  [[nodiscard]] std::uint64_t payload_bytes() const {
    std::uint64_t n = 0;
    for (const auto& sub : subs_) n += sub->payload_bytes();
    return n;
  }

  [[nodiscard]] const SyncClient<T, Hasher>& sub(std::size_t shard) const {
    return *subs_[shard];
  }

 private:
  Hasher hasher_;
  std::uint64_t base_;
  std::vector<std::unique_ptr<SyncClient<T, Hasher>>> subs_;
  std::vector<std::uint8_t> counted_;  ///< per-shard terminal latch
  std::unique_ptr<std::atomic<std::size_t>> terminal_;
  std::unique_ptr<std::atomic<std::size_t>> failures_;
};

}  // namespace ribltx::sync
