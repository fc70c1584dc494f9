// Replica: continuous anti-entropy on top of SyncEngine/SyncClient -- the
// daemon that turns one-shot reconciliation sessions into a convergent
// multi-node system.
//
// Each Replica owns one SyncEngine (its item set + serving sessions) and a
// scheduler that periodically opens outbound SyncClient sessions against
// every registered peer ("pull" anti-entropy): the recovered diff.remote
// items are applied to the local set, so in a (transitively) connected
// peer graph every item eventually reaches every replica. Removals are the
// churn driver's job (state-based union convergence); the sessions only
// ever add.
//
// Robustness model -- everything here assumes peers crash, links
// partition, and frames vanish:
//   * retry with capped exponential backoff + jitter: a failed round
//     doubles the peer's delay (base_s -> cap_s) with a uniform jitter
//     factor so a partition healing does not synchronize a thundering
//     herd; the first successful round resets the backoff.
//   * per-session deadlines: an in-flight round older than
//     session_deadline_s is aborted (ERROR to the server so it reclaims
//     its side) and rescheduled through the backoff path -- a stuck
//     exchange can delay a peer, never wedge the replica.
//   * serving-side hygiene rides the engine: each serving session records
//     the peer that opened it as its owner, so the engine rejects another
//     peer's frames for it, reap_idle() hands back each reclaimed
//     session's ERROR with its peer, and a dead link closes every session
//     its peer owns (close_owner) -- the replica keeps no session table.
//   * adaptive reuse: successive rounds against the same peer carry the
//     stable replica id, so the server's per-peer EWMA (sync/adaptive.hpp)
//     prices d^ from history and each steady-state round costs O(d), not
//     O(n).
//
// Transport-agnostic and passive: the owner supplies a SendFn per peer
// (frames out), calls deliver() for frames in, and drives tick(now) on its
// own cadence with its own clock -- netsim harnesses pass simulated time,
// socket harnesses pass wall time. Nothing here blocks or spawns threads.
//
// Threading contract: deliver/tick/add_peer/restart/stats form the
// scheduler surface and are caller-serialized (one event loop, like the
// engine's session surface). The set surface (add_item/remove_item/
// contains/item_count) is the engine's thread-safe ingest path and may be
// called concurrently from any thread -- churn during anti-entropy is the
// designed workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "sync/engine.hpp"

namespace ribltx::sync {

struct ReplicaOptions {
  /// Stable nonzero identity: namespaces this replica's session ids and
  /// keys the peers' adaptive EWMAs. Must be unique across the fleet.
  std::uint64_t replica_id = 1;
  /// Cadence between anti-entropy rounds against a healthy peer.
  double sync_interval_s = 1.0;
  /// First retry delay after a failed round; doubles per consecutive
  /// failure up to backoff_cap_s.
  double backoff_base_s = 0.5;
  double backoff_cap_s = 30.0;
  /// Uniform schedule jitter: every delay is scaled by a draw from
  /// [1 - jitter, 1 + jitter] so recovering replicas do not stampede.
  double jitter = 0.2;
  /// Abort an in-flight outbound round older than this (0 disables).
  double session_deadline_s = 10.0;
  /// Max serving frames pumped per session per tick (bounds tick latency).
  std::size_t serve_budget = 64;
  /// Backend requested for outbound rounds (the server may override it
  /// when adaptive negotiation is on).
  BackendId backend = BackendId::kRiblt;
  /// Carry the replica id + probe on outbound HELLOs so servers price d^
  /// from per-peer history (kFlagAdaptive).
  bool adaptive = true;
  ReconcilerConfig config{};
  /// Engine tuning. idle_deadline_s drives the serving-side reap sweep;
  /// clock defaults to "the last now passed to deliver/tick", which keeps
  /// engine idleness on the caller's timescale (simulated or wall).
  /// engine.metrics is the whole replica's registry: its own cells carry
  /// {replica=id}, the engine's are shared by every engine bound to it.
  EngineOptions engine{};
  std::uint64_t seed = 0;  ///< jitter RNG stream
};

/// Per-peer health snapshot (staleness is the fig12 axis: how long ago
/// this replica last converged with the peer).
struct ReplicaPeerStats {
  std::uint64_t peer_id = 0;
  double last_success = -1;   ///< time of last converged round (-1 = never)
  double backoff_s = 0;       ///< current retry delay (0 = healthy)
  std::uint64_t failures = 0; ///< consecutive failed rounds
  std::uint64_t converged = 0;
};

/// The scheduler's accounting, read back from the replica's cells (the
/// serving side's is engine().totals()).
struct ReplicaStats {
  std::uint64_t rounds_attempted = 0;
  std::uint64_t rounds_converged = 0;
  /// Failed + deadline-aborted + link-down rounds.
  std::uint64_t rounds_aborted = 0;
  /// Rounds opened while a backoff was pending (i.e. retries).
  std::uint64_t retries = 0;
  std::uint64_t items_applied = 0;
  std::uint64_t restarts = 0;
  std::vector<ReplicaPeerStats> peers;
};

template <Symbol T, typename Hasher = SipHasher<T>>
class Replica {
 public:
  /// Frame transport to one peer. Return false when the link is known dead
  /// (the replica treats it as a link-down event for that peer); blocking
  /// or buffering internally is the transport's business.
  using SendFn = std::function<bool(std::vector<std::byte>)>;
  /// Optional send gate: frames are only produced while it returns true
  /// (checked BEFORE encoding, so a backpressured link never forces the
  /// replica to drop frames it already built).
  using ReadyFn = std::function<bool()>;
  /// Observer for items learned through anti-entropy (staleness sampling).
  using ApplyFn = std::function<void(const T& item, double now)>;

  explicit Replica(ReplicaOptions options = {}, Hasher hasher = Hasher{})
      : options_(std::move(options)),
        hasher_(std::move(hasher)),
        rng_(mix64(options_.replica_id ^ mix64(options_.seed ^
                                               0x7265706c696361ULL))) {
    if (options_.replica_id == 0) {
      throw std::invalid_argument("Replica: replica id 0 is reserved");
    }
    metrics_ = &obs::registry_or_own(options_.engine.metrics, own_metrics_);
    obs::MetricsRegistry& m = *metrics_;
    EngineOptions eng = options_.engine;
    eng.metrics = metrics_;
    if (!eng.clock) {
      // Engine activity stamps follow the caller's clock: the last now
      // seen by deliver/tick. Simulated time reaps in simulated time.
      eng.clock = [this] { return now_; };
    }
    engine_ = std::make_unique<SyncEngine<T, Hasher>>(hasher_, eng);
    // The scheduler tier's cells, next to the engine's. The caller clock
    // may be simulated, so the gap histogram is "caller microseconds".
    const obs::Labels l = labels();
    rounds_attempted_ = &m.counter("riblt_replica_rounds_attempted_total",
                                   "Outbound anti-entropy rounds opened", l);
    rounds_converged_ =
        &m.counter("riblt_replica_rounds_converged_total",
                   "Rounds that completed and applied their diff", l);
    rounds_aborted_ = &m.counter("riblt_replica_rounds_aborted_total",
                                 "Failed + deadline-aborted + link-down rounds",
                                 l);
    retries_ = &m.counter("riblt_replica_retries_total",
                          "Rounds opened while a backoff was pending", l);
    items_applied_ = &m.counter("riblt_replica_items_applied_total",
                                "Items learned through anti-entropy", l);
    restarts_ = &m.counter("riblt_replica_restarts_total",
                           "Crash/restart cycles", l);
    round_gap_us_ = &m.histogram(
        "riblt_replica_round_gap_us",
        "Gap between successive converged rounds per peer "
        "(caller-clock microseconds)",
        l);
    backoff_hist_ms_ = &m.histogram(
        "riblt_replica_backoff_ms",
        "Retry backoff scheduled after an aborted round (milliseconds)", l);
  }

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // ------------------------------------------------------------ set surface

  /// Thread-safe ingest (the engine's striped/lock-free path).
  bool add_item(const T& item) { return engine_->add_item(item); }
  bool remove_item(const T& item) { return engine_->remove_item(item); }
  [[nodiscard]] bool contains(const T& item) const {
    return engine_->contains(item);
  }
  [[nodiscard]] std::size_t item_count() const noexcept {
    return engine_->item_count();
  }

  /// Visits the full set (byte-exact convergence checks).
  template <typename Fn>
  void for_each_item(Fn&& fn) const {
    engine_->for_each_item(std::forward<Fn>(fn));
  }

  // ------------------------------------------------------ scheduler surface

  /// Registers a peer. `send` carries frames toward it; `ready` (optional)
  /// gates emission. The first round is scheduled one jittered interval
  /// out, so a fleet booting together does not open every session at t=0.
  void add_peer(std::uint64_t peer_id, SendFn send, ReadyFn ready = {}) {
    if (peer_id == 0 || peer_id == options_.replica_id) {
      throw std::invalid_argument("Replica: bad peer id");
    }
    Peer& p = peers_[peer_id];
    p.id = peer_id;
    p.send = std::move(send);
    p.ready = std::move(ready);
    p.next_attempt = now_ + jittered(options_.sync_interval_s);
    // Per-peer health rows, labeled {replica, peer}: staleness surfaces as
    // the time of the last converged round so a scraper computes
    // "now - last_success" on its own clock.
    obs::MetricsRegistry& m = *metrics_;
    obs::Labels l = labels();
    l.emplace_back("peer", std::to_string(peer_id));
    p.backoff_ms = &m.gauge("riblt_replica_peer_backoff_ms",
                            "Current retry delay toward this peer (0 = "
                            "healthy)",
                            l);
    p.failures = &m.gauge("riblt_replica_peer_failures",
                          "Consecutive failed rounds toward this peer", l);
    p.converged = &m.counter("riblt_replica_peer_converged_total",
                             "Converged rounds with this peer", l);
    p.last_success_ms = &m.gauge(
        "riblt_replica_peer_last_success_ms",
        "Caller-clock time of the last converged round in milliseconds "
        "(-1 = never)",
        l);
    p.last_success_ms->set(to_ms(p.last_success));
  }

  /// Rebinds a peer's transport after its link was rebuilt (peer restart):
  /// scheduling state (backoff, staleness) survives, the dead SendFn does
  /// not.
  void set_peer_link(std::uint64_t peer_id, SendFn send, ReadyFn ready = {}) {
    const auto it = peers_.find(peer_id);
    if (it == peers_.end()) {
      throw std::invalid_argument("Replica: unknown peer");
    }
    it->second.send = std::move(send);
    it->second.ready = std::move(ready);
  }

  /// Feeds one frame that arrived from `peer_id`. Routes by frame type:
  /// server-bound types go to the engine (serving side), client-bound
  /// types to the peer's in-flight round; an ERROR goes to the round when
  /// it names the round's id, else to the engine. The engine answers a
  /// frame it rejects by its one rule (SyncEngine::reject_answer); stale
  /// traffic from before a crash/abort is normal, not an error.
  void deliver(std::uint64_t peer_id, std::span<const std::byte> frame,
               double now) {
    advance(now);
    const auto it = peers_.find(peer_id);
    if (it == peers_.end() || frame.empty()) return;
    Peer& peer = it->second;
    std::uint64_t sid = 0;
    try {
      sid = v2::peek_session_id(frame);
    } catch (const ProtocolError&) {
      return;  // unroutable garbage: the conduit layer already contains it
    }
    switch (static_cast<v2::FrameType>(frame[0])) {
      case v2::FrameType::kHello:
      case v2::FrameType::kRound:
      case v2::FrameType::kDone:
        serve_frame(peer, sid, frame);
        break;
      case v2::FrameType::kHelloAck:
      case v2::FrameType::kSymbols:
        client_frame(peer, sid, frame);
        break;
      case v2::FrameType::kError:
        if (peer.client && peer.client->session_id() == sid) {
          client_frame(peer, sid, frame);
        } else {
          serve_frame(peer, sid, frame);
        }
        break;
      case v2::FrameType::kAdmin:
        // Observability tap: a peer (or an operator riding a peer link)
        // can scrape this replica in-band, same verbs as the socket
        // servers. Answered here, never handed to the engine.
        admin_frame(peer, sid, frame);
        break;
      default:
        break;  // unknown type: drop (the engine would reject it anyway)
    }
  }

  /// Drives everything time-based: serving pumps, idle reaps, round
  /// scheduling, deadline aborts. Call on any cadence; all scheduling
  /// derives from `now`, not from the call rate.
  void tick(double now) {
    advance(now);
    reap_serving();
    for (const std::uint64_t sid : engine_->session_ids()) pump_serving(sid);
    for (auto& [id, peer] : peers_) {
      step_client(peer);
    }
  }

  /// The transport to `peer_id` died (conduit broke, socket closed).
  /// Aborts the in-flight round through the backoff path and fails every
  /// serving session owned by that peer.
  void peer_link_down(std::uint64_t peer_id, double now) {
    advance(now);
    const auto it = peers_.find(peer_id);
    if (it == peers_.end()) return;
    Peer& peer = it->second;
    if (peer.client) {
      abort_round(peer, "link down", /*notify_server=*/false);
    }
    (void)engine_->close_owner(peer_id);
  }

  /// Crash + restart in place: every session (both directions) is
  /// dropped, in-flight rounds are abandoned, backoffs reset, and the
  /// session-id namespace advances an epoch so post-restart sessions can
  /// never collide with pre-crash ones still buffered in the network. The
  /// item set survives (the surviving on-disk set the replica rebuilds
  /// from); anti-entropy re-fills whatever it missed while down.
  void restart(double now) {
    advance(now);
    for (const std::uint64_t sid : engine_->session_ids()) {
      (void)engine_->close_session(sid);
    }
    ++epoch_;
    restarts_->inc();
    for (auto& [id, peer] : peers_) {
      peer.client.reset();
      peer.backoff_s = 0;
      peer.backoff_ms->set(0);
      peer.failures->set(0);
      peer.next_attempt = now_ + jittered(options_.sync_interval_s);
    }
  }

  /// Pauses/resumes opening NEW outbound rounds (serving and in-flight
  /// rounds continue): the quiesce gate convergence checks use before
  /// asserting zero leaked sessions.
  void set_paused(bool paused) { paused_ = paused; }

  /// Observer for every item applied from a completed round.
  void on_item_applied(ApplyFn fn) { on_apply_ = std::move(fn); }

  /// Typed read of the replica's cells; the per-peer times are the
  /// scheduler's own state (the cells export them in milliseconds).
  [[nodiscard]] ReplicaStats stats() const {
    ReplicaStats out;
    out.rounds_attempted = rounds_attempted_->load();
    out.rounds_converged = rounds_converged_->load();
    out.rounds_aborted = rounds_aborted_->load();
    out.retries = retries_->load();
    out.items_applied = items_applied_->load();
    out.restarts = restarts_->load();
    out.peers.reserve(peers_.size());
    for (const auto& [id, peer] : peers_) {
      ReplicaPeerStats row;
      row.peer_id = id;
      row.last_success = peer.last_success;
      row.backoff_s = peer.backoff_s;
      row.failures = static_cast<std::uint64_t>(peer.failures->load());
      row.converged = peer.converged->load();
      out.peers.push_back(row);
    }
    return out;
  }

  /// Live serving sessions + in-flight outbound rounds: the leak gauge
  /// (must drain to zero once peers quiesce).
  [[nodiscard]] std::size_t session_count() const {
    std::size_t n = engine_->session_count();
    for (const auto& [id, peer] : peers_) n += peer.client ? 1 : 0;
    return n;
  }

  [[nodiscard]] std::uint64_t replica_id() const noexcept {
    return options_.replica_id;
  }

  [[nodiscard]] SyncEngine<T, Hasher>& engine() noexcept { return *engine_; }

 private:
  struct Peer {
    std::uint64_t id = 0;
    SendFn send;
    ReadyFn ready;
    std::unique_ptr<SyncClient<T, Hasher>> client;  ///< in-flight round
    double started_at = 0;    ///< client HELLO time (deadline base)
    double next_attempt = 0;  ///< earliest next round open
    double backoff_s = 0;     ///< current retry delay (0 = healthy)
    double last_success = -1;
    /// Exported rows (see add_peer()).
    obs::Gauge* backoff_ms = nullptr;
    obs::Gauge* failures = nullptr;  ///< consecutive failed rounds
    obs::Counter* converged = nullptr;
    obs::Gauge* last_success_ms = nullptr;
  };

  void advance(double now) { now_ = now > now_ ? now : now_; }

  [[nodiscard]] obs::Labels labels() const {
    return {{"replica", std::to_string(options_.replica_id)}};
  }

  /// Caller-clock seconds as exported milliseconds (-1 stays -1).
  [[nodiscard]] static std::int64_t to_ms(double s) {
    return s < 0 ? -1 : static_cast<std::int64_t>(std::llround(s * 1000.0));
  }

  [[nodiscard]] double jittered(double delay) {
    const double j = options_.jitter;
    if (j <= 0) return delay;
    return delay * (1.0 - j + 2.0 * j * rng_.next_double());
  }

  /// Session ids: replica id (high bits) | restart epoch | sequence, so
  /// ids are unique fleet-wide and never reused across a crash.
  [[nodiscard]] std::uint64_t next_sid() {
    return ((options_.replica_id & 0xffffff) << 40) |
           ((epoch_ & 0xff) << 32) | (++seq_ & 0xffffffff);
  }

  [[nodiscard]] bool peer_ready(const Peer& peer) const {
    return !peer.ready || peer.ready();
  }

  /// Sends one frame toward a peer; false (link dead) fails everything
  /// that peer owns, exactly like an explicit peer_link_down.
  bool send_to(Peer& peer, std::vector<std::byte> frame) {
    if (!peer.send || peer.send(std::move(frame))) return true;
    peer_link_down(peer.id, now_);
    return false;
  }

  // ------------------------------------------------------------ serving side

  void serve_frame(Peer& peer, std::uint64_t sid,
                   std::span<const std::byte> frame) {
    std::vector<std::vector<std::byte>> replies;
    try {
      replies = engine_->handle_frame(frame, peer.id);
    } catch (const ProtocolError& e) {
      // Unattributable on the engine (unknown/stale session, another
      // peer's session, bad topology).
      if (auto answer = engine_->reject_answer(frame, peer.id, e.what())) {
        (void)send_to(peer, std::move(*answer));
      }
      return;
    }
    for (auto& reply : replies) {
      if (!send_to(peer, std::move(reply))) return;
    }
    pump_serving(sid);
  }

  /// Streams up to serve_budget frames for one serving session to the peer
  /// that owns it; retires the session once terminal.
  void pump_serving(std::uint64_t sid) {
    const SessionStats* stats = engine_->session(sid);
    if (stats == nullptr) return;
    if (stats->state != SessionState::kActive) {
      (void)engine_->close_session(sid);
      return;
    }
    const auto po = peers_.find(stats->owner);
    if (po == peers_.end()) return;
    Peer& peer = po->second;
    for (std::size_t i = 0; i < options_.serve_budget; ++i) {
      if (!peer_ready(peer)) return;  // gate BEFORE encoding: no drops
      auto frame = engine_->next_frame(sid);
      if (!frame) break;
      if (!send_to(peer, std::move(*frame))) return;
      // next_frame can fail the session and hand back its ERROR; the next
      // pump retires it.
      if (const SessionStats* s = engine_->session(sid);
          s == nullptr || s->state != SessionState::kActive) {
        break;
      }
    }
  }

  /// Delivers the engine's own ERRORs (cap evictions, idle reaps) to the
  /// peers that owned their sessions.
  void reap_serving() {
    for (auto& [owner, frame] : engine_->reap_idle()) {
      const auto po = peers_.find(owner);
      if (po != peers_.end()) (void)send_to(po->second, std::move(frame));
    }
  }

  /// Answers one in-band ADMIN verb over the peer's link (the replica's
  /// scrape endpoint; same dispatcher as the socket servers).
  void admin_frame(Peer& peer, std::uint64_t sid,
                   std::span<const std::byte> frame) {
    v2::AdminAnswer answer = v2::answer_admin(
        sid, frame, options_.engine.metrics, options_.engine.tracer);
    for (auto& reply : answer.frames) {
      if (!send_to(peer, std::move(reply))) return;
    }
  }

  // ------------------------------------------------------------- client side

  void client_frame(Peer& peer, std::uint64_t sid,
                    std::span<const std::byte> frame) {
    if (!peer.client || peer.client->session_id() != sid) {
      return;  // stale frame from an aborted/pre-restart round: drop
    }
    std::vector<std::vector<std::byte>> replies;
    try {
      replies = peer.client->handle_frame(frame);
    } catch (const ProtocolError&) {
      abort_round(peer, "protocol error", /*notify_server=*/true);
      return;
    }
    for (auto& reply : replies) {
      if (!send_to(peer, std::move(reply))) return;
    }
    settle_client(peer);
  }

  /// Opens rounds when due, aborts rounds past their deadline, settles
  /// terminal rounds the transport finished without a final deliver.
  void step_client(Peer& peer) {
    if (peer.client) {
      settle_client(peer);
      if (peer.client && options_.session_deadline_s > 0 &&
          now_ - peer.started_at > options_.session_deadline_s) {
        abort_round(peer, "session deadline", /*notify_server=*/true);
      }
      return;
    }
    if (paused_ || now_ < peer.next_attempt || !peer_ready(peer)) return;
    open_round(peer);
  }

  void open_round(Peer& peer) {
    const std::uint64_t sid = next_sid();
    auto client = std::make_unique<SyncClient<T, Hasher>>(
        sid, options_.backend, hasher_, options_.config);
    if (options_.adaptive) {
      client->set_adaptive(options_.replica_id);
    }
    engine_->for_each_item([&](const HashedSymbol<T>& hs) {
      client->add_hashed_item(hs);
    });
    rounds_attempted_->inc();
    if (peer.backoff_s > 0) retries_->inc();
    peer.started_at = now_;
    peer.client = std::move(client);
    auto hello = peer.client->hello();
    (void)send_to(peer, std::move(hello));
  }

  /// Applies a completed round's diff / routes a failed round into backoff.
  void settle_client(Peer& peer) {
    if (!peer.client) return;
    if (peer.client->complete()) {
      for (const T& item : peer.client->diff().remote) {
        if (engine_->add_item(item)) {
          items_applied_->inc();
          if (on_apply_) on_apply_(item, now_);
        }
      }
      peer.client.reset();
      peer.failures->set(0);
      peer.backoff_s = 0;
      peer.backoff_ms->set(0);
      peer.converged->inc();
      if (peer.last_success >= 0 && now_ > peer.last_success) {
        round_gap_us_->record(
            static_cast<std::uint64_t>((now_ - peer.last_success) * 1e6));
      }
      peer.last_success = now_;
      peer.last_success_ms->set(to_ms(now_));
      rounds_converged_->inc();
      peer.next_attempt = now_ + jittered(options_.sync_interval_s);
    } else if (peer.client->failed()) {
      abort_round(peer, peer.client->error(), /*notify_server=*/false);
    }
  }

  /// Tears down the in-flight round and schedules the retry through the
  /// capped exponential backoff. notify_server sends the session ERROR so
  /// the far side reclaims immediately instead of waiting for its reaper.
  void abort_round(Peer& peer, std::string reason, bool notify_server) {
    if (!peer.client) return;
    const std::uint64_t sid = peer.client->session_id();
    peer.client.reset();
    rounds_aborted_->inc();
    peer.failures->add(1);
    peer.backoff_s = peer.backoff_s <= 0
                         ? options_.backoff_base_s
                         : std::min(2.0 * peer.backoff_s,
                                    options_.backoff_cap_s);
    peer.backoff_ms->set(to_ms(peer.backoff_s));
    backoff_hist_ms_->record(
        static_cast<std::uint64_t>(peer.backoff_s * 1000.0));
    peer.next_attempt = now_ + jittered(peer.backoff_s);
    if (notify_server) {
      (void)send_to(peer, v2::make_error_frame(sid, reason));
    }
  }

  ReplicaOptions options_;
  Hasher hasher_;
  SplitMix64 rng_;
  /// Private registry when options_.engine.metrics is null; declared
  /// before every member holding its cells so it outlives them.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< the caller's or own_metrics_
  std::unique_ptr<SyncEngine<T, Hasher>> engine_;
  std::map<std::uint64_t, Peer> peers_;       ///< deterministic iteration
  double now_ = 0;
  bool paused_ = false;
  std::uint64_t epoch_ = 0;  ///< bumped per restart (sid namespace)
  std::uint64_t seq_ = 0;
  ApplyFn on_apply_;

  /// The scheduler's cells, labeled {replica=id}; bound in the
  /// constructor.
  obs::Counter* rounds_attempted_ = nullptr;
  obs::Counter* rounds_converged_ = nullptr;
  obs::Counter* rounds_aborted_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* items_applied_ = nullptr;
  obs::Counter* restarts_ = nullptr;
  obs::Histogram* round_gap_us_ = nullptr;
  obs::Histogram* backoff_hist_ms_ = nullptr;
};

}  // namespace ribltx::sync
