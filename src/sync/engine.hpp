// Multi-session reconciliation engine over the v2 wire protocol.
//
// One SyncEngine instance owns one item set and reconciles it against many
// peers concurrently -- the paper's universality argument (§2) made
// operational: sessions are independent state machines multiplexed by a
// session id carried in every frame, so a single server endpoint can serve
// a fleet of peers of different staleness, each over a backend of its
// choice (sync/reconciler.hpp).
//
// v2 framing (all client->server frames carry the session id; little
// endian, uvarints per common/varint.hpp):
//
//   HELLO     c->s  0x11 | uvarint sid | u8 ver | u8 backend |
//                   u32 item_size | u8 checksum_len | u8 flags
//                   [flags & 0x01 (sharded): uvarint shard_index |
//                    uvarint shard_count -- see sync/sharded.hpp]
//                   [flags & 0x02: request §6 count residuals]
//   HELLO_ACK s->c  0x12 | uvarint sid | u8 backend | u8 checksum_len |
//                   u8 flags [flags & 0x02: uvarint anchor_set_size]
//   SYMBOLS   s->c  0x13 | uvarint sid | uvarint len | payload
//   ROUND     c->s  0x14 | uvarint sid | uvarint len | payload
//   DONE      c->s  0x15 | uvarint sid | uvarint payload_bytes_consumed
//   ERROR     both  0x16 | uvarint sid | uvarint len | utf-8 message
//   ADMIN     c->s  0x17 | uvarint sid | uvarint len | utf-8 verb
//   ADMIN_RE  s->c  0x18 | uvarint sid | u8 final | uvarint len | chunk
//
// ADMIN is transport-level, not session-level: the servers
// (net/serving_core.hpp) and the Replica daemon intercept it before
// engine submission and answer it through v2::answer_admin() with the
// observability snapshot the verb names ("METRICS" = Prometheus text, "METRICS_JSON" =
// JSON, "TRACE" = chrome://tracing JSON), chunked into ADMIN_REPLY
// frames whose `final` byte marks the last chunk. The engine itself
// rejects ADMIN frames with a contained ProtocolError, so an admin verb
// aimed at a transport that predates the verb fails cleanly in-band.
//
// Dialogue: the client opens with HELLO (negotiating backend id and
// checksum width); the server ACKs and then pushes SYMBOLS frames --
// continuously for the rateless backend, one round per ROUND request for
// the others (ROUND is the NACK/escalation path: a bigger IBLT, more CPI
// evaluations, the next MET extension block). DONE closes the session;
// ERROR flows in either direction -- the server reporting a contained
// per-session failure, or the client aborting a session whose decoder hit
// a dead end -- without disturbing other sessions.
//
// Owners: every session records the opaque `owner` tag its HELLO arrived
// with -- a connection key on a socket server, a peer id in Replica, 0 for
// in-memory callers. A frame from any other owner is rejected before it
// touches the session, handle_frame answers only its sender, and every
// other frame the engine emits is addressed to its session's owner, so no
// transport keeps a session table of its own.
//
// Error containment: frames that cannot be attributed to a healthy session
// of their sender (garbage, unknown/zero session ids, duplicate HELLOs,
// another owner's session id, failed negotiation) throw ProtocolError to
// the transport that delivered them, which answers by reject_answer().
// Failures *inside* an established session (a backend rejecting a round
// request, a malformed SYMBOLS/ROUND payload, a codec that cannot extend
// further) mark only that session kFailed on both ends and produce an
// ERROR frame; every other session keeps streaming.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstddef>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "core/sketch.hpp"
#include "core/symbol.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sync/adaptive.hpp"
#include "sync/error.hpp"
#include "sync/reconciler.hpp"

namespace ribltx::sync {

namespace v2 {

inline constexpr std::uint8_t kVersion = 2;

/// HELLO flag bit: the frame carries `uvarint shard_index | uvarint
/// shard_count` after the flags byte. A client talking to a ShardedEngine
/// splits its set with shard_of_hash() and opens one session per shard,
/// numbering them so that (sid - 1) mod shard_count == shard_index
/// (shard_of_session()): the server routes every frame by its id alone,
/// and the shard fields let the shard engine verify that both ends agree
/// on the topology and that the HELLO reached the shard it names.
inline constexpr std::uint8_t kFlagSharded = 0x01;

/// HELLO flag bit: request the §6 count compression on the SYMBOLS stream.
/// Granted only for the rateless backend (the other codecs own their
/// payload formats): the HELLO_ACK echoes the flag and carries the anchor
/// set size N -- the serving SequenceCache's snapshot set_size -- and every
/// subsequent stream symbol's count rides as a svarint residual against
/// N*rho(i) instead of a plain svarint (~1 byte at any N vs up to 3-5
/// bytes for the large near-origin counts of a big set).
inline constexpr std::uint8_t kFlagCountResiduals = 0x02;

/// HELLO flag bit: request adaptive negotiation. The HELLO carries
/// `uvarint peer_id | uvarint probe_len | probe bytes` after any shard
/// fields -- peer_id is a stable client identity for the server's per-peer
/// EWMA of past diffs, probe is an optional tiny strata digest
/// (sync/adaptive.hpp) for a first-contact d estimate. The HELLO_ACK
/// echoes the flag and carries `uvarint d_estimate | uvarint pace_cap`;
/// its backend byte is the server's *choice* (cost model over d-estimate x
/// link class), which may differ from the requested backend. A DONE from
/// an adaptive session appends `uvarint diff_count` so the server can
/// update the EWMA. Servers that predate the flag reject the HELLO with a
/// clean ERROR ("unknown HELLO flags"); clients then retry without it.
inline constexpr std::uint8_t kFlagAdaptive = 0x04;

/// Per-frame-type known-flag masks. HELLO and HELLO_ACK grow flags
/// independently (the adaptive grant is ACK-side), so each direction
/// validates against its own mask -- an unknown bit from a newer peer
/// fails as a clean ProtocolError instead of a mis-framed stream.
inline constexpr std::uint8_t kKnownHelloFlags =
    kFlagSharded | kFlagCountResiduals | kFlagAdaptive;
inline constexpr std::uint8_t kKnownHelloAckFlags =
    kFlagCountResiduals | kFlagAdaptive;

/// ERROR frames clamp their message payload to this many bytes: an ERROR
/// must always fit any conduit's max_frame, or reporting a contained
/// per-session failure would poison the whole connection.
inline constexpr std::size_t kMaxErrorBytes = 256;

enum class FrameType : std::uint8_t {
  kHello = 0x11,
  kHelloAck = 0x12,
  kSymbols = 0x13,
  kRound = 0x14,
  kDone = 0x15,
  kError = 0x16,
  kAdmin = 0x17,       ///< observability verb (transport-level; see header)
  kAdminReply = 0x18,  ///< chunked admin reply; `value` = final-chunk flag
};

/// A parsed v2 frame; which fields are meaningful depends on `type`.
struct Frame {
  FrameType type{};
  std::uint64_t session_id = 0;
  std::uint8_t backend = 0;        ///< HELLO, HELLO_ACK
  std::uint32_t item_size = 0;     ///< HELLO
  std::uint8_t checksum_len = 0;   ///< HELLO, HELLO_ACK
  bool count_residuals = false;    ///< HELLO request / HELLO_ACK grant
  std::uint32_t shard_index = 0;   ///< HELLO (kFlagSharded)
  std::uint32_t shard_count = 0;   ///< HELLO (kFlagSharded); 0 = unsharded
  /// DONE: payload bytes consumed; HELLO_ACK with kFlagCountResiduals: the
  /// residual anchor set size N.
  std::uint64_t value = 0;
  std::vector<std::byte> payload;  ///< SYMBOLS, ROUND; ERROR: message
  bool adaptive = false;           ///< HELLO request / HELLO_ACK grant
  std::uint64_t peer_id = 0;       ///< HELLO (kFlagAdaptive); 0 = anonymous
  std::vector<std::byte> probe;    ///< HELLO (kFlagAdaptive): strata digest
  std::uint64_t d_estimate = 0;    ///< HELLO_ACK (kFlagAdaptive)
  std::uint64_t pace_cap = 0;      ///< HELLO_ACK (kFlagAdaptive); 0 = unpaced
  /// DONE: recovered |diff| when present (adaptive sessions feed the
  /// server's per-peer EWMA with it).
  std::optional<std::uint64_t> diff_count;
};

/// Parses and validates one frame. Throws ProtocolError with a specific
/// message on anything malformed (empty frame, unknown type, version
/// mismatch, zero session id, truncation, trailing bytes).
[[nodiscard]] Frame parse_frame(std::span<const std::byte> data);

/// Reads just the frame type byte and session id -- the routing prefix a
/// ShardedEngine needs -- without copying the payload. Throws ProtocolError
/// on anything too short or malformed to route.
[[nodiscard]] std::uint64_t peek_session_id(std::span<const std::byte> data);

/// Serializes a frame (the inverse of parse_frame).
[[nodiscard]] std::vector<std::byte> encode_frame(const Frame& frame);

/// The ERROR frame's message bytes as text.
[[nodiscard]] std::string error_text(const Frame& frame);

/// Builds an encoded ERROR frame carrying `message`.
[[nodiscard]] std::vector<std::byte> make_error_frame(
    std::uint64_t session_id, const std::string& message);

/// Builds an encoded ADMIN frame carrying an observability verb
/// ("METRICS", "METRICS_JSON", "TRACE").
[[nodiscard]] inline std::vector<std::byte> make_admin_frame(
    std::uint64_t session_id, std::string_view verb) {
  Frame frame;
  frame.type = FrameType::kAdmin;
  frame.session_id = session_id;
  frame.payload.reserve(verb.size());
  for (const char c : verb) {
    frame.payload.push_back(static_cast<std::byte>(c));
  }
  return encode_frame(frame);
}

/// Chunks an admin reply body into ADMIN_REPLY frames; the last chunk
/// carries the final flag (an empty body still produces one final
/// frame, so the requester always gets a terminator).
[[nodiscard]] inline std::vector<std::vector<std::byte>> make_admin_reply(
    std::uint64_t session_id, std::string_view body,
    std::size_t chunk_bytes = 32 * 1024) {
  std::vector<std::vector<std::byte>> out;
  std::size_t off = 0;
  do {
    const std::size_t n = std::min(chunk_bytes, body.size() - off);
    Frame frame;
    frame.type = FrameType::kAdminReply;
    frame.session_id = session_id;
    frame.value = off + n >= body.size() ? 1 : 0;
    frame.payload.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      frame.payload.push_back(static_cast<std::byte>(body[off + i]));
    }
    off += n;
    out.push_back(encode_frame(frame));
  } while (off < body.size());
  return out;
}

/// One answered ADMIN frame: the ADMIN_REPLY chunks, or (`ok` false) the
/// single ERROR frame for a malformed frame, an unknown verb, or a verb
/// whose tap is unset -- so a scraper always hears back.
struct AdminAnswer {
  bool ok = false;
  std::vector<std::vector<std::byte>> frames;
};

/// The one ADMIN verb dispatcher (both socket servers and the Replica
/// answer through it). "METRICS" (Prometheus text) and "METRICS_JSON"
/// render a snapshot of `metrics`; "TRACE" renders `tracer` as
/// chrome://tracing JSON. A null tap answers its verbs with an ERROR.
[[nodiscard]] AdminAnswer answer_admin(std::uint64_t session_id,
                                       std::span<const std::byte> raw,
                                       obs::MetricsRegistry* metrics,
                                       obs::Tracer* tracer);

}  // namespace v2

enum class SessionState : std::uint8_t {
  kActive,  ///< reconciling
  kDone,    ///< client reported completion
  kFailed,  ///< contained per-session error; see SessionStats::error
};

/// Per-session byte/round accounting and outcome.
struct SessionStats {
  SessionState state = SessionState::kActive;
  std::uint64_t owner = 0;            ///< transport tag of the HELLO's sender
  BackendId backend{};
  std::uint8_t checksum_len = 8;
  std::uint64_t bytes_to_peer = 0;    ///< SYMBOLS frame bytes emitted
  std::uint64_t bytes_from_peer = 0;  ///< HELLO/ROUND/DONE frame bytes
  std::uint32_t rounds = 0;           ///< round requests honored
  std::uint32_t frames_sent = 0;      ///< SYMBOLS frames emitted
  std::uint64_t done_value = 0;       ///< client-reported consumed bytes
  std::string error;                  ///< failure reason when kFailed
  bool adaptive = false;              ///< session granted adaptive mode
  std::uint64_t d_estimate = 0;       ///< adaptive: the d^ the grant used
  std::uint64_t pace_cap = 0;         ///< adaptive: emission runway (0=off)
  std::uint32_t credits = 0;          ///< adaptive: pacing renewals received
};

struct EngineOptions {
  std::size_t frame_budget = 1024;  ///< target SYMBOLS payload bytes
  std::uint32_t max_rounds = 32;    ///< escalation cap per session
  std::size_t max_sessions = 4096;  ///< concurrent session cap
  ReconcilerConfig config{};        ///< backend tuning shared by sessions
  /// Adaptive negotiation (sync/adaptive.hpp): grants, EWMA, and pacing
  /// tuning, plus the link class the cost model prices backends against.
  adaptive::AdaptiveOptions adaptive{};
  adaptive::LinkProfile link = adaptive::LinkProfile::loopback();
  /// Shard identity (set by ShardedEngine on its per-shard engines). When
  /// shard_count != 0 the engine only accepts HELLOs carrying the matching
  /// (shard_index, shard_count); when 0 it rejects sharded HELLOs -- both
  /// ends must agree on the topology before any symbols flow.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 0;
  /// Idle-session deadline in seconds: reap_idle() fails and reclaims any
  /// ACTIVE session with no inbound frame for longer than this (a peer
  /// that said HELLO and vanished would otherwise hold its slot -- and its
  /// snapshot's journal floor -- forever). 0 disables reaping.
  double idle_deadline_s = 0;
  /// Clock for activity stamps and reaping, in seconds on any monotonic
  /// scale. Defaults to the steady clock; netsim harnesses bind their
  /// EventLoop's now() so simulated idleness reaps in simulated time.
  std::function<double()> clock{};
  /// Observability taps (both optional; must outlive the engine). The
  /// engine's accounting -- the EngineCells behind totals(): lifecycle
  /// counters, per-backend session histograms, and the SequenceCache
  /// gate-wait / compaction timings -- lives in `metrics`, or in a
  /// private registry when it is null. A ShardedEngine hands one registry
  /// to all shards, which therefore share one set of cells. With `tracer`
  /// set every session lifecycle step (HELLO -> grant -> rounds -> DONE /
  /// ERROR / reap) lands in the trace rings.
  obs::MetricsRegistry* metrics = nullptr;
  obs::Tracer* tracer = nullptr;
};

/// A frame the engine emits, paired with the owner it is addressed to.
using OwnedFrame = std::pair<std::uint64_t, std::vector<std::byte>>;

/// Whole-engine accounting, read back from the engine's cells. Lifetime
/// totals: a session counts in `sessions` from its HELLO and in `done` or
/// `failed` -- with its byte, frame, and round sums -- from the moment it
/// turns terminal, whether or not it has been closed since; `active` is
/// the rest (sessions - done - failed).
struct EngineTotals {
  std::size_t sessions = 0;
  std::size_t active = 0;
  std::size_t done = 0;
  std::size_t failed = 0;
  std::uint64_t bytes_to_peers = 0;
  std::uint64_t bytes_from_peers = 0;
  std::uint64_t rounds = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t items_added = 0;    ///< lifetime successful add_item calls
  std::uint64_t items_removed = 0;  ///< lifetime successful remove_item calls
  std::uint64_t journal_depth = 0;  ///< churn ops retained, as of last prune
  std::uint64_t sessions_reaped = 0;   ///< idle sessions reclaimed
  std::uint64_t sessions_evicted = 0;  ///< oldest-idle shed at the cap
};

/// The engine's registry cells: the one store of its accounting. Every
/// engine bound to one registry shares one set (registration dedupes on
/// name and labels), so totals() covers all of them -- a ShardedEngine's
/// K shards by design.
struct EngineCells {
  /// Per-backend cells, labeled {backend=<name>}.
  struct Backend {
    obs::Counter* opened = nullptr;
    obs::Counter* done = nullptr;
    obs::Counter* failed = nullptr;
    obs::Histogram* bytes_to_peer = nullptr;
    obs::Histogram* rounds = nullptr;
    obs::Histogram* cpu_us = nullptr;  ///< per-call encode/round CPU
    obs::Histogram* duration_us = nullptr;  ///< HELLO to outcome
  };

  explicit EngineCells(obs::MetricsRegistry& m);

  [[nodiscard]] const Backend& backend(BackendId b) const noexcept {
    return per_backend[static_cast<std::size_t>(b) - 1];
  }

  /// Relaxed loads of every cell (the obs/metrics.hpp snapshot model):
  /// each field is torn-free and monotone, but fields bumped by one event
  /// can be a few events apart while writers run, so `active` clamps at 0.
  [[nodiscard]] EngineTotals totals() const;

  std::array<Backend, 4> per_backend{};  ///< by wire id - 1
  obs::Counter* bytes_from_peers = nullptr;
  obs::Counter* frames_sent = nullptr;
  obs::Counter* items_added = nullptr;
  obs::Counter* items_removed = nullptr;
  obs::Counter* reaped = nullptr;
  obs::Counter* evicted = nullptr;
  obs::Gauge* journal_depth = nullptr;  ///< moved by deltas: shards share it
};

/// Hash-keyed membership index for the served set, striped so concurrent
/// ingest threads contend only when their items land in the same stripe.
/// Entries are confirmed by symbol equality, so 64-bit hash collisions
/// between distinct items cannot mis-report membership. The stripe
/// selector uses bits the rest of the system leaves alone: shard routing
/// consumes the high 32 bits (shard_of_hash) and strata placement the
/// trailing zeros, so mid-bits keep the stripes balanced per shard.
template <Symbol T>
class StripedItemIndex {
 public:
  static constexpr std::size_t kStripes = 64;

  StripedItemIndex() : stripes_(std::make_unique<StripeArray>()) {}

  // Movable so the owning engine stays movable; moving is only legal while
  // no other thread touches either side (same contract as every member),
  // and a moved-from index is only destructible/assignable.
  StripedItemIndex(StripedItemIndex&& other) noexcept
      : stripes_(std::move(other.stripes_)),
        size_(other.size_.exchange(0, std::memory_order_relaxed)) {}
  StripedItemIndex& operator=(StripedItemIndex&& other) noexcept {
    stripes_ = std::move(other.stripes_);
    size_.store(other.size_.exchange(0, std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  /// Inserts unless an equal item is present. True on insert.
  bool insert(const HashedSymbol<T>& hs) {
    Stripe& s = stripe(hs.hash);
    const std::lock_guard<std::mutex> lk(s.mu);
    auto [lo, hi] = s.map.equal_range(hs.hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == hs.symbol) return false;
    }
    s.map.emplace(hs.hash, hs.symbol);
    size_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Erases the item if present. True on erase.
  bool erase(const HashedSymbol<T>& hs) {
    Stripe& s = stripe(hs.hash);
    const std::lock_guard<std::mutex> lk(s.mu);
    auto [lo, hi] = s.map.equal_range(hs.hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == hs.symbol) {
        s.map.erase(it);
        size_.fetch_sub(1, std::memory_order_relaxed);
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] bool contains(const HashedSymbol<T>& hs) const {
    const Stripe& s = stripe(hs.hash);
    const std::lock_guard<std::mutex> lk(s.mu);
    auto [lo, hi] = s.map.equal_range(hs.hash);
    for (auto it = lo; it != hi; ++it) {
      if (it->second == hs.symbol) return true;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return size_.load(std::memory_order_relaxed);
  }

  /// Visits every item, one stripe at a time under that stripe's lock.
  /// Concurrent with ingest; an item added or removed *during* the walk
  /// may or may not be visited (same snapshot fuzziness any concurrent
  /// enumeration has -- callers wanting a frozen view serialize ingest).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Stripe& s : *stripes_) {
      const std::lock_guard<std::mutex> lk(s.mu);
      for (const auto& [hash, symbol] : s.map) {
        fn(HashedSymbol<T>{symbol, hash});
      }
    }
  }

 private:
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_multimap<std::uint64_t, T> map;
  };

  using StripeArray = std::array<Stripe, kStripes>;

  [[nodiscard]] Stripe& stripe(std::uint64_t hash) noexcept {
    return (*stripes_)[(hash >> 20) % kStripes];
  }
  [[nodiscard]] const Stripe& stripe(std::uint64_t hash) const noexcept {
    return (*stripes_)[(hash >> 20) % kStripes];
  }

  std::unique_ptr<StripeArray> stripes_;
  std::atomic<std::size_t> size_{0};
};

/// Server side: one item set, many concurrent sessions.
///
/// The engine owns ONE SequenceCache -- the universal coded-symbol prefix
/// of §2 -- as the single source of truth for the rateless stream. Each
/// rateless session is a snapshot cursor over that shared cache, so
/// HELLO-to-first-SYMBOLS costs O(1) regardless of set size, steady-state
/// serving costs O(cache growth + d per session) instead of O(n per
/// session), and set churn (add_item/remove_item after sessions opened)
/// updates the cache in place in O(log m) per item. Open sessions keep the
/// consistent snapshot they negotiated at HELLO: the cache journals churn
/// ops, and each cursor undoes the ops newer than its snapshot, so cells
/// already streamed to a peer are never mutated out from under it. Items
/// are hashed exactly once on add and the HashedSymbol is reused by every
/// consumer (cache, strata, IBLT, MET).
///
/// Threading contract: the INGEST surface -- add_item/remove_item (and
/// their hashed variants), contains, item_count -- is safe from any number
/// of concurrent threads and never blocks on the session machinery: the
/// membership index is striped (StripedItemIndex), the cache's churn path
/// is lock-free (see SequenceCache), and the probe digest is replicated
/// across kProbeLanes per-thread lanes merged only at HELLO time. The
/// SESSION surface -- handle_frame, next_frame, close_session, session
/// queries -- is NOT internally synchronized; callers serialize it
/// (ShardedEngine holds its per-shard mutex around it) while ingest runs
/// concurrently underneath. totals() reads registry cells and is safe
/// from any thread.
template <Symbol T, typename Hasher = SipHasher<T>>
class SyncEngine {
 public:
  /// Probe-digest replicas for the ingest path (merged per HELLO).
  static constexpr std::size_t kProbeLanes = 4;

  explicit SyncEngine(Hasher hasher = Hasher{}, EngineOptions options = {})
      : hasher_(std::move(hasher)),
        options_(std::move(options)),
        cells_(obs::registry_or_own(options_.metrics, own_metrics_)),
        cache_(std::make_shared<SequenceCache<T, Hasher>>(hasher_)),
        peer_ewma_(options_.adaptive.max_peers) {
    probe_lanes_.reserve(kProbeLanes);
    for (std::size_t i = 0; i < kProbeLanes; ++i) {
      probe_lanes_.push_back(std::make_unique<ProbeLane>(
          adaptive::make_probe<T, Hasher>(hasher_)));
    }
    obs::MetricsRegistry& m =
        options_.metrics != nullptr ? *options_.metrics : *own_metrics_;
    cache_->bind_metrics(
        &m.histogram("riblt_cache_gate_wait_us",
                     "ExclusiveGate acquire+drain wait (microseconds)"),
        &m.histogram("riblt_cache_compact_us",
                     "Coding-window compaction duration (microseconds)"),
        &m.counter("riblt_cache_compactions_total",
                   "Coding-window compactions run"));
  }

  /// Adds an item to the served set. Returns false (and leaves every
  /// structure untouched) if the item is already present -- a duplicate add
  /// would corrupt the subtractive cache (its cells count items, so the
  /// same item twice is indistinguishable from two distinct items).
  /// Rateless sessions already open keep their HELLO-time snapshot;
  /// sessions opened afterwards see the new item. O(log m); thread-safe
  /// (the index insert is the linearization point for duplicate races).
  bool add_item(const T& item) { return add_hashed_item(hasher_.hashed(item)); }

  /// Pre-hashed variant: the ShardedEngine router hashes once to pick the
  /// shard and hands the HashedSymbol straight through.
  bool add_hashed_item(const HashedSymbol<T>& hs) {
    if (!index_.insert(hs)) return false;  // duplicate: no-op
    cache_->add_hashed(hs);
    ProbeLane& lane = *probe_lanes_[ingest_lane()];
    {
      const std::lock_guard<std::mutex> lk(lane.mu);
      lane.probe.add_hashed(hs);  // keep the live probe digest current
    }
    cells_.items_added->inc();
    return true;
  }

  /// Removes an item from the served set. Returns false if absent. Open
  /// rateless sessions keep streaming their snapshot (which still contains
  /// the item); new sessions see the shrunken set. O(log m); thread-safe.
  bool remove_item(const T& item) {
    return remove_hashed_item(hasher_.hashed(item));
  }

  /// Pre-hashed variant (the ShardedEngine router hashes once to route).
  bool remove_hashed_item(const HashedSymbol<T>& hs) {
    if (!index_.erase(hs)) return false;
    cache_->remove_hashed(hs);
    ProbeLane& lane = *probe_lanes_[ingest_lane()];
    {
      const std::lock_guard<std::mutex> lk(lane.mu);
      lane.probe.remove_hashed(hs);  // subtractive cells back out cleanly
    }
    cells_.items_removed->inc();
    return true;
  }

  /// True iff the item is currently in the served set. Thread-safe.
  [[nodiscard]] bool contains(const T& item) const {
    return contains_hashed(hasher_.hashed(item));
  }

  [[nodiscard]] bool contains_hashed(const HashedSymbol<T>& hs) const {
    return index_.contains(hs);
  }

  /// Feeds one client->server frame from `owner` (the sender's transport
  /// tag; see the owner contract above). Returns the frames to send back to
  /// that sender (HELLO_ACK on session open, ERROR on contained failures;
  /// often empty). Throws ProtocolError on frames that cannot be attributed
  /// to a healthy session of the sender -- see the containment contract.
  std::vector<std::vector<std::byte>> handle_frame(
      std::span<const std::byte> data, std::uint64_t owner = 0) {
    const v2::Frame frame = v2::parse_frame(data);
    std::vector<std::vector<std::byte>> out;
    switch (frame.type) {
      case v2::FrameType::kHello: {
        if (const auto it = sessions_.find(frame.session_id);
            it != sessions_.end()) {
          throw ProtocolError(it->second.stats.owner == owner
                                  ? "duplicate HELLO for session"
                                  : kForeignOwner);
        }
        if (frame.item_size != static_cast<std::uint32_t>(T::kSize)) {
          throw ProtocolError("item size mismatch");
        }
        if (!backend_known(frame.backend)) {
          throw ProtocolError("unknown backend id");
        }
        if (frame.checksum_len != 4 && frame.checksum_len != 8) {
          throw ProtocolError("unsupported checksum width");
        }
        if (frame.shard_count != options_.shard_count) {
          throw ProtocolError(
              options_.shard_count == 0
                  ? "sharded HELLO to an unsharded engine"
                  : "HELLO shard count does not match the engine topology");
        }
        if (frame.shard_count != 0 &&
            frame.shard_index != options_.shard_index) {
          throw ProtocolError("HELLO routed to the wrong shard");
        }
        const auto requested = static_cast<BackendId>(frame.backend);
        // Adaptive grant: estimate d (probe -> per-peer EWMA -> default),
        // then let the cost model pick the backend for this link class.
        // Without the flag (or with grants disabled) the requested backend
        // is served verbatim -- the clean fallback old clients rely on.
        const bool adaptive = frame.adaptive && options_.adaptive.enabled;
        std::uint64_t d_est = 0;
        BackendId backend = requested;
        if (adaptive) {
          d_est = std::min(estimate_diff(frame), adaptive::kMaxDiffEstimate);
          backend = adaptive::choose_backend<T>(
              requested, d_est, index_.size(), frame.checksum_len,
              options_.config, options_.link);
        }
        const std::uint8_t effective =
            negotiate_checksum_len(backend, frame.checksum_len);
        // §6 count residuals: only the rateless stream has the implicit
        // (index, anchor) the residual coding needs; other backends own
        // their payload formats, so the request clamps off.
        const bool residuals =
            frame.count_residuals && backend == BackendId::kRiblt;
        ReconcilerConfig config = options_.config;
        config.checksum_len = effective;
        std::uint64_t pace_cap = 0;
        if (adaptive && backend == BackendId::kRiblt) {
          // The one backend that streams unboundedly gets a pacing runway.
          pace_cap = adaptive::pace_cap_for<T>(d_est, effective);
        }
        if (adaptive && backend == BackendId::kCpi) {
          // One-shot capacity: ship the whole ladder prefix for d^ up
          // front instead of walking the escalation round trips.
          config.cpi_initial_capacity = static_cast<std::size_t>(
              adaptive::cpi_capacity_for(d_est, options_.config));
        }
        Session session;
        if (backend == BackendId::kRiblt) {
          // O(1): a snapshot cursor over the shared cache -- no per-session
          // re-hash/re-encode, no per-session coding-window heap.
          auto rateless = std::make_unique<RibltEncoderBackend<T, Hasher>>(
              cache_, effective);
          if (residuals) {
            // The anchor is the snapshot the cursor just pinned: churn
            // after this HELLO does not move this session's counts.
            rateless->enable_count_residuals(cache_->set_size());
          }
          session.rateless = rateless.get();
          session.encoder = std::move(rateless);
        } else {
          // Table backends snapshot by construction: they fold the current
          // set (pre-hashed, no re-hash) into their own structures.
          session.encoder =
              make_reconciler_encoder<T>(backend, config, hasher_);
          index_.for_each([&](const HashedSymbol<T>& hs) {
            session.encoder->add_hashed_item(hs);
          });
        }
        session.stats.owner = owner;
        session.stats.backend = backend;
        session.stats.checksum_len = effective;
        session.stats.bytes_from_peer = data.size();
        session.stats.adaptive = adaptive;
        session.stats.d_estimate = d_est;
        session.stats.pace_cap = pace_cap;
        session.peer_id = adaptive ? frame.peer_id : 0;
        // Shed only once the HELLO has passed every check, building its
        // session included: a rejected HELLO must not cost a live session
        // its slot. The journal prune waits until the new cursor is in the
        // table, so it cannot drop churn ops the cursor still needs.
        const bool shed = sessions_.size() >= options_.max_sessions;
        if (shed && !shed_one()) throw ProtocolError("session limit reached");
        const double opened_at = now_s();
        session.last_activity = opened_at;
        session.opened_at = opened_at;
        sessions_.emplace(frame.session_id, std::move(session));
        if (shed) prune_cache_journal(/*force=*/true);
        cells_.backend(backend).opened->inc();
        trace(obs::TraceKind::kOpen, frame.session_id, backend, d_est,
              pace_cap, opened_at);
        v2::Frame ack;
        ack.type = v2::FrameType::kHelloAck;
        ack.session_id = frame.session_id;
        ack.backend = static_cast<std::uint8_t>(backend);
        ack.checksum_len = effective;
        ack.count_residuals = residuals;
        if (residuals) ack.value = cache_->set_size();
        ack.adaptive = adaptive;
        ack.d_estimate = d_est;
        ack.pace_cap = pace_cap;
        out.push_back(v2::encode_frame(ack));
        return out;
      }
      case v2::FrameType::kRound: {
        Session& session = established(frame.session_id, data.size(), owner);
        // Any inbound frame proves the peer is still consuming: reopen the
        // pacing runway from the current emission position.
        session.pace_mark = session.stats.bytes_to_peer;
        if (session.stats.state != SessionState::kActive) {
          return out;  // stale request after DONE/failure: drop
        }
        if (session.stats.pace_cap != 0 && frame.payload.empty()) {
          // Pacing credit: an empty ROUND from a paced rateless session
          // renews the runway and nothing else -- it is not an escalation,
          // does not count against max_rounds, and never reaches the
          // encoder (which owns no round protocol).
          ++session.stats.credits;
          trace(obs::TraceKind::kCredit, frame.session_id,
                session.stats.backend, session.stats.credits);
          return out;
        }
        if (session.stats.rounds + 1 > options_.max_rounds) {
          out.push_back(fail(frame.session_id, session,
                             "round limit exceeded"));
          return out;
        }
        try {
          const std::uint64_t t0 = steady_us();
          session.encoder->handle_round_request(frame.payload);
          cells_.backend(session.stats.backend)
              .cpu_us->record(steady_us() - t0);
          ++session.stats.rounds;
          trace(obs::TraceKind::kRound, frame.session_id,
                session.stats.backend, session.stats.rounds);
        } catch (const std::exception& e) {
          out.push_back(fail(frame.session_id, session, e.what()));
        }
        return out;
      }
      case v2::FrameType::kDone: {
        Session& session = established(frame.session_id, data.size(), owner);
        session.pace_mark = session.stats.bytes_to_peer;
        if (session.stats.state == SessionState::kActive) {
          session.stats.done_value = frame.value;
          settle(session, SessionState::kDone);
          trace(obs::TraceKind::kDone, frame.session_id,
                session.stats.backend, session.stats.bytes_to_peer,
                session.stats.bytes_from_peer);
          if (session.stats.adaptive && frame.diff_count) {
            // The observed |diff| feeds this peer's EWMA: the next session
            // from the same peer gets a history-grounded d^ with no probe.
            peer_ewma_.observe(session.peer_id, *frame.diff_count);
          }
        }
        return out;
      }
      case v2::FrameType::kError: {
        // The client aborted its side (e.g. its decoder hit a data-path
        // dead end); contain it to this session.
        Session& session = established(frame.session_id, data.size(), owner);
        if (session.stats.state == SessionState::kActive) {
          session.stats.error = "peer abort: " + v2::error_text(frame);
          settle(session, SessionState::kFailed);
          trace(obs::TraceKind::kError, frame.session_id,
                session.stats.backend, session.stats.bytes_to_peer,
                session.stats.bytes_from_peer);
        }
        return out;
      }
      case v2::FrameType::kAdmin:
      case v2::FrameType::kAdminReply:
        // Transport-level verbs: the servers answer these before engine
        // submission. One that reaches an engine directly (in-memory
        // harness, pre-verb transport) fails contained, like any other
        // unattributable frame.
        throw ProtocolError("ADMIN frames are handled by the transport");
      default:
        throw ProtocolError("unexpected server-to-client frame type");
    }
  }

  /// Produces the next SYMBOLS frame for a session: continuously for a
  /// rateless session, once per armed round otherwise. Returns nullopt when
  /// the session is waiting on a round request, done, failed, or unknown --
  /// or paused at its pacing cap (an adaptive rateless session emits at
  /// most pace_cap bytes past the last inbound frame; an empty ROUND
  /// credit reopens the runway). A backend failure during emit is
  /// contained: the session fails and the ERROR frame is returned in place
  /// of symbols.
  std::optional<std::vector<std::byte>> next_frame(std::uint64_t session_id) {
    // Journal upkeep rides the serving path, not ingest: churn threads
    // must never scan the session table, and this path is already
    // serialized by the caller. The throttle makes the steady-state cost
    // one atomic load per frame.
    prune_cache_journal();
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return std::nullopt;
    Session& session = it->second;
    if (session.stats.state != SessionState::kActive) return std::nullopt;
    std::size_t budget = options_.frame_budget;
    if (session.stats.pace_cap != 0) {
      // Clamp so the whole encoded frame (header + payload, where emit()
      // may overshoot its budget by at most one symbol) stays inside the
      // runway: emitted-past-last-inbound never exceeds pace_cap.
      const std::uint64_t since =
          session.stats.bytes_to_peer - session.pace_mark;
      const std::uint64_t slop =
          adaptive::max_symbol_wire<T>(session.stats.checksum_len) +
          adaptive::kFrameHeaderSlop;
      if (session.stats.pace_cap <= since + slop) {
        return std::nullopt;  // paused: waiting for a credit
      }
      budget = static_cast<std::size_t>(std::min<std::uint64_t>(
          budget, session.stats.pace_cap - since - slop));
    }
    ByteWriter payload;
    try {
      // Serve-CPU timing is sampled 1-in-8: emit() runs for every frame
      // of a rateless stream, so unconditional clock reads would be the
      // dominant instrumentation cost on tiny sessions. Quantiles off a
      // 1/8 uniform sample are unbiased; the histogram's _count reflects
      // samples, not frames (frames_sent has the exact frame count).
      obs::Histogram* const cpu =
          (obs_cpu_sample_++ & 7) == 0
              ? cells_.backend(session.stats.backend).cpu_us
              : nullptr;
      const std::uint64_t t0 = cpu != nullptr ? steady_us() : 0;
      const std::size_t emitted = session.encoder->emit(payload, budget);
      if (cpu != nullptr) cpu->record(steady_us() - t0);
      if (emitted == 0) {
        return std::nullopt;
      }
    } catch (const std::exception& e) {
      return fail(session_id, session, e.what());
    }
    v2::Frame frame;
    frame.type = v2::FrameType::kSymbols;
    frame.session_id = session_id;
    frame.payload = std::move(payload).take();
    auto encoded = v2::encode_frame(frame);
    session.stats.bytes_to_peer += encoded.size();
    ++session.stats.frames_sent;
    return encoded;
  }

  [[nodiscard]] const SessionStats* session(std::uint64_t id) const {
    auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : &it->second.stats;
  }

  [[nodiscard]] std::size_t session_count() const noexcept {
    return sessions_.size();
  }

  [[nodiscard]] std::size_t active_count() const noexcept {
    std::size_t n = 0;
    for (const auto& [id, s] : sessions_) {
      n += s.stats.state == SessionState::kActive ? 1 : 0;
    }
    return n;
  }

  /// The engine's accounting, read back from its cells (EngineTotals).
  /// Lock-free and safe from any thread; with a registry shared by
  /// several engines it covers all of them (see EngineCells).
  [[nodiscard]] EngineTotals totals() const { return cells_.totals(); }

  [[nodiscard]] std::vector<std::uint64_t> session_ids() const {
    std::vector<std::uint64_t> out;
    out.reserve(sessions_.size());
    for (const auto& [id, s] : sessions_) out.push_back(id);
    return out;
  }

  /// Drops a session's state (a long-lived server would do this on
  /// disconnect) -- a session closed while still kActive was aborted and
  /// counts as failed. Returns false if the id is unknown.
  bool close_session(std::uint64_t id) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) return false;
    retire(it);
    prune_cache_journal(/*force=*/true);
    return true;
  }

  /// Retires every session `owner` opened (its transport went away);
  /// active ones count as failed, as in close_session. Returns how many.
  std::size_t close_owner(std::uint64_t owner) {
    std::size_t closed = 0;
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if (it->second.stats.owner == owner) {
        retire(it++);
        ++closed;
      } else {
        ++it;
      }
    }
    if (closed != 0) prune_cache_journal(/*force=*/true);
    return closed;
  }

  /// The one rule for answering a frame that handle_frame(data, owner)
  /// rejected with `reason`: an ERROR back to the sender, unless the frame
  /// is a DONE or ERROR (its sender has moved on) or the sender itself
  /// holds a session with its id (a duplicate HELLO: an ERROR would end the
  /// sender's live session on its side). `data` must carry a routing
  /// prefix that v2::peek_session_id accepts.
  [[nodiscard]] std::optional<std::vector<std::byte>> reject_answer(
      std::span<const std::byte> data, std::uint64_t owner,
      const std::string& reason) const {
    const std::uint64_t sid = v2::peek_session_id(data);
    const auto type = static_cast<v2::FrameType>(data[0]);
    const auto it = sessions_.find(sid);
    if (type == v2::FrameType::kDone || type == v2::FrameType::kError ||
        (it != sessions_.end() && it->second.stats.owner == owner)) {
      return std::nullopt;
    }
    return v2::make_error_frame(sid, reason);
  }

  /// The one drain for the ERRORs the engine starts on its own, each paired
  /// with its session's owner: the cap evictions since the last drain, then
  /// every ACTIVE session whose last inbound frame is older than the idle
  /// deadline, failed and reclaimed (a peer that said HELLO and vanished
  /// mid-handshake would otherwise hold its slot -- and its snapshot's
  /// journal floor -- forever). Reaping is off when
  /// EngineOptions::idle_deadline_s is 0.
  std::vector<OwnedFrame> reap_idle() {
    return reap_idle(options_.idle_deadline_s);
  }

  /// Same drain against an explicit deadline (seconds of allowed silence).
  std::vector<OwnedFrame> reap_idle(double deadline_s) {
    std::vector<OwnedFrame> reaped = std::exchange(evicted_, {});
    if (deadline_s <= 0 || sessions_.empty()) return reaped;
    const double now = now_s();
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      Session& s = it->second;
      if (s.stats.state == SessionState::kActive &&
          now - s.last_activity > deadline_s) {
        s.stats.error = "idle session reaped";
        settle(s, SessionState::kFailed);
        reaped.emplace_back(s.stats.owner,
                            v2::make_error_frame(it->first, s.stats.error));
        cells_.reaped->inc();
        trace(obs::TraceKind::kReap, it->first, s.stats.backend,
              s.stats.bytes_to_peer);
        retire(it++);
      } else {
        ++it;
      }
    }
    if (!reaped.empty()) prune_cache_journal(/*force=*/true);
    return reaped;
  }

  [[nodiscard]] std::size_t item_count() const noexcept {
    return index_.size();
  }

  /// Cells of the shared rateless stream materialized so far (diagnostics).
  [[nodiscard]] std::size_t cache_cells() const noexcept {
    return cache_->materialized();
  }

  /// Churn ops currently retained for open sessions' snapshots.
  [[nodiscard]] std::size_t cache_journal_size() const noexcept {
    return cache_->journal_size();
  }

  /// Visits every item of the served set as HashedSymbols, one index stripe
  /// at a time under that stripe's lock (StripedItemIndex::for_each
  /// snapshot fuzziness applies under concurrent ingest). What a Replica
  /// uses to seed each anti-entropy client without keeping a second copy.
  template <typename Fn>
  void for_each_item(Fn&& fn) const {
    index_.for_each(std::forward<Fn>(fn));
  }

 private:
  static constexpr const char* kForeignOwner =
      "session belongs to another connection";

  struct Session {
    std::unique_ptr<ReconcilerEncoder<T>> encoder;
    /// Non-owning view of `encoder` when it is the rateless cursor backend;
    /// used for journal-pruning floors. Null for table backends.
    RibltEncoderBackend<T, Hasher>* rateless = nullptr;
    SessionStats stats;
    std::uint64_t peer_id = 0;    ///< adaptive: EWMA key (0 = anonymous)
    /// bytes_to_peer at the last inbound frame -- the pacing runway origin.
    std::uint64_t pace_mark = 0;
    /// now_s() at the last inbound frame (HELLO included): what reap_idle
    /// and cap-shedding measure idleness against.
    double last_activity = 0;
    double opened_at = 0;  ///< now_s() at the HELLO
  };

  /// The adaptive d^ for a HELLO: probe digest if carried (a valid digest
  /// of mismatched geometry -- config skew -- degrades to the fallbacks,
  /// a malformed one is a protocol error), else this peer's EWMA, else the
  /// configured default.
  [[nodiscard]] std::uint64_t estimate_diff(const v2::Frame& frame) {
    if (!frame.probe.empty()) {
      std::optional<iblt::StrataEstimator<T, Hasher>> remote;
      try {
        remote.emplace(iblt::StrataEstimator<T, Hasher>::deserialize(
            frame.probe, hasher_));
      } catch (const std::exception&) {
        throw ProtocolError("malformed adaptive probe");
      }
      try {
        remote->subtract(merged_probe());
        return std::max<std::uint64_t>(1, remote->estimate());
      } catch (const std::exception&) {
        // Shape mismatch: the peer built a different probe geometry.
      }
    }
    if (const std::uint64_t e = peer_ewma_.estimate(frame.peer_id)) return e;
    return options_.adaptive.default_d;
  }

  /// The full-set probe digest: the per-lane replicas absorbed into one
  /// (linearity; iblt::StrataEstimator::absorb). Built per HELLO-with-probe
  /// -- a handful of small IBLT copies, amortized over a whole session --
  /// so ingest lanes never contend on a single digest.
  [[nodiscard]] iblt::StrataEstimator<T, Hasher> merged_probe() {
    auto merged = [&] {
      ProbeLane& first = *probe_lanes_[0];
      const std::lock_guard<std::mutex> lk(first.mu);
      return first.probe;  // copy under the lane lock
    }();
    for (std::size_t i = 1; i < probe_lanes_.size(); ++i) {
      ProbeLane& lane = *probe_lanes_[i];
      const std::lock_guard<std::mutex> lk(lane.mu);
      merged.absorb(lane.probe);
    }
    return merged;
  }

  /// The session an inbound frame of `frame_bytes` from `owner` belongs
  /// to. Its bytes join the session's sum, or -- once the session has
  /// settled -- go straight to the cell, so stale frames still count
  /// exactly once. Another owner's frame is rejected before it touches
  /// anything of the session.
  Session& established(std::uint64_t id, std::size_t frame_bytes,
                       std::uint64_t owner) {
    auto it = sessions_.find(id);
    if (it == sessions_.end()) {
      throw ProtocolError("unknown session id");
    }
    Session& session = it->second;
    if (session.stats.owner != owner) throw ProtocolError(kForeignOwner);
    session.stats.bytes_from_peer += frame_bytes;
    if (session.stats.state != SessionState::kActive) {
      cells_.bytes_from_peers->inc(frame_bytes);
    }
    // Every attributed inbound frame is proof of life (emission does not
    // count: a server streaming into a void is exactly what reaping ends).
    session.last_activity = now_s();
    return session;
  }

  /// Drops journal entries no active rateless session can still need. The
  /// journal only accumulates while snapshot cursors are alive, and a
  /// stalled session can pin its floor indefinitely, so rescan sessions
  /// only once the journal has grown enough since the last scan (unless
  /// forced). Serving-path only (it walks sessions_): next_frame and
  /// close_session call it; ingest threads never do.
  void prune_cache_journal(bool force = false) {
    if (cache_->journal_size() == 0) {
      journal_size_at_prune_ = 0;
      report_journal_depth();
      return;
    }
    if (!force && cache_->journal_size() < journal_size_at_prune_ + 64) {
      return;
    }
    std::uint64_t min_pos = cache_->version();
    for (const auto& [id, s] : sessions_) {
      if (s.rateless != nullptr && s.stats.state == SessionState::kActive) {
        min_pos = std::min(min_pos, s.rateless->journal_position());
      }
    }
    cache_->prune_journal(min_pos);
    journal_size_at_prune_ = cache_->journal_size();
    report_journal_depth();
  }

  /// Moves the (possibly shared) journal gauge by this engine's change
  /// since its last report.
  void report_journal_depth() {
    const auto depth = static_cast<std::int64_t>(journal_size_at_prune_);
    if (depth == journal_reported_) return;
    cells_.journal_depth->add(depth - journal_reported_);
    journal_reported_ = depth;
  }

  /// Marks the session failed and builds the ERROR frame -- the containment
  /// boundary: only this session is affected.
  [[nodiscard]] std::vector<std::byte> fail(std::uint64_t id, Session& session,
                                            const std::string& reason) {
    session.stats.error = reason;
    settle(session, SessionState::kFailed);
    trace(obs::TraceKind::kError, id, session.stats.backend,
          session.stats.bytes_to_peer, session.stats.bytes_from_peer);
    return v2::make_error_frame(id, reason);
  }

  [[nodiscard]] double now_s() const {
    if (options_.clock) return options_.clock();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// The one accounting step: a session turning terminal books its
  /// outcome, its duration, and its byte, frame, and round sums into the
  /// cells, once.
  void settle(Session& session, SessionState outcome) {
    SessionStats& s = session.stats;
    s.state = outcome;
    const EngineCells::Backend& c = cells_.backend(s.backend);
    (outcome == SessionState::kDone ? c.done : c.failed)->inc();
    // HELLO to outcome on the engine's clock; a clock that steps back
    // records 0.
    const double us = (now_s() - session.opened_at) * 1e6;
    c.duration_us->record(
        us > 0 ? static_cast<std::uint64_t>(std::min(us, 1e18)) : 0);
    c.bytes_to_peer->record(s.bytes_to_peer);
    c.rounds->record(s.rounds);
    cells_.bytes_from_peers->inc(s.bytes_from_peer);
    cells_.frames_sent->inc(s.frames_sent);
  }

  /// Erases a session; one still kActive here was aborted and settles as
  /// failed first.
  void retire(typename std::map<std::uint64_t, Session>::iterator it) {
    Session& session = it->second;
    if (session.stats.state == SessionState::kActive) {
      settle(session, SessionState::kFailed);
    }
    trace(obs::TraceKind::kClose, it->first, session.stats.backend,
          session.stats.bytes_to_peer, session.stats.rounds);
    sessions_.erase(it);
  }

  /// Graceful shedding at the session cap: prefer reclaiming a slot nobody
  /// will miss (any already-terminal session retires silently); with every
  /// slot active, evict the one idle the longest -- its ERROR frame waits in
  /// the reap_idle() drain for its owner, so its peer learns the session
  /// died rather than waiting on silence. False only when there is nothing
  /// to shed (max_sessions == 0). The caller prunes the journal.
  bool shed_one() {
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (it->second.stats.state != SessionState::kActive) {
        retire(it);
        return true;
      }
    }
    auto victim = sessions_.end();
    for (auto it = sessions_.begin(); it != sessions_.end(); ++it) {
      if (victim == sessions_.end() ||
          it->second.last_activity < victim->second.last_activity) {
        victim = it;
      }
    }
    if (victim == sessions_.end()) return false;
    victim->second.stats.error = "evicted at session cap";
    settle(victim->second, SessionState::kFailed);
    evicted_.emplace_back(
        victim->second.stats.owner,
        v2::make_error_frame(victim->first, victim->second.stats.error));
    cells_.evicted->inc();
    trace(obs::TraceKind::kEvict, victim->first,
          victim->second.stats.backend, victim->second.stats.bytes_to_peer);
    retire(victim);
    return true;
  }

  // ------------------------------------------------------ observability

  /// `ts_hint` lets call sites that already computed now_s() skip a
  /// second clock read (the HELLO hot path cares); NaN = read the clock.
  void trace(obs::TraceKind kind, std::uint64_t sid, BackendId backend,
             std::uint64_t a = 0, std::uint64_t b = 0,
             double ts_hint = std::numeric_limits<double>::quiet_NaN()) {
    if (options_.tracer == nullptr) return;
    obs::TraceEvent ev;
    ev.ts_s = std::isnan(ts_hint) ? now_s() : ts_hint;
    ev.session_id = sid;
    ev.kind = kind;
    ev.backend = static_cast<std::uint8_t>(backend);
    ev.a = a;
    ev.b = b;
    options_.tracer->record(ev);
  }

  /// Steady-clock microseconds (CPU-ish timing for serve histograms).
  [[nodiscard]] static std::uint64_t steady_us() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  /// One probe-digest replica per ingest lane (adaptive d estimation),
  /// kept incrementally under churn like the cache; see merged_probe().
  struct ProbeLane {
    explicit ProbeLane(iblt::StrataEstimator<T, Hasher> p)
        : probe(std::move(p)) {}
    std::mutex mu;
    iblt::StrataEstimator<T, Hasher> probe;
  };

  /// Round-robin thread->probe-lane assignment (stable per thread).
  [[nodiscard]] static std::size_t ingest_lane() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t ordinal =
        next.fetch_add(1, std::memory_order_relaxed);
    return ordinal % kProbeLanes;
  }

  Hasher hasher_;
  EngineOptions options_;
  /// Private registry when options_.metrics is null; declared before
  /// every member holding its cells so it outlives them.
  std::unique_ptr<obs::MetricsRegistry> own_metrics_;
  EngineCells cells_;  ///< the engine's accounting (see totals())
  StripedItemIndex<T> index_;  ///< served-set membership (hash + symbol)
  std::shared_ptr<SequenceCache<T, Hasher>> cache_;  ///< the rateless stream
  std::size_t journal_size_at_prune_ = 0;  ///< rescan throttle
  std::int64_t journal_reported_ = 0;  ///< depth last added to the gauge
  std::map<std::uint64_t, Session> sessions_;
  std::vector<OwnedFrame> evicted_;  ///< eviction ERRORs awaiting reap_idle()
  std::vector<std::unique_ptr<ProbeLane>> probe_lanes_;
  adaptive::PeerEwma peer_ewma_;  ///< per-peer diff history (adaptive)
  std::uint64_t obs_cpu_sample_ = 0;  ///< 1-in-8 serve-CPU sampling phase
};

/// Client side of one engine session: produces HELLO, absorbs SYMBOLS,
/// answers with ROUND requests (round-based backends) and the closing DONE.
template <Symbol T, typename Hasher = SipHasher<T>>
class SyncClient {
 public:
  SyncClient(std::uint64_t session_id, BackendId backend,
             Hasher hasher = Hasher{}, ReconcilerConfig config = {})
      : session_id_(session_id),
        backend_(backend),
        hasher_(std::move(hasher)),
        config_(std::move(config)) {
    if (session_id == 0) {
      throw std::invalid_argument("SyncClient: session id 0 is reserved");
    }
  }

  /// Adds a local set item; must precede hello(). The item is hashed once
  /// here and the HashedSymbol reused end-to-end (decoder seeding included),
  /// mirroring the server's hash-once discipline.
  void add_item(const T& item) { add_hashed_item(hasher_.hashed(item)); }

  /// Pre-hashed variant: a client opening a second session (or a
  /// ShardedClient splitting one set across shards) reuses the hashes it
  /// already computed instead of re-hashing the whole set per session.
  void add_hashed_item(const HashedSymbol<T>& item) {
    if (state_ != State::kIdle) {
      throw std::logic_error("SyncClient: items must precede hello()");
    }
    items_.push_back(item);
  }

  /// Declares the sharded-topology identity this session's HELLO carries
  /// (index within count). Must precede hello(); count 0 means unsharded.
  void set_shard(std::uint32_t index, std::uint32_t count) {
    if (state_ != State::kIdle) {
      throw std::logic_error("SyncClient: set_shard must precede hello()");
    }
    if (count != 0 && index >= count) {
      throw std::invalid_argument("SyncClient: shard index out of range");
    }
    shard_index_ = index;
    shard_count_ = count;
  }

  /// Requests adaptive negotiation: the HELLO carries the flag, this
  /// peer_id (a stable identity for the server's per-peer EWMA; 0 =
  /// anonymous), and -- when `send_probe` -- a tiny strata digest of the
  /// local set for a first-contact d estimate. The server may then grant
  /// a different backend than requested; handle_frame adopts it from the
  /// HELLO_ACK. Must precede hello().
  void set_adaptive(std::uint64_t peer_id, bool send_probe = true) {
    if (state_ != State::kIdle) {
      throw std::logic_error("SyncClient: set_adaptive must precede hello()");
    }
    adaptive_ = true;
    peer_id_ = peer_id;
    send_probe_ = send_probe;
  }

  /// The opening frame; call exactly once.
  [[nodiscard]] std::vector<std::byte> hello() {
    if (state_ != State::kIdle) throw ProtocolError("duplicate HELLO");
    state_ = State::kAwaitAck;
    v2::Frame frame;
    frame.type = v2::FrameType::kHello;
    frame.session_id = session_id_;
    frame.backend = static_cast<std::uint8_t>(backend_);
    frame.item_size = static_cast<std::uint32_t>(T::kSize);
    frame.checksum_len = config_.checksum_len;
    frame.count_residuals =
        config_.count_residuals && backend_ == BackendId::kRiblt;
    frame.shard_index = shard_index_;
    frame.shard_count = shard_count_;
    frame.adaptive = adaptive_;
    frame.peer_id = peer_id_;
    if (adaptive_ && send_probe_) {
      auto probe = adaptive::make_probe<T, Hasher>(hasher_);
      for (const auto& x : items_) probe.add_hashed(x);
      frame.probe = probe.serialize(adaptive::kProbeChecksumLen);
    }
    return v2::encode_frame(frame);
  }

  /// Consumes one server->client frame; returns the client->server frames
  /// to send back (ROUND escalations, the final DONE; often empty). Throws
  /// ProtocolError on out-of-order or mis-addressed frames.
  std::vector<std::vector<std::byte>> handle_frame(
      std::span<const std::byte> data) {
    const v2::Frame frame = v2::parse_frame(data);
    if (frame.session_id != session_id_) {
      throw ProtocolError("frame for a different session");
    }
    std::vector<std::vector<std::byte>> out;
    switch (frame.type) {
      case v2::FrameType::kHelloAck: {
        if (state_ != State::kAwaitAck) {
          throw ProtocolError("unexpected HELLO_ACK");
        }
        if (frame.adaptive && !adaptive_) {
          throw ProtocolError("HELLO_ACK grants unrequested adaptive mode");
        }
        // An adaptive grant carries the server's backend *choice*; only a
        // non-adaptive ACK must echo the requested backend verbatim.
        if (frame.adaptive) {
          if (!backend_known(frame.backend)) {
            throw ProtocolError("HELLO_ACK grants unknown backend");
          }
          backend_ = static_cast<BackendId>(frame.backend);
          granted_ = true;
          d_estimate_ = frame.d_estimate;
          pace_cap_ = frame.pace_cap;
        } else if (frame.backend != static_cast<std::uint8_t>(backend_)) {
          throw ProtocolError("HELLO_ACK backend mismatch");
        }
        if (frame.checksum_len != 4 && frame.checksum_len != 8) {
          throw ProtocolError("HELLO_ACK checksum width invalid");
        }
        if (frame.count_residuals && !config_.count_residuals) {
          throw ProtocolError("HELLO_ACK grants unrequested count residuals");
        }
        // Adopt the server's effective checksum width (it may clamp our
        // narrow-checksum request for backends that do not support it) and
        // its count-residual grant + anchor (it may clamp the request off).
        config_.checksum_len = frame.checksum_len;
        config_.count_residuals = frame.count_residuals;
        config_.residual_anchor = frame.count_residuals ? frame.value : 0;
        decoder_ = make_reconciler_decoder<T>(backend_, config_, hasher_);
        for (const auto& x : items_) decoder_->add_hashed_item(x);
        // The decoder owns the set now; holding a second copy for the
        // session's lifetime would double per-client memory.
        items_.clear();
        items_.shrink_to_fit();
        state_ = State::kActive;
        return out;
      }
      case v2::FrameType::kSymbols: {
        if (state_ == State::kIdle || state_ == State::kAwaitAck) {
          throw ProtocolError("SYMBOLS before HELLO");
        }
        if (state_ != State::kActive) return out;  // stale in-flight frame
        try {
          decoder_->absorb(frame.payload);
        } catch (const std::exception& e) {
          // Malformed payloads AND data-path dead ends (e.g. a difference
          // past MET-IBLT's deepest block) are contained: this session
          // fails and the server is told to stop streaming, instead of an
          // exception wedging the session open on both ends.
          state_ = State::kFailed;
          error_ = e.what();
          out.push_back(v2::make_error_frame(session_id_, error_));
          return out;
        }
        payload_bytes_ += frame.payload.size();
        if (decoder_->decoded()) {
          diff_ = decoder_->diff();
          state_ = State::kComplete;
          v2::Frame done;
          done.type = v2::FrameType::kDone;
          done.session_id = session_id_;
          done.value = payload_bytes_;
          if (granted_) {
            // Feed the server's per-peer EWMA (only a peer that granted
            // adaptive mode understands the DONE extension).
            done.diff_count = diff_.remote.size() + diff_.local.size();
          }
          out.push_back(v2::encode_frame(done));
        } else if (auto request = decoder_->round_request()) {
          ++rounds_;
          v2::Frame round;
          round.type = v2::FrameType::kRound;
          round.session_id = session_id_;
          round.payload = std::move(*request);
          out.push_back(v2::encode_frame(round));
        } else if (pace_cap_ != 0) {
          // Paced stream: renew the server's emission runway with an empty
          // ROUND credit once we are half a cap past the last one, so the
          // next credit is in flight before the server stalls.
          credit_bytes_ += data.size();
          if (2 * credit_bytes_ >= pace_cap_) {
            credit_bytes_ = 0;
            ++credits_;
            v2::Frame credit;
            credit.type = v2::FrameType::kRound;
            credit.session_id = session_id_;
            out.push_back(v2::encode_frame(credit));
          }
        }
        return out;
      }
      case v2::FrameType::kError: {
        // Terminal states stick: a stale/crossing ERROR (e.g. the server's
        // emit failure racing our DONE) must not unsettle a session that
        // already completed or failed.
        if (state_ == State::kComplete || state_ == State::kFailed) {
          return out;
        }
        state_ = State::kFailed;
        error_ = v2::error_text(frame);
        return out;
      }
      default:
        throw ProtocolError("unexpected client-to-server frame type");
    }
  }

  /// True once hello() has been produced.
  [[nodiscard]] bool started() const noexcept {
    return state_ != State::kIdle;
  }
  [[nodiscard]] bool complete() const noexcept {
    return state_ == State::kComplete;
  }
  [[nodiscard]] bool failed() const noexcept {
    return state_ == State::kFailed;
  }
  [[nodiscard]] const std::string& error() const noexcept { return error_; }
  /// The recovered symmetric difference; meaningful once complete().
  [[nodiscard]] const SetDiff<T>& diff() const noexcept { return diff_; }
  [[nodiscard]] std::uint64_t session_id() const noexcept {
    return session_id_;
  }
  [[nodiscard]] BackendId backend() const noexcept { return backend_; }
  /// SYMBOLS payload bytes absorbed (the DONE frame reports this number).
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept {
    return payload_bytes_;
  }
  [[nodiscard]] std::uint32_t rounds() const noexcept { return rounds_; }
  [[nodiscard]] std::uint8_t checksum_len() const noexcept {
    return config_.checksum_len;
  }
  /// True once the server granted adaptive mode (HELLO_ACK flag).
  [[nodiscard]] bool adaptive_granted() const noexcept { return granted_; }
  /// The server's d estimate from the grant (0 until granted).
  [[nodiscard]] std::uint64_t d_estimate() const noexcept {
    return d_estimate_;
  }
  /// The emission runway granted (0 = unpaced session).
  [[nodiscard]] std::uint64_t pace_cap() const noexcept { return pace_cap_; }
  /// Pacing credits sent so far.
  [[nodiscard]] std::uint32_t credits() const noexcept { return credits_; }

 private:
  enum class State : std::uint8_t {
    kIdle,
    kAwaitAck,
    kActive,
    kComplete,
    kFailed,
  };

  std::uint64_t session_id_;
  BackendId backend_;
  Hasher hasher_;
  ReconcilerConfig config_;
  std::uint32_t shard_index_ = 0;
  std::uint32_t shard_count_ = 0;  ///< 0 = unsharded
  bool adaptive_ = false;          ///< request adaptive negotiation
  bool send_probe_ = false;        ///< attach the strata probe to HELLO
  bool granted_ = false;           ///< server granted adaptive mode
  std::uint64_t peer_id_ = 0;
  std::uint64_t d_estimate_ = 0;   ///< server's d^ from the grant
  std::uint64_t pace_cap_ = 0;     ///< emission runway (0 = unpaced)
  std::uint64_t credit_bytes_ = 0; ///< bytes absorbed since last credit
  std::uint32_t credits_ = 0;
  std::vector<HashedSymbol<T>> items_;  ///< hashed once, reused everywhere
  std::unique_ptr<ReconcilerDecoder<T>> decoder_;
  State state_ = State::kIdle;
  std::uint64_t payload_bytes_ = 0;
  std::uint32_t rounds_ = 0;
  SetDiff<T> diff_;
  std::string error_;
};

}  // namespace ribltx::sync
