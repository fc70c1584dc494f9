// Adaptive per-peer backend negotiation: the paper's headline property --
// communication that scales with the actual difference d, not the set size
// -- applied one layer up, to the choice of backend itself.
//
// Three pieces close the loop (rate-compatible reconciliation, Lazaro &
// Matuz arXiv:2211.05472, is the theory anchor):
//
//   1. A cheap up-front d estimate. The client may attach a small strata
//      probe digest to its HELLO (kProbe* geometry below -- 16 strata x 4
//      cells, k=3, narrow checksums: ~1.3 KB for 8-byte items, ~3.6 KB for
//      32-byte ones, first contact only). The server subtracts its own live
//      digest and reads a power-of-two-grade estimate. Without a probe the
//      server falls back to a per-peer EWMA of past session diffs
//      (PeerEwma), then to a configured default.
//
//   2. A cost model (estimate_cost / choose_backend) that prices each
//      backend's bytes, round trips, and serving CPU for that d against a
//      LinkProfile, and picks the cheapest. The byte formulas mirror the
//      real codec sizing rules in sync/reconciler.hpp (CPI's power-of-two
//      evaluation ladder, the strata estimator's fixed wire cost plus a
//      2x-overprovisioned table, MET's cumulative level boundaries, the
//      rateless stream's ~1.35d symbols plus its pacing runway). The CPU
//      surface is the serving engine's nanoseconds, priced with measured
//      per-operation constants (kServeNs* below): the engine is the
//      resource every peer shares. A fat loopback link converts a serving
//      ns to bytes at what the transport spends per wire byte, so there
//      the stream wins for any set past ~100 items; a thin link makes
//      bytes dominate, and CPI wins the small-d cells.
//
//   3. An emission pace for the one backend that streams unboundedly: a
//      granted rateless session carries a pace_cap -- the server pauses
//      once it is cap bytes past the last inbound frame, and the client
//      renews the runway with empty ROUND "credit" frames. This bounds a
//      session's overshoot past its useful prefix to the cap, so one slow
//      peer multiplexed on a fat connection cannot eat the shared
//      SocketServer watermark, and a lossy SimConduit link is never asked
//      to carry a window full of symbols the peer already decoded past.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "core/symbol.hpp"
#include "iblt/strata.hpp"
#include "sync/reconciler.hpp"

namespace ribltx::sync::adaptive {

/// Probe digest geometry -- a protocol constant, not a tunable: both ends
/// must build the same shape for the subtract to be meaningful, and the
/// server rejects nothing on mismatch (it just falls back to the EWMA), so
/// skewed builds degrade gracefully. 16 strata x 4 cells x k=3 with
/// narrow checksums is 96 cells (Iblt rounds each stratum up to 6 cells,
/// a multiple of k): enough for an order-of-magnitude d estimate (which is
/// all backend choice needs). Serialized: 1261 B empty and 1297 B at 10^4
/// items for 8-byte items (test_engine pins the empty size), 3565-3601 B
/// for 32-byte items.
inline constexpr std::size_t kProbeStrata = 16;
inline constexpr std::size_t kProbeCells = 4;
inline constexpr unsigned kProbeK = 3;
inline constexpr std::uint8_t kProbeChecksumLen = 4;

template <Symbol T, typename Hasher>
[[nodiscard]] iblt::StrataEstimator<T, Hasher> make_probe(Hasher hasher) {
  return iblt::StrataEstimator<T, Hasher>(kProbeStrata, kProbeCells, kProbeK,
                                          std::move(hasher));
}

/// Serving-side CPU per codec operation, in nanoseconds: what the cost
/// model charges a backend for the engine's share of one session (the
/// client's decode is the peer's own CPU and is not priced; CPI's cubic
/// decode stays behind cpi_feasible instead). Measured, never calibrated
/// at runtime, so grants stay deterministic. The loopback section of
/// `bench_extra_adaptive_backend` (default scale) prints the measured
/// value beside each constant: a warm SyncEngine at n = 5000 (a ribltbench
/// `small` shard), engine calls only (the emit path for the multiply and
/// the symbol, whole sessions for the table items), thread CPU, min of 5.
/// These were committed from it on a 4-vCPU x86-64 Xeon, GCC 12.2 -O3
/// (Release), Linux 6.18, where runs read 37-45 / 36-61 / 52-65 /
/// 297-326 ns. Re-measure when a codec's hot loop changes.
///
/// One GF(2^64) multiply in the portable CPI evaluation loop; a CPI
/// session evaluates its n items at `cap` points, n x cap of them.
inline constexpr double kServeNsPerGf64Mul = 40;
/// One rateless symbol streamed from a warm SequenceCache cursor.
inline constexpr double kServeNsPerStreamSymbol = 38;
/// One item of an iblt+strata session: folded into the strata estimator
/// and one sized table, over the whole session (~95 ns at n = 5*10^4).
inline constexpr double kServeNsPerIbltItem = 55;
/// One item folded into a MET-IBLT table (every level, up front). At
/// n = 5000 this includes the table's fixed ~2.4 MB (98,304 cells); the
/// marginal fold alone is ~180-220 ns at n = 5*10^4.
inline constexpr double kServeNsPerMetItem = 310;

/// Serving CPU per loopback wire byte: the transport work (syscalls,
/// copies, framing) a byte costs the serving side on a fat local link.
/// From the committed ribltbench trace (bench/ribltbench/results/
/// trace-seed7.json, `unpaced`: net.server_cpu_us = 1935 us per session
/// of ~254 KB on the wire), i.e. 7.6 ns per byte.
inline constexpr double kLoopbackServeNsPerWireByte = 7.6;

/// What the serving layer knows about the link a session crosses. The two
/// non-byte cost surfaces are expressed in byte equivalents so the model
/// stays a single scalar: round_cost_bytes is what one extra round trip is
/// worth (latency + per-frame overhead), cpu_cost is what one nanosecond
/// of serving CPU is worth, in bytes per ns.
struct LinkProfile {
  double loss_rate = 0.0;        ///< expected segment loss fraction
  double round_cost_bytes = 64;  ///< byte value of one extra round trip
  /// Byte value of one serving nanosecond (bytes per ns).
  double cpu_cost = 1.0 / kLoopbackServeNsPerWireByte;
  /// Fat local links: rounds are nearly free and serving is CPU-bound, so
  /// a serving ns costs what the transport pays per wire byte -- a codec
  /// that saves B bytes must not spend more than B x 7.6 ns doing it.
  [[nodiscard]] static LinkProfile loopback() {
    return {0.0, 64, 1.0 / kLoopbackServeNsPerWireByte};
  }
  /// Thin/lossy links (SimConduit): every byte may be sent 1/(1-loss)
  /// times, a round trip costs real time and retransmit exposure, and the
  /// link -- not the CPU -- is the bottleneck: one byte is worth 2^16 ns
  /// (65.5 us) of serving CPU. The binding cells are the adaptive bench's
  /// d = 1 ones (n = 201), where CPI undercuts the stream by ~5.6 B of
  /// 256: above ~4e-5 B/ns they would flip to the stream, whose 256 B
  /// runway fails the bench's 1.10x gate against fixed CPI's 150 B.
  [[nodiscard]] static LinkProfile lossy(double loss) {
    return {loss, 2048, 1.0 / 65536};
  }
};

/// Tuning for the adaptive grant path (EngineOptions::adaptive).
struct AdaptiveOptions {
  bool enabled = true;        ///< grant adaptive negotiation when requested
  std::uint64_t default_d = 64;  ///< no probe, no history
  std::size_t max_peers = 65536;  ///< EWMA table bound (evicts beyond)
};

/// PeerEwma's weight of the newest observed diff.
inline constexpr double kEwmaAlpha = 0.25;

/// Pacing runway = clamp(kPaceSlack * expected stream bytes, kMinPaceCap,
/// kMaxPaceCap). The cap bounds overshoot past the last inbound frame, so
/// the max matters most: a few frame budgets keeps the stream pipelined
/// (credits arrive before the server stalls) while bounding wasted symbols
/// to that same few-KB runway.
inline constexpr double kPaceSlack = 1.4;
inline constexpr std::uint64_t kMinPaceCap = 256;
inline constexpr std::uint64_t kMaxPaceCap = 2048;

/// Worst-case wire bytes of one rateless stream symbol (symbol + checksum
/// + svarint count) -- the pacing slop that guarantees a frame emitted
/// under a clamped budget never crosses the cap.
template <Symbol T>
[[nodiscard]] constexpr std::size_t max_symbol_wire(
    std::uint8_t checksum_len) noexcept {
  return T::kSize + checksum_len + 10;
}

/// Frame header worst case (type + uvarint sid + uvarint len).
inline constexpr std::size_t kFrameHeaderSlop = 16;

/// The largest d^ the model is ever handed. A DONE's diff count is any
/// u64 a peer sends, so it is clamped on its way into the EWMA, and the
/// engine clamps the d^ it hands the model (probe and default included):
/// past this the EWMA's rounding cast, pace_cap_for's scaling and the CPI
/// ladder's bit_ceil overflow. No set one engine serves comes near it.
inline constexpr std::uint64_t kMaxDiffEstimate = std::uint64_t{1} << 32;

/// The one-shot CPI capacity for an estimated difference: the same
/// power-of-two ladder the fixed escalation walks, picked up front (a 12%
/// margin absorbs estimate error; the decoder still escalates if it was
/// not enough). Prefix reuse means guessing high costs only the gap to
/// the next power of two -- exactly what the fixed ladder would have sent.
[[nodiscard]] inline std::uint64_t cpi_capacity_for(
    std::uint64_t d, const ReconcilerConfig& config) {
  const std::uint64_t margin = d + d / 8 + 1;
  return std::bit_ceil(
      std::max<std::uint64_t>(config.cpi_initial_capacity, margin));
}

/// CPI decode is O(capacity^3): past a few hundred evaluation points the
/// CPU bill dwarfs any byte win, so both the adaptive chooser and the
/// bench's fixed-backend cells draw the feasibility line with this same
/// predicate -- they must agree on where CPI stops being a candidate.
inline constexpr std::uint64_t kMaxAdaptiveCpiCapacity = 256;

template <Symbol T>
[[nodiscard]] bool cpi_feasible(std::uint64_t d,
                                const ReconcilerConfig& config) {
  return T::kSize == 8 && cpi_capacity_for(d, config) <= kMaxAdaptiveCpiCapacity;
}

/// Predicted cost surfaces for one backend at one estimated d; the
/// LinkProfile's rates turn them into one byte-equivalent scalar.
struct CostEstimate {
  double bytes = 0;   ///< session wire bytes, both directions
  double rounds = 0;  ///< blocking round trips before completion
  double cpu = 0;     ///< serving-side CPU, ns (the kServeNs* constants)
};

/// The pacing runway granted to a rateless session (0 would mean unpaced;
/// this always returns a positive cap).
template <Symbol T>
[[nodiscard]] std::uint64_t pace_cap_for(std::uint64_t d,
                                         std::uint8_t checksum_len) {
  const double sym =
      static_cast<double>(T::kSize + checksum_len + 2);  // typical count
  const double expected = (1.35 * static_cast<double>(d) + 1.0) * sym;
  const auto scaled = static_cast<std::uint64_t>(kPaceSlack * expected);
  // Never clamp below what one clamped-budget frame needs to make
  // progress: a cap smaller than slop + one symbol would pause forever.
  const std::uint64_t floor_cap =
      std::max(kMinPaceCap,
               2 * (max_symbol_wire<T>(checksum_len) + kFrameHeaderSlop));
  return std::clamp(scaled, floor_cap, std::max(floor_cap, kMaxPaceCap));
}

/// Prices one backend at one estimated d. `set_size` is the server set
/// (the table backends' serving CPU scales with it); formulas mirror
/// reconciler.hpp's actual sizing so the ranking tracks the measured byte
/// surface.
template <Symbol T>
[[nodiscard]] CostEstimate estimate_cost(BackendId backend, std::uint64_t d,
                                         std::size_t set_size,
                                         std::uint8_t checksum_len,
                                         const ReconcilerConfig& config) {
  const double n = static_cast<double>(set_size);
  const double dd = static_cast<double>(std::max<std::uint64_t>(d, 1));
  const double cell = static_cast<double>(T::kSize) + checksum_len + 1.5;
  CostEstimate out;
  switch (backend) {
    case BackendId::kRiblt: {
      // ~1.35d coded symbols to decode -- but a rateless encoder fills
      // whatever runway it is granted immediately (it cannot know d), so
      // the session never costs less than the pacing cap, and past the
      // useful prefix it streams about half a runway before the DONE
      // lands. bytes = max(cap, 1.05*stream + cap/2).
      const double stream = (1.35 * dd + 1.0) * (cell + 0.5);
      const double runway =
          static_cast<double>(pace_cap_for<T>(d, checksum_len));
      out.bytes = std::max(runway, stream * 1.05 + runway / 2);
      out.rounds = 0;  // credits pipeline; they never block the stream
      // Every byte streamed is a symbol read off the shared cursor.
      out.cpu = out.bytes / (cell + 0.5) * kServeNsPerStreamSymbol;
      break;
    }
    case BackendId::kIbltStrata: {
      // Fixed-price estimator exchange, then a table over-provisioned 2
      // cells per estimated difference (reconciler.hpp escalation rule).
      const double estimator =
          static_cast<double>(config.strata_num_strata *
                              config.strata_cells_per_stratum) * cell + 13;
      const double table =
          std::max<double>(static_cast<double>(config.iblt_min_cells),
                           2.0 * dd) * cell;
      out.bytes = estimator + table * 1.1;
      out.rounds = 2;
      out.cpu = n * kServeNsPerIbltItem;
      break;
    }
    case BackendId::kCpi: {
      const double cap =
          static_cast<double>(cpi_capacity_for(d, config));
      out.bytes = cap * 8.0 + 20.0;
      out.rounds = 0.05;  // one-shot capacity; the 12% margin makes the
                          // escalation round trip rare
      // Serving evaluates the set polynomial at cap points. The client's
      // cap-sized rational solve (the O(cap^3) wall) is what
      // kMaxAdaptiveCpiCapacity guards.
      out.cpu = n * cap * kServeNsPerGf64Mul;
      break;
    }
    case BackendId::kMetIblt: {
      // Cumulative extension blocks up to the first level whose target
      // covers d (MetConfig::recommended() boundaries).
      const auto& met = config.met;
      std::size_t level = met.targets.size() - 1;
      for (std::size_t i = 0; i < met.targets.size(); ++i) {
        if (static_cast<double>(met.targets[i]) >= dd) {
          level = i;
          break;
        }
      }
      out.bytes =
          static_cast<double>(met.cumulative_cells(level)) * cell + 8;
      out.rounds = static_cast<double>(level) + 1.0;
      out.cpu = n * kServeNsPerMetItem;
      break;
    }
  }
  return out;
}

[[nodiscard]] inline double link_cost(const CostEstimate& e,
                                      const LinkProfile& link) {
  return e.bytes / (1.0 - std::min(link.loss_rate, 0.9)) +
         e.rounds * link.round_cost_bytes + e.cpu * link.cpu_cost;
}

/// Picks the cheapest feasible backend for an adaptive session. The
/// requested backend is always a candidate (the client can decode it by
/// construction); CPI joins only inside its feasibility envelope.
template <Symbol T>
[[nodiscard]] BackendId choose_backend(BackendId requested, std::uint64_t d,
                                       std::size_t set_size,
                                       std::uint8_t checksum_len,
                                       const ReconcilerConfig& config,
                                       const LinkProfile& link) {
  const BackendId candidates[] = {BackendId::kRiblt, BackendId::kIbltStrata,
                                  BackendId::kCpi, BackendId::kMetIblt};
  BackendId best = requested;
  double best_cost = link_cost(
      estimate_cost<T>(requested, d, set_size, checksum_len, config), link);
  for (const BackendId b : candidates) {
    if (b == requested) continue;
    if (b == BackendId::kCpi && !cpi_feasible<T>(d, config)) continue;
    const double cost = link_cost(
        estimate_cost<T>(b, d, set_size, checksum_len, config), link);
    if (cost < best_cost) {
      best = b;
      best_cost = cost;
    }
  }
  return best;
}

/// Per-peer EWMA of observed session diffs -- the probe-free estimate for
/// peers that reconcile repeatedly (the common steady state: a node
/// re-syncing the same neighbors converges to their churn rate).
class PeerEwma {
 public:
  explicit PeerEwma(std::size_t max_peers = 65536) : max_peers_(max_peers) {}

  /// Folds one observed diff for a peer (peer id 0 = anonymous: ignored),
  /// clamped to kMaxDiffEstimate.
  void observe(std::uint64_t peer_id, std::uint64_t diff) {
    if (peer_id == 0) return;
    diff = std::min(diff, kMaxDiffEstimate);
    auto it = ewma_.find(peer_id);
    if (it == ewma_.end()) {
      if (ewma_.size() >= max_peers_) ewma_.erase(ewma_.begin());
      ewma_.emplace(peer_id, static_cast<double>(diff));
      return;
    }
    it->second = (1.0 - kEwmaAlpha) * it->second +
                 kEwmaAlpha * static_cast<double>(diff);
  }

  /// The current estimate for a peer, or 0 when it has no history.
  [[nodiscard]] std::uint64_t estimate(std::uint64_t peer_id) const {
    const auto it = ewma_.find(peer_id);
    if (it == ewma_.end()) return 0;
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(it->second + 0.5));
  }

  [[nodiscard]] std::size_t size() const noexcept { return ewma_.size(); }

 private:
  std::size_t max_peers_;
  std::unordered_map<std::uint64_t, double> ewma_;
};

}  // namespace ribltx::sync::adaptive
