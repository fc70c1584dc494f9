// Reconciliation sessions over the simulated network: the two protocols of
// the paper's §7.3 Ethereum experiment.
//
//  * Rateless IBLT streaming: Bob opens a connection (half a round of
//    interactivity); Alice streams coded symbols from her universal
//    sequence at line rate; Bob peels incrementally and closes the stream
//    once decoded. First byte lands 1 RTT after open (Fig 13).
//  * Merkle state heal: lock-step rounds; each round Bob requests the
//    frontier of missing trie nodes and Alice returns their bodies. The
//    link idles while requests/responses are in flight, and Bob's per-node
//    processing makes the protocol compute-bound at higher bandwidths
//    (Fig 14's plateau).
//
// Planning (how many symbols / which nodes) runs on the real data
// structures; timing replays the plan through netsim with a calibrated CPU
// model (CpuModel below: per-operation costs fitted to the paper's
// compute-bound anchors, standing in for its testbed hardware).
#pragma once

#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/riblt.hpp"
#include "merkle/heal.hpp"
#include "netsim/sim.hpp"

namespace ribltx::sync {

/// Per-operation CPU costs, calibrated so the simulation reproduces the
/// paper's compute-bound anchors: the Rateless IBLT receiver saturates a
/// ~170 Mbps link with one core (=> ~5 us per 92-byte coded symbol), and
/// state heal plateaus at ~20 Mbps (=> ~60 us per trie node).
struct CpuModel {
  double bob_symbol_s = 5e-6;   ///< decode work per coded symbol
  double bob_node_s = 6e-5;     ///< verify/persist work per healed node
  double alice_node_s = 1e-5;   ///< node lookup/serve work
};

/// Outcome of the Rateless IBLT planning stage: the exact wire size of
/// every coded symbol Bob needed, computed by running the real
/// encoder/decoder pair on the real sets.
struct RibltPlan {
  std::vector<std::uint32_t> frame_bytes;  ///< one entry per coded symbol
  std::size_t coded_symbols = 0;
  std::size_t differences = 0;  ///< |A (-) B| recovered
  std::size_t total_bytes = 0;
};

/// Runs real reconciliation between `alice_items` and `bob_items` and
/// records the coded-symbol stream Bob consumed. `expected_d` sizes Alice's
/// materialized sequence (grown automatically if the decode needs more).
/// Frames are accounted with the paper's §6 count compression: 8-byte
/// checksum plus a varint residual against N*rho(i).
template <Symbol T>
[[nodiscard]] RibltPlan plan_riblt_sync(const std::vector<T>& alice_items,
                                        const std::vector<T>& bob_items,
                                        std::size_t expected_d) {
  RibltPlan plan;
  // Materialize ~2x the Fig 5 worst-case overhead worth of cells; the
  // retry loop below doubles on the (rare) runs that need more.
  const double d_hint = static_cast<double>(std::max<std::size_t>(expected_d, 4));
  std::size_t bound = std::max<std::size_t>(
      64, static_cast<std::size_t>(2.8 * d_hint));
  for (int attempt = 0; attempt < 8; ++attempt) {
    Sketch<T> alice(bound), bob(bound);
    for (const auto& x : alice_items) alice.add_symbol(x);
    for (const auto& y : bob_items) bob.add_symbol(y);
    Sketch<T> diff = alice;
    diff.subtract(bob);

    Decoder<T> dec;
    std::size_t used = 0;
    for (const auto& cell : diff.cells()) {
      dec.add_coded_symbol(cell);
      ++used;
      if (dec.decoded()) break;
    }
    if (!dec.decoded()) {
      bound *= 2;  // unlucky tail: enlarge Alice's materialized prefix
      continue;
    }

    plan.coded_symbols = used;
    plan.differences = dec.remote().size() + dec.local().size();
    plan.frame_bytes.reserve(used);
    const auto n = static_cast<std::uint64_t>(alice_items.size());
    for (std::size_t i = 0; i < used; ++i) {
      // Alice streams *her* cells; count rides as a residual vs N*rho(i).
      const std::int64_t residual =
          alice.cells()[i].count - wire::expected_count(n, i);
      const auto bytes = static_cast<std::uint32_t>(
          T::kSize + 8 + uvarint_size(zigzag_encode(residual)));
      plan.frame_bytes.push_back(bytes);
      plan.total_bytes += bytes;
    }
    return plan;
  }
  throw std::runtime_error("plan_riblt_sync: decode did not converge");
}

/// Network/timing outcome of a simulated session.
struct SessionResult {
  double completion_s = 0;     ///< Bob's sync completion time
  std::size_t bytes_down = 0;  ///< Alice -> Bob
  std::size_t bytes_up = 0;    ///< Bob -> Alice
  double interactive_rounds = 0;
  /// Downstream deliveries (feed to netsim::BandwidthTrace for Fig 13).
  std::vector<netsim::Delivery> downstream;
};

/// Replays a Rateless IBLT plan over a simulated link. Timeline: Bob's
/// request departs at t=0; Alice streams all frames back-to-back; Bob's
/// completion is when he finishes processing the last frame he needed.
[[nodiscard]] SessionResult run_riblt_session(const RibltPlan& plan,
                                              const netsim::LinkConfig& link,
                                              const CpuModel& cpu = {});

/// Replays a state-heal plan (lock-step rounds) over a simulated link.
[[nodiscard]] SessionResult run_heal_session(const merkle::HealPlan& plan,
                                             const netsim::LinkConfig& link,
                                             const CpuModel& cpu = {});

/// Request/keepalive message size used by both sessions.
inline constexpr std::size_t kRequestBytes = 64;

}  // namespace ribltx::sync
