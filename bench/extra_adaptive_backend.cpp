// Extension bench: the adaptive negotiation path (sync/adaptive.hpp)
// against every fixed backend, in two sections.
//
// SimConduit (the thin-link profile, LinkProfile::lossy). Sweeps d in
// {1,10,100,1000} x loss in {0,1,5}% over a SimConduit (bounded window,
// go-back-N, seeded deterministic loss) and reports, per cell:
//
//  * one fixed-backend session per backend (CPI only inside the shared
//    cpi_feasible() envelope -- the same rule the adaptive chooser uses,
//    so bench and engine agree by construction on where CPI competes);
//  * the adaptive path in steady state: the client probes on first
//    contact, later sessions ride the server's per-peer EWMA; the cell
//    reports the LAST of `warm` sessions (the common case: a node
//    re-syncing the same neighbor), plus the first-contact cost.
//
// Its check (nonzero exit on violation): adaptive session bytes within
// 10% of the best fixed backend on EVERY cell. Fixed rateless shows why
// pacing matters: unpaced, the server fills the conduit window with
// symbols the client never needed, at every d.
//
// Loopback (in memory, the fat-link profile, LinkProfile::loopback). One
// warm SyncEngine per set size n serves fixed-backend sessions whose
// frames cross synchronously; only the engine's calls are timed, in
// thread CPU, min of up to 5 runs. It prices every backend at n in
// {2500, 5000, 5*10^4} x d in {1, 12, 56, 100, 1000} as serve_ns x
// loopback().cpu_cost + wire bytes + rounds x round_cost_bytes, then
// prints the measured per-operation serving costs beside the kServeNs*
// constants sync/adaptive.hpp commits. Its check: the model's loopback
// pick costs at most 1.25x the cheapest backend measured on every cell.
// The timing check skips itself under sanitizers; failed sessions always
// fail the run. --smoke stops at d = 100, skips the 1% loss column and
// the n = 5*10^4 loopback cells (~2 s; ~5 s at default scale).
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <deque>
#include <limits>
#include <string>
#include <vector>

#include "benchutil.hpp"
#include "core/wire.hpp"
#include "net/sim_conduit.hpp"
#include "sync/adaptive.hpp"
#include "sync/engine.hpp"

namespace {

using namespace ribltx;
using sync::BackendId;

/// Every backend, in wire-id order (index = wire id - 1).
constexpr BackendId kBackends[] = {BackendId::kRiblt, BackendId::kIbltStrata,
                                   BackendId::kCpi, BackendId::kMetIblt};

struct Sets {
  std::vector<U64Symbol> both, only_a, only_b;
};

Sets make_sets(std::size_t shared, std::size_t d, std::uint64_t seed) {
  Sets s;
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < shared; ++i) {
    s.both.push_back(U64Symbol::from_u64(rng.next() | 1));
  }
  for (std::size_t i = 0; i < d / 2; ++i) {
    s.only_b.push_back(U64Symbol::from_u64(rng.next() | 1));
  }
  for (std::size_t i = 0; i < d - d / 2; ++i) {
    s.only_a.push_back(U64Symbol::from_u64(rng.next() | 1));
  }
  return s;
}

struct SessionOutcome {
  bool ok = false;
  std::uint64_t bytes_down = 0;  ///< SYMBOLS frame bytes emitted
  std::uint64_t bytes_up = 0;    ///< HELLO/ROUND/DONE (credits included)
  std::uint64_t link_bytes = 0;  ///< both directions incl. retransmits/ACKs
  std::uint32_t rounds = 0;
  std::uint32_t credits = 0;
  BackendId chosen{};
};

/// One session over a lossy SimConduit, event-driven: the server pumps
/// while the window is open (and its pacing runway allows), exactly the
/// test_net_sim harness shape.
SessionOutcome run_session(sync::SyncEngine<U64Symbol>& engine,
                           sync::SyncClient<U64Symbol>& client,
                           std::uint64_t sid, double loss,
                           std::uint64_t seed) {
  netsim::EventLoop loop;
  netsim::LinkConfig fwd;
  fwd.one_way_delay_s = 0.002;
  fwd.bandwidth_bps = 100e6;
  fwd.loss_rate = loss;
  fwd.reorder_jitter_s = loss > 0 ? 0.004 : 0.0;
  fwd.seed = seed;
  netsim::LinkConfig rev = fwd;
  rev.seed = seed ^ 0x5a5a;
  net::SimConduit pipe(loop, fwd, rev);
  net::SimEndpoint& client_end = pipe.a();
  net::SimEndpoint& server_end = pipe.b();

  SessionOutcome out;
  const auto pump_server = [&] {
    while (server_end.writable()) {
      auto frame = engine.next_frame(sid);
      if (!frame) break;  // round/credit wait, pacing pause, or done
      server_end.send_frame(std::move(*frame));
    }
  };
  server_end.on_frame([&](std::vector<std::byte> frame) {
    for (auto& reply : engine.handle_frame(frame)) {
      server_end.send_frame(std::move(reply));
    }
    pump_server();
  });
  server_end.on_writable(pump_server);
  client_end.on_frame([&](std::vector<std::byte> frame) {
    for (auto& reply : client.handle_frame(frame)) {
      out.bytes_up += reply.size();
      client_end.send_frame(std::move(reply));
    }
  });

  const auto hello = client.hello();
  out.bytes_up += hello.size();
  client_end.send_frame(hello);
  loop.run();

  const sync::SessionStats* stats = engine.session(sid);
  out.ok = client.complete() && stats != nullptr && !client_end.broken() &&
           !server_end.broken();
  if (stats != nullptr) {
    out.bytes_down = stats->bytes_to_peer;
    out.rounds = stats->rounds;
    out.credits = stats->credits;
    out.chosen = stats->backend;
  }
  out.link_bytes = client_end.data_bytes() + client_end.ack_bytes() +
                   server_end.data_bytes() + server_end.ack_bytes();
  return out;
}

sync::SyncEngine<U64Symbol> make_engine(const Sets& s, double loss) {
  sync::EngineOptions options;
  options.link = sync::adaptive::LinkProfile::lossy(loss);
  sync::SyncEngine<U64Symbol> engine({}, options);
  for (const auto& x : s.both) engine.add_item(x);
  for (const auto& x : s.only_a) engine.add_item(x);
  return engine;
}

sync::SyncClient<U64Symbol> make_client(const Sets& s, std::uint64_t sid,
                                        BackendId backend) {
  sync::SyncClient<U64Symbol> client(sid, backend);
  for (const auto& y : s.both) client.add_item(y);
  for (const auto& y : s.only_b) client.add_item(y);
  return client;
}

// ------------------------------------------------------------- loopback

using LoopEngine = sync::SyncEngine<U64Symbol>;
using LoopClient = sync::SyncClient<U64Symbol>;

/// This thread's CPU time, ns.
[[nodiscard]] double thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
}

/// The engine holds `base` (n items); a client at difference d holds
/// base minus its first d - d/2 items, plus the first d/2 of `extra`.
struct LoopSet {
  std::vector<HashedSymbol<U64Symbol>> base, extra;
};

LoopSet make_loop_set(std::size_t n, std::size_t max_d, std::uint64_t seed) {
  LoopSet s;
  SplitMix64 rng(seed);
  const SipHasher<U64Symbol> hasher;
  for (std::size_t i = 0; i < n; ++i) {
    s.base.push_back(hasher.hashed(U64Symbol::from_u64(rng.next() | 1)));
  }
  for (std::size_t i = 0; i < max_d / 2; ++i) {
    s.extra.push_back(hasher.hashed(U64Symbol::from_u64(rng.next() | 1)));
  }
  return s;
}

LoopClient make_loop_client(const LoopSet& s, std::size_t d,
                            std::uint64_t sid, BackendId backend) {
  LoopClient client(sid, backend);
  for (std::size_t i = d - d / 2; i < s.base.size(); ++i) {
    client.add_hashed_item(s.base[i]);
  }
  for (std::size_t i = 0; i < d / 2; ++i) client.add_hashed_item(s.extra[i]);
  return client;
}

struct Served {
  bool ok = false;
  double serve_ns = 0;           ///< engine calls only, thread CPU
  double session_ns = 0;         ///< both ends, thread CPU
  std::uint64_t wire_bytes = 0;  ///< SYMBOLS down + HELLO/ROUND/DONE up
  std::uint32_t rounds = 0;
};

/// One in-memory session, frames handed across synchronously (so no
/// runway overshoot); the session is closed afterwards.
Served serve(LoopEngine& engine, LoopClient& client, std::size_t d) {
  Served out;
  const double start = thread_cpu_ns();
  const std::uint64_t sid = client.session_id();
  std::deque<std::vector<std::byte>> up{client.hello()};
  const auto answer = [&](const std::vector<std::byte>& down) {
    for (auto& reply : client.handle_frame(down)) {
      up.push_back(std::move(reply));
    }
  };
  for (;;) {
    while (!up.empty()) {
      const double t0 = thread_cpu_ns();
      const auto down = engine.handle_frame(up.front());
      out.serve_ns += thread_cpu_ns() - t0;
      up.pop_front();
      for (const auto& frame : down) answer(frame);
    }
    if (client.complete() || client.failed()) break;
    const double t0 = thread_cpu_ns();
    const auto frame = engine.next_frame(sid);
    out.serve_ns += thread_cpu_ns() - t0;
    if (!frame) break;
    answer(*frame);
  }
  if (const sync::SessionStats* s = engine.session(sid)) {
    out.ok = client.complete() && s->state == sync::SessionState::kDone &&
             client.diff().remote.size() + client.diff().local.size() == d;
    out.wire_bytes = s->bytes_to_peer + s->bytes_from_peer;
    out.rounds = s->rounds;
  }
  engine.close_session(sid);
  out.session_ns = thread_cpu_ns() - start;
  return out;
}

/// Min-of-runs serving cost of one fixed backend at (n, d): up to 5
/// runs, fewer once the sessions have spent 50 ms of CPU, one under
/// sanitizers. A CPI session at d >= 56 costs more than that by itself
/// (its client's cubic decode), and runs far above timer noise. Wire
/// bytes and rounds come from the first run.
Served measure(LoopEngine& engine, const LoopSet& set, std::size_t d,
               BackendId backend, std::uint64_t& sid) {
  const int max_runs = RIBLT_BENCH_SANITIZED ? 1 : 5;
  Served best;
  double spent = 0;
  for (int run = 0; run < max_runs && spent < 50e6; ++run) {
    auto client = make_loop_client(set, d, ++sid, backend);
    const Served r = serve(engine, client, d);
    if (!r.ok) return r;
    spent += r.session_ns;
    if (run == 0) {
      best = r;
    } else {
      best.serve_ns = std::min(best.serve_ns, r.serve_ns);
    }
  }
  return best;
}

/// Serving ns per operation on the emit path alone: a fixed `backend`
/// session on the warm engine emits its first `frames` SYMBOLS frames with
/// nothing fed back; `ops_in(frames)` counts the operations they carry.
/// Thread CPU, min of 5 runs after one that warms the cache.
template <typename OpsIn>
double emit_ns_per_op(LoopEngine& engine, const LoopSet& set,
                      BackendId backend, std::size_t frames,
                      std::uint64_t& sid, OpsIn ops_in) {
  double best = std::numeric_limits<double>::infinity();
  for (int run = 0; run <= 5; ++run) {
    auto client = make_loop_client(set, 0, ++sid, backend);
    (void)engine.handle_frame(client.hello());
    std::vector<std::vector<std::byte>> out;
    out.reserve(frames);
    const double t0 = thread_cpu_ns();
    for (std::size_t i = 0; i < frames; ++i) {
      out.push_back(*engine.next_frame(sid));
    }
    const double ns = thread_cpu_ns() - t0;
    engine.close_session(sid);
    if (run > 0) best = std::min(best, ns / ops_in(out));
  }
  return best;
}

/// Coded symbols in a run of rateless SYMBOLS frames (8-byte checksums).
double stream_symbols(const std::vector<std::vector<std::byte>>& frames) {
  std::size_t symbols = 0;
  for (const auto& frame : frames) {
    const auto payload = sync::v2::parse_frame(frame).payload;
    ByteReader r(payload);
    for (; !r.done(); ++symbols) {
      (void)wire::read_stream_symbol<U64Symbol>(r, 8);
    }
  }
  return static_cast<double>(symbols);
}

/// The loopback section; false when a session failed or (outside
/// sanitizers) the model's pick cost more than 1.25x the cheapest.
bool run_loopback(const bench::Options& opts, bench::JsonReport& report) {
  namespace ad = sync::adaptive;
  const std::vector<std::size_t> ns =
      opts.smoke ? std::vector<std::size_t>{2500, 5000}
                 : std::vector<std::size_t>{2500, 5000, 50000};
  const std::vector<std::size_t> ds =
      opts.smoke ? std::vector<std::size_t>{1, 12, 56, 100}
                 : std::vector<std::size_t>{1, 12, 56, 100, 1000};
  constexpr std::size_t kConstantsN = 5000;  ///< the committed constants' n
  const sync::ReconcilerConfig config{};
  const ad::AdaptiveOptions adaptive{};
  const ad::LinkProfile link = ad::LinkProfile::loopback();
  const bool gated = !RIBLT_BENCH_SANITIZED;

  std::printf("\n# Loopback (in memory): fixed backends on a warm engine, "
              "engine calls only, thread CPU\n");
  std::printf("# cost = serve_ns x %.4f B/ns + wire bytes + rounds x %.0f B"
              " (byte equivalents); gate: model pick <= 1.25x cheapest%s\n",
              link.cpu_cost, link.round_cost_bytes,
              gated ? "" : " (timing gate skipped under sanitizers)");
  std::printf("%-7s %-6s %-12s %-12s %-12s %-12s %-12s %-12s %-7s\n", "n",
              "d", "riblt", "iblt+strata", "cpi", "met-iblt", "model", "best",
              "ratio");

  bool ok = true;
  std::uint64_t sid = 0;
  double gf64_ns = 0, iblt_ns = 0, met_ns = 0, symbol_ns = 0;
  for (const std::size_t n : ns) {
    const LoopSet set = make_loop_set(n, ds.back(), derive_seed(opts.seed, n));
    LoopEngine engine;
    for (const auto& hs : set.base) engine.add_hashed_item(hs);
    {
      // Warm: materialize the shared cache as far as the largest d reads.
      auto client = make_loop_client(set, ds.back(), ++sid, BackendId::kRiblt);
      ok = serve(engine, client, ds.back()).ok && ok;
    }
    if (n == kConstantsN) {
      // 64 frames is ~3600 symbols; one CPI frame is the first rung of
      // the ladder, n x cpi_initial_capacity multiplies.
      symbol_ns = emit_ns_per_op(engine, set, BackendId::kRiblt, 64, sid,
                                 stream_symbols);
      gf64_ns = emit_ns_per_op(
          engine, set, BackendId::kCpi, 1, sid, [&](const auto&) {
            return static_cast<double>(n * config.cpi_initial_capacity);
          });
    }
    for (const std::size_t d : ds) {
      double cost[std::size(kBackends)] = {};
      bool feasible[std::size(kBackends)] = {};
      double cheapest = 0;
      BackendId best = BackendId::kRiblt;
      for (std::size_t i = 0; i < std::size(kBackends); ++i) {
        const BackendId b = kBackends[i];
        if (b == BackendId::kCpi && !ad::cpi_feasible<U64Symbol>(d, config)) {
          continue;
        }
        const Served r = measure(engine, set, d, b, sid);
        if (!r.ok) {
          std::printf("%-7zu %-6zu %-12s FAILED\n", n, d,
                      sync::backend_name(b));
          ok = false;
          continue;
        }
        feasible[i] = true;
        cost[i] = r.serve_ns * link.cpu_cost +
                  static_cast<double>(r.wire_bytes) +
                  r.rounds * link.round_cost_bytes;
        if (cheapest == 0 || cost[i] < cheapest) {
          cheapest = cost[i];
          best = b;
        }
        if (n == kConstantsN && d == ds.front()) {
          if (b == BackendId::kIbltStrata) iblt_ns = r.serve_ns / n;
          if (b == BackendId::kMetIblt) met_ns = r.serve_ns / n;
        }
        report.row()
            .str("section", "loopback")
            .str("backend", sync::backend_name(b))
            .num("n", n)
            .num("d", d)
            .num("serve_ns", r.serve_ns)
            .num("wire_bytes", r.wire_bytes)
            .num("rounds", static_cast<std::uint64_t>(r.rounds))
            .num("cost_bytes", cost[i]);
      }
      const BackendId pick = ad::choose_backend<U64Symbol>(
          BackendId::kRiblt, d, n, 8, config, adaptive, link);
      const std::size_t pi = static_cast<std::size_t>(pick) - 1;
      const double ratio =
          feasible[pi] && cheapest > 0 ? cost[pi] / cheapest : 0;
      const bool within = feasible[pi] && (!gated || ratio <= 1.25);
      ok = ok && within;
      std::printf("%-7zu %-6zu", n, d);
      for (std::size_t i = 0; i < std::size(kBackends); ++i) {
        if (feasible[i]) {
          std::printf(" %-12.0f", cost[i]);
        } else {
          std::printf(" %-12s", "-");
        }
      }
      std::printf(" %-12s %-12s %.3f%s\n", sync::backend_name(pick),
                  sync::backend_name(best), ratio, within ? "" : "  GATE!");
      report.row()
          .str("section", "loopback")
          .str("backend", "model")
          .str("chosen", sync::backend_name(pick))
          .num("n", n)
          .num("d", d)
          .num("loopback_ratio", ratio);
      std::fflush(stdout);
    }
  }

  std::printf("# serving ns per op at n = %zu (min of runs) vs the "
              "constants sync/adaptive.hpp commits\n", kConstantsN);
  std::printf("#   %-30s %8s %10s\n", "op", "measured", "committed");
  std::printf("#   %-30s %8.1f %10.1f\n", "GF(2^64) multiply (cpi)",
              gf64_ns, ad::kServeNsPerGf64Mul);
  std::printf("#   %-30s %8.1f %10.1f\n", "stream symbol (riblt, warm)",
              symbol_ns, ad::kServeNsPerStreamSymbol);
  std::printf("#   %-30s %8.1f %10.1f\n", "iblt+strata item (d = 1)",
              iblt_ns, ad::kServeNsPerIbltItem);
  std::printf("#   %-30s %8.1f %10.1f\n", "met-iblt item (d = 1)", met_ns,
              ad::kServeNsPerMetItem);
  std::printf("#   %-30s %8s %10.1f\n", "loopback wire byte", "trace",
              ad::kLoopbackServeNsPerWireByte);
  report.row()
      .str("section", "loopback_constants")
      .num("gf64_mul_ns", gf64_ns)
      .num("stream_symbol_ns", symbol_ns)
      .num("iblt_item_ns", iblt_ns)
      .num("met_item_ns", met_ns);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::JsonReport report(opts, "extra_adaptive_backend");
  const std::size_t max_d = opts.pick<std::size_t>(100, 1000, 1000);
  const std::size_t warm = 3;  ///< adaptive sessions per cell (last scored)
  const std::vector<double> losses =
      opts.smoke ? std::vector<double>{0.0, 0.05}
                 : std::vector<double>{0.0, 0.01, 0.05};
  const sync::ReconcilerConfig config{};  // the engine-default tuning

  std::printf("# Extra: adaptive negotiation vs fixed backends over "
              "SimConduit (8-byte items)\n");
  std::printf("# bytes = session wire bytes down+up; link_bytes adds "
              "retransmits + ACK packets\n");
  std::printf("%-7s %-6s %-12s %-10s %-12s %-7s %-8s %-7s\n", "d", "loss",
              "backend", "bytes", "link_bytes", "rounds", "credits", "ratio");

  bool all_ok = true;
  for (std::size_t d = 1; d <= max_d; d *= 10) {
    const std::size_t shared = std::max<std::size_t>(200, 2 * d);
    for (const double loss : losses) {
      const std::uint64_t seed = derive_seed(opts.seed, d * 1000 + static_cast<std::uint64_t>(loss * 100));
      const Sets sets = make_sets(shared, d, seed);

      // Fixed cells: one fresh engine+session each, client pinned to the
      // backend, no adaptive flag -- the server serves the request
      // verbatim (the fallback path old clients get).
      std::uint64_t best_fixed = ~std::uint64_t{0};
      for (const BackendId backend : kBackends) {
        if (backend == BackendId::kCpi &&
            !sync::adaptive::cpi_feasible<U64Symbol>(d, config)) {
          std::printf("%-7zu %-6.2f %-12s %-10s %-12s %-7s %-8s %-7s\n", d,
                      loss, sync::backend_name(backend), "-", "-", "-", "-",
                      "-");
          continue;
        }
        auto engine = make_engine(sets, loss);
        auto client = make_client(sets, 1, backend);
        const auto r = run_session(engine, client, 1, loss, seed + 7);
        if (!r.ok) {
          std::printf("%-7zu %-6.2f %-12s FAILED\n", d, loss,
                      sync::backend_name(backend));
          all_ok = false;
          continue;
        }
        const std::uint64_t bytes = r.bytes_down + r.bytes_up;
        best_fixed = std::min(best_fixed, bytes);
        std::printf("%-7zu %-6.2f %-12s %-10llu %-12llu %-7u %-8u %-7s\n", d,
                    loss, sync::backend_name(backend),
                    static_cast<unsigned long long>(bytes),
                    static_cast<unsigned long long>(r.link_bytes), r.rounds,
                    r.credits, "-");
        report.row()
            .str("backend", sync::backend_name(backend))
            .num("d", d)
            .num("loss_pct", static_cast<std::uint64_t>(loss * 100))
            .num("bytes_down", r.bytes_down)
            .num("bytes_up", r.bytes_up)
            .num("link_bytes", r.link_bytes)
            .num("rounds", static_cast<std::uint64_t>(r.rounds));
      }

      // Adaptive: ONE engine across `warm` sessions from the same peer.
      // Session 1 carries the probe (first contact); the rest lean on the
      // per-peer EWMA the DONE diff counts fed. The gate scores the last.
      auto engine = make_engine(sets, loss);
      const std::uint64_t peer = 0xabcd;
      SessionOutcome last;
      std::uint64_t first_contact = 0;
      bool adaptive_ok = true;
      for (std::size_t s = 1; s <= warm; ++s) {
        auto client = make_client(sets, s, BackendId::kRiblt);
        client.set_adaptive(peer, /*send_probe=*/s == 1);
        last = run_session(engine, client, s, loss, seed + 100 + s);
        adaptive_ok = adaptive_ok && last.ok;
        if (s == 1) first_contact = last.bytes_down + last.bytes_up;
      }
      const std::uint64_t bytes = last.bytes_down + last.bytes_up;
      const double ratio = best_fixed == 0
                               ? 0.0
                               : static_cast<double>(bytes) /
                                     static_cast<double>(best_fixed);
      // The acceptance gate: steady-state adaptive within 10% of the best
      // fixed backend's bytes on this cell.
      const bool within = adaptive_ok && ratio <= 1.10;
      all_ok = all_ok && within;
      std::printf("%-7zu %-6.2f %-12s %-10llu %-12llu %-7u %-8u %.3f%s\n", d,
                  loss,
                  (std::string("a:") + sync::backend_name(last.chosen)).c_str(),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(last.link_bytes),
                  last.rounds, last.credits, ratio, within ? "" : "  GATE!");
      report.row()
          .str("backend", "adaptive")
          .str("chosen", sync::backend_name(last.chosen))
          .num("d", d)
          .num("loss_pct", static_cast<std::uint64_t>(loss * 100))
          .num("bytes_down", last.bytes_down)
          .num("bytes_up", last.bytes_up)
          .num("link_bytes", last.link_bytes)
          .num("rounds", static_cast<std::uint64_t>(last.rounds))
          .num("credits", static_cast<std::uint64_t>(last.credits))
          .num("first_contact_bytes", first_contact)
          .num("ratio", ratio);
      std::fflush(stdout);
    }
  }
  const bool loopback_ok = run_loopback(opts, report);
  return all_ok && loopback_ok ? 0 : 1;
}
