// Extension bench (ISSUE 5 acceptance): serving throughput with the
// transport in the loop -- completed reconciliations per second and
// per-session sync latency (p50/p99) over real loopback TCP
// (net::SocketServer/SocketClient) vs the in-memory submit/sink path.
//
// Every number before this bench excluded syscalls, copies, and socket
// backpressure; the paper's Fig 12/13 results run over real links. Both
// transports here drive the identical ShardedEngine worker path (threaded
// submit/sink); the socket rows add framing, epoll dispatch, read/writev
// syscalls, and the kernel loopback queue. The acceptance criterion is
// that loopback sessions/sec stays within the same order of magnitude as
// in-memory at d=100.
//
// Sessions run back to back (one in flight), so sessions_per_s ~=
// 1/latency and the p50/p99 spread isolates transport jitter rather than
// queueing from concurrent load (extra_shard_scaling covers concurrency).
//
// --sweep (ISSUE 8 acceptance) adds the connection-count sweep: 100 -> 1k
// -> 10k open connections running paced sessions against the epoll server
// and the io_uring server (when the kernel has it), reporting sessions/s,
// p50/p99 latency, and syscalls/session from SocketServerStats. In default
// (non-smoke) mode the sweep gates that at the top tier uring serves at
// least as many sessions/s as epoll while issuing at most half the
// syscalls per session; the gate auto-skips without io_uring or under
// sanitizers (whose syscall interception distorts both sides).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "benchutil.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "net/uring_server.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace ribltx;

struct RunResult {
  double wall_s = 0;
  double sessions_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  bool ok = false;
};

struct Workload {
  std::vector<U64Symbol> items;
  std::size_t n = 0;
  std::size_t d = 0;
  std::size_t sessions = 0;
  std::size_t shards = 0;
};

/// Builds the per-session clients: client s is missing a distinct d-item
/// wrapping slice of the server set (identical work per session).
std::vector<std::unique_ptr<sync::ShardedClient<U64Symbol>>> build_clients(
    const Workload& w) {
  std::vector<std::unique_ptr<sync::ShardedClient<U64Symbol>>> out;
  out.reserve(w.sessions);
  for (std::size_t s = 0; s < w.sessions; ++s) {
    out.push_back(std::make_unique<sync::ShardedClient<U64Symbol>>(
        s + 1, w.shards, sync::BackendId::kRiblt));
    const std::size_t start = (s * w.d) % w.n;
    for (std::size_t i = 0; i < w.n; ++i) {
      const bool missing = ((i + w.n - start) % w.n) < w.d;
      if (!missing) out[s]->add_item(w.items[i]);
    }
  }
  return out;
}

/// Latency quantiles off an obs::Histogram (microsecond samples) -- the
/// same log-linear estimator the live METRICS scrape serves, replacing
/// the former private sorted-vector percentiles. The histogram's relaxed
/// record() is also what makes the connection sweep's concurrent client
/// threads safe without a lock or per-thread vectors.
RunResult summarize(const obs::Histogram& latencies_us, double wall_s,
                    bool correct) {
  const obs::HistogramSnapshot s = latencies_us.snapshot();
  RunResult r;
  r.wall_s = wall_s;
  r.sessions_per_s = static_cast<double>(s.bucket_total()) / wall_s;
  r.p50_ms = s.quantile(0.50) / 1e3;
  r.p99_ms = s.quantile(0.99) / 1e3;
  r.ok = correct;
  return r;
}

/// Seconds -> whole microseconds for histogram recording.
std::uint64_t as_us(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e6);
}

/// In-memory baseline: the same threaded worker/sink path, no sockets --
/// frames hop threads through the sink closure instead of the kernel.
RunResult run_memory(const Workload& w) {
  sync::EngineOptions options;
  options.max_sessions = w.sessions + 16;
  sync::ShardedEngine<U64Symbol> engine(w.shards, {}, options);
  for (const auto& x : w.items) engine.add_item(x);
  auto clients = build_clients(w);

  std::atomic<bool> sink_error{false};
  engine.start([&](std::uint64_t, std::vector<std::byte> frame) {
    const std::uint64_t sid = sync::v2::peek_session_id(frame);
    const std::size_t s = static_cast<std::size_t>((sid - 1) / w.shards);
    if (s >= clients.size()) {
      sink_error.store(true, std::memory_order_relaxed);
      return;
    }
    for (auto& reply : clients[s]->handle_frame(frame)) {
      engine.submit(std::move(reply));
    }
  });

  obs::Histogram latencies;
  bool correct = true;
  bench::Timer total;
  for (std::size_t s = 0; s < w.sessions; ++s) {
    bench::Timer t;
    for (auto& hello : clients[s]->hellos()) engine.submit(std::move(hello));
    while (!clients[s]->terminal()) {
      std::this_thread::yield();
    }
    latencies.record(as_us(t.elapsed()));
    correct = correct && clients[s]->complete() &&
              clients[s]->diff().remote.size() == w.d &&
              clients[s]->diff().local.empty();
  }
  const double wall = total.elapsed();
  engine.stop();
  return summarize(latencies, wall,
                   correct && !sink_error.load(std::memory_order_relaxed));
}

/// Loopback TCP: the same engine behind a SocketServer; one client
/// connection runs the sessions back to back.
RunResult run_loopback(const Workload& w) {
  sync::EngineOptions options;
  options.max_sessions = w.sessions + 16;
  sync::ShardedEngine<U64Symbol> engine(w.shards, {}, options);
  for (const auto& x : w.items) engine.add_item(x);
  auto clients = build_clients(w);

  net::SocketServer<U64Symbol> server(engine);
  server.start();
  net::SocketClient sock(server.port());

  obs::Histogram latencies;
  bool correct = true;
  bench::Timer total;
  for (std::size_t s = 0; s < w.sessions; ++s) {
    bench::Timer t;
    const bool done = run_session(sock, *clients[s], /*timeout_s=*/120.0);
    latencies.record(as_us(t.elapsed()));
    correct = correct && done && clients[s]->diff().remote.size() == w.d &&
              clients[s]->diff().local.empty();
  }
  const double wall = total.elapsed();
  server.stop();
  correct = correct && server.stats().protocol_errors == 0;
  return summarize(latencies, wall, correct);
}

// ------------------------------------------------------ connection sweep

struct SweepResult {
  std::size_t conns = 0;
  std::size_t sessions = 0;
  double wall_s = 0;
  double sessions_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double syscalls_per_session = 0;
  std::uint64_t sqe_submits = 0;
  bool ok = false;
};

/// Raises the soft RLIMIT_NOFILE to the hard cap and returns the largest
/// connection count that fits: each open connection costs two fds in this
/// process (client end + accepted end), and the engine, rings, eventfds,
/// and stdio need headroom.
std::size_t clamp_conns_to_nofile(std::size_t want) {
  rlimit rl{};
  if (getrlimit(RLIMIT_NOFILE, &rl) != 0) return want;
  if (rl.rlim_cur < rl.rlim_max) {
    rl.rlim_cur = rl.rlim_max;
    (void)setrlimit(RLIMIT_NOFILE, &rl);
    (void)getrlimit(RLIMIT_NOFILE, &rl);
  }
  const auto cur = static_cast<std::size_t>(rl.rlim_cur);
  const std::size_t budget = cur > 256 ? (cur - 256) / 2 : 8;
  return std::min(want, budget);
}

/// One sweep tier: `conns` open connections, each running
/// `sessions_per_conn` small reconciliations (n=256, d=16, 2 shards) paced
/// round-robin by a fixed pool of client threads. Most connections sit
/// idle at any instant -- exactly the many-peers shape the serving loop
/// has to scale across -- while syscalls/session comes from the server's
/// own counters (connection setup amortizes into it).
SweepResult run_sweep_tier(bool use_uring, std::size_t conns,
                           std::size_t sessions_per_conn,
                           std::uint64_t seed) {
  constexpr std::size_t kN = 256;
  constexpr std::size_t kD = 16;
  constexpr std::size_t kShards = 2;

  std::vector<U64Symbol> items;
  items.reserve(kN);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < kN; ++i) {
    items.push_back(U64Symbol::random(rng.next()));
  }

  sync::ShardedEngine<U64Symbol> engine(kShards);
  for (const auto& x : items) engine.add_item(x);
  net::AnyServer<U64Symbol> server(engine, {}, use_uring);
  server.start();
  const std::uint16_t port = server.port();

  const std::size_t pool = std::min<std::size_t>(conns, 8);
  std::vector<std::unique_ptr<net::SocketClient>> socks(conns);
  std::atomic<std::size_t> connect_failures{0};

  const auto connect_range = [&](std::size_t t) {
    for (std::size_t c = t; c < conns; c += pool) {
      try {
        socks[c] = std::make_unique<net::SocketClient>(port);
      } catch (...) {
        connect_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  {
    std::vector<std::thread> ts;
    ts.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) ts.emplace_back(connect_range, t);
    for (auto& th : ts) th.join();
  }

  const std::size_t total = conns * sessions_per_conn;
  obs::Histogram lat;  // pool threads record concurrently (relaxed atomics)
  std::vector<unsigned char> okv(total, 0);

  bench::Timer wall;
  const auto serve_range = [&](std::size_t t) {
    for (std::size_t k = 0; k < sessions_per_conn; ++k) {
      for (std::size_t c = t; c < conns; c += pool) {
        if (!socks[c]) continue;
        const std::size_t g = c * sessions_per_conn + k;
        sync::ShardedClient<U64Symbol> client(g + 1, kShards,
                                              sync::BackendId::kRiblt);
        const std::size_t start = (g * kD) % kN;
        for (std::size_t i = 0; i < kN; ++i) {
          if (((i + kN - start) % kN) >= kD) client.add_item(items[i]);
        }
        bench::Timer timer;
        const bool done = run_session(*socks[c], client, /*timeout_s=*/120.0);
        lat.record(as_us(timer.elapsed()));
        okv[g] = done && client.diff().remote.size() == kD &&
                 client.diff().local.empty();
      }
    }
  };
  {
    std::vector<std::thread> ts;
    ts.reserve(pool);
    for (std::size_t t = 0; t < pool; ++t) ts.emplace_back(serve_range, t);
    for (auto& th : ts) th.join();
  }
  const double wall_s = wall.elapsed();

  for (auto& s : socks) s.reset();  // disconnect before stopping the server
  server.stop();
  const net::SocketServerStats stats = server.stats();

  bool correct = connect_failures.load() == 0 &&
                 stats.protocol_errors == 0 &&
                 stats.connections_accepted == conns;
  for (const unsigned char o : okv) correct = correct && o != 0;

  const RunResult base = summarize(lat, wall_s, correct);
  SweepResult r;
  r.conns = conns;
  r.sessions = total;
  r.wall_s = base.wall_s;
  r.sessions_per_s = base.sessions_per_s;
  r.p50_ms = base.p50_ms;
  r.p99_ms = base.p99_ms;
  r.syscalls_per_session =
      static_cast<double>(stats.syscalls()) / static_cast<double>(total);
  r.sqe_submits = stats.sqe_submits;
  r.ok = base.ok;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::JsonReport report(opts, "extra_transport_throughput");

  Workload w;
  w.n = opts.pick<std::size_t>(2'000, 20'000, 50'000);
  w.d = opts.pick<std::size_t>(50, 100, 100);
  w.sessions = opts.pick<std::size_t>(16, 128, 512);
  w.shards = opts.pick<std::size_t>(2, 4, 4);
  w.items.reserve(w.n);
  SplitMix64 rng(opts.seed);
  for (std::size_t i = 0; i < w.n; ++i) {
    w.items.push_back(U64Symbol::random(rng.next()));
  }

  std::printf("# Extra: serving throughput with the transport in the loop "
              "(%u hardware threads)\n",
              std::thread::hardware_concurrency());
  std::printf("# n=%zu items, %zu sequential sessions, d=%zu, %zu shards, "
              "riblt backend\n",
              w.n, w.sessions, w.d, w.shards);
  std::printf("%-10s %-12s %-16s %-10s %-10s %-4s\n", "transport", "wall_s",
              "sessions_per_s", "p50_ms", "p99_ms", "ok");

  const RunResult mem = run_memory(w);
  std::printf("%-10s %-12.4f %-16.1f %-10.3f %-10.3f %-4s\n", "memory",
              mem.wall_s, mem.sessions_per_s, mem.p50_ms, mem.p99_ms,
              mem.ok ? "y" : "N");
  std::fflush(stdout);
  const RunResult loop = run_loopback(w);
  std::printf("%-10s %-12.4f %-16.1f %-10.3f %-10.3f %-4s\n", "loopback",
              loop.wall_s, loop.sessions_per_s, loop.p50_ms, loop.p99_ms,
              loop.ok ? "y" : "N");

  const double ratio =
      loop.sessions_per_s > 0 ? mem.sessions_per_s / loop.sessions_per_s : 0;
  // Acceptance criterion: loopback within the same order of magnitude at
  // d=100 (the default scale). Smoke sessions are so small (sub-ms) that
  // fixed per-frame transport costs dominate, so smoke gates correctness
  // only and just reports the ratio.
  const bool same_magnitude = ratio > 0 && (opts.smoke || ratio < 10.0);
  std::printf("# memory/loopback rate ratio: %.2fx (%s)\n", ratio,
              ratio < 10.0 ? "same order of magnitude"
                           : "outside one order of magnitude");

  for (const auto& [name, r] :
       {std::pair<const char*, const RunResult&>{"memory", mem},
        std::pair<const char*, const RunResult&>{"loopback", loop}}) {
    report.row()
        .str("transport", name)
        .num("n", w.n)
        .num("d", w.d)
        .num("shards", w.shards)
        .num("sessions", w.sessions)
        .num("wall_s", r.wall_s)
        .num("sessions_per_s", r.sessions_per_s)
        .num("p50_ms", r.p50_ms)
        .num("p99_ms", r.p99_ms);
  }

  bool sweep_ok = true;
  if (opts.sweep) {
    const std::vector<std::size_t> tiers =
        opts.smoke ? std::vector<std::size_t>{8, 32}
                   : std::vector<std::size_t>{100, 1'000, 10'000};
    const std::size_t session_target = opts.pick<std::size_t>(64, 2'048, 4'096);
    const bool have_uring = net::uring_available();

    std::printf("\n# Connection-count sweep: paced sessions over many open "
                "connections, epoll vs io_uring\n");
    if (!have_uring) {
      std::printf("# io_uring unavailable on this kernel/build: sweeping the "
                  "epoll server only, crossover gate skipped\n");
    }
    std::printf("%-8s %-7s %-9s %-10s %-16s %-10s %-10s %-18s %-12s %-4s\n",
                "backend", "conns", "sessions", "wall_s", "sessions_per_s",
                "p50_ms", "p99_ms", "syscalls_per_sess", "sqe_submits", "ok");

    SweepResult top_epoll;
    SweepResult top_uring;
    for (const std::size_t tier : tiers) {
      const std::size_t conns = clamp_conns_to_nofile(tier);
      if (conns != tier) {
        std::printf("# tier %zu clamped to %zu connections by RLIMIT_NOFILE\n",
                    tier, conns);
      }
      const std::size_t per_conn = std::max<std::size_t>(
          1, session_target / std::max<std::size_t>(1, conns));
      for (const bool use_uring : {false, true}) {
        if (use_uring && !have_uring) continue;
        const SweepResult r = run_sweep_tier(use_uring, conns, per_conn,
                                             opts.seed + tier);
        const char* backend = use_uring ? "uring" : "epoll";
        std::printf(
            "%-8s %-7zu %-9zu %-10.4f %-16.1f %-10.3f %-10.3f %-18.2f "
            "%-12llu %-4s\n",
            backend, r.conns, r.sessions, r.wall_s, r.sessions_per_s,
            r.p50_ms, r.p99_ms, r.syscalls_per_session,
            static_cast<unsigned long long>(r.sqe_submits), r.ok ? "y" : "N");
        std::fflush(stdout);
        sweep_ok = sweep_ok && r.ok;
        if (tier == tiers.back()) (use_uring ? top_uring : top_epoll) = r;
        report.row()
            .str("transport", backend)
            .num("tier", tier)
            .num("conns", r.conns)
            .num("sessions", r.sessions)
            .num("wall_s", r.wall_s)
            .num("sessions_per_s", r.sessions_per_s)
            .num("p50_ms", r.p50_ms)
            .num("p99_ms", r.p99_ms)
            .num("syscalls_per_session", r.syscalls_per_session)
            .num("sqe_submits", r.sqe_submits);
      }
    }

    // Crossover gate (default mode only): at the top tier the uring server
    // must serve at least as many sessions/s as epoll -- 5% tolerance for
    // the run-to-run noise of a shared box -- while issuing at most half
    // the syscalls per session. Sanitizer builds intercept every syscall
    // and distort both sides, so they report without gating.
    if (!opts.smoke && have_uring && !RIBLT_BENCH_SANITIZED) {
      const bool rate_ok =
          top_uring.sessions_per_s >= 0.95 * top_epoll.sessions_per_s;
      const bool syscall_ok = top_epoll.syscalls_per_session >=
                              2.0 * top_uring.syscalls_per_session;
      std::printf("# top-tier crossover: uring %.1f vs epoll %.1f sessions/s "
                  "(%s), syscalls/session %.2f vs %.2f (%s)\n",
                  top_uring.sessions_per_s, top_epoll.sessions_per_s,
                  rate_ok ? "ok" : "REGRESSION",
                  top_uring.syscalls_per_session,
                  top_epoll.syscalls_per_session,
                  syscall_ok ? ">=2x reduction" : "UNDER 2x");
      sweep_ok = sweep_ok && rate_ok && syscall_ok;
    } else if (!opts.smoke) {
      std::printf("# crossover gate skipped (%s)\n",
                  have_uring ? "sanitizer build" : "no io_uring");
    }
  }

  return (mem.ok && loop.ok && same_magnitude && sweep_ok) ? 0 : 1;
}
