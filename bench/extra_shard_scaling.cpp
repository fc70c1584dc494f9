// Extension bench (ISSUE 4 acceptance): multi-core sharded serving --
// completed client reconciliations per second against shard count.
//
// One ShardedEngine with K shards serves a fleet of ShardedClients, each
// differing from the server set by d items. The shard workers do ALL the
// session work (serve + frame parse + client decode runs inside the sink,
// i.e. on the worker that produced the frame), so on a machine with >= K
// cores the wall-clock throughput should scale ~linearly in K until the
// router/submit path saturates: the acceptance criterion is >= 3x
// sessions/sec at 4 shards vs 1 shard on a 4+ core machine. On fewer cores
// the sharded run degrades gracefully to ~1x (same total work, small
// routing overhead); the bench prints the detected core count so CI trend
// numbers are interpretable.
//
// sessions_per_s counts whole client reconciliations (a client's K
// sub-sessions together recover exactly the unsharded difference -- the
// cross-shard parity test in tests/test_sharded.cpp pins that).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "benchutil.hpp"
#include "sync/sharded.hpp"

namespace {

using namespace ribltx;

struct RunResult {
  double wall_s = 0;
  double sessions_per_s = 0;
  bool ok = false;
};

/// One fleet pass: `clients` sharded clients against a K-shard engine over
/// an n-item set, each client missing `d` items of it.
RunResult run_fleet(std::size_t shards, std::size_t n, std::size_t clients,
                    std::size_t d, std::uint64_t seed) {
  RunResult out;
  std::vector<U64Symbol> items;
  items.reserve(n);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    items.push_back(U64Symbol::random(rng.next()));
  }

  sync::EngineOptions options;
  options.max_sessions = clients + 16;
  sync::ShardedEngine<U64Symbol> engine(shards, {}, options);
  for (const auto& x : items) engine.add_item(x);

  std::vector<std::unique_ptr<sync::ShardedClient<U64Symbol>>> fleet;
  fleet.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    fleet.push_back(std::make_unique<sync::ShardedClient<U64Symbol>>(
        c + 1, shards, sync::BackendId::kRiblt));
    // Client c is missing a distinct d-item slice of the server set (slices
    // wrap; same per-client work at every shard count).
    const std::size_t start = (c * d) % n;
    for (std::size_t i = 0; i < n; ++i) {
      const bool missing =
          ((i + n - start) % n) < d;  // d items, wrapping window
      if (!missing) fleet[c]->add_item(items[i]);
    }
  }

  // The sink runs on the shard workers: decode there, route replies back.
  std::atomic<bool> sink_error{false};
  engine.start([&](std::uint64_t, std::vector<std::byte> frame) {
    const std::uint64_t sid = sync::v2::peek_session_id(frame);
    const std::size_t c = static_cast<std::size_t>((sid - 1) / shards);
    if (c >= fleet.size()) {
      sink_error.store(true, std::memory_order_relaxed);
      return;
    }
    for (auto& reply : fleet[c]->handle_frame(frame)) {
      engine.submit(std::move(reply));
    }
  });

  bench::Timer timer;
  for (auto& client : fleet) {
    for (auto& hello : client->hellos()) engine.submit(std::move(hello));
  }
  bool all = false;
  while (!all) {
    all = true;
    for (const auto& client : fleet) all = all && client->terminal();
    if (!all) std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out.wall_s = timer.elapsed();
  engine.stop();

  out.ok = !sink_error.load(std::memory_order_relaxed);
  for (const auto& client : fleet) {
    out.ok = out.ok && client->complete() &&
             client->diff().remote.size() == d &&
             client->diff().local.empty();
  }
  out.sessions_per_s = static_cast<double>(clients) / out.wall_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::JsonReport report(opts, "extra_shard_scaling");

  const std::size_t n = opts.pick<std::size_t>(2'000, 20'000, 50'000);
  const std::size_t clients = opts.pick<std::size_t>(8, 64, 128);
  const std::size_t d = opts.pick<std::size_t>(50, 200, 400);
  std::vector<std::size_t> shard_counts =
      opts.smoke ? std::vector<std::size_t>{1, 2}
                 : std::vector<std::size_t>{1, 2, 4, 8};

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("# Extra: sharded serving throughput vs shard count "
              "(%u hardware threads)\n", cores);
  std::printf("# n=%zu items, %zu clients, d=%zu per client, riblt backend\n",
              n, clients, d);
  std::printf("%-8s %-12s %-16s %-10s %-4s\n", "shards", "wall_s",
              "sessions_per_s", "speedup", "ok");

  bool ok = true;
  double base_rate = 0;
  for (const std::size_t shards : shard_counts) {
    const RunResult r = run_fleet(shards, n, clients, d, opts.seed + shards);
    if (shards == 1) base_rate = r.sessions_per_s;
    const double speedup = base_rate > 0 ? r.sessions_per_s / base_rate : 0;
    std::printf("%-8zu %-12.4f %-16.1f %-10.2f %-4s\n", shards, r.wall_s,
                r.sessions_per_s, speedup, r.ok ? "y" : "N");
    std::fflush(stdout);
    report.row()
        .num("shards", shards)
        .num("n", n)
        .num("clients", clients)
        .num("d", d)
        .num("cores", cores)
        .num("wall_s", r.wall_s)
        .num("sessions_per_s", r.sessions_per_s)
        .num("speedup", speedup);
    ok = ok && r.ok;
  }
  // Correctness is the gate; scaling is reported, not asserted (CI smoke
  // runners and single-core boxes cannot demonstrate the 4-shard speedup).
  return ok ? 0 : 1;
}
