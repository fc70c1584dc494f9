// Tests for the async transport subsystem (src/net/): the FrameConduit
// codec (partial-read reassembly, scatter output, size bounds) and the
// loopback TCP path -- a ShardedEngine served by the epoll SocketServer and
// by the io_uring UringServer, reconciling real SyncClient/ShardedClient
// peers over real sockets, with the acceptance criterion that socket-path
// diffs are byte-identical to the in-memory path for all four backends.
// Runs under the ASan and TSan CI jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "net/frame_conduit.hpp"
#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "net/uring_server.hpp"
#include "obs/metrics.hpp"
#include "testutil.hpp"

namespace ribltx::net {
namespace {

using testing::key_set;
using testing::make_set_pair;
using sync::BackendId;
using Item8 = U64Symbol;
using Item32 = ByteSymbol<32>;

[[nodiscard]] std::vector<std::byte> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

// ------------------------------------------------------------ FrameConduit

TEST(FrameConduit, RoundTripsFramesAcrossScatterAndReassembly) {
  FrameConduit tx;
  FrameConduit rx;
  std::vector<std::vector<std::byte>> frames;
  SplitMix64 rng(11);
  for (std::size_t i = 0; i < 20; ++i) {
    std::vector<std::byte> f(rng.next() % 600);
    for (auto& b : f) b = static_cast<std::byte>(rng.next());
    frames.push_back(f);
    tx.send(std::move(f));
  }
  // Drain the scatter queue in odd-sized chunks through gather/consume,
  // feeding the receiving side as a byte stream.
  while (tx.has_output()) {
    std::span<const std::byte> chunks[4];
    const std::size_t n = tx.gather(chunks);
    REQUIRE(n > 0u);
    const std::size_t take = std::min<std::size_t>(chunks[0].size(),
                                                   1 + rng.next() % 97);
    rx.feed(chunks[0].subspan(0, take));
    tx.consume(take);
  }
  CHECK_EQ(tx.pending_bytes(), 0u);
  for (const auto& want : frames) {
    auto got = rx.next_frame();
    REQUIRE(got.has_value());
    CHECK(*got == want);
  }
  CHECK(!rx.next_frame().has_value());
}

// Disabling the pool must not change observable behavior; with it on,
// drained output buffers are recycled into inbound frames byte-for-byte
// correctly across many alloc/retire cycles.
TEST(FrameConduit, PooledAndUnpooledRoundTripIdentically) {
  FrameConduit pooled{FrameConduit::kDefaultMaxFrame, /*pool_buffers=*/true};
  FrameConduit bare{FrameConduit::kDefaultMaxFrame, /*pool_buffers=*/false};
  SplitMix64 rng(23);
  for (std::size_t round = 0; round < 50; ++round) {
    std::vector<std::byte> f(1 + rng.next() % 900);
    for (auto& b : f) b = static_cast<std::byte>(rng.next());
    for (FrameConduit* c : {&pooled, &bare}) {
      c->send(std::vector<std::byte>(f));
      while (c->has_output()) {
        std::span<const std::byte> chunks[4];
        const std::size_t n = c->gather(chunks);
        REQUIRE(n > 0u);
        const std::size_t take =
            std::min<std::size_t>(chunks[0].size(), 1 + rng.next() % 64);
        c->feed(chunks[0].subspan(0, take));  // loop output back as input
        c->consume(take);
      }
      auto got = c->next_frame();
      REQUIRE(got.has_value());
      CHECK(*got == f);
      CHECK(!c->next_frame().has_value());
    }
  }
}

// (Truncated-prefix, oversized-claim, and byte-at-a-time-parity coverage
// for the codec lives in tests/test_wire_fuzz.cpp with the other
// network-facing parsers; this file owns the socket path.)

// A receive on an idle connection waits its whole timeout, sub-millisecond
// ones included: the time left rounds up to the poll granularity, never
// down to an immediate return. A bare listener's backlog completes the
// connect, so nothing ever answers.
TEST(SocketClient, RecvFrameWaitsItsWholeTimeout) {
  TcpListener listener;
  SocketClient sock(listener.port());
  for (const double timeout_s : {0.0005, 0.0015}) {
    double shortest_s = 1e9;
    for (int i = 0; i < 50; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      CHECK(!sock.recv_frame(timeout_s).has_value());
      shortest_s = std::min(
          shortest_s, std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
    }
    CHECK(shortest_s >= timeout_s);
  }
}

// ------------------------------------------------- loopback TCP end-to-end

/// In-memory reference: the same reconciliation through the synchronous
/// router path, returning the merged diff.
template <Symbol T>
sync::SetDiff<T> memory_diff(const testing::SetPair<T>& w, std::size_t shards,
                             BackendId backend) {
  sync::ShardedEngine<T> engine(shards);
  for (const auto& x : w.a) engine.add_item(x);
  sync::ShardedClient<T> client(1, shards, backend);
  for (const auto& y : w.b) client.add_item(y);
  for (auto& hello : client.hellos()) {
    for (const auto& reply : engine.handle_frame(hello)) {
      (void)client.handle_frame(reply);
    }
  }
  std::size_t guard = 0;
  while (!client.terminal() && guard++ < 1'000'000) {
    bool progress = false;
    for (std::size_t s = 0; s < shards; ++s) {
      const auto frame = engine.next_frame(client.sub_session_id(s));
      if (!frame) continue;
      progress = true;
      for (const auto& reply : client.handle_frame(*frame)) {
        for (const auto& r2 : engine.handle_frame(reply)) {
          (void)client.handle_frame(r2);
        }
      }
    }
    if (!progress) break;
  }
  EXPECT_TRUE(client.complete());
  return client.diff();
}

/// Canonical byte image of a diff (sorted raw symbol bytes), so
/// "byte-identical" is checkable independent of recovery order.
template <Symbol T>
std::vector<std::string> canonical(const std::vector<T>& items) {
  std::vector<std::string> out;
  out.reserve(items.size());
  for (const T& s : items) {
    const auto b = s.bytes();
    out.emplace_back(reinterpret_cast<const char*>(b.data()), b.size());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The uring instantiations self-skip (early return, not failure) when
/// the build has io_uring but the kernel or seccomp profile rules the ring
/// out; the in-tree framework has no skip verdict, so this prints the
/// reason and passes vacuously. In an epoll-only build
/// (RIBLT_ENABLE_URING=OFF or no UAPI header) UringServer aliases
/// SocketServer, so they run as an extra epoll-parity pass instead.
bool uring_or_skip(const char* test) {
#if defined(RIBLT_HAS_IO_URING)
  if (uring_available()) return true;
  std::printf("  [skip] %s: io_uring unavailable (%s)\n", test,
              uring_caps().reason);
  return false;
#else
  (void)test;
  return true;
#endif
}

// The transport contract: every TRANSPORT_TEST case is one template over
// the server type, run as SocketTransport.<name> against the epoll
// SocketServer and as UringTransport.<name> against the UringServer --
// both serve through the same ServingCore policy, so both must pass the
// same cases.
#define TRANSPORT_TEST(name, Item)                                   \
  template <typename Server>                                         \
  void name##_case();                                                \
  TEST(SocketTransport, name) { name##_case<SocketServer<Item>>(); } \
  TEST(UringTransport, name) {                                       \
    if (uring_or_skip(#name)) name##_case<UringServer<Item>>();      \
  }                                                                  \
  template <typename Server>                                         \
  void name##_case()

// Acceptance criterion: a ShardedClient reconciling against a
// socket-served ShardedEngine over loopback TCP produces byte-identical
// diffs to the in-memory path, for all four backends.
TRANSPORT_TEST(LoopbackParityAllBackends, Item8) {
  const auto w = make_set_pair<Item8>(600, 24, 17, 91);
  constexpr std::size_t kShards = 2;
  for (const BackendId backend :
       {BackendId::kRiblt, BackendId::kIbltStrata, BackendId::kCpi,
        BackendId::kMetIblt}) {
    const sync::SetDiff<Item8> want = memory_diff(w, kShards, backend);
    REQUIRE_EQ(want.remote.size(), w.only_a.size());
    REQUIRE_EQ(want.local.size(), w.only_b.size());

    sync::ShardedEngine<Item8> engine(kShards);
    for (const auto& x : w.a) engine.add_item(x);
    Server server(engine);
    server.start();

    sync::ShardedClient<Item8> client(1, kShards, backend);
    for (const auto& y : w.b) client.add_item(y);
    SocketClient sock(server.port());
    REQUIRE(run_session(sock, client, /*timeout_s=*/60.0));

    const sync::SetDiff<Item8> got = client.diff();
    CHECK(canonical(got.remote) == canonical(want.remote));
    CHECK(canonical(got.local) == canonical(want.local));
    server.stop();
    const SocketServerStats stats = server.stats();
    CHECK_EQ(stats.protocol_errors, 0u);
    CHECK(stats.frames_in > 0u);
    CHECK(stats.frames_out > 0u);
  }
}

// A plain SyncClient (one session) against a 1-shard socket server, with
// the §6 count residuals negotiated over the real socket.
TRANSPORT_TEST(SingleSessionWithCountResiduals, Item32) {
  const auto w = make_set_pair<Item32>(800, 12, 9, 92);
  sync::ShardedEngine<Item32> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  sync::ReconcilerConfig config;
  config.count_residuals = true;
  sync::SyncClient<Item32> client(5, BackendId::kRiblt, {}, config);
  client.set_shard(0, 1);
  for (const auto& y : w.b) client.add_item(y);
  SocketClient sock(server.port());
  REQUIRE(run_session(sock, client, /*timeout_s=*/60.0));
  CHECK(key_set(client.diff().remote) == key_set(w.only_a));
  CHECK(key_set(client.diff().local) == key_set(w.only_b));
  server.stop();
}

// An adaptive session across the real loopback socket server. The grant
// negotiates over TCP (probe in the HELLO, backend + pace_cap in the ACK),
// the paced stream completes on credits, and the emission cap bounds
// serving overshoot: the server streams at most pace_cap bytes past the
// last inbound frame, so total emission beyond what the client consumed
// stays within a runway (generously: two) plus per-frame header slop --
// where an unpaced rateless server on a fat loopback pipe would keep
// filling the socket buffer until the DONE won the race.
TRANSPORT_TEST(AdaptiveSessionOverLoopbackBoundsOvershoot, Item8) {
  const auto w = make_set_pair<Item8>(300, 200, 200, 96);  // d = 400
  sync::ShardedEngine<Item8> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  sync::SyncClient<Item8> client(21, BackendId::kRiblt);
  client.set_shard(0, 1);
  client.set_adaptive(0xfeed);
  for (const auto& y : w.b) client.add_item(y);
  SocketClient sock(server.port());
  REQUIRE(run_session(sock, client, /*timeout_s=*/60.0));
  REQUIRE(client.adaptive_granted());
  REQUIRE(client.backend() == BackendId::kRiblt);  // large d stays rateless
  const std::uint64_t cap = client.pace_cap();
  REQUIRE(cap > 0u);
  CHECK(client.credits() > 0u);  // the runway was renewed mid-stream
  CHECK(key_set(client.diff().remote) == key_set(w.only_a));
  CHECK(key_set(client.diff().local) == key_set(w.only_b));
  // The client's DONE is still in flight when run_session returns: wait
  // (bounded) for the worker to retire the session before stopping.
  for (int spin = 0; spin < 20000 && engine.stats().totals.done == 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();

  // The overshoot bound, measured server-side (retired sessions fold into
  // the roll-up): emitted frame bytes <= consumed payload + frame headers
  // + two pacing runways.
  const sync::ShardedStats stats = engine.stats();
  CHECK_EQ(stats.totals.done, 1u);
  CHECK(stats.totals.bytes_to_peers > 0u);
  CHECK(stats.totals.bytes_to_peers <=
        client.payload_bytes() + 8 * stats.totals.frames_sent + 2 * cap);
  CHECK_EQ(server.stats().protocol_errors, 0u);
}

// Concurrent-connection stress: several clients reconcile simultaneously
// against one server; the per-connection routing keeps their sessions
// apart, and every connection's close is accounted once the EOFs land.
TRANSPORT_TEST(ConcurrentClientsOnSeparateConnections, Item32) {
  constexpr std::size_t kClients = 6;
  constexpr std::size_t kShards = 3;
  const auto base = make_set_pair<Item32>(500, 30, 0, 93);
  sync::ShardedEngine<Item32> engine(kShards);
  for (const auto& x : base.a) engine.add_item(x);
  Server server(engine);
  server.start();

  std::vector<std::thread> threads;
  std::vector<int> ok(kClients, 0);
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      sync::ShardedClient<Item32> client(c + 1, kShards, BackendId::kRiblt);
      // Client c is missing a distinct prefix of the server set.
      for (std::size_t j = 4 * (c + 1); j < base.b.size(); ++j) {
        client.add_item(base.b[j]);
      }
      SocketClient sock(server.port());
      if (run_session(sock, client, /*timeout_s=*/60.0) &&
          client.diff().remote.size() == base.only_a.size() + 4 * (c + 1) &&
          client.diff().local.empty()) {
        ok[c] = 1;
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 0; c < kClients; ++c) CHECK_EQ(ok[c], 1);
  // The close path runs when the EOFs are read (uring: when the EOF
  // completions reap); give the serving thread a bounded moment.
  for (int spin = 0;
       spin < 5000 && server.stats().connections_closed < kClients; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.stop();
  const SocketServerStats stats = server.stats();
  CHECK_EQ(stats.connections_accepted, kClients);
  CHECK_EQ(stats.connections_closed, kClients);
  CHECK_EQ(stats.protocol_errors, 0u);
}

// Error containment over the socket: a client whose HELLO the router
// rejects gets an in-band ERROR frame; a client that ships garbage bytes
// gets its connection closed; healthy sessions on other connections are
// untouched throughout.
TRANSPORT_TEST(RouterRejectsAndFramingPoisonAreContained, Item32) {
  const auto w = make_set_pair<Item32>(400, 10, 5, 94);
  sync::ShardedEngine<Item32> engine(2);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  // A topology mismatch (shard count 3 against a 2-shard server) comes
  // back as a v2 ERROR frame on the same connection.
  {
    sync::SyncClient<Item32> bad(7, BackendId::kRiblt);
    bad.set_shard(0, 3);
    SocketClient sock(server.port());
    sock.send_frame(bad.hello());
    auto reply = sock.recv_frame(/*timeout_s=*/20.0);
    REQUIRE(reply.has_value());
    const auto frame = sync::v2::parse_frame(*reply);
    CHECK(frame.type == sync::v2::FrameType::kError);
    CHECK_EQ(frame.session_id, 7u);
  }

  // Garbage that defeats the routing prefix closes the connection...
  {
    SocketClient sock(server.port());
    sock.send_frame(bytes_of({0xff, 0xff, 0xff}));
    EXPECT_THROW((void)sock.recv_frame(/*timeout_s=*/20.0),
                 sync::ProtocolError);
  }

  // ...as does a zero-length frame (valid framing, no routing prefix).
  {
    SocketClient sock(server.port());
    sock.send_frame({});
    EXPECT_THROW((void)sock.recv_frame(/*timeout_s=*/20.0),
                 sync::ProtocolError);
  }

  // ...while a healthy client on its own connection still reconciles.
  sync::ShardedClient<Item32> healthy(9, 2, BackendId::kRiblt);
  for (const auto& y : w.b) healthy.add_item(y);
  SocketClient sock(server.port());
  REQUIRE(run_session(sock, healthy, /*timeout_s=*/60.0));
  CHECK(key_set(healthy.diff().remote) == key_set(w.only_a));
  server.stop();
  CHECK(server.stats().protocol_errors >= 2u);
}

// Session hijack: connection B sends a DONE and then a ROUND carrying the
// sid of A's live session. The shard engine rejects both as another
// connection's frames without touching A's session, counts both, answers
// the ROUND in-band and never the DONE. One worker answers in inbox order,
// so an answer to the DONE would reach B first; B reads exactly one ERROR.
// A still completes to the exact diff.
TRANSPORT_TEST(HijackedSessionIdRejected, Item32) {
  const auto w = make_set_pair<Item32>(400, 12, 6, 104);
  sync::ShardedEngine<Item32> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  // A opens a rateless session; its HELLO_ACK proves the session is live.
  sync::SyncClient<Item32> owner(61, BackendId::kRiblt);
  owner.set_shard(0, 1);
  for (const auto& y : w.b) owner.add_item(y);
  SocketClient a(server.port());
  a.send_frame(owner.hello());
  auto ack = a.recv_frame(/*timeout_s=*/20.0);
  REQUIRE(ack.has_value());
  REQUIRE(owner.handle_frame(*ack).empty());

  const std::uint64_t errors_before = engine.stats().protocol_errors;
  sync::v2::Frame done;
  done.type = sync::v2::FrameType::kDone;
  done.session_id = 61;
  sync::v2::Frame round;
  round.type = sync::v2::FrameType::kRound;
  round.session_id = 61;
  SocketClient b(server.port());
  b.send_frame(sync::v2::encode_frame(done));
  b.send_frame(sync::v2::encode_frame(round));
  auto reply = b.recv_frame(/*timeout_s=*/20.0);
  REQUIRE(reply.has_value());
  const auto frame = sync::v2::parse_frame(*reply);
  CHECK(frame.type == sync::v2::FrameType::kError);
  CHECK_EQ(frame.session_id, 61u);
  CHECK_EQ(sync::v2::error_text(frame),
           std::string("session belongs to another connection"));
  CHECK_EQ(engine.stats().protocol_errors, errors_before + 2);

  // A's session streams on, untouched, to the exact diff.
  while (!owner.complete() && !owner.failed()) {
    auto f = a.recv_frame(/*timeout_s=*/20.0);
    REQUIRE(f.has_value());
    for (auto& out : owner.handle_frame(*f)) a.send_frame(std::move(out));
  }
  REQUIRE(owner.complete());
  CHECK(key_set(owner.diff().remote) == key_set(w.only_a));
  CHECK(key_set(owner.diff().local) == key_set(w.only_b));
  CHECK(!b.recv_frame(/*timeout_s=*/0.05).has_value());
  server.stop();
  CHECK_EQ(engine.stats().protocol_errors, errors_before + 2);
  CHECK_EQ(server.stats().protocol_errors, 0u);
}

// A client that disconnects mid-rateless-stream must not leave a zombie
// session: the server queues the close of every session the connection
// owned, the shard worker retires it, and the frame flood stops (before the fix, one disconnect
// pinned a worker core generating ~160k dropped frames/sec forever).
TRANSPORT_TEST(DisconnectAbortsTheEngineSession, Item32) {
  const auto w = make_set_pair<Item32>(800, 40, 0, 95);
  sync::ShardedEngine<Item32> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  {
    sync::SyncClient<Item32> client(11, BackendId::kRiblt);
    client.set_shard(0, 1);
    for (const auto& y : w.b) client.add_item(y);
    SocketClient sock(server.port());
    sock.send_frame(client.hello());
    auto ack = sock.recv_frame(/*timeout_s=*/20.0);
    REQUIRE(ack.has_value());
    // Disconnect without DONE, mid-stream.
  }

  // The engine session must go terminal (retired by the worker), after
  // which no new frames are generated for it.
  bool retired = false;
  for (int spin = 0; spin < 20000 && !retired; ++spin) {
    const sync::ShardedStats stats = engine.stats();
    retired = stats.totals.sessions == 1 && stats.totals.active == 0;
    if (!retired) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(retired);
  const std::uint64_t dropped_then = server.stats().frames_dropped;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  CHECK_EQ(server.stats().frames_dropped, dropped_then);

  // The server keeps serving: a healthy client reconciles afterwards.
  sync::ShardedClient<Item32> healthy(12, 1, BackendId::kRiblt);
  for (const auto& y : w.b) healthy.add_item(y);
  SocketClient sock(server.port());
  REQUIRE(run_session(sock, healthy, /*timeout_s=*/60.0));
  CHECK(key_set(healthy.diff().remote) == key_set(w.only_a));
  server.stop();
}

// An abrupt peer crash mid-rateless-stream must reclaim everything the
// connection pinned -- the engine session (closed with its owner and
// counted as a failure) and the connection itself (accepted == closed) --
// with no further frames generated for the dead sid.
TRANSPORT_TEST(MidSessionCrashReclaimsRoutesAndSession, Item32) {
  const auto w = make_set_pair<Item32>(600, 30, 0, 101);
  sync::ShardedEngine<Item32> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  {
    sync::SyncClient<Item32> client(31, BackendId::kRiblt);
    client.set_shard(0, 1);
    for (const auto& y : w.b) client.add_item(y);
    SocketClient sock(server.port());
    sock.send_frame(client.hello());
    // Read a few frames so the crash lands mid-rateless-stream, past the
    // handshake (HELLO_ACK plus streamed SYMBOLS).
    for (int i = 0; i < 3; ++i) {
      auto f = sock.recv_frame(/*timeout_s=*/20.0);
      REQUIRE(f.has_value());
    }
  }  // abrupt close: no DONE, no in-band goodbye

  bool reclaimed = false;
  for (int spin = 0; spin < 20000 && !reclaimed; ++spin) {
    const sync::ShardedStats es = engine.stats();
    const SocketServerStats ss = server.stats();
    reclaimed = es.totals.sessions == 1 && es.totals.active == 0 &&
                es.totals.failed == 1 && ss.connections_closed == 1;
    if (!reclaimed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(reclaimed);
  // Accounting balances after the reclaim: the drop counter goes quiet
  // (nothing keeps streaming at a closed connection).
  const std::uint64_t dropped_then = server.stats().frames_dropped;
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  CHECK_EQ(server.stats().frames_dropped, dropped_then);
  server.stop();
}

// Idle reaping proven over real sockets: a client that says HELLO and
// then goes silent -- connection open, no ROUND, no DONE -- is failed and
// reclaimed by the shard worker's maintenance tick once idle_deadline_s
// passes, and the reaper's in-band ERROR frame reaches the silent peer
// over its TCP connection.
TRANSPORT_TEST(IdleSessionReapedOverTcp, Item32) {
  const auto w = make_set_pair<Item32>(300, 10, 0, 102);
  sync::EngineOptions options;
  options.idle_deadline_s = 0.2;  // steady-clock deadline; 100 ms reap tick
  sync::ShardedEngine<Item32> engine(1, {}, options);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  sync::SyncClient<Item32> client(41, BackendId::kRiblt);
  client.set_shard(0, 1);
  for (const auto& y : w.b) client.add_item(y);
  SocketClient sock(server.port());
  sock.send_frame(client.hello());

  // Keep draining the rateless stream -- idleness is about inbound frames,
  // not outbound -- until the reaper's ERROR arrives in-band.
  bool got_error = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!got_error && std::chrono::steady_clock::now() < deadline) {
    auto f = sock.recv_frame(/*timeout_s=*/20.0);
    REQUIRE(f.has_value());
    const auto frame = sync::v2::parse_frame(*f);
    if (frame.type == sync::v2::FrameType::kError) {
      CHECK_EQ(frame.session_id, 41u);
      got_error = true;
    }
  }
  CHECK(got_error);

  // The engine ended the session even though the connection stays open.
  bool quiesced = false;
  for (int spin = 0; spin < 20000 && !quiesced; ++spin) {
    const sync::ShardedStats es = engine.stats();
    quiesced = es.totals.sessions_reaped == 1 && es.totals.active == 0;
    if (!quiesced) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(quiesced);
  server.stop();
}

// A HELLO the router accepts but the shard engine rejects (here an 8-byte
// client against a 32-byte server) is answered in-band with the engine's
// reason, and the shard workers' reject counter shows up in a scrape.
TRANSPORT_TEST(EngineRejectedHelloAnsweredInBand, Item32) {
  obs::MetricsRegistry reg;
  sync::EngineOptions engine_options;
  engine_options.metrics = &reg;
  sync::ShardedEngine<Item32> engine(1, {}, engine_options);
  SocketServerOptions options;
  options.metrics = &reg;
  Server server(engine, options);
  server.start();

  sync::SyncClient<Item8> narrow(5, BackendId::kRiblt);
  narrow.set_shard(0, 1);
  SocketClient sock(server.port());
  sock.send_frame(narrow.hello());
  const auto reply = sock.recv_frame(/*timeout_s=*/20.0);
  REQUIRE(reply.has_value());
  const auto frame = sync::v2::parse_frame(*reply);
  CHECK(frame.type == sync::v2::FrameType::kError);
  CHECK_EQ(frame.session_id, 5u);
  CHECK_EQ(sync::v2::error_text(frame), std::string("item size mismatch"));
  CHECK_EQ(engine.stats().protocol_errors, 1u);
  const auto text = scrape(sock, "METRICS");
  REQUIRE(text.has_value());
  CHECK(text->find("\nriblt_shard_protocol_errors_total 1\n") !=
        std::string::npos);
  server.stop();
}

// A frame for a session nobody opened passes the stateless router and is
// answered by the shard its id names: ERROR "unknown session id", one
// reject on the shard counter and none on the server's.
TRANSPORT_TEST(UnknownSessionAnsweredByItsShard, Item32) {
  sync::ShardedEngine<Item32> engine(2);
  Server server(engine);
  server.start();

  sync::v2::Frame round;
  round.type = sync::v2::FrameType::kRound;
  round.session_id = 77;
  SocketClient sock(server.port());
  sock.send_frame(sync::v2::encode_frame(round));
  const auto reply = sock.recv_frame(/*timeout_s=*/20.0);
  REQUIRE(reply.has_value());
  const auto frame = sync::v2::parse_frame(*reply);
  CHECK(frame.type == sync::v2::FrameType::kError);
  CHECK_EQ(frame.session_id, 77u);
  CHECK_EQ(sync::v2::error_text(frame), std::string("unknown session id"));
  CHECK_EQ(engine.stats().protocol_errors, 1u);
  CHECK_EQ(server.stats().protocol_errors, 0u);
  server.stop();
}

// A duplicate HELLO on the owner's own connection mid-session: the shard
// engine rejects it, but its sender holds the session, so the worker counts
// the reject without answering it -- an ERROR would make the client fail a
// session the server keeps streaming. The session streams on to the exact
// diff.
TRANSPORT_TEST(DuplicateHelloLeavesLiveSessionServing, Item32) {
  const auto w = make_set_pair<Item32>(1000, 150, 50, 106);
  sync::ShardedEngine<Item32> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  sync::SyncClient<Item32> owner(71, BackendId::kRiblt);
  owner.set_shard(0, 1);
  for (const auto& y : w.b) owner.add_item(y);
  const auto hello = owner.hello();
  SocketClient sock(server.port());
  sock.send_frame(hello);
  std::size_t frames = 0;
  std::size_t errors = 0;
  const auto absorb = [&](const std::vector<std::byte>& raw) {
    ++frames;
    if (sync::v2::parse_frame(raw).type == sync::v2::FrameType::kError) {
      ++errors;
    }
    for (auto& out : owner.handle_frame(raw)) sock.send_frame(std::move(out));
  };
  // HELLO_ACK plus the first SYMBOLS frame: the session is live mid-stream
  // when its HELLO arrives again.
  for (int i = 0; i < 2; ++i) {
    auto f = sock.recv_frame(/*timeout_s=*/20.0);
    REQUIRE(f.has_value());
    absorb(*f);
  }
  REQUIRE(!owner.complete());
  sock.send_frame(hello);
  // Hold the stream unabsorbed, so the session cannot end, until the shard
  // has rejected the duplicate; then give any answer it would send time to
  // arrive before the session may finish.
  std::vector<std::vector<std::byte>> held;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (engine.stats().protocol_errors == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    if (auto f = sock.recv_frame(/*timeout_s=*/0.001)) {
      held.push_back(std::move(*f));
    }
  }
  CHECK_EQ(engine.stats().protocol_errors, 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (const auto& f : held) absorb(f);
  while (!owner.complete() && !owner.failed()) {
    auto f = sock.recv_frame(/*timeout_s=*/20.0);
    REQUIRE(f.has_value());
    absorb(*f);
  }
  CHECK(frames >= 4u);  // several SYMBOLS frames streamed
  // Keep reading until the DONE ended the session and the stream ran dry:
  // nothing the server staged may be an ERROR.
  bool released = false;
  for (int spin = 0; spin < 2000; ++spin) {
    released = engine.stats().totals.active == 0;
    const auto f = sock.recv_frame(/*timeout_s=*/0.05);
    if (f) {
      CHECK(sync::v2::parse_frame(*f).type != sync::v2::FrameType::kError);
    } else if (released) {
      break;
    }
  }
  CHECK(released);
  CHECK_EQ(errors, 0u);
  REQUIRE(owner.complete());
  CHECK(key_set(owner.diff().remote) == key_set(w.only_a));
  CHECK(key_set(owner.diff().local) == key_set(w.only_b));

  bool quiesced = false;
  for (int spin = 0; spin < 20000 && !quiesced; ++spin) {
    quiesced = engine.stats().totals.active == 0;
    if (!quiesced) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(quiesced);
  CHECK_EQ(engine.stats().protocol_errors, 1u);
  server.stop();
}

// A default-constructed SocketClient keeps the kernel's receive window: a
// capped one stalled unpaced loopback streams on TCP persist-timer probes
// (~200 ms per stall). Back-to-back unpaced rateless sessions over one
// default client must all complete with a tail far below one such stall.
// Sanitizer builds distort timing, so there only completion is checked.
TRANSPORT_TEST(DefaultClientStreamsUnpacedSessionsWithoutStalls, Item8) {
  constexpr std::size_t kN = 4000;
  constexpr std::size_t kD = 100;
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kSessions = 200;
  std::vector<Item8> items;
  for (std::size_t i = 0; i < kN; ++i) {
    items.push_back(Item8::random(derive_seed(105, i)));
  }
  sync::ShardedEngine<Item8> engine(kShards);
  for (const auto& x : items) engine.add_item(x);
  Server server(engine);
  server.start();

  SocketClient sock(server.port());
  std::vector<double> latency_ms;
  for (std::size_t s = 0; s < kSessions; ++s) {
    // Session s misses a distinct kD-item slice of the server's set.
    sync::ShardedClient<Item8> client(s + 1, kShards, BackendId::kRiblt);
    const std::size_t start = (s * kD) % kN;
    for (std::size_t i = 0; i < kN; ++i) {
      if ((i + kN - start) % kN >= kD) client.add_item(items[i]);
    }
    const auto t0 = std::chrono::steady_clock::now();
    REQUIRE(run_session(sock, client, /*timeout_s=*/30.0));
    latency_ms.push_back(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
    REQUIRE_EQ(client.diff().remote.size(), kD);
    REQUIRE_EQ(client.diff().local.size(), 0u);
  }
  server.stop();
  CHECK_EQ(server.stats().protocol_errors, 0u);
  std::sort(latency_ms.begin(), latency_ms.end());
  const double p99 = latency_ms[(latency_ms.size() * 99) / 100];
  std::printf("  unpaced default-client p99 %.1f ms over %zu sessions\n",
              p99, latency_ms.size());
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  CHECK(p99 < 50.0);
#endif
}

// A peer that stops reading entirely (socket open, zero progress) would
// park its shard's worker on the blocking sink forever -- and with it
// every other session on that shard. With sink_timeout_s set the
// connection is doomed and closed instead, and the freed shard serves the
// next client to the exact diff.
TRANSPORT_TEST(StalledPeerDoomedBySinkTimeout, Item32) {
  const auto w = make_set_pair<Item32>(500, 20, 8, 103);
  sync::ShardedEngine<Item32> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  SocketServerOptions options;
  options.high_watermark = 8u << 10;
  options.low_watermark = 2u << 10;
  options.send_buffer = 4 << 10;
  options.sink_timeout_s = 0.2;
  Server server(engine, options);
  server.start();

  // The stalled peer: HELLO, then never read a byte. The rateless stream
  // fills its kernel receive buffer, the server's capped send buffer, and
  // the staging watermark; the sink blocks, and 200 ms later the doom
  // sweep closes the connection instead of wedging the shard.
  sync::SyncClient<Item32> stalled(51, BackendId::kRiblt);
  stalled.set_shard(0, 1);
  SocketClient stalled_sock(server.port());
  stalled_sock.send_frame(stalled.hello());

  bool doomed = false;
  for (int spin = 0; spin < 30000 && !doomed; ++spin) {
    doomed = server.stats().connections_closed >= 1;
    if (!doomed) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  CHECK(doomed);

  // The unwedged shard still serves: a healthy client on a fresh
  // connection reconciles to the exact diff.
  sync::ShardedClient<Item32> healthy(52, 1, BackendId::kRiblt);
  for (const auto& y : w.b) healthy.add_item(y);
  SocketClient sock(server.port());
  REQUIRE(run_session(sock, healthy, /*timeout_s=*/60.0));
  CHECK(key_set(healthy.diff().remote) == key_set(w.only_a));
  CHECK(key_set(healthy.diff().local) == key_set(w.only_b));
  server.stop();
}

// Syscall accounting (the bench's syscalls/session source): a real
// session shows waits and at least one coalesced wakeup on both servers.
// The epoll path also counts reads and writes and submits no SQEs; the
// uring data path makes no per-op syscalls -- everything rides
// io_uring_enter (counted as syscalls_wait) plus submitted SQEs.
TRANSPORT_TEST(SyscallCountersPopulated, Item8) {
  const auto w = make_set_pair<Item8>(400, 16, 10, 97);
  sync::ShardedEngine<Item8> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  Server server(engine);
  server.start();

  sync::ShardedClient<Item8> client(1, 1, BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  SocketClient sock(server.port());
  REQUIRE(run_session(sock, client, /*timeout_s=*/60.0));
  server.stop();

  const SocketServerStats stats = server.stats();
  CHECK(stats.syscalls_wait > 0u);
  CHECK(stats.wakeups > 0u);
  if constexpr (std::is_same_v<Server, SocketServer<Item8>>) {
    CHECK(stats.syscalls_read > 0u);
    CHECK(stats.syscalls_write > 0u);
    CHECK_EQ(stats.sqe_submits, 0u);
  } else {
    CHECK(stats.sqe_submits > 0u);
    CHECK_EQ(stats.syscalls_read, 0u);
    CHECK_EQ(stats.syscalls_write, 0u);
  }
  // Coalescing invariant: wakeup syscalls never exceed staged frames.
  CHECK(stats.wakeups <= stats.frames_out);
  CHECK(stats.syscalls() > 0u);
}

// ------------------------------------------------- io_uring serving path

// Forced fallback: AnyServer with uring disallowed must serve over the
// epoll path with identical results -- the "best available server" rule
// an old kernel or RIBLT_NO_URING triggers at runtime.
TEST(UringTransport, ForcedFallbackServesOverEpoll) {
  const auto w = make_set_pair<Item8>(500, 18, 9, 99);
  sync::ShardedEngine<Item8> engine(1);
  for (const auto& x : w.a) engine.add_item(x);
  AnyServer<Item8> server(engine, {}, /*allow_uring=*/false);
  CHECK(server.backend() == ServerBackend::kEpoll);
  server.start();

  sync::ShardedClient<Item8> client(1, 1, BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  SocketClient sock(server.port());
  REQUIRE(run_session(sock, client, /*timeout_s=*/60.0));
  CHECK(key_set(client.diff().remote) == key_set(w.only_a));
  CHECK(key_set(client.diff().local) == key_set(w.only_b));
  server.stop();
  const SocketServerStats stats = server.stats();
  CHECK_EQ(stats.sqe_submits, 0u);  // really the epoll engine room
  CHECK(stats.syscalls_read > 0u);

  // And when allowed, AnyServer picks uring iff the probe passes.
  sync::ShardedEngine<Item8> engine2(1);
  AnyServer<Item8> best(engine2);
  CHECK((best.backend() == ServerBackend::kUring) == uring_available());
#if defined(RIBLT_HAS_IO_URING)
  // The probe is the only gate: a UringServer built where it fails throws
  // instead of serving on a partially featured ring.
  if (!uring_available()) {
    EXPECT_THROW((void)UringServer<Item8>(engine2), std::runtime_error);
  }
#endif
}

}  // namespace
}  // namespace ribltx::net
