// Tests for the Replica anti-entropy daemon (ISSUE 9 tentpole): scheduler
// behavior under a fake transport (backoff growth/reset, session
// deadlines, restart epochs), full convergence over SimConduit links with
// loss/corruption/partitions/crash, and the concurrent-ingest contract
// (ReplicaConcurrent* runs under the TSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/sim_conduit.hpp"
#include "obs/metrics.hpp"
#include "sync/replica.hpp"
#include "testutil.hpp"

namespace ribltx::sync {
namespace {

using testing::key_set;
using testing::make_set_pair;
using Item32 = ByteSymbol<32>;

ReplicaOptions base_options(std::uint64_t id) {
  ReplicaOptions o;
  o.replica_id = id;
  o.sync_interval_s = 0.1;
  o.backoff_base_s = 0.5;
  o.backoff_cap_s = 2.0;
  o.jitter = 0;  // deterministic schedules for the clock-stepping tests
  o.session_deadline_s = 1.0;
  o.engine.idle_deadline_s = 3.0;
  o.seed = id;
  return o;
}

/// Fake transport capturing outbound frames (a peer that never answers).
struct CapturePeer {
  std::vector<std::vector<std::byte>> frames;
  [[nodiscard]] Replica<Item32>::SendFn send() {
    return [this](std::vector<std::byte> f) {
      frames.push_back(std::move(f));
      return true;
    };
  }
  [[nodiscard]] std::size_t count(v2::FrameType t) const {
    std::size_t n = 0;
    for (const auto& f : frames) {
      if (!f.empty() && static_cast<v2::FrameType>(f[0]) == t) ++n;
    }
    return n;
  }
};

TEST(Replica, DeadlineAbortsGrowCappedBackoff) {
  Replica<Item32> replica(base_options(1));
  for (std::size_t i = 0; i < 10; ++i) {
    (void)replica.add_item(Item32::random(i));
  }
  CapturePeer peer;
  replica.add_peer(2, peer.send());

  // First round opens one interval after registration (jitter off).
  replica.tick(0.05);
  EXPECT_EQ(peer.count(v2::FrameType::kHello), 0u);
  replica.tick(0.11);
  EXPECT_EQ(peer.count(v2::FrameType::kHello), 1u);
  EXPECT_EQ(replica.stats().rounds_attempted, 1u);
  EXPECT_EQ(replica.session_count(), 1u);  // the in-flight round

  // The peer never answers: past the 1 s deadline the round aborts, the
  // server side is told (ERROR frame), and the first backoff is base_s.
  replica.tick(1.0);
  EXPECT_EQ(replica.stats().rounds_aborted, 0u);  // 0.89s elapsed: not yet
  replica.tick(1.2);
  EXPECT_EQ(replica.stats().rounds_aborted, 1u);
  EXPECT_EQ(peer.count(v2::FrameType::kError), 1u);
  EXPECT_EQ(replica.session_count(), 0u);
  ASSERT_EQ(replica.stats().peers.size(), 1u);
  EXPECT_DOUBLE_EQ(replica.stats().peers[0].backoff_s, 0.5);

  // Consecutive failures double the delay up to the cap: 0.5 -> 1 -> 2 ->
  // 2 (capped). Each retry is also counted as such.
  double t = 1.2;
  const double expected[] = {1.0, 2.0, 2.0};
  for (std::size_t i = 0; i < 3; ++i) {
    const double backoff = replica.stats().peers[0].backoff_s;
    t += backoff + 0.01;
    replica.tick(t);  // opens the retry round
    t += 1.01;
    replica.tick(t);  // deadline-aborts it
    EXPECT_DOUBLE_EQ(replica.stats().peers[0].backoff_s, expected[i]);
  }
  EXPECT_EQ(replica.stats().rounds_aborted, 4u);
  EXPECT_EQ(replica.stats().retries, 3u);  // all but the first were retries
  EXPECT_EQ(replica.stats().peers[0].failures, 4u);
  EXPECT_EQ(replica.stats().peers[0].last_success, -1);
}

TEST(Replica, PausedOpensNoRounds) {
  Replica<Item32> replica(base_options(1));
  CapturePeer peer;
  replica.add_peer(2, peer.send());
  replica.set_paused(true);
  replica.tick(5.0);
  EXPECT_EQ(peer.frames.size(), 0u);
  replica.set_paused(false);
  replica.tick(5.1);
  EXPECT_EQ(peer.count(v2::FrameType::kHello), 1u);
}

TEST(Replica, RestartBumpsSidEpochAndClearsSessions) {
  Replica<Item32> replica(base_options(1));
  CapturePeer peer;
  replica.add_peer(2, peer.send());
  replica.tick(0.2);
  ASSERT_EQ(peer.count(v2::FrameType::kHello), 1u);
  const std::uint64_t sid_before = v2::peek_session_id(peer.frames.back());
  EXPECT_EQ(replica.session_count(), 1u);

  replica.restart(0.5);
  EXPECT_EQ(replica.session_count(), 0u);
  EXPECT_EQ(replica.stats().restarts, 1u);

  replica.tick(0.7);  // one interval after restart: fresh round
  ASSERT_EQ(peer.count(v2::FrameType::kHello), 2u);
  const std::uint64_t sid_after = v2::peek_session_id(peer.frames.back());
  EXPECT_NE(sid_before, sid_after);
  // The epoch field (bits 32..39) advanced: post-crash sessions can never
  // collide with pre-crash ones still buffered in the network.
  EXPECT_EQ((sid_before >> 32) & 0xff, 0u);
  EXPECT_EQ((sid_after >> 32) & 0xff, 1u);
}

TEST(Replica, SendFailureFailsPeerAndReclaimsServing) {
  Replica<Item32> replica(base_options(1));
  bool link_up = true;
  replica.add_peer(2, [&](std::vector<std::byte>) { return link_up; });

  // An inbound HELLO opens a serving session for peer 2.
  SyncClient<Item32> remote(77, BackendId::kRiblt);
  replica.deliver(2, remote.hello(), 0.05);
  EXPECT_EQ(replica.engine().session_count(), 1u);

  // The link dies mid-exchange: the next emission fails, which must tear
  // down the peer's serving sessions AND route the in-flight round (none
  // yet) through backoff without leaking anything.
  link_up = false;
  replica.tick(0.2);  // opens a round at 0.1 -> send fails -> link down
  EXPECT_EQ(replica.engine().session_count(), 0u);
  EXPECT_EQ(replica.session_count(), 0u);
  EXPECT_EQ(replica.stats().rounds_aborted, 1u);
  EXPECT_GT(replica.stats().peers[0].backoff_s, 0.0);
  const auto totals = replica.engine().totals();
  EXPECT_EQ(totals.active, 0u);
  EXPECT_EQ(totals.sessions, 1u);  // the serving session, now retired
}

// A serving session belongs to the peer whose HELLO opened it. Another
// peer's ROUND for it is refused in-band as another connection's, its DONE
// and ERROR draw no answer at all, and the owner's session streams on to
// the exact diff.
TEST(Replica, ForeignPeerCannotTouchAServingSession) {
  Replica<Item32> replica(base_options(1));
  const auto w = make_set_pair<Item32>(200, 12, 6, 131);
  for (const auto& x : w.a) (void)replica.add_item(x);
  replica.set_paused(true);  // serving only: no outbound rounds
  CapturePeer owner_link;
  CapturePeer hijacker_link;
  replica.add_peer(2, owner_link.send());
  replica.add_peer(3, hijacker_link.send());

  SyncClient<Item32> client(77, BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  double t = 0.01;
  replica.deliver(2, client.hello(), t);
  REQUIRE_EQ(owner_link.count(v2::FrameType::kHelloAck), 1u);

  v2::Frame round;
  round.type = v2::FrameType::kRound;
  round.session_id = 77;
  replica.deliver(3, v2::encode_frame(round), t);
  REQUIRE_EQ(hijacker_link.frames.size(), 1u);
  const v2::Frame refused = v2::parse_frame(hijacker_link.frames[0]);
  CHECK(refused.type == v2::FrameType::kError);
  CHECK_EQ(refused.session_id, 77u);
  CHECK_EQ(v2::error_text(refused),
           std::string("session belongs to another connection"));
  v2::Frame done = round;
  done.type = v2::FrameType::kDone;
  replica.deliver(3, v2::encode_frame(done), t);
  replica.deliver(3, v2::make_error_frame(77, "abort"), t);
  CHECK_EQ(hijacker_link.frames.size(), 1u);

  std::size_t next = 0;
  for (int guard = 0; guard < 100000 && !client.complete() && !client.failed();
       ++guard) {
    if (next == owner_link.frames.size()) {
      t += 0.001;
      replica.tick(t);  // pumps the next serve_budget frames
      continue;
    }
    const auto frame = owner_link.frames[next++];  // deliver may append
    for (auto& reply : client.handle_frame(frame)) {
      replica.deliver(2, reply, t);
    }
  }
  REQUIRE(client.complete());
  CHECK(key_set(client.diff().remote) == key_set(w.only_a));
  CHECK(key_set(client.diff().local) == key_set(w.only_b));
  CHECK_EQ(hijacker_link.frames.size(), 1u);
  replica.tick(t + 0.001);  // retires the finished session
  CHECK_EQ(replica.engine().session_count(), 0u);
}

/// In-memory pair coupling: frames queue per direction and flush on
/// demand, so deliver() is never re-entered from inside a send.
struct MemPair {
  Replica<Item32> a;
  Replica<Item32> b;
  std::deque<std::pair<bool, std::vector<std::byte>>> wire;  ///< to_b, frame
  bool a_to_b_up = true;
  bool b_to_a_up = true;

  explicit MemPair(ReplicaOptions oa, ReplicaOptions ob)
      : a(std::move(oa)), b(std::move(ob)) {
    a.add_peer(b.replica_id(), [this](std::vector<std::byte> f) {
      if (a_to_b_up) wire.emplace_back(true, std::move(f));
      return true;  // silent blackhole when down (deadline path, not error)
    });
    b.add_peer(a.replica_id(), [this](std::vector<std::byte> f) {
      if (b_to_a_up) wire.emplace_back(false, std::move(f));
      return true;
    });
  }

  void flush(double now) {
    while (!wire.empty()) {
      auto [to_b, frame] = std::move(wire.front());
      wire.pop_front();
      if (to_b) {
        b.deliver(a.replica_id(), frame, now);
      } else {
        a.deliver(b.replica_id(), frame, now);
      }
    }
  }

  void step(double now) {
    a.tick(now);
    b.tick(now);
    flush(now);
  }

  [[nodiscard]] bool converged() const {
    if (a.item_count() != b.item_count()) return false;
    std::uint64_t xa = 0, xb = 0;
    a.for_each_item([&](const HashedSymbol<Item32>& h) { xa ^= h.hash; });
    b.for_each_item([&](const HashedSymbol<Item32>& h) { xb ^= h.hash; });
    return xa == xb;
  }
};

TEST(Replica, ConvergesAndSuccessResetsBackoff) {
  auto oa = base_options(1);
  auto ob = base_options(2);
  MemPair net(oa, ob);
  const auto w = make_set_pair<Item32>(60, 7, 5, 99);
  for (const auto& x : w.a) (void)net.a.add_item(x);
  for (const auto& y : w.b) (void)net.b.add_item(y);

  // Blackhole B's outbound direction first so A's opening rounds deadline
  // out and build real backoff.
  net.b_to_a_up = false;
  double t = 0;
  for (; t < 2.5; t += 0.05) net.step(t);
  EXPECT_GT(net.a.stats().rounds_aborted, 0u);
  EXPECT_GT(net.a.stats().peers[0].backoff_s, 0.0);

  // Heal the link: both replicas converge to the union and A's backoff
  // resets to zero on its first converged round.
  net.b_to_a_up = true;
  for (; t < 12.0 && !net.converged(); t += 0.05) net.step(t);
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.a.item_count(), 72u);  // 60 + 7 + 5
  EXPECT_DOUBLE_EQ(net.a.stats().peers[0].backoff_s, 0.0);
  EXPECT_GT(net.a.stats().peers[0].converged, 0u);
  EXPECT_GE(net.a.stats().peers[0].last_success, 0.0);
  EXPECT_EQ(net.a.stats().items_applied, 5u);  // B's exclusives
  EXPECT_EQ(net.b.stats().items_applied, 7u);  // A's exclusives

  // Quiesce: no in-flight rounds or serving sessions left behind.
  net.a.set_paused(true);
  net.b.set_paused(true);
  for (double q = t; q < t + 8.0; q += 0.05) net.step(q);
  EXPECT_EQ(net.a.session_count(), 0u);
  EXPECT_EQ(net.b.session_count(), 0u);
}

// Staleness is exported in caller-clock milliseconds: the chaos fleet syncs
// every 0.4 s, so whole seconds would hide it.
TEST(Replica, StalenessGaugeReadsMilliseconds) {
  obs::MetricsRegistry reg;
  auto oa = base_options(1);
  oa.engine.metrics = &reg;
  MemPair net(oa, base_options(2));
  const auto w = make_set_pair<Item32>(40, 3, 2, 71);
  for (const auto& x : w.a) (void)net.a.add_item(x);
  for (const auto& y : w.b) (void)net.b.add_item(y);
  const obs::Labels row{{"replica", "1"}, {"peer", "2"}};
  const auto last_success_ms = [&] {
    const obs::MetricsSnapshot snap = reg.snapshot();
    const auto* g = snap.find_series("riblt_replica_peer_last_success_ms", row);
    return g == nullptr ? std::int64_t{-2} : g->gauge;
  };
  EXPECT_EQ(last_success_ms(), -1);  // never converged yet
  net.step(1.25);  // A's first round opens, converges, and settles now
  ASSERT_EQ(net.a.stats().peers[0].converged, 1u);
  EXPECT_EQ(last_success_ms(), 1250);
}

// ---------------------------------------------------------- sim transport

/// Two replicas over one SimConduit, with periodic ticks driven by the
/// event loop -- the miniature of the chaos bench harness.
struct SimPair {
  netsim::EventLoop loop;
  std::unique_ptr<Replica<Item32>> a;
  std::unique_ptr<Replica<Item32>> b;
  std::unique_ptr<net::SimConduit> conduit;
  /// Dead conduit incarnations: EventLoop timer closures hold raw endpoint
  /// pointers, so a replaced conduit must outlive the loop.
  std::vector<std::unique_ptr<net::SimConduit>> graveyard;
  bool ticking = true;
  double tick_until = 0;

  SimPair(const netsim::LinkConfig& ab, const netsim::LinkConfig& ba) {
    auto oa = base_options(1);
    auto ob = base_options(2);
    oa.jitter = 0.2;  // realistic schedules over the simulated wire
    ob.jitter = 0.2;
    oa.sync_interval_s = ob.sync_interval_s = 0.2;
    a = std::make_unique<Replica<Item32>>(oa);
    b = std::make_unique<Replica<Item32>>(ob);
    conduit = std::make_unique<net::SimConduit>(loop, ab, ba);
    wire(/*first_time=*/true);
  }

  void wire(bool first_time) {
    net::SimEndpoint* ea = &conduit->a();
    net::SimEndpoint* eb = &conduit->b();
    ea->on_frame([this](std::vector<std::byte> f) {
      a->deliver(2, f, loop.now());
    });
    eb->on_frame([this](std::vector<std::byte> f) {
      b->deliver(1, f, loop.now());
    });
    ea->on_error([this] { a->peer_link_down(2, loop.now()); });
    eb->on_error([this] { b->peer_link_down(1, loop.now()); });
    const auto send_via = [](net::SimEndpoint* ep) {
      return [ep](std::vector<std::byte> f) {
        if (ep->broken()) return false;
        ep->send_frame(std::move(f));
        return true;
      };
    };
    const auto ready_via = [](net::SimEndpoint* ep) {
      return [ep] { return !ep->broken() && ep->writable(); };
    };
    if (first_time) {
      a->add_peer(2, send_via(ea), ready_via(ea));
      b->add_peer(1, send_via(eb), ready_via(eb));
    } else {
      a->set_peer_link(2, send_via(ea), ready_via(ea));
      b->set_peer_link(1, send_via(eb), ready_via(eb));
    }
  }

  void schedule_ticks() {
    loop.schedule_in(0.05, [this] {
      if (!ticking) return;
      a->tick(loop.now());
      b->tick(loop.now());
      if (loop.now() < tick_until) schedule_ticks();
    });
  }

  /// Ticks both replicas until `t_end`, then lets the loop drain.
  void run_until(double t_end) {
    tick_until = t_end;
    schedule_ticks();
    loop.run();
  }

  [[nodiscard]] bool converged() const {
    if (a->item_count() != b->item_count()) return false;
    std::uint64_t xa = 0, xb = 0;
    a->for_each_item([&](const HashedSymbol<Item32>& h) { xa ^= h.hash; });
    b->for_each_item([&](const HashedSymbol<Item32>& h) { xb ^= h.hash; });
    return xa == xb;
  }
};

netsim::LinkConfig sim_link(std::uint64_t seed) {
  netsim::LinkConfig link;
  link.one_way_delay_s = 0.005;
  link.bandwidth_bps = 50e6;
  link.seed = seed;
  return link;
}

TEST(ReplicaSim, ConvergesOverCleanLink) {
  SimPair net(sim_link(1), sim_link(2));
  const auto w = make_set_pair<Item32>(100, 12, 9, 7);
  for (const auto& x : w.a) (void)net.a->add_item(x);
  for (const auto& y : w.b) (void)net.b->add_item(y);
  net.run_until(6.0);
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.a->item_count(), 121u);
  EXPECT_EQ(net.a->stats().rounds_aborted, 0u);
}

TEST(ReplicaSim, ConvergesThroughLossCorruptionDuplication) {
  auto ab = sim_link(11);
  ab.loss_rate = 0.08;
  ab.corrupt_rate = 0.02;   // checksummed segments: detected + retransmitted
  ab.duplicate_rate = 0.05;
  ab.reorder_jitter_s = 0.004;
  auto ba = ab;
  ba.seed = 12;
  SimPair net(ab, ba);
  const auto w = make_set_pair<Item32>(80, 10, 10, 21);
  for (const auto& x : w.a) (void)net.a->add_item(x);
  for (const auto& y : w.b) (void)net.b->add_item(y);
  net.run_until(15.0);
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.a->item_count(), 100u);
  // The faults actually hit the wire.
  EXPECT_GT(net.conduit->link_ab().dropped_count() +
                net.conduit->link_ba().dropped_count(),
            0u);
  EXPECT_GT(net.conduit->a().retransmits() + net.conduit->b().retransmits(),
            0u);
}

TEST(ReplicaSim, PartitionWindowBacksOffThenRecovers) {
  SimPair net(sim_link(31), sim_link(32));
  // Bidirectional partition [1, 3): rounds opened inside it deadline-abort
  // and back off; after healing the pair converges.
  net.conduit->link_ab().add_partition(1.0, 3.0);
  net.conduit->link_ba().add_partition(1.0, 3.0);
  const auto w = make_set_pair<Item32>(60, 8, 8, 41);
  for (const auto& x : w.a) (void)net.a->add_item(x);
  for (const auto& y : w.b) (void)net.b->add_item(y);
  net.run_until(12.0);
  EXPECT_TRUE(net.converged());
  EXPECT_GT(net.a->stats().rounds_aborted + net.b->stats().rounds_aborted,
            0u);
  EXPECT_GT(net.a->stats().retries + net.b->stats().retries, 0u);
}

TEST(ReplicaSim, CrashRestartRejoinsAndConverges) {
  SimPair net(sim_link(51), sim_link(52));
  const auto w = make_set_pair<Item32>(70, 9, 6, 61);
  for (const auto& x : w.a) (void)net.a->add_item(x);
  for (const auto& y : w.b) (void)net.b->add_item(y);

  // At t=1: B crashes (conduit severed both ends; A's ready gate goes
  // dark, so A idles instead of burning rounds into a dead pipe). At t=3:
  // B restarts, the conduit is rebuilt, links rebound -- the pair must
  // reconverge.
  netsim::EventLoop& loop = net.loop;
  std::uint64_t attempts_at_crash = 0, attempts_at_recover = 0;
  loop.schedule_at(1.0, [&] {
    attempts_at_crash = net.a->stats().rounds_attempted;
    net.conduit->a().sever();
    net.conduit->b().sever();
  });
  loop.schedule_at(3.0, [&] {
    attempts_at_recover = net.a->stats().rounds_attempted;
    net.b->restart(loop.now());
    net.graveyard.push_back(std::move(net.conduit));
    net.conduit =
        std::make_unique<net::SimConduit>(loop, sim_link(53), sim_link(54));
    net.wire(/*first_time=*/false);
  });
  net.run_until(12.0);
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.a->item_count(), 85u);
  EXPECT_EQ(net.b->stats().restarts, 1u);
  // The broken link gated A's scheduler: no rounds opened into the dead
  // pipe while B was down, and syncing resumed after the rebuild.
  EXPECT_EQ(attempts_at_recover, attempts_at_crash);
  EXPECT_GT(net.a->stats().rounds_attempted, attempts_at_recover);
  EXPECT_GT(net.a->stats().peers[0].converged, 0u);
}

// ----------------------------------------------------------- concurrency

// TSan target: the engine's ingest surface is thread-safe by contract, so
// writer threads add items WHILE the scheduler surface (tick/deliver on
// the main thread) runs anti-entropy. Run under -DRIBLT_SANITIZE=tsan.
TEST(ReplicaConcurrent, IngestDuringAntiEntropy) {
  auto oa = base_options(1);
  auto ob = base_options(2);
  oa.session_deadline_s = ob.session_deadline_s = 5.0;
  MemPair net(oa, ob);
  for (std::size_t i = 0; i < 50; ++i) {
    const auto shared = Item32::random(derive_seed(1000, i));
    (void)net.a.add_item(shared);
    (void)net.b.add_item(shared);
  }

  constexpr std::size_t kPerWriter = 120;
  const auto writer = [](Replica<Item32>& r, std::uint64_t stream) {
    return [&r, stream] {
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        (void)r.add_item(Item32::random(derive_seed(stream, i)));
        if (i % 8 == 0) std::this_thread::yield();
      }
    };
  };
  std::thread wa(writer(net.a, 7001));
  std::thread wb(writer(net.b, 7002));
  std::thread wa2(writer(net.a, 7003));
  std::thread wb2(writer(net.b, 7004));

  // Anti-entropy runs concurrently with the ingest above.
  double t = 0;
  for (; t < 4.0; t += 0.02) net.step(t);
  wa.join();
  wb.join();
  wa2.join();
  wb2.join();

  // Churn has stopped; keep syncing until the union converges.
  for (; t < 60.0 && !net.converged(); t += 0.02) net.step(t);
  EXPECT_TRUE(net.converged());
  EXPECT_EQ(net.a.item_count(), 50u + 4 * kPerWriter);
}

}  // namespace
}  // namespace ribltx::sync
