// Tests for the multi-core sharded serving path (sync/sharded.hpp): the
// cross-shard parity acceptance criterion (sharded diff == unsharded diff),
// the HELLO topology negotiation, the consistent item->shard and
// session->shard maps, the shard workers' answers to rejected frames, and
// a threaded-serving smoke that drives real worker threads end to end
// (runs under the ASan job).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sync/sharded.hpp"
#include "testutil.hpp"

namespace ribltx::sync {
namespace {

using testing::key_set;
using testing::make_set_pair;
using Item32 = ByteSymbol<32>;

/// Synchronous round-robin pump: one frame per sub-session per pass, client
/// replies delivered inline -- the single-threaded mirror of the worker
/// loop, for deterministic parity tests.
template <Symbol T>
void pump_sharded(ShardedEngine<T>& engine, ShardedClient<T>& client,
                  std::size_t max_frames = 1'000'000) {
  for (auto& hello : client.hellos()) {
    for (const auto& reply : engine.handle_frame(hello)) {
      (void)client.handle_frame(reply);
    }
  }
  std::size_t frames = 0;
  bool progress = true;
  while (progress && !client.terminal() && frames < max_frames) {
    progress = false;
    for (std::size_t s = 0; s < client.shard_count(); ++s) {
      const auto frame = engine.next_frame(client.sub_session_id(s));
      if (!frame) continue;
      progress = true;
      ++frames;
      for (const auto& reply : client.handle_frame(*frame)) {
        for (const auto& response : engine.handle_frame(reply)) {
          (void)client.handle_frame(response);
        }
      }
    }
  }
}

// Acceptance criterion: the union of the per-shard differences equals the
// unsharded difference, for several shard counts and backends.
TEST(Sharded, CrossShardParityMatchesUnsharded) {
  const auto w = make_set_pair<Item32>(600, 45, 35, 51);
  // Unsharded reference diff through a plain engine.
  SyncEngine<Item32> flat;
  for (const auto& x : w.a) flat.add_item(x);
  SyncClient<Item32> flat_client(1, BackendId::kRiblt);
  for (const auto& y : w.b) flat_client.add_item(y);
  for (const auto& r : flat.handle_frame(flat_client.hello())) {
    (void)flat_client.handle_frame(r);
  }
  for (int i = 0; i < 100000 && !flat_client.complete(); ++i) {
    const auto f = flat.next_frame(1);
    if (!f) break;
    for (const auto& reply : flat_client.handle_frame(*f)) {
      (void)flat.handle_frame(reply);
    }
  }
  REQUIRE(flat_client.complete());
  const auto want_remote = key_set(flat_client.diff().remote);
  const auto want_local = key_set(flat_client.diff().local);
  CHECK(want_remote == key_set(w.only_a));
  CHECK(want_local == key_set(w.only_b));

  for (const std::size_t shards : {1ul, 2ul, 4ul, 7ul}) {
    ShardedEngine<Item32> engine(shards);
    for (const auto& x : w.a) CHECK(engine.add_item(x));
    CHECK_EQ(engine.item_count(), w.a.size());
    ShardedClient<Item32> client(3, shards, BackendId::kRiblt);
    for (const auto& y : w.b) client.add_item(y);
    pump_sharded(engine, client);
    REQUIRE(client.complete());
    const auto diff = client.diff();
    REQUIRE_EQ(diff.remote.size(), w.only_a.size());
    REQUIRE_EQ(diff.local.size(), w.only_b.size());
    CHECK(key_set(diff.remote) == want_remote);
    CHECK(key_set(diff.local) == want_local);
    // Stats roll up across shards.
    const ShardedStats stats = engine.stats();
    CHECK_EQ(stats.items, w.a.size());
    CHECK_EQ(stats.totals.sessions, shards);
    CHECK_EQ(stats.totals.done, shards);
    CHECK(stats.totals.bytes_to_peers > 0u);
  }
}

// Sharded parity holds for a round-based table backend too (the router and
// topology negotiation are backend-agnostic).
TEST(Sharded, ParityWithTableBackend) {
  const auto w = make_set_pair<Item32>(400, 12, 9, 52);
  ShardedEngine<Item32> engine(3);
  for (const auto& x : w.a) engine.add_item(x);
  ShardedClient<Item32> client(9, 3, BackendId::kIbltStrata);
  for (const auto& y : w.b) client.add_item(y);
  pump_sharded(engine, client);
  REQUIRE(client.complete());
  CHECK(key_set(client.diff().remote) == key_set(w.only_a));
  CHECK(key_set(client.diff().local) == key_set(w.only_b));
}

// PR 6 satellite: cross-shard parity holds with adaptive negotiation on.
// Each sub-session probes its own shard slice and gets its own grant (the
// per-shard d's differ, so the granted backends may too); the union of the
// per-shard diffs still equals the plain reference.
TEST(Sharded, ParityWithAdaptiveNegotiation) {
  const auto w = make_set_pair<Item32>(600, 45, 35, 55);
  constexpr std::size_t kShards = 3;
  ShardedEngine<Item32> engine(kShards);
  for (const auto& x : w.a) engine.add_item(x);
  ShardedClient<Item32> client(3, kShards, BackendId::kRiblt);
  client.set_adaptive(0xbeef);
  for (const auto& y : w.b) client.add_item(y);
  pump_sharded(engine, client);
  REQUIRE(client.complete());
  REQUIRE_EQ(client.diff().remote.size(), w.only_a.size());
  REQUIRE_EQ(client.diff().local.size(), w.only_b.size());
  CHECK(key_set(client.diff().remote) == key_set(w.only_a));
  CHECK(key_set(client.diff().local) == key_set(w.only_b));
  const ShardedStats stats = engine.stats();
  CHECK_EQ(stats.totals.done, kShards);
  CHECK_EQ(stats.protocol_errors, 0u);

  // A second, probe-less client under the same peer id rides each shard's
  // independent EWMA (fed by the first client's per-shard DONE counts) and
  // still reconciles to the same diff.
  ShardedClient<Item32> repeat(4, kShards, BackendId::kRiblt);
  repeat.set_adaptive(0xbeef, /*send_probe=*/false);
  for (const auto& y : w.b) repeat.add_item(y);
  pump_sharded(engine, repeat);
  REQUIRE(repeat.complete());
  CHECK(key_set(repeat.diff().remote) == key_set(w.only_a));
  CHECK(key_set(repeat.diff().local) == key_set(w.only_b));
}

TEST(Sharded, ConsistentHashPartitionsBothEndsIdentically) {
  // Client and server compute the same shard for the same item under the
  // same key -- and churn routes to the right shard engine.
  const SipHasher<Item32> hasher(SipKey{7, 9});
  ShardedEngine<Item32> engine(5, hasher);
  for (std::size_t i = 0; i < 200; ++i) {
    const Item32 item = Item32::random(derive_seed(53, i));
    CHECK_EQ(engine.shard_of(item),
             shard_of_hash(hasher(item), 5));
    CHECK(engine.add_item(item));
    CHECK(!engine.add_item(item));  // duplicate detected inside the shard
    CHECK(engine.contains(item));
    if (i % 3 == 0) {
      CHECK(engine.remove_item(item));
      CHECK(!engine.contains(item));
    }
  }
}

TEST(Sharded, HelloTopologyMismatchesAreRejected) {
  ShardedEngine<Item32> engine(4);
  engine.add_item(Item32::random(1));

  // Wrong shard count: rejected by the shard engine its id routes to.
  SyncClient<Item32> wrong_count(1, BackendId::kRiblt);
  wrong_count.set_shard(0, 2);
  EXPECT_THROW((void)engine.handle_frame(wrong_count.hello()), ProtocolError);

  // Unsharded HELLO to a sharded server: rejected.
  SyncClient<Item32> unsharded(2, BackendId::kRiblt);
  EXPECT_THROW((void)engine.handle_frame(unsharded.hello()), ProtocolError);

  // Sharded HELLO to an unsharded engine: rejected by the engine itself.
  SyncEngine<Item32> flat;
  flat.add_item(Item32::random(2));
  SyncClient<Item32> sharded(3, BackendId::kRiblt);
  sharded.set_shard(1, 4);
  EXPECT_THROW((void)flat.handle_frame(sharded.hello()), ProtocolError);

  // Non-HELLO frame for a session nobody opened: its shard knows no such id.
  v2::Frame round;
  round.type = v2::FrameType::kRound;
  round.session_id = 99;
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(round)),
               ProtocolError);

  // Routed by its id, a HELLO whose shard_index names another shard than
  // (sid - 1) mod K reaches a shard that refuses it.
  SyncClient<Item32> stray(6, BackendId::kRiblt);  // id 6 lives on shard 1
  stray.set_shard(2, 4);
  std::string what;
  try {
    (void)engine.handle_frame(stray.hello());
  } catch (const ProtocolError& e) {
    what = e.what();
  }
  CHECK_EQ(what, std::string("HELLO routed to the wrong shard"));

  // A correct HELLO still opens (index within count, matching topology).
  SyncClient<Item32> ok(4, BackendId::kRiblt);
  ok.set_shard(3, 4);
  const auto replies = engine.handle_frame(ok.hello());
  REQUIRE_EQ(replies.size(), 1u);
}

// Threaded smoke: real worker threads, several sharded clients, frames
// crossing threads through the sink; every client must reconcile and the
// engine must shut down cleanly. Exercised under ASan in CI.
TEST(Sharded, ThreadedServingReconcilesManyClients) {
  constexpr std::size_t kShards = 3;
  constexpr std::size_t kClients = 4;
  const auto base = make_set_pair<Item32>(500, 30, 0, 54);
  ShardedEngine<Item32> engine(kShards);
  for (const auto& x : base.a) engine.add_item(x);

  std::vector<std::unique_ptr<ShardedClient<Item32>>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ShardedClient<Item32>>(
        c + 1, kShards, BackendId::kRiblt));
    // Each client is missing a different prefix of the shared set.
    for (std::size_t j = 5 * (c + 1); j < base.b.size(); ++j) {
      clients[c]->add_item(base.b[j]);
    }
  }

  // The sink runs on shard workers: route the frame to its client by the
  // base session id and feed replies straight back to the router.
  std::mutex submit_mu;
  engine.start([&](std::uint64_t, std::vector<std::byte> frame) {
    const std::uint64_t sid = v2::peek_session_id(frame);
    const std::size_t c = static_cast<std::size_t>((sid - 1) / kShards);
    ASSERT_LT(c, kClients);
    for (auto& reply : clients[c]->handle_frame(frame)) {
      // submit() itself is thread-safe; serialize only this test's view.
      const std::lock_guard<std::mutex> lk(submit_mu);
      engine.submit(std::move(reply));
    }
  });
  for (auto& client : clients) {
    for (auto& hello : client->hellos()) engine.submit(std::move(hello));
  }

  // Wait (bounded) for every client to finish, then stop the workers.
  for (int spin = 0; spin < 20000; ++spin) {
    bool all = true;
    for (const auto& client : clients) all = all && client->terminal();
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.stop();
  CHECK(!engine.running());

  for (std::size_t c = 0; c < kClients; ++c) {
    REQUIRE(clients[c]->complete());
    const auto diff = clients[c]->diff();
    CHECK_EQ(diff.remote.size(), base.only_a.size() + 5 * (c + 1));
    CHECK_EQ(diff.local.size(), 0u);
  }
  const ShardedStats stats = engine.stats();
  CHECK_EQ(stats.totals.done, kShards * kClients);
  CHECK_EQ(stats.protocol_errors, 0u);
}

// A session the worker evicts at the session cap is gone from its shard.
// The router keeps no table to consult, so a late ROUND for it is accepted
// by submit(); the shard worker then answers it in-band with the engine's
// verdict and counts one reject.
TEST(Sharded, LateFrameForEvictedSessionAnsweredByItsShard) {
  std::mutex mu;  // declared before the engine: its workers use them
  std::vector<std::pair<std::uint64_t, std::string>> seen;  // sid, reason
  EngineOptions options;
  options.max_sessions = 1;
  ShardedEngine<Item32> engine(1, {}, options);
  engine.add_item(Item32::random(1));
  engine.start([&](std::uint64_t, std::vector<std::byte> frame) {
    const auto type = static_cast<v2::FrameType>(frame[0]);
    if (type == v2::FrameType::kSymbols) return;  // the unread streams
    const v2::Frame f = v2::parse_frame(frame);
    const std::lock_guard<std::mutex> lk(mu);
    seen.emplace_back(f.session_id, type == v2::FrameType::kError
                                        ? v2::error_text(f)
                                        : std::string("ack"));
  });
  SyncClient<Item32> first(1, BackendId::kRiblt);
  first.set_shard(0, 1);
  engine.submit(first.hello());
  const auto saw = [&](std::uint64_t sid, const std::string& what) {
    for (int spin = 0; spin < 20000; ++spin) {
      {
        const std::lock_guard<std::mutex> lk(mu);
        for (const auto& [s, w] : seen) {
          if (s == sid && w == what) return true;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return false;
  };
  REQUIRE(saw(1, "ack"));
  SyncClient<Item32> second(2, BackendId::kRiblt);
  second.set_shard(0, 1);
  engine.submit(second.hello());  // at the cap: evicts session 1
  REQUIRE(saw(1, "evicted at session cap"));
  v2::Frame round;
  round.type = v2::FrameType::kRound;
  round.session_id = 1;
  EXPECT_NO_THROW(engine.submit(v2::encode_frame(round)));
  CHECK(saw(1, "unknown session id"));
  engine.stop();
  CHECK_EQ(engine.stats().totals.sessions_evicted, 1u);
  CHECK_EQ(engine.stats().protocol_errors, 1u);
}

// A shard answers a rejected frame only when it can still matter: a late
// DONE for a session the shard does not hold is counted but not answered
// (its sender has moved on), while a ROUND for one is answered.
TEST(Sharded, LateDoneIsCountedButNotAnswered) {
  std::mutex mu;  // declared before the engine: its workers use them
  std::vector<std::uint64_t> answered;
  ShardedEngine<Item32> engine(1);
  engine.start([&](std::uint64_t, std::vector<std::byte> frame) {
    const std::lock_guard<std::mutex> lk(mu);
    answered.push_back(v2::peek_session_id(frame));
  });
  v2::Frame done;
  done.type = v2::FrameType::kDone;
  done.session_id = 5;
  engine.submit(v2::encode_frame(done));
  v2::Frame round;
  round.type = v2::FrameType::kRound;
  round.session_id = 6;
  engine.submit(v2::encode_frame(round));
  // One worker answers in inbox order, so once the ROUND's answer is out,
  // an answer to the DONE would be too.
  bool round_answered = false;
  for (int spin = 0; spin < 20000 && !round_answered; ++spin) {
    {
      const std::lock_guard<std::mutex> lk(mu);
      round_answered = !answered.empty();
    }
    if (!round_answered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  engine.stop();
  REQUIRE(round_answered);
  CHECK(answered == std::vector<std::uint64_t>{6});
  CHECK_EQ(engine.stats().protocol_errors, 2u);
}

// Every frame a worker hands the sink carries the owner its session's
// HELLO arrived with, and close_owner queues behind the frames that owner
// already submitted: each shard opens the owner's session, then retires
// it, while another owner's session streams on.
TEST(Sharded, CloseOwnerRetiresOnlyThatOwnersSessions) {
  std::mutex mu;  // declared before the engine: its workers use them
  std::size_t acks = 0;
  std::size_t misaddressed = 0;
  ShardedEngine<Item32> engine(2);
  engine.add_item(Item32::random(1));
  ShardedClient<Item32> leaving(1, 2, BackendId::kRiblt);
  ShardedClient<Item32> staying(2, 2, BackendId::kRiblt);
  for (auto& hello : leaving.hellos()) engine.submit(std::move(hello), 7);
  for (auto& hello : staying.hellos()) engine.submit(std::move(hello), 8);
  engine.close_owner(7);
  engine.start([&](std::uint64_t owner, std::vector<std::byte> frame) {
    const std::uint64_t sid = v2::peek_session_id(frame);
    const std::lock_guard<std::mutex> lk(mu);
    if (owner != (leaving.owns(sid) ? 7u : 8u)) ++misaddressed;
    if (static_cast<v2::FrameType>(frame[0]) == v2::FrameType::kHelloAck) {
      ++acks;
    }
  });
  bool settled = false;
  for (int spin = 0; spin < 20000 && !settled; ++spin) {
    const ShardedStats stats = engine.stats();
    settled = stats.totals.sessions == 4 && stats.totals.failed == 2;
    if (!settled) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.stop();
  REQUIRE(settled);
  const ShardedStats stats = engine.stats();
  CHECK_EQ(stats.totals.active, 2u);  // the staying client's sub-sessions
  CHECK_EQ(stats.protocol_errors, 0u);
  const std::lock_guard<std::mutex> lk(mu);
  CHECK_EQ(acks, 4u);
  CHECK_EQ(misaddressed, 0u);
}

// The id->shard contract both ends rely on: every sub-session id a
// ShardedClient hands out maps back to its shard through shard_of_session,
// and owns() accepts exactly the client's K ids -- for seeded bases,
// including 1 and the largest base whose ids fit in 64 bits. One base
// further the ids would wrap onto other clients' ids and other shards, so
// the client refuses it.
TEST(Sharded, SubSessionIdsNameTheirShard) {
  for (const std::size_t k : {1u, 2u, 3u, 4u, 7u, 64u}) {
    const std::uint64_t top = std::numeric_limits<std::uint64_t>::max() / k;
    EXPECT_THROW(ShardedClient<Item32>(top + 1, k, BackendId::kRiblt),
                 std::invalid_argument);
    std::vector<std::uint64_t> bases = {1, 2, top - 1, top};
    for (std::uint64_t i = 0; i < 8; ++i) {
      bases.push_back(1 + derive_seed(61, i) % top);
    }
    for (const std::uint64_t base : bases) {
      const ShardedClient<Item32> client(base, k, BackendId::kRiblt);
      for (std::size_t s = 0; s < k; ++s) {
        CHECK_EQ(shard_of_session(client.sub_session_id(s), k), s);
        CHECK(client.owns(client.sub_session_id(s)));
      }
      // The K ids are consecutive, so owns() accepting exactly them means
      // rejecting the neighbours on both sides.
      const std::uint64_t lo = client.sub_session_id(0);
      const std::uint64_t hi = client.sub_session_id(k - 1);
      CHECK_EQ(hi - lo + 1, k);
      CHECK(!client.owns(lo - 1));
      if (hi != std::numeric_limits<std::uint64_t>::max()) {
        CHECK(!client.owns(hi + 1));
      }
    }
  }
}

// ISSUE 7 tentpole: churn bypasses the shard mutex. Writer threads hammer
// add_item/remove_item while worker threads serve live sessions from the
// same engine; mid-churn sessions must still decode a superset of the
// planted difference with an empty local side, the quiesced engine must
// reconcile the exact difference, and the new EngineTotals ingest counters
// (items_added / items_removed / journal_depth) must agree with what the
// writers actually did. Runs under ASan in CI; the cache-level races are
// covered separately by SequenceCacheConcurrent under TSan.
TEST(Sharded, ConcurrentIngestWhileServing) {
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kClients = 2;
  constexpr std::size_t kWriters = 3;
  constexpr std::size_t kPerWriter = 400;
  const auto base = make_set_pair<Item32>(300, 20, 0, 57);
  ShardedEngine<Item32> engine(kShards);
  for (const auto& x : base.a) CHECK(engine.add_item(x));

  std::vector<std::unique_ptr<ShardedClient<Item32>>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ShardedClient<Item32>>(
        c + 1, kShards, BackendId::kRiblt));
    for (const auto& y : base.b) clients[c]->add_item(y);
  }
  std::mutex submit_mu;
  engine.start([&](std::uint64_t, std::vector<std::byte> frame) {
    const std::uint64_t sid = v2::peek_session_id(frame);
    const std::size_t c = static_cast<std::size_t>((sid - 1) / kShards);
    ASSERT_LT(c, kClients);
    for (auto& reply : clients[c]->handle_frame(frame)) {
      const std::lock_guard<std::mutex> lk(submit_mu);
      engine.submit(std::move(reply));
    }
  });

  // Writers start first so the sessions below snapshot mid-churn. Every
  // writer item is later removed by the same writer, so the quiesced set
  // is exactly base.a again.
  std::atomic<bool> writers_ok{true};
  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&engine, &writers_ok, w] {
      bool ok = true;
      std::vector<Item32> mine;
      mine.reserve(kPerWriter);
      for (std::size_t i = 0; i < kPerWriter; ++i) {
        mine.push_back(Item32::random(derive_seed(580 + w, i)));
        ok = engine.add_item(mine.back()) && ok;
        if (i % 2 == 1) ok = engine.remove_item(mine[i - 1]) && ok;
      }
      for (std::size_t i = 1; i < kPerWriter; i += 2) {
        ok = engine.remove_item(mine[i]) && ok;
      }
      if (!ok) writers_ok.store(false, std::memory_order_relaxed);
    });
  }
  for (auto& client : clients) {
    for (auto& hello : client->hellos()) engine.submit(std::move(hello));
  }
  for (auto& t : writers) t.join();
  CHECK(writers_ok.load());

  for (int spin = 0; spin < 20000; ++spin) {
    bool all = true;
    for (const auto& client : clients) all = all && client->terminal();
    if (all) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.stop();

  // Mid-churn sessions: snapshot isolation means each decoded against a
  // consistent cut that contains all of base.a plus whatever writer items
  // were live then -- so remote is a superset of the planted difference
  // and local is empty.
  const auto want_remote = key_set(base.only_a);
  for (const auto& client : clients) {
    REQUIRE(client->complete());
    const auto diff = client->diff();
    CHECK_EQ(diff.local.size(), 0u);
    CHECK(diff.remote.size() >= base.only_a.size());
    const auto got = key_set(diff.remote);
    for (const auto& k : want_remote) CHECK(got.count(k) == 1u);
  }

  // Quiesced exact check through the synchronous pump.
  ShardedClient<Item32> after(kClients + 1, kShards, BackendId::kRiblt);
  for (const auto& y : base.b) after.add_item(y);
  pump_sharded(engine, after);
  REQUIRE(after.complete());
  CHECK(key_set(after.diff().remote) == want_remote);
  CHECK_EQ(after.diff().local.size(), 0u);

  // Ingest counters roll up exactly across shards and writer threads.
  const ShardedStats stats = engine.stats();
  CHECK_EQ(stats.items, base.a.size());
  CHECK_EQ(stats.totals.items_added, base.a.size() + kWriters * kPerWriter);
  CHECK_EQ(stats.totals.items_removed, kWriters * kPerWriter);
  CHECK_EQ(stats.protocol_errors, 0u);
}

}  // namespace
}  // namespace ribltx::sync
