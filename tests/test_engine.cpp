// Tests for the multi-session SyncEngine and its v2 wire protocol: the
// cross-backend parity matrix (acceptance criterion: all four backends
// through one engine recover the identical symmetric difference), the
// 3-peer concurrent-session scenario, the per-session state machine, and
// error containment.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sync/engine.hpp"
#include "testutil.hpp"

namespace ribltx::sync {
namespace {

using testing::key_set;
using testing::make_set_pair;
using Item32 = ByteSymbol<32>;

constexpr BackendId kAllBackends[] = {BackendId::kRiblt,
                                      BackendId::kIbltStrata, BackendId::kCpi,
                                      BackendId::kMetIblt};

/// Round-robin loopback pump: interleaves one frame per client per pass so
/// concurrent sessions genuinely overlap on the engine. Client responses
/// (ROUND/DONE) are delivered to the engine inline; any engine responses
/// (ERROR) go back to the client.
template <Symbol T, typename Hasher>
void pump_engine(SyncEngine<T, Hasher>& engine,
                 std::vector<SyncClient<T, Hasher>*> clients,
                 std::size_t max_frames = 1'000'000) {
  for (auto* client : clients) {
    if (client->started()) continue;  // caller already delivered HELLO
    for (const auto& response : engine.handle_frame(client->hello())) {
      (void)client->handle_frame(response);
    }
  }
  std::size_t frames = 0;
  bool progress = true;
  while (progress && frames < max_frames) {
    progress = false;
    for (auto* client : clients) {
      if (client->complete() || client->failed()) continue;
      const auto frame = engine.next_frame(client->session_id());
      if (!frame) continue;
      progress = true;
      ++frames;
      for (const auto& reply : client->handle_frame(*frame)) {
        for (const auto& response : engine.handle_frame(reply)) {
          (void)client->handle_frame(response);
        }
      }
    }
  }
}

template <Symbol T>
void expect_diff_matches(const SetDiff<T>& diff,
                         const testing::SetPair<T>& w) {
  REQUIRE_EQ(diff.remote.size(), w.only_a.size());
  REQUIRE_EQ(diff.local.size(), w.only_b.size());
  CHECK(key_set(diff.remote) == key_set(w.only_a));
  CHECK(key_set(diff.local) == key_set(w.only_b));
}

// Acceptance criterion: for random sets with d in {1, 10, 100, 1000},
// every backend driven through the same SyncEngine recovers the identical
// symmetric difference.
TEST(Engine, CrossBackendParityAcrossDifferenceSizes) {
  struct Case {
    std::size_t shared, only_a, only_b;
  };
  const Case cases[] = {
      {500, 1, 0}, {500, 6, 4}, {800, 55, 45}, {1000, 520, 480}};
  std::uint64_t seed = 100;
  for (const Case& c : cases) {
    const auto w =
        make_set_pair<U64Symbol>(c.shared, c.only_a, c.only_b, ++seed);
    const auto want_remote = key_set(w.only_a);
    const auto want_local = key_set(w.only_b);
    SyncEngine<U64Symbol> engine;
    for (const auto& x : w.a) engine.add_item(x);
    std::uint64_t sid = 0;
    for (const BackendId backend : kAllBackends) {
      SyncClient<U64Symbol> client(++sid, backend);
      for (const auto& y : w.b) client.add_item(y);
      pump_engine<U64Symbol, SipHasher<U64Symbol>>(engine, {&client});
      REQUIRE(client.complete());
      REQUIRE_EQ(client.diff().remote.size(), c.only_a);
      REQUIRE_EQ(client.diff().local.size(), c.only_b);
      CHECK(key_set(client.diff().remote) == want_remote);
      CHECK(key_set(client.diff().local) == want_local);
      const SessionStats* stats = engine.session(sid);
      REQUIRE(stats != nullptr);
      CHECK(stats->state == SessionState::kDone);
      CHECK(stats->backend == backend);
      CHECK(stats->bytes_to_peer > 0u);
      CHECK_EQ(stats->done_value, client.payload_bytes());
    }
    CHECK_EQ(engine.session_count(), 4u);
  }
}

// Acceptance criterion: three peers with divergent sets reconcile
// concurrently against one server instance.
TEST(Engine, ThreePeersReconcileConcurrently) {
  constexpr std::size_t kShared = 2000;
  const auto base = make_set_pair<Item32>(kShared, 40, 0, 7);  // server +40
  SyncEngine<Item32> engine;
  for (const auto& x : base.a) engine.add_item(x);

  // Peer i is missing the last `missing[i]` shared items and holds
  // `extra[i]` items of its own -- three different staleness profiles over
  // three different backends.
  const std::size_t missing[] = {5, 60, 700};
  const std::size_t extra[] = {3, 17, 250};
  const BackendId backends[] = {BackendId::kRiblt, BackendId::kIbltStrata,
                                BackendId::kMetIblt};
  std::vector<SyncClient<Item32>> clients;
  clients.reserve(3);
  for (std::size_t i = 0; i < 3; ++i) {
    clients.emplace_back(i + 1, backends[i]);
    for (std::size_t j = 0; j < base.b.size() - missing[i]; ++j) {
      clients[i].add_item(base.b[j]);
    }
    for (std::size_t j = 0; j < extra[i]; ++j) {
      clients[i].add_item(Item32::random(derive_seed(990 + i, j)));
    }
  }
  pump_engine<Item32, SipHasher<Item32>>(
      engine, {&clients[0], &clients[1], &clients[2]});

  for (std::size_t i = 0; i < 3; ++i) {
    REQUIRE(clients[i].complete());
    // Remote = the server's 40 exclusive items plus the peer's missing
    // tail; local = the peer's extra items.
    CHECK_EQ(clients[i].diff().remote.size(), 40 + missing[i]);
    CHECK_EQ(clients[i].diff().local.size(), extra[i]);
    const SessionStats* stats = engine.session(i + 1);
    REQUIRE(stats != nullptr);
    CHECK(stats->state == SessionState::kDone);
  }
  CHECK_EQ(engine.session_count(), 3u);
  CHECK_EQ(engine.active_count(), 0u);
}

TEST(Engine, NarrowChecksumNegotiation) {
  const auto w = make_set_pair<Item32>(300, 4, 4, 9);
  SyncEngine<Item32> engine;
  for (const auto& x : w.a) engine.add_item(x);

  // riblt and both table-family backends honor the narrow request
  // end-to-end (decoder-side masking everywhere)...
  ReconcilerConfig narrow;
  narrow.checksum_len = 4;
  std::uint64_t sid = 0;
  for (const BackendId backend : {BackendId::kRiblt, BackendId::kIbltStrata,
                                  BackendId::kMetIblt}) {
    SyncClient<Item32> client(++sid, backend, {}, narrow);
    for (const auto& y : w.b) client.add_item(y);
    pump_engine<Item32, SipHasher<Item32>>(engine, {&client});
    REQUIRE(client.complete());
    CHECK_EQ(client.checksum_len(), 4);
    CHECK_EQ(engine.session(sid)->checksum_len, 4);
    expect_diff_matches(client.diff(), w);
  }

  // ...while CPI (no checksums in its syndromes) clamps the request to 8.
  const auto u = make_set_pair<U64Symbol>(100, 3, 2, 10);
  SyncEngine<U64Symbol> engine64;
  for (const auto& x : u.a) engine64.add_item(x);
  SyncClient<U64Symbol> cpi(1, BackendId::kCpi, {}, narrow);
  for (const auto& y : u.b) cpi.add_item(y);
  pump_engine<U64Symbol, SipHasher<U64Symbol>>(engine64, {&cpi});
  REQUIRE(cpi.complete());
  CHECK_EQ(cpi.checksum_len(), 8);
  CHECK_EQ(engine64.session(1)->checksum_len, 8);
}

TEST(Engine, CountResidualNegotiationSavesBytesAndPreservesParity) {
  // §6 count compression on the v2 stream: a rateless session that
  // requests kFlagCountResiduals recovers the identical diff while its
  // SYMBOLS frames shrink -- near the stream origin a plain count svarint
  // costs ~ceil(log128(N)) bytes, the residual ~1. The frame budget of 100
  // pins symbols-per-frame equal across modes (41-43-byte symbols: two fit
  // under 100 either way, so both modes emit exactly three per frame), so
  // the saving is strictly visible in bytes_to_peer instead of washing out
  // into frame-fill quantization.
  const auto w = make_set_pair<Item32>(20'000, 12, 8, 13);
  EngineOptions options;
  options.frame_budget = 100;
  SyncEngine<Item32> engine({}, options);
  for (const auto& x : w.a) engine.add_item(x);

  SyncClient<Item32> plain(1, BackendId::kRiblt);
  for (const auto& y : w.b) plain.add_item(y);
  pump_engine<Item32, SipHasher<Item32>>(engine, {&plain});
  REQUIRE(plain.complete());
  expect_diff_matches(plain.diff(), w);

  ReconcilerConfig want_residuals;
  want_residuals.count_residuals = true;
  SyncClient<Item32> compressed(2, BackendId::kRiblt, {}, want_residuals);
  for (const auto& y : w.b) compressed.add_item(y);
  pump_engine<Item32, SipHasher<Item32>>(engine, {&compressed});
  REQUIRE(compressed.complete());
  expect_diff_matches(compressed.diff(), w);

  // Same symbols, smaller stream: the per-symbol count field shrank.
  CHECK(engine.session(2)->bytes_to_peer < engine.session(1)->bytes_to_peer);
  CHECK(compressed.payload_bytes() < plain.payload_bytes());

  // Sharded sessions negotiate the flag per shard (each shard's own
  // set_size anchors its stream), and churn after HELLO does not disturb
  // an open residual session: its anchor is the snapshot.
  SyncClient<Item32> snapshot(3, BackendId::kRiblt, {}, want_residuals);
  for (const auto& y : w.b) snapshot.add_item(y);
  for (const auto& r : engine.handle_frame(snapshot.hello())) {
    (void)snapshot.handle_frame(r);
  }
  for (std::size_t i = 0; i < 64; ++i) {
    engine.add_item(Item32::random(derive_seed(1313, i)));
  }
  pump_engine<Item32, SipHasher<Item32>>(engine, {&snapshot});
  REQUIRE(snapshot.complete());
  expect_diff_matches(snapshot.diff(), w);

  // Round-based backends clamp the request off (their payloads are not
  // the rateless stream) -- and still reconcile.
  SyncClient<Item32> table(4, BackendId::kIbltStrata, {}, want_residuals);
  for (const auto& y : w.b) table.add_item(y);
  pump_engine<Item32, SipHasher<Item32>>(engine, {&table});
  REQUIRE(table.complete());

  // A server granting residuals nobody asked for is a protocol violation.
  SyncClient<Item32> strict(5, BackendId::kRiblt);
  (void)strict.hello();
  v2::Frame ack;
  ack.type = v2::FrameType::kHelloAck;
  ack.session_id = 5;
  ack.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  ack.checksum_len = 8;
  ack.count_residuals = true;
  ack.value = 123;
  EXPECT_THROW((void)strict.handle_frame(v2::encode_frame(ack)),
               ProtocolError);
}

TEST(Engine, RejectsStateMachineViolations) {
  SyncEngine<Item32> engine;
  engine.add_item(Item32::random(1));
  SyncClient<Item32> client(7, BackendId::kRiblt);
  client.add_item(Item32::random(2));
  const auto hello = client.hello();
  (void)engine.handle_frame(hello);

  // Duplicate HELLO for a live session.
  EXPECT_THROW((void)engine.handle_frame(hello), ProtocolError);
  // ROUND/DONE for sessions that never said HELLO.
  v2::Frame round;
  round.type = v2::FrameType::kRound;
  round.session_id = 99;
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(round)),
               ProtocolError);
  v2::Frame done;
  done.type = v2::FrameType::kDone;
  done.session_id = 99;
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(done)),
               ProtocolError);
  // Session id 0 is reserved.
  v2::Frame zero = done;
  zero.session_id = 0;
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(zero)),
               ProtocolError);
  // Empty frame.
  EXPECT_THROW((void)engine.handle_frame({}), ProtocolError);
}

TEST(Engine, ClientRejectsSymbolsBeforeHello) {
  // A SYMBOLS frame arriving before the client ever said HELLO must be
  // rejected by the client's own state machine.
  v2::Frame symbols;
  symbols.type = v2::FrameType::kSymbols;
  symbols.session_id = 3;
  symbols.payload.assign(4, std::byte{0x00});
  SyncClient<Item32> idle(3, BackendId::kRiblt);
  EXPECT_THROW((void)idle.handle_frame(v2::encode_frame(symbols)),
               ProtocolError);
  // Also rejected between HELLO and the server's ACK.
  SyncClient<Item32> waiting(3, BackendId::kRiblt);
  (void)waiting.hello();
  EXPECT_THROW((void)waiting.handle_frame(v2::encode_frame(symbols)),
               ProtocolError);
  // And frames addressed to some other session never touch this one.
  v2::Frame other = symbols;
  other.session_id = 4;
  EXPECT_THROW((void)idle.handle_frame(v2::encode_frame(other)),
               ProtocolError);
  // A non-conforming server's ACK (checksum width outside {4, 8}) is a
  // ProtocolError too, not a leaked invalid_argument from the codec layer.
  v2::Frame ack;
  ack.type = v2::FrameType::kHelloAck;
  ack.session_id = 3;
  ack.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  ack.checksum_len = 5;
  EXPECT_THROW((void)waiting.handle_frame(v2::encode_frame(ack)),
               ProtocolError);
}

TEST(Engine, IdenticalSetsCompleteOnTheFirstSymbolsFrame) {
  // Equal sets subtract to an all-empty stream: the first coded symbol is
  // already pure-empty, so the first SYMBOLS frame completes the session
  // with an empty diff and the DONE closes it on the server.
  const auto w = make_set_pair<Item32>(100, 0, 0, 5);
  SyncEngine<Item32> engine;
  for (const auto& x : w.a) engine.add_item(x);
  SyncClient<Item32> client(1, BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  for (const auto& ack : engine.handle_frame(client.hello())) {
    REQUIRE(client.handle_frame(ack).empty());
  }
  const auto first = engine.next_frame(1);
  REQUIRE(first.has_value());
  const auto replies = client.handle_frame(*first);
  REQUIRE(client.complete());
  CHECK(client.diff().remote.empty());
  CHECK(client.diff().local.empty());
  REQUIRE_EQ(replies.size(), 1u);
  CHECK(v2::parse_frame(replies[0]).type == v2::FrameType::kDone);
  (void)engine.handle_frame(replies[0]);
  REQUIRE(engine.session(1) != nullptr);
  CHECK(engine.session(1)->state == SessionState::kDone);
}

TEST(Engine, KeyedSessionsInteroperateAndMismatchedKeysNeverMisdecode) {
  const auto w = make_set_pair<U64Symbol>(128, 5, 5, 6);
  const SipHasher<U64Symbol> key_a(SipKey{123, 456});
  using Engine = SyncEngine<U64Symbol, SipHasher<U64Symbol>>;
  using Client = SyncClient<U64Symbol, SipHasher<U64Symbol>>;
  Engine engine(key_a);
  for (const auto& x : w.a) engine.add_item(x);
  std::uint64_t sid = 0;
  for (const BackendId backend : kAllBackends) {
    // Equal keys: the keyed session reconciles exactly.
    Client same(++sid, backend, key_a);
    for (const auto& y : w.b) same.add_item(y);
    pump_engine(engine, {&same});
    REQUIRE(same.complete());
    expect_diff_matches(same.diff(), w);
  }
  // Different keys make the two rateless streams mutually meaningless: no
  // foreign-keyed symbol ever peels, so the client never completes -- and
  // in particular never returns a wrong diff -- however long it listens.
  Client other(++sid, BackendId::kRiblt, SipHasher<U64Symbol>(SipKey{2, 2}));
  for (const auto& y : w.b) other.add_item(y);
  pump_engine(engine, {&other}, /*max_frames=*/200);
  CHECK(!other.complete());
  CHECK(other.diff().remote.empty());
  CHECK(other.diff().local.empty());
}

TEST(Engine, StaleSymbolsAfterDoneAreIgnoredByTheClient) {
  // Frames already in flight when the client finished (a real link holds
  // several) must not disturb its terminal state or its diff.
  const auto w = make_set_pair<Item32>(32, 1, 0, 4);
  SyncEngine<Item32> engine;
  for (const auto& x : w.a) engine.add_item(x);
  SyncClient<Item32> client(1, BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  for (const auto& ack : engine.handle_frame(client.hello())) {
    (void)client.handle_frame(ack);
  }
  std::vector<std::vector<std::byte>> inflight;
  for (int i = 0; i < 20; ++i) {
    auto frame = engine.next_frame(1);
    REQUIRE(frame.has_value());
    inflight.push_back(std::move(*frame));
  }
  std::size_t dones = 0;
  std::uint64_t payload_at_done = 0;
  for (const auto& frame : inflight) {
    for (const auto& reply : client.handle_frame(frame)) {
      ++dones;
      payload_at_done = client.payload_bytes();
      (void)engine.handle_frame(reply);
    }
  }
  CHECK_EQ(dones, 1u);
  REQUIRE(client.complete());
  CHECK_EQ(client.payload_bytes(), payload_at_done);
  expect_diff_matches(client.diff(), w);
}

TEST(Engine, RejectsNegotiationMismatches) {
  SyncEngine<Item32> engine;
  v2::Frame hello;
  hello.type = v2::FrameType::kHello;
  hello.session_id = 1;
  hello.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  hello.item_size = 16;  // engine serves 32-byte items
  hello.checksum_len = 8;
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(hello)),
               ProtocolError);
  hello.item_size = 32;
  hello.backend = 0x7f;  // unknown backend
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(hello)),
               ProtocolError);
  hello.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  hello.checksum_len = 5;  // not 4 or 8
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(hello)),
               ProtocolError);
  // CPI needs 8-byte items: negotiation fails at HELLO, loudly.
  hello.checksum_len = 8;
  hello.backend = static_cast<std::uint8_t>(BackendId::kCpi);
  EXPECT_THROW((void)engine.handle_frame(v2::encode_frame(hello)),
               ProtocolError);
}

TEST(Engine, ContainsPerSessionFailures) {
  // Session 1 (healthy) and session 2 (about to be poisoned) share the
  // engine; session 2's failure must not disturb session 1.
  const auto w = make_set_pair<Item32>(500, 8, 6, 11);
  SyncEngine<Item32> engine;
  for (const auto& x : w.a) engine.add_item(x);

  SyncClient<Item32> healthy(1, BackendId::kRiblt);
  for (const auto& y : w.b) healthy.add_item(y);
  for (const auto& response : engine.handle_frame(healthy.hello())) {
    (void)healthy.handle_frame(response);
  }

  SyncClient<Item32> victim(2, BackendId::kMetIblt);
  for (const auto& y : w.b) victim.add_item(y);
  for (const auto& response : engine.handle_frame(victim.hello())) {
    (void)victim.handle_frame(response);
  }

  // Poison session 2 with a malformed ROUND request.
  v2::Frame poison;
  poison.type = v2::FrameType::kRound;
  poison.session_id = 2;
  poison.payload.assign(3, std::byte{0xff});
  const auto responses = engine.handle_frame(v2::encode_frame(poison));
  REQUIRE_EQ(responses.size(), 1u);
  (void)victim.handle_frame(responses[0]);
  CHECK(victim.failed());
  CHECK(!victim.error().empty());
  const SessionStats* poisoned = engine.session(2);
  REQUIRE(poisoned != nullptr);
  CHECK(poisoned->state == SessionState::kFailed);
  CHECK(engine.next_frame(2) == std::nullopt);  // failed sessions go quiet

  // The healthy session still reconciles to completion.
  pump_engine<Item32, SipHasher<Item32>>(engine, {&healthy});
  REQUIRE(healthy.complete());
  expect_diff_matches(healthy.diff(), w);
  CHECK(engine.session(1)->state == SessionState::kDone);
}

TEST(Engine, ClientAbortPropagatesToServer) {
  // A difference past MET-IBLT's deepest extension block is a data-path
  // dead end, not malformed input: the client contains it, aborts the
  // session with an ERROR frame, and the server marks the session failed
  // instead of holding it active forever.
  ReconcilerConfig tiny;
  tiny.met.targets = {4, 8};
  tiny.met.level_overheads = {3.4, 2.0};
  EngineOptions options;
  options.config = tiny;
  SyncEngine<U64Symbol> engine({}, options);
  const auto w = make_set_pair<U64Symbol>(50, 30, 25, 13);  // d = 55 >> 8
  for (const auto& x : w.a) engine.add_item(x);
  SyncClient<U64Symbol> client(1, BackendId::kMetIblt, {}, tiny);
  for (const auto& y : w.b) client.add_item(y);
  pump_engine<U64Symbol, SipHasher<U64Symbol>>(engine, {&client});
  CHECK(client.failed());
  CHECK(!client.error().empty());
  const SessionStats* stats = engine.session(1);
  REQUIRE(stats != nullptr);
  CHECK(stats->state == SessionState::kFailed);
  CHECK_EQ(stats->error.rfind("peer abort", 0), 0u);
  CHECK(engine.next_frame(1) == std::nullopt);
}

TEST(Engine, RoundLimitFailsTheSessionNotTheEngine) {
  EngineOptions options;
  options.max_rounds = 1;
  SyncEngine<U64Symbol> engine({}, options);
  const auto w = make_set_pair<U64Symbol>(100, 60, 50, 12);  // d=110
  for (const auto& x : w.a) engine.add_item(x);
  ReconcilerConfig config;
  config.cpi_initial_capacity = 4;  // needs many escalations; cap is 1
  SyncClient<U64Symbol> client(1, BackendId::kCpi, {}, config);
  for (const auto& y : w.b) client.add_item(y);
  pump_engine<U64Symbol, SipHasher<U64Symbol>>(engine, {&client});
  CHECK(client.failed());
  CHECK(engine.session(1)->state == SessionState::kFailed);
  CHECK_EQ(engine.session(1)->error, "round limit exceeded");
}

TEST(Engine, FrameParserRejectsGarbage) {
  // Empty frames, unknown types, truncations, trailing bytes, zero session
  // ids: all specific ProtocolErrors, never UB (exercised under ASan).
  EXPECT_THROW((void)v2::parse_frame({}), ProtocolError);
  const std::vector<std::byte> unknown{std::byte{0x42}, std::byte{0x01}};
  EXPECT_THROW((void)v2::parse_frame(unknown), ProtocolError);

  v2::Frame frame;
  frame.type = v2::FrameType::kSymbols;
  frame.session_id = 5;
  frame.payload.assign(32, std::byte{0xab});
  const auto encoded = v2::encode_frame(frame);
  const auto parsed = v2::parse_frame(encoded);
  CHECK(parsed.type == v2::FrameType::kSymbols);
  CHECK_EQ(parsed.session_id, 5u);
  CHECK(parsed.payload == frame.payload);
  for (std::size_t cut = 1; cut < encoded.size(); ++cut) {
    std::vector<std::byte> truncated(encoded.begin(),
                                     encoded.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)v2::parse_frame(truncated), ProtocolError);
  }
  auto trailing = encoded;
  trailing.push_back(std::byte{0});
  EXPECT_THROW((void)v2::parse_frame(trailing), ProtocolError);

  // A payload length claiming more bytes than the frame holds.
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(v2::FrameType::kRound));
  w.uvarint(5);
  w.uvarint(1u << 30);
  w.u8(0xaa);
  EXPECT_THROW((void)v2::parse_frame(w.view()), ProtocolError);

  // Zero session id.
  v2::Frame zero = frame;
  zero.session_id = 0;
  EXPECT_THROW((void)v2::parse_frame(v2::encode_frame(zero)), ProtocolError);
}

TEST(Engine, DuplicateAddItemIsRejected) {
  // Once the serving cache is subtractive, a double-add is
  // indistinguishable from two distinct items and corrupts counts; the
  // engine must detect it via the item's hash and no-op.
  SyncEngine<Item32> engine;
  const Item32 item = Item32::random(1);
  CHECK(engine.add_item(item));
  CHECK(!engine.add_item(item));  // duplicate: rejected
  CHECK_EQ(engine.item_count(), 1u);
  CHECK(engine.contains(item));

  // The cache holds the item exactly once: a client sharing no items
  // recovers a difference of exactly 1.
  SyncClient<Item32> client(1, BackendId::kRiblt);
  pump_engine<Item32, SipHasher<Item32>>(engine, {&client});
  REQUIRE(client.complete());
  CHECK_EQ(client.diff().remote.size(), 1u);
  CHECK_EQ(client.diff().local.size(), 0u);

  // remove_item round-trips: absent items report false, removal then
  // re-add works.
  CHECK(!engine.remove_item(Item32::random(2)));
  CHECK(engine.remove_item(item));
  CHECK(!engine.contains(item));
  CHECK_EQ(engine.item_count(), 0u);
  CHECK(engine.add_item(item));
  CHECK_EQ(engine.item_count(), 1u);
}

// Satellite: churn under concurrency. A session opened before the churn
// keeps decoding against its HELLO-time snapshot; a session opened after
// sees the churned set -- across the rateless paths (both checksum
// widths), which share one SequenceCache inside the engine.
TEST(Engine, ChurnKeepsConcurrentSessionsOnTheirSnapshots) {
  for (const std::uint8_t width : {std::uint8_t{8}, std::uint8_t{4}}) {
    // d = 60 >> one 1024-byte frame's worth of 32-byte cells, so session A
    // cannot complete off a single frame -- the churn lands mid-stream.
    const auto w = make_set_pair<Item32>(400, 35, 25, 17 + width);
    SyncEngine<Item32> engine;
    for (const auto& x : w.a) engine.add_item(x);

    ReconcilerConfig config;
    config.checksum_len = width;
    SyncClient<Item32> before(1, BackendId::kRiblt, {}, config);
    for (const auto& y : w.b) before.add_item(y);
    for (const auto& r : engine.handle_frame(before.hello())) {
      (void)before.handle_frame(r);
    }
    // Stream exactly one frame: session A is now mid-decode.
    {
      const auto frame = engine.next_frame(1);
      REQUIRE(frame.has_value());
      (void)before.handle_frame(*frame);
      REQUIRE(!before.complete());
    }

    // Churn: drop one shared item and one of A's exclusives; add 3 fresh.
    REQUIRE(engine.remove_item(w.a[0]));        // shared: flips to client
    REQUIRE(engine.remove_item(w.only_a[0]));   // server-exclusive: gone
    std::vector<Item32> fresh;
    for (std::size_t i = 0; i < 3; ++i) {
      fresh.push_back(Item32::random(derive_seed(9000 + width, i)));
      REQUIRE(engine.add_item(fresh[i]));
    }

    SyncClient<Item32> after(2, BackendId::kRiblt, {}, config);
    for (const auto& y : w.b) after.add_item(y);

    // Interleaved pump: both sessions stream from the same cache.
    pump_engine<Item32, SipHasher<Item32>>(engine, {&before, &after});

    // Session A decodes its HELLO-time snapshot S0 = w.a.
    REQUIRE(before.complete());
    expect_diff_matches(before.diff(), w);

    // Session B decodes the churned set S1.
    REQUIRE(after.complete());
    std::vector<Item32> want_remote(w.only_a.begin() + 1, w.only_a.end());
    for (const auto& f : fresh) want_remote.push_back(f);
    std::vector<Item32> want_local(w.only_b.begin(), w.only_b.end());
    want_local.push_back(w.a[0]);  // removed shared item
    REQUIRE_EQ(after.diff().remote.size(), want_remote.size());
    REQUIRE_EQ(after.diff().local.size(), want_local.size());
    CHECK(key_set(after.diff().remote) == key_set(want_remote));
    CHECK(key_set(after.diff().local) == key_set(want_local));

    // Both sessions closed: the cache journal shrinks back to nothing.
    CHECK(engine.close_session(1));
    CHECK(engine.close_session(2));
    CHECK_EQ(engine.cache_journal_size(), 0u);
  }
}

// ---------------------------------------------------------------------
// Wire robustness (PR 6 satellites): ERROR clamping and per-direction
// flag masks -- plus the adaptive negotiation loop (probe -> cost model
// -> backend grant -> pacing) end to end.

/// Runs `fn`, returning the ProtocolError message it threw (tests that pin
/// the SPECIFIC error, not just "some ProtocolError").
template <typename Fn>
std::string protocol_error_of(Fn&& fn) {
  try {
    fn();
  } catch (const ProtocolError& e) {
    return e.what();
  }
  return "<no ProtocolError>";
}

TEST(Engine, ErrorFrameClampsOversizedMessages) {
  // Regression: an exception message of arbitrary length (it may embed
  // peer-controlled input) must never yield an ERROR frame larger than a
  // conduit's max_frame -- that would escalate a contained per-session
  // failure into a dead connection.
  const std::string huge(10'000, 'x');
  const auto encoded = v2::make_error_frame(7, huge);
  CHECK(encoded.size() <= v2::kMaxErrorBytes + 16);  // header slop
  const auto frame = v2::parse_frame(encoded);
  CHECK(frame.type == v2::FrameType::kError);
  CHECK_EQ(frame.payload.size(), v2::kMaxErrorBytes);
  CHECK_EQ(v2::error_text(frame), huge.substr(0, v2::kMaxErrorBytes));
  // Short messages ride through untouched.
  const auto small = v2::parse_frame(v2::make_error_frame(7, "boom"));
  CHECK_EQ(v2::error_text(small), "boom");
}

TEST(Engine, VersionSkewUnknownFlagsRejectedBothDirections) {
  // Server side: a HELLO carrying a flag bit this build does not know (a
  // newer client's extension) fails as a specific error, not a mis-framed
  // stream or a silently dropped feature.
  ByteWriter hello;
  hello.u8(static_cast<std::uint8_t>(v2::FrameType::kHello));
  hello.uvarint(1);
  hello.u8(v2::kVersion);
  hello.u8(static_cast<std::uint8_t>(BackendId::kRiblt));
  hello.u32(32);
  hello.u8(8);
  hello.u8(0x80);  // a future flag bit
  CHECK_EQ(protocol_error_of([&] { (void)v2::parse_frame(hello.view()); }),
           "unknown HELLO flags");
  SyncEngine<Item32> engine;
  EXPECT_THROW((void)engine.handle_frame(hello.view()), ProtocolError);

  // Client side: HELLO_ACK validates against its OWN mask (regression for
  // the hard-coded single-flag check), so ACK-direction extensions from a
  // newer server fail just as cleanly.
  ByteWriter ack;
  ack.u8(static_cast<std::uint8_t>(v2::FrameType::kHelloAck));
  ack.uvarint(3);
  ack.u8(static_cast<std::uint8_t>(BackendId::kRiblt));
  ack.u8(8);
  ack.u8(0x80);
  CHECK_EQ(protocol_error_of([&] { (void)v2::parse_frame(ack.view()); }),
           "unknown HELLO_ACK flags");
  SyncClient<Item32> waiting(3, BackendId::kRiblt);
  (void)waiting.hello();
  EXPECT_THROW((void)waiting.handle_frame(ack.view()), ProtocolError);

  // The two masks are per-direction: the sharded bit is HELLO-only, so on
  // an ACK it is an unknown flag.
  ByteWriter sharded_ack;
  sharded_ack.u8(static_cast<std::uint8_t>(v2::FrameType::kHelloAck));
  sharded_ack.uvarint(3);
  sharded_ack.u8(static_cast<std::uint8_t>(BackendId::kRiblt));
  sharded_ack.u8(8);
  sharded_ack.u8(v2::kFlagSharded);
  CHECK_EQ(
      protocol_error_of([&] { (void)v2::parse_frame(sharded_ack.view()); }),
      "unknown HELLO_ACK flags");
}

TEST(Engine, AdaptiveFrameFieldsRoundTrip) {
  v2::Frame hello;
  hello.type = v2::FrameType::kHello;
  hello.session_id = 9;
  hello.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  hello.item_size = 8;
  hello.checksum_len = 8;
  hello.adaptive = true;
  hello.peer_id = 0xdeadbeef;
  hello.probe.assign(5, std::byte{0x7e});
  const auto h = v2::parse_frame(v2::encode_frame(hello));
  CHECK(h.adaptive);
  CHECK_EQ(h.peer_id, 0xdeadbeefull);
  CHECK(h.probe == hello.probe);

  v2::Frame ack;
  ack.type = v2::FrameType::kHelloAck;
  ack.session_id = 9;
  ack.backend = static_cast<std::uint8_t>(BackendId::kCpi);
  ack.checksum_len = 8;
  ack.adaptive = true;
  ack.d_estimate = 37;
  ack.pace_cap = 2048;
  const auto a = v2::parse_frame(v2::encode_frame(ack));
  CHECK(a.adaptive);
  CHECK_EQ(a.d_estimate, 37u);
  CHECK_EQ(a.pace_cap, 2048u);

  // DONE with and without the trailing diff count: the extension is
  // optional, so a pre-adaptive DONE still parses -- and a non-granted
  // client never appends it, so a pre-adaptive server never sees it.
  v2::Frame done;
  done.type = v2::FrameType::kDone;
  done.session_id = 9;
  done.value = 1234;
  CHECK(!v2::parse_frame(v2::encode_frame(done)).diff_count.has_value());
  done.diff_count = 42;
  const auto d = v2::parse_frame(v2::encode_frame(done));
  REQUIRE(d.diff_count.has_value());
  CHECK_EQ(*d.diff_count, 42u);
  CHECK_EQ(d.value, 1234u);
}

TEST(Engine, AdaptiveFallsBackCleanlyWhenEitherSideOptsOut) {
  const auto w = make_set_pair<U64Symbol>(300, 6, 4, 61);

  // A server with grants disabled serves the requested backend verbatim:
  // no grant in the ACK, client keeps its backend, no pacing.
  EngineOptions no_grants;
  no_grants.adaptive.enabled = false;
  SyncEngine<U64Symbol> off({}, no_grants);
  for (const auto& x : w.a) off.add_item(x);
  SyncClient<U64Symbol> wants(1, BackendId::kMetIblt);
  wants.set_adaptive(0x77);
  for (const auto& y : w.b) wants.add_item(y);
  pump_engine<U64Symbol, SipHasher<U64Symbol>>(off, {&wants});
  REQUIRE(wants.complete());
  CHECK(!wants.adaptive_granted());
  CHECK_EQ(wants.pace_cap(), 0u);
  CHECK(wants.backend() == BackendId::kMetIblt);
  const SessionStats* s1 = off.session(1);
  REQUIRE(s1 != nullptr);
  CHECK(!s1->adaptive);
  CHECK(s1->backend == BackendId::kMetIblt);
  expect_diff_matches(wants.diff(), w);

  // A plain client against an adaptive-enabled server: the grant requires
  // the request, so nothing adaptive happens either.
  SyncEngine<U64Symbol> on;  // adaptive.enabled defaults to true
  for (const auto& x : w.a) on.add_item(x);
  SyncClient<U64Symbol> plain(2, BackendId::kIbltStrata);
  for (const auto& y : w.b) plain.add_item(y);
  pump_engine<U64Symbol, SipHasher<U64Symbol>>(on, {&plain});
  REQUIRE(plain.complete());
  CHECK(!plain.adaptive_granted());
  CHECK(!on.session(2)->adaptive);
  CHECK(on.session(2)->backend == BackendId::kIbltStrata);
  expect_diff_matches(plain.diff(), w);

  // A server granting adaptive mode nobody requested is a protocol
  // violation...
  SyncClient<U64Symbol> strict(5, BackendId::kRiblt);
  (void)strict.hello();
  v2::Frame rogue;
  rogue.type = v2::FrameType::kHelloAck;
  rogue.session_id = 5;
  rogue.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  rogue.checksum_len = 8;
  rogue.adaptive = true;
  rogue.d_estimate = 4;
  rogue.pace_cap = 512;
  CHECK_EQ(protocol_error_of([&] {
             (void)strict.handle_frame(v2::encode_frame(rogue));
           }),
           "HELLO_ACK grants unrequested adaptive mode");

  // ...and so is a grant naming a backend this client cannot decode.
  SyncClient<U64Symbol> granted(6, BackendId::kRiblt);
  granted.set_adaptive(1);
  (void)granted.hello();
  v2::Frame unknown = rogue;
  unknown.session_id = 6;
  unknown.backend = 0x7f;
  CHECK_EQ(protocol_error_of([&] {
             (void)granted.handle_frame(v2::encode_frame(unknown));
           }),
           "HELLO_ACK grants unknown backend");
}

TEST(Engine, AdaptiveGrantPicksCpiForTinyDiffAndStillReconciles) {
  // 8-byte items, d = 5, a thin link where bytes dominate: the cost
  // model's cheapest candidate is one-shot CPI with a probe-sized
  // capacity, even though the client requested the rateless stream -- and
  // the adopted backend recovers the identical diff.
  const auto w = make_set_pair<U64Symbol>(300, 3, 2, 62);
  EngineOptions options;
  options.link = adaptive::LinkProfile::lossy(0);
  SyncEngine<U64Symbol> engine({}, options);
  for (const auto& x : w.a) engine.add_item(x);
  SyncClient<U64Symbol> client(1, BackendId::kRiblt);
  client.set_adaptive(0x1001);  // probe attached by default
  for (const auto& y : w.b) client.add_item(y);
  pump_engine<U64Symbol, SipHasher<U64Symbol>>(engine, {&client});
  REQUIRE(client.complete());
  REQUIRE(client.adaptive_granted());
  const SessionStats* stats = engine.session(1);
  REQUIRE(stats != nullptr);
  CHECK(stats->adaptive);
  CHECK(stats->backend == BackendId::kCpi);
  CHECK(client.backend() == BackendId::kCpi);  // adopted from the grant
  CHECK(stats->d_estimate >= 1u);
  CHECK_EQ(stats->pace_cap, 0u);  // only the rateless stream gets paced
  CHECK(stats->rounds <= 1u);     // one-shot capacity: escalation is rare
  expect_diff_matches(client.diff(), w);
}

TEST(Engine, LoopbackGrantsTheStreamAtEveryDefaultDiff) {
  // A ribltbench `small` shard: 5000 items on loopback. Priced in serving
  // ns, CPI's n x cap multiplies never pay for the bytes it saves here,
  // so every probe-less adaptive HELLO is granted the rateless stream.
  const SipHasher<U64Symbol> hasher;
  std::vector<HashedSymbol<U64Symbol>> items;
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    items.push_back(hasher.hashed(U64Symbol::random(i)));
  }
  for (const std::uint64_t d : {1, 4, 8, 12, 16, 24, 32, 48, 56, 100}) {
    EngineOptions options;
    options.adaptive.default_d = d;
    SyncEngine<U64Symbol> engine({}, options);
    for (const auto& hs : items) engine.add_hashed_item(hs);
    SyncClient<U64Symbol> client(1, BackendId::kRiblt);
    client.set_adaptive(0x6006, /*send_probe=*/false);
    REQUIRE_EQ(engine.handle_frame(client.hello()).size(), 1u);
    const SessionStats* stats = engine.session(1);
    REQUIRE(stats != nullptr);
    CHECK_EQ(stats->d_estimate, d);
    CHECK(stats->backend == BackendId::kRiblt);
  }
}

TEST(Engine, CostModelPicksByLinkClass) {
  // The grant grid, deterministic (no timing). Loopback prices a serving
  // ns at what the transport spends per wire byte: the stream wins at
  // every ribltbench per-shard set size and d^. A thin link makes bytes
  // dominate: CPI wins the adaptive bench's d <= 100 cells (n = 200 shared
  // items + d - d/2 of the server's own), the stream its d = 1000 cell.
  const ReconcilerConfig config{};
  const auto pick = [&](std::uint64_t d, std::size_t n,
                        const adaptive::LinkProfile& link) {
    return adaptive::choose_backend<U64Symbol>(BackendId::kRiblt, d, n, 8,
                                               config, link);
  };
  std::size_t not_stream = 0;
  for (const std::size_t n : {2500, 5000, 10000, 50000}) {
    for (std::uint64_t d = 1; d <= 2500; ++d) {
      if (pick(d, n, adaptive::LinkProfile::loopback()) != BackendId::kRiblt) {
        ++not_stream;
      }
    }
  }
  CHECK_EQ(not_stream, 0u);
  for (const double loss : {0.0, 0.01, 0.05}) {
    const auto thin = adaptive::LinkProfile::lossy(loss);
    CHECK(pick(1, 201, thin) == BackendId::kCpi);
    CHECK(pick(10, 205, thin) == BackendId::kCpi);
    CHECK(pick(100, 250, thin) == BackendId::kCpi);
    CHECK(pick(1000, 2500, thin) == BackendId::kRiblt);
  }
}

TEST(Engine, PeerReportedDiffIsClampedBeforeTheModel) {
  // A DONE's diff count is any u64 the peer sends. Unclamped, the next
  // probe-less HELLO from that peer overflowed the EWMA's rounding cast,
  // pace_cap_for's scaling and the CPI ladder's bit_ceil (undefined
  // behaviour); clamped, it is granted with d^ at the bound.
  SyncEngine<U64Symbol> engine;
  for (std::uint64_t i = 1; i <= 300; ++i) {
    engine.add_item(U64Symbol::random(i));
  }
  std::uint64_t sid = 0;
  for (const std::uint64_t reported :
       {~std::uint64_t{0}, std::uint64_t{1} << 63, std::uint64_t{1} << 60}) {
    const std::uint64_t peer = 0x7000 + sid;
    SyncClient<U64Symbol> first(++sid, BackendId::kRiblt);
    first.set_adaptive(peer, /*send_probe=*/false);
    REQUIRE_EQ(engine.handle_frame(first.hello()).size(), 1u);
    v2::Frame done;
    done.type = v2::FrameType::kDone;
    done.session_id = sid;
    done.diff_count = reported;
    CHECK(engine.handle_frame(v2::encode_frame(done)).empty());

    SyncClient<U64Symbol> next(++sid, BackendId::kRiblt);
    next.set_adaptive(peer, /*send_probe=*/false);
    for (const auto& r : engine.handle_frame(next.hello())) {
      (void)next.handle_frame(r);
    }
    REQUIRE(next.adaptive_granted());
    CHECK_EQ(next.d_estimate(), adaptive::kMaxDiffEstimate);
    CHECK_EQ(engine.session(sid)->d_estimate, adaptive::kMaxDiffEstimate);
  }
}

TEST(Engine, SessionDurationIsRecordedOnTheEngineClock) {
  // riblt_session_duration_us{backend}: HELLO to outcome, once, on the
  // engine's clock.
  double now = 1.0;
  obs::MetricsRegistry registry;
  EngineOptions options;
  options.clock = [&now] { return now; };
  options.metrics = &registry;
  SyncEngine<U64Symbol> engine({}, options);
  engine.add_item(U64Symbol::random(1));
  SyncClient<U64Symbol> client(1, BackendId::kRiblt);
  REQUIRE_EQ(engine.handle_frame(client.hello()).size(), 1u);
  now = 1.25;
  v2::Frame done;
  done.type = v2::FrameType::kDone;
  done.session_id = 1;
  CHECK(engine.handle_frame(v2::encode_frame(done)).empty());
  now = 9.0;
  CHECK(engine.close_session(1));  // already settled: not booked again
  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto* series =
      snap.find_series("riblt_session_duration_us", {{"backend", "riblt"}});
  REQUIRE(series != nullptr);
  CHECK_EQ(series->hist.count, 1u);
  CHECK_EQ(series->hist.sum, 250000u);
}

TEST(Engine, PeerEwmaConvergesOverRepeatedSessions) {
  // No probe: the first session falls back to default_d; once a DONE
  // carries the observed diff, later sessions from the same peer ride the
  // EWMA -- which, fed a constant diff of 40, pins at exactly 40.
  const auto w = make_set_pair<U64Symbol>(300, 25, 15, 63);  // d = 40
  EngineOptions options;
  options.adaptive.default_d = 64;
  SyncEngine<U64Symbol> engine({}, options);
  for (const auto& x : w.a) engine.add_item(x);
  for (std::uint64_t sid = 1; sid <= 4; ++sid) {
    SyncClient<U64Symbol> client(sid, BackendId::kRiblt);
    client.set_adaptive(0x2002, /*send_probe=*/false);
    for (const auto& y : w.b) client.add_item(y);
    pump_engine<U64Symbol, SipHasher<U64Symbol>>(engine, {&client});
    REQUIRE(client.complete());
    REQUIRE(client.adaptive_granted());
    const SessionStats* stats = engine.session(sid);
    REQUIRE(stats != nullptr);
    CHECK_EQ(stats->d_estimate, sid == 1 ? 64u : 40u);
    expect_diff_matches(client.diff(), w);
  }

  // The EWMA itself: first observation seeds, later ones smooth with
  // alpha, the anonymous peer id 0 is ignored, the table stays bounded.
  adaptive::PeerEwma ewma(/*max_peers=*/2);
  ewma.observe(0, 1000);
  CHECK_EQ(ewma.size(), 0u);
  CHECK_EQ(ewma.estimate(0), 0u);
  ewma.observe(1, 100);
  CHECK_EQ(ewma.estimate(1), 100u);
  ewma.observe(1, 0);
  CHECK_EQ(ewma.estimate(1), 75u);  // 0.75 * 100 + 0.25 * 0
  ewma.observe(2, 8);
  ewma.observe(3, 9);  // evicts an entry to stay within max_peers
  CHECK_EQ(ewma.size(), 2u);
  CHECK_EQ(ewma.estimate(3), 9u);
}

TEST(Engine, PacingCapBoundsEmissionPastLastInboundFrame) {
  // The tentpole invariant at the engine layer: an adaptive rateless
  // session never emits more than pace_cap bytes past the last inbound
  // frame. Deliver NOTHING after the HELLO and drain -- emission stops at
  // the cap; one empty-ROUND credit reopens exactly one more runway.
  const auto w = make_set_pair<U64Symbol>(300, 200, 200, 64);  // d = 400
  SyncEngine<U64Symbol> engine;
  for (const auto& x : w.a) engine.add_item(x);
  SyncClient<U64Symbol> client(1, BackendId::kRiblt);
  client.set_adaptive(0x3003);
  for (const auto& y : w.b) client.add_item(y);
  for (const auto& r : engine.handle_frame(client.hello())) {
    (void)client.handle_frame(r);
  }
  REQUIRE(client.adaptive_granted());
  const SessionStats* stats = engine.session(1);
  REQUIRE(stats != nullptr);
  REQUIRE(stats->backend == BackendId::kRiblt);  // large d: stays rateless
  const std::uint64_t cap = stats->pace_cap;
  REQUIRE(cap > 0u);
  CHECK_EQ(client.pace_cap(), cap);

  std::size_t frames = 0;
  while (engine.next_frame(1)) ++frames;  // drain; deliver nothing back
  CHECK(frames > 0u);
  CHECK(stats->bytes_to_peer <= cap);       // the hard overshoot bound
  CHECK(stats->bytes_to_peer >= cap / 2);   // and the runway is used
  CHECK(stats->state == SessionState::kActive);  // paused, not failed
  CHECK(engine.next_frame(1) == std::nullopt);

  // The credit renews the runway and nothing else: not an escalation, no
  // encoder involvement, and another full cap of emission follows.
  v2::Frame credit;
  credit.type = v2::FrameType::kRound;
  credit.session_id = 1;
  CHECK(engine.handle_frame(v2::encode_frame(credit)).empty());
  CHECK_EQ(stats->credits, 1u);
  CHECK_EQ(stats->rounds, 0u);
  const std::uint64_t mark = stats->bytes_to_peer;
  while (engine.next_frame(1)) {
  }
  CHECK(stats->bytes_to_peer > mark);
  CHECK(stats->bytes_to_peer - mark <= cap);
}

TEST(Engine, AdaptivePacedStreamCompletesWithCredits) {
  // End to end in process: a granted paced session completes because the
  // client's credit cadence (every cap/2 absorbed bytes) renews the runway
  // before the server stalls -- and credits never count as rounds.
  const auto w = make_set_pair<U64Symbol>(400, 120, 100, 65);  // d = 220
  SyncEngine<U64Symbol> engine;
  for (const auto& x : w.a) engine.add_item(x);
  SyncClient<U64Symbol> client(1, BackendId::kRiblt);
  client.set_adaptive(0x4004);
  for (const auto& y : w.b) client.add_item(y);
  pump_engine<U64Symbol, SipHasher<U64Symbol>>(engine, {&client});
  REQUIRE(client.complete());
  REQUIRE(client.adaptive_granted());
  const SessionStats* stats = engine.session(1);
  REQUIRE(stats != nullptr);
  REQUIRE(stats->backend == BackendId::kRiblt);
  REQUIRE(stats->pace_cap > 0u);
  CHECK(client.credits() > 0u);
  CHECK_EQ(stats->credits, client.credits());
  CHECK_EQ(stats->rounds, 0u);
  expect_diff_matches(client.diff(), w);

  // The DONE's diff count fed the EWMA: a probe-less second session now
  // estimates from history (exactly 220), not from the default.
  SyncClient<U64Symbol> next(2, BackendId::kRiblt);
  next.set_adaptive(0x4004, /*send_probe=*/false);
  for (const auto& y : w.b) next.add_item(y);
  for (const auto& r : engine.handle_frame(next.hello())) {
    (void)next.handle_frame(r);
  }
  CHECK_EQ(engine.session(2)->d_estimate, 220u);
}

TEST(Engine, MalformedProbeRejectedButGeometrySkewDegrades) {
  SyncEngine<U64Symbol> engine;
  engine.add_item(U64Symbol::random(1));

  // Garbage probe bytes: the frame lied about carrying a strata digest --
  // a specific protocol error, not a crash and not a silent grant.
  v2::Frame hello;
  hello.type = v2::FrameType::kHello;
  hello.session_id = 1;
  hello.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  hello.item_size = 8;
  hello.checksum_len = 8;
  hello.adaptive = true;
  hello.peer_id = 5;
  hello.probe.assign(16, std::byte{0xff});
  CHECK_EQ(protocol_error_of([&] {
             (void)engine.handle_frame(v2::encode_frame(hello));
           }),
           "malformed adaptive probe");

  // A well-formed digest of a DIFFERENT geometry (config skew across
  // builds) is not an error: the estimate degrades to the fallbacks.
  iblt::StrataEstimator<U64Symbol, SipHasher<U64Symbol>> skewed(
      8, 2, 2, SipHasher<U64Symbol>{});
  v2::Frame skew = hello;
  skew.session_id = 2;
  skew.probe = skewed.serialize(adaptive::kProbeChecksumLen);
  REQUIRE_EQ(engine.handle_frame(v2::encode_frame(skew)).size(), 1u);
  const SessionStats* stats = engine.session(2);
  REQUIRE(stats != nullptr);
  CHECK(stats->adaptive);
  CHECK_EQ(stats->d_estimate, adaptive::AdaptiveOptions{}.default_d);
}

// The adaptive probe's wire size, pinned: 16 strata of 4 cells, each
// rounded up to 6 cells for k = 3, serialize to 1261 B empty for 8-byte
// items. Shrinking the probe has to change this number on purpose.
TEST(Engine, AdaptiveProbeWireSizeIsPinned) {
  const auto probe = adaptive::make_probe<U64Symbol, SipHasher<U64Symbol>>(
      SipHasher<U64Symbol>{});
  CHECK_EQ(probe.serialize(adaptive::kProbeChecksumLen).size(), 1261u);
}

TEST(Engine, SessionLimitShedsOldestIdleInsteadOfRejecting) {
  // A fake clock orders the sessions' last-activity stamps deterministically.
  double now = 0.0;
  EngineOptions options;
  options.max_sessions = 2;
  options.clock = [&now] { return now; };
  SyncEngine<U64Symbol> engine({}, options);
  engine.add_item(U64Symbol::random(1));

  // Each session has its own owner (the transport tag of its sender).
  SyncClient<U64Symbol> first(1, BackendId::kRiblt);
  (void)engine.handle_frame(first.hello(), /*owner=*/101);
  now = 1.0;
  SyncClient<U64Symbol> second(2, BackendId::kRiblt);
  (void)engine.handle_frame(second.hello(), /*owner=*/102);
  CHECK_EQ(engine.session_count(), 2u);

  // At the cap, a new HELLO evicts the ACTIVE session idle the longest
  // (session 1): the sender hears only its HELLO_ACK, and session 1's
  // ERROR waits in the engine's drain, addressed to session 1's owner.
  now = 2.0;
  SyncClient<U64Symbol> third(3, BackendId::kRiblt);
  const auto replies = engine.handle_frame(third.hello(), /*owner=*/103);
  REQUIRE_EQ(replies.size(), 1u);
  CHECK_EQ(static_cast<std::uint8_t>(replies[0][0]),
           static_cast<std::uint8_t>(v2::FrameType::kHelloAck));
  const auto drained = engine.reap_idle();
  REQUIRE_EQ(drained.size(), 1u);
  CHECK_EQ(drained[0].first, 101u);
  CHECK_EQ(static_cast<std::uint8_t>(drained[0].second[0]),
           static_cast<std::uint8_t>(v2::FrameType::kError));
  CHECK_EQ(v2::peek_session_id(drained[0].second), 1u);
  CHECK(engine.reap_idle().empty());  // drained once
  CHECK_EQ(engine.session_count(), 2u);
  CHECK(engine.session(1) == nullptr);  // evicted and retired
  CHECK(!engine.close_session(1));

  // The evicted session folds into the lifetime totals as failed.
  const EngineTotals t = engine.totals();
  CHECK_EQ(t.sessions_evicted, 1u);
  CHECK_EQ(t.sessions, 3u);
  CHECK_EQ(t.failed, 1u);
  CHECK_EQ(t.active, 2u);

  // A slot held by an already-terminal session is preferred: no eviction,
  // no ERROR frame -- the dead session just retires silently.
  SyncClient<U64Symbol> aborter(2, BackendId::kRiblt);  // matches sid 2
  (void)engine.handle_frame(v2::make_error_frame(2, "client abort"),
                            /*owner=*/102);
  now = 3.0;
  SyncClient<U64Symbol> fourth(4, BackendId::kRiblt);
  const auto replies2 = engine.handle_frame(fourth.hello(), /*owner=*/104);
  REQUIRE_EQ(replies2.size(), 1u);
  CHECK_EQ(static_cast<std::uint8_t>(replies2[0][0]),
           static_cast<std::uint8_t>(v2::FrameType::kHelloAck));
  CHECK_EQ(engine.totals().sessions_evicted, 1u);
  CHECK(engine.reap_idle().empty());

  CHECK(engine.close_session(3));
  CHECK(engine.close_session(4));
  CHECK_EQ(engine.session_count(), 0u);
  // Lifetime totals survive the closes: 4 sessions ever, none live.
  CHECK_EQ(engine.totals().sessions, 4u);
  CHECK_EQ(engine.totals().active, 0u);
}

TEST(Engine, ReapIdleReclaimsAbandonedSessions) {
  double now = 0.0;
  EngineOptions options;
  options.idle_deadline_s = 5.0;
  options.clock = [&now] { return now; };
  SyncEngine<U64Symbol> engine({}, options);
  for (std::uint64_t i = 1; i <= 64; ++i) {
    engine.add_item(U64Symbol::random(i));
  }

  // Session 1 says HELLO and goes silent -- the abandoned-mid-handshake
  // peer. Session 2 keeps sending frames (pacing credits count as life).
  SyncClient<U64Symbol> ghost(1, BackendId::kRiblt);
  (void)engine.handle_frame(ghost.hello(), /*owner=*/7);
  SyncClient<U64Symbol> live(2, BackendId::kIbltStrata);
  auto acks = engine.handle_frame(live.hello());
  REQUIRE_EQ(acks.size(), 1u);

  now = 4.0;
  {
    // A real protocol step refreshes session 2's activity stamp: one
    // SYMBOLS frame out, the client's ROUND reply back in.
    (void)live.handle_frame(acks[0]);
    const auto sym = engine.next_frame(2);
    REQUIRE(sym.has_value());
    for (const auto& reply : live.handle_frame(*sym)) {
      (void)engine.handle_frame(reply);
    }
  }

  // At t=6 the ghost is 6s idle (> 5s deadline) but session 2 is only 2s
  // idle: exactly one session reaps, with an ERROR frame for it addressed
  // to its owner.
  now = 6.0;
  auto reaped = engine.reap_idle();
  REQUIRE_EQ(reaped.size(), 1u);
  CHECK_EQ(reaped[0].first, 7u);
  CHECK_EQ(v2::peek_session_id(reaped[0].second), 1u);
  CHECK_EQ(static_cast<std::uint8_t>(reaped[0].second[0]),
           static_cast<std::uint8_t>(v2::FrameType::kError));
  CHECK_EQ(engine.session_count(), 1u);
  CHECK(engine.session(1) == nullptr);

  const EngineTotals t = engine.totals();
  CHECK_EQ(t.sessions_reaped, 1u);
  CHECK_EQ(t.failed, 1u);

  // Idle reaping disabled (deadline 0): nothing ever reaps.
  now = 1e9;
  CHECK(engine.reap_idle(0).empty());
  // The reaper only touches ACTIVE sessions; terminal ones are
  // close_session's job.
  (void)engine.reap_idle();
  (void)engine.close_session(2);
  CHECK_EQ(engine.session_count(), 0u);
}

// A HELLO the engine rejects must not cost a live session its slot: at
// the cap, HELLOs that fail on item size, on a backend that cannot serve
// the item width, or on a malformed probe evict nothing and queue no
// ERROR; a valid one then sheds session 1 as usual.
TEST(Engine, RejectedHelloAtTheCapShedsNothing) {
  EngineOptions options;
  options.max_sessions = 1;
  SyncEngine<Item32> engine({}, options);
  engine.add_item(Item32::random(1));
  SyncClient<Item32> first(1, BackendId::kRiblt);
  (void)engine.handle_frame(first.hello(), /*owner=*/1);

  v2::Frame narrow;
  narrow.type = v2::FrameType::kHello;
  narrow.session_id = 2;
  narrow.backend = static_cast<std::uint8_t>(BackendId::kRiblt);
  narrow.item_size = 8;
  narrow.checksum_len = 8;
  v2::Frame cpi = narrow;
  cpi.session_id = 3;
  cpi.backend = static_cast<std::uint8_t>(BackendId::kCpi);
  cpi.item_size = 32;
  v2::Frame probed = narrow;
  probed.session_id = 4;
  probed.item_size = 32;
  probed.adaptive = true;
  probed.peer_id = 5;
  probed.probe.assign(16, std::byte{0xff});
  const std::pair<v2::Frame, std::string> rejected[] = {
      {narrow, "item size mismatch"},
      {cpi, "cpi backend requires 8-byte items"},
      {probed, "malformed adaptive probe"},
  };
  for (const auto& [hello, reason] : rejected) {
    const auto raw = v2::encode_frame(hello);
    CHECK_EQ(protocol_error_of(
                 [&] { (void)engine.handle_frame(raw, /*owner=*/2); }),
             reason);
    REQUIRE(engine.session(1) != nullptr);
    CHECK(engine.session(1)->state == SessionState::kActive);
    CHECK_EQ(engine.totals().sessions_evicted, 0u);
    CHECK(engine.reap_idle().empty());
  }

  SyncClient<Item32> second(6, BackendId::kRiblt);
  REQUIRE_EQ(engine.handle_frame(second.hello(), /*owner=*/2).size(), 1u);
  CHECK(engine.session(1) == nullptr);
  CHECK_EQ(engine.totals().sessions_evicted, 1u);
  const auto drained = engine.reap_idle();
  REQUIRE_EQ(drained.size(), 1u);
  CHECK_EQ(drained[0].first, 1u);
  CHECK_EQ(v2::peek_session_id(drained[0].second), 1u);
}

// The owner contract: a session takes frames only from the owner its HELLO
// arrived with. Another owner's HELLO, ROUND (credit or escalation), DONE
// and ERROR for its id are rejected before they touch the session -- its
// stats, its pacing mark and its idle clock stay as they were, so it is
// still paused and still reaps on its owner's silence, addressed to it.
TEST(Engine, ForeignOwnerFramesLeaveTheSessionUntouched) {
  double now = 0.0;
  EngineOptions options;
  options.idle_deadline_s = 5.0;
  options.clock = [&now] { return now; };
  const auto w = make_set_pair<U64Symbol>(300, 200, 200, 66);  // d = 400
  SyncEngine<U64Symbol> engine({}, options);
  for (const auto& x : w.a) engine.add_item(x);
  SyncClient<U64Symbol> client(5, BackendId::kRiblt);
  client.set_adaptive(0x5005);
  for (const auto& y : w.b) client.add_item(y);
  const auto hello = client.hello();
  REQUIRE_EQ(engine.handle_frame(hello, /*owner=*/1).size(), 1u);
  const SessionStats* stats = engine.session(5);
  REQUIRE(stats != nullptr);
  REQUIRE(stats->backend == BackendId::kRiblt);  // large d: paced rateless
  REQUIRE(stats->pace_cap > 0u);
  while (engine.next_frame(5)) {
  }  // stream to the pacing cap
  const SessionStats before = *stats;
  const std::uint64_t from_peers = engine.totals().bytes_from_peers;

  now = 4.0;
  v2::Frame credit;
  credit.type = v2::FrameType::kRound;
  credit.session_id = 5;
  v2::Frame escalation = credit;
  escalation.payload = {std::byte{0x01}};
  v2::Frame done;
  done.type = v2::FrameType::kDone;
  done.session_id = 5;
  done.value = 1;
  const std::vector<std::vector<std::byte>> foreign = {
      hello, v2::encode_frame(credit), v2::encode_frame(escalation),
      v2::encode_frame(done), v2::make_error_frame(5, "abort")};
  for (const auto& frame : foreign) {
    CHECK_EQ(protocol_error_of(
                 [&] { (void)engine.handle_frame(frame, /*owner=*/2); }),
             "session belongs to another connection");
  }
  CHECK(stats->state == SessionState::kActive);
  CHECK_EQ(stats->owner, 1u);
  CHECK_EQ(stats->bytes_from_peer, before.bytes_from_peer);
  CHECK_EQ(stats->bytes_to_peer, before.bytes_to_peer);
  CHECK_EQ(stats->frames_sent, before.frames_sent);
  CHECK_EQ(stats->rounds, before.rounds);
  CHECK_EQ(stats->credits, before.credits);
  CHECK_EQ(stats->done_value, before.done_value);
  CHECK(stats->error.empty());
  CHECK_EQ(engine.totals().bytes_from_peers, from_peers);
  CHECK(engine.next_frame(5) == std::nullopt);  // still paused

  // 5.5 s after its owner's HELLO the session is past the 5 s deadline;
  // had the t = 4 frames counted as life it would be 1.5 s idle.
  now = 5.5;
  const auto reaped = engine.reap_idle();
  REQUIRE_EQ(reaped.size(), 1u);
  CHECK_EQ(reaped[0].first, 1u);
  CHECK_EQ(v2::peek_session_id(reaped[0].second), 5u);
}

// The one rule for answering a rejected frame: an ERROR back to its
// sender, except for a DONE or ERROR (its sender has moved on) and for a
// frame whose sender itself holds a session with its id (a duplicate
// HELLO, which an ERROR would turn into the end of the sender's session).
TEST(Engine, RejectedFramesAreAnsweredByOneRule) {
  SyncEngine<U64Symbol> engine;
  engine.add_item(U64Symbol::random(1));
  SyncClient<U64Symbol> client(3, BackendId::kRiblt);
  const auto hello = client.hello();
  (void)engine.handle_frame(hello, /*owner=*/1);
  const auto answer = [&](const std::vector<std::byte>& frame,
                          std::uint64_t owner) {
    const std::string reason = protocol_error_of(
        [&] { (void)engine.handle_frame(frame, owner); });
    CHECK(reason != "<no ProtocolError>");
    return engine.reject_answer(frame, owner, reason);
  };
  v2::Frame round;
  round.type = v2::FrameType::kRound;
  round.session_id = 3;
  v2::Frame done = round;
  done.type = v2::FrameType::kDone;

  for (const auto& frame : {hello, v2::encode_frame(round)}) {
    const auto reply = answer(frame, /*owner=*/2);
    REQUIRE(reply.has_value());
    const v2::Frame f = v2::parse_frame(*reply);
    CHECK(f.type == v2::FrameType::kError);
    CHECK_EQ(f.session_id, 3u);
    CHECK_EQ(v2::error_text(f),
             std::string("session belongs to another connection"));
  }
  CHECK(!answer(v2::encode_frame(done), /*owner=*/2).has_value());
  CHECK(!answer(v2::make_error_frame(3, "abort"), /*owner=*/2).has_value());
  CHECK(!answer(hello, /*owner=*/1).has_value());  // the owner's duplicate

  round.session_id = 4;  // nobody holds 4
  done.session_id = 4;
  const auto unknown = answer(v2::encode_frame(round), /*owner=*/1);
  REQUIRE(unknown.has_value());
  CHECK_EQ(v2::error_text(v2::parse_frame(*unknown)),
           std::string("unknown session id"));
  CHECK(!answer(v2::encode_frame(done), /*owner=*/1).has_value());
  CHECK(engine.session(3)->state == SessionState::kActive);
}

// close_owner retires every session one owner opened -- an active one
// counts as failed, a finished one keeps its outcome -- and no other
// owner's.
TEST(Engine, CloseOwnerRetiresOnlyThatOwnersSessions) {
  SyncEngine<U64Symbol> engine;
  engine.add_item(U64Symbol::random(1));
  for (std::uint64_t sid = 1; sid <= 4; ++sid) {
    SyncClient<U64Symbol> client(sid, BackendId::kRiblt);
    (void)engine.handle_frame(client.hello(), /*owner=*/sid <= 2 ? 1 : 2);
  }
  v2::Frame done;
  done.type = v2::FrameType::kDone;
  done.session_id = 2;
  (void)engine.handle_frame(v2::encode_frame(done), /*owner=*/1);

  CHECK_EQ(engine.close_owner(1), 2u);
  CHECK(engine.session(1) == nullptr);
  CHECK(engine.session(2) == nullptr);
  CHECK(engine.session(3) != nullptr);
  CHECK(engine.session(4) != nullptr);
  const EngineTotals t = engine.totals();
  CHECK_EQ(t.done, 1u);
  CHECK_EQ(t.failed, 1u);
  CHECK_EQ(t.active, 2u);
  CHECK_EQ(engine.close_owner(1), 0u);
  CHECK_EQ(engine.close_owner(2), 2u);
  CHECK_EQ(engine.session_count(), 0u);
  CHECK_EQ(engine.totals().failed, 3u);
}

// Session conservation under random lifecycles, over many seeds: whatever
// mix of HELLOs on all four backends from three owners, client DONEs and
// ERRORs, contained failures, closes, owner closes, idle reaps, and
// evictions at a small cap drives the engine -- with every session frame
// sent by a random owner, so a third of them are another owner's -- after
// every step its totals satisfy sessions == done + failed + active, with
// active equal to the kActive sessions still in the table. A frame
// rejected as another owner's leaves its target's stats as they were, and
// every ERROR the drain hands back is addressed to its session's owner.
TEST(Engine, SessionConservationHoldsOverRandomLifecycles) {
  std::uint64_t reaped = 0;
  std::uint64_t evicted = 0;
  std::uint64_t foreign = 0;
  std::uint64_t owner_closed = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    double now = 0.0;
    EngineOptions options;
    options.max_sessions = 4;
    options.idle_deadline_s = 3.0;
    options.clock = [&now] { return now; };
    SyncEngine<U64Symbol> engine({}, options);
    for (std::uint64_t i = 0; i < 24; ++i) {
      engine.add_item(U64Symbol::random(derive_seed(seed, i)));
    }
    SplitMix64 rng(seed);
    std::uint64_t next_sid = 1;
    std::map<std::uint64_t, std::uint64_t> owner_of;  // sid -> HELLO owner
    for (int step = 0; step < 80; ++step) {
      // Mostly known sids, sometimes one never opened.
      const std::uint64_t sid = 1 + rng.next() % next_sid;
      const std::uint64_t owner = rng.next() % 3;
      const SessionStats* target = engine.session(sid);
      const std::optional<SessionStats> before =
          target != nullptr ? std::optional<SessionStats>(*target)
                            : std::nullopt;
      v2::Frame frame;
      frame.session_id = sid;
      try {
        switch (rng.next() % 10) {
          case 0:
          case 1: {
            owner_of[next_sid] = owner;
            SyncClient<U64Symbol> client(next_sid++,
                                         kAllBackends[rng.next() % 4]);
            (void)engine.handle_frame(client.hello(), owner);
            break;
          }
          case 2:
            frame.type = v2::FrameType::kDone;
            (void)engine.handle_frame(v2::encode_frame(frame), owner);
            break;
          case 3:
            (void)engine.handle_frame(v2::make_error_frame(sid, "abort"),
                                      owner);
            break;
          case 4:
            // A garbage escalation: a contained failure (or, on a paced
            // or settled session, a no-op).
            frame.type = v2::FrameType::kRound;
            frame.payload = {std::byte{0xff}, std::byte{0xff}};
            (void)engine.handle_frame(v2::encode_frame(frame), owner);
            break;
          case 5:
            (void)engine.close_session(sid);
            break;
          case 6:
            (void)engine.next_frame(sid);
            break;
          case 7:
            owner_closed += engine.close_owner(owner);
            break;
          case 8:
            if (target != nullptr) {
              // A second HELLO for a live id: a duplicate from its owner,
              // a hijack from anyone else -- refused either way.
              SyncClient<U64Symbol> again(sid, BackendId::kRiblt);
              (void)engine.handle_frame(again.hello(), owner);
              ADD_FAILURE();
            }
            break;
          default:
            for (const auto& [to, error] : engine.reap_idle()) {
              REQUIRE_EQ(to, owner_of.at(v2::peek_session_id(error)));
            }
            break;
        }
      } catch (const ProtocolError& e) {
        // Unknown or retired sid: nothing to account. Another owner's
        // frame: nothing of its target may have moved.
        if (std::string(e.what()) == "session belongs to another connection") {
          ++foreign;
          REQUIRE(before.has_value());
          REQUIRE(engine.session(sid) == target);
          CHECK(target->state == before->state);
          CHECK_EQ(target->owner, before->owner);
          CHECK_EQ(target->bytes_from_peer, before->bytes_from_peer);
          CHECK_EQ(target->rounds, before->rounds);
          CHECK_EQ(target->done_value, before->done_value);
        }
      }
      now += static_cast<double>(rng.next() % 1000) / 1000.0;
      const EngineTotals t = engine.totals();
      REQUIRE_EQ(t.sessions, t.done + t.failed + t.active);
      REQUIRE_EQ(t.active, engine.active_count());
    }
    const EngineTotals t = engine.totals();
    reaped += t.sessions_reaped;
    evicted += t.sessions_evicted;
  }
  // The sweep reached every reclaim path and the owner check.
  CHECK(reaped > 0u);
  CHECK(evicted > 0u);
  CHECK(owner_closed > 0u);
  CHECK(foreign > 0u);
}

}  // namespace
}  // namespace ribltx::sync
