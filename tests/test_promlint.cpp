// Prometheus exposition-format lint (src/obs/prom.hpp) plus the live
// scrape path: both servers answering METRICS / METRICS_JSON / TRACE over
// an in-band ADMIN frame from a second connection while real sessions
// load the first -- the acceptance criterion for the observability PR.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "net/uring_server.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "sync/replica.hpp"
#include "sync/sharded.hpp"
#include "testutil.hpp"

namespace ribltx::net {
namespace {

using testing::make_set_pair;
using Item8 = U64Symbol;
using Item32 = ByteSymbol<32>;

/// Whether the uring half of a case can run: false, with the probe's
/// reason printed, where the kernel, a seccomp profile or RIBLT_NO_URING
/// rules io_uring out (UringServer's constructor throws there). An
/// epoll-only build aliases UringServer to SocketServer, so the uring
/// half runs as a second epoll pass.
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

// --------------------------------------------------------- lint units

TEST(PromLint, AcceptsMinimalValidExposition) {
  const std::string text =
      "# HELP x_total hits\n"
      "# TYPE x_total counter\n"
      "x_total 5\n"
      "# HELP depth queue depth\n"
      "# TYPE depth gauge\n"
      "depth{server=\"epoll\"} -3\n";
  ASSERT_EQ(obs::lint_prometheus(text), "");
}

TEST(PromLint, AcceptsWellFormedHistogram) {
  const std::string text =
      "# HELP lat_us latency\n"
      "# TYPE lat_us histogram\n"
      "lat_us_bucket{le=\"1\"} 2\n"
      "lat_us_bucket{le=\"8\"} 5\n"
      "lat_us_bucket{le=\"+Inf\"} 7\n"
      "lat_us_sum 40\n"
      "lat_us_count 7\n";
  ASSERT_EQ(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsNonCumulativeBuckets) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 5\n"
      "h_count 5\n";
  ASSERT_NE(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsMissingInfBucket) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_count 5\n";
  ASSERT_NE(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsInfCountMismatch) {
  const std::string text =
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\n"
      "h_bucket{le=\"+Inf\"} 6\n"
      "h_count 5\n";
  ASSERT_NE(obs::lint_prometheus(text), "");
}

TEST(PromLint, RejectsMalformedLines) {
  ASSERT_NE(obs::lint_prometheus("9bad 1\n"), "");
  ASSERT_NE(obs::lint_prometheus("x_total notanumber\n"), "");
  ASSERT_NE(obs::lint_prometheus("x_total{le=\"1\" 2\n"), "");
  ASSERT_NE(obs::lint_prometheus("# COMMENT nope\n"), "");
  ASSERT_NE(obs::lint_prometheus("# TYPE x bogus_kind\n"), "");
  ASSERT_NE(obs::lint_prometheus("# TYPE x counter\n# TYPE x counter\n"),
            "");
}

TEST(PromLint, RegistryRenderingAlwaysLints) {
  // Everything the registry can hold renders to lint-clean text,
  // including empty histograms and label values needing escaping.
  obs::MetricsRegistry reg;
  reg.counter("a_total", "with \"quotes\" and \\slashes\\",
              {{"k", "va\"l\nue"}})
      .inc(3);
  (void)reg.histogram("empty_us", "never recorded");
  obs::Histogram& h = reg.histogram("busy_us", "recorded");
  for (std::uint64_t v = 0; v < 2000; ++v) h.record(v * v);
  const std::string text = obs::prometheus_text(reg.snapshot());
  ASSERT_EQ(obs::lint_prometheus(text), "") << text.substr(0, 400);
}

// ------------------------------------------------------ live scrape

/// Shared harness: serve real sessions on `Server` while a second
/// connection scrapes all three verbs mid-load.
template <typename Server>
void live_scrape_roundtrip(const char* server_label) {
  constexpr std::size_t kShards = 2;
  obs::MetricsRegistry reg;
  obs::Tracer tracer;
  sync::EngineOptions engine_options;
  engine_options.metrics = &reg;
  engine_options.tracer = &tracer;
  sync::ShardedEngine<Item8> engine(kShards, {}, engine_options);
  const auto w = make_set_pair<Item8>(500, 20, 15, 99);
  for (const auto& x : w.a) engine.add_item(x);

  SocketServerOptions options;
  options.metrics = &reg;
  options.tracer = &tracer;
  Server server(engine, options);
  server.start();

  // Load generator: back-to-back sessions on one connection until told
  // to stop -- the scrape below happens while these are in flight.
  std::atomic<bool> stop{false};
  std::atomic<std::size_t> completed{0};
  std::thread load([&] {
    SocketClient sock(server.port());
    std::uint64_t sid = 100;
    while (!stop.load(std::memory_order_acquire)) {
      sync::ShardedClient<Item8> client(sid, kShards,
                                        sync::BackendId::kRiblt);
      for (const auto& y : w.b) client.add_item(y);
      if (!run_session(sock, client, 60.0)) break;
      completed.fetch_add(1, std::memory_order_relaxed);
      sid += kShards;
    }
  });

  // Wait until at least one session has fully completed so the scrape
  // observes nonzero engine activity.
  for (int i = 0; i < 6000 && completed.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(completed.load(), 0u) << "load generator never completed";

  SocketClient admin(server.port());
  const auto text = scrape(admin, "METRICS");
  ASSERT_TRUE(text.has_value());
  ASSERT_EQ(obs::lint_prometheus(*text), "") << text->substr(0, 400);
  // Engine tier moved (registry cells) ...
  ASSERT_NE(text->find("riblt_sessions_opened_total{backend=\"riblt\"}"),
            std::string::npos);
  // ... transport tier (the server's cells) ...
  ASSERT_NE(text->find("riblt_server_frames_in_total"), std::string::npos);
  ASSERT_NE(
      text->find(std::string("server=\"") + server_label + "\""),
      std::string::npos);
  // ... engine lifecycle, and histograms render with buckets.
  ASSERT_NE(text->find("riblt_sessions_opened_total"), std::string::npos);
  ASSERT_NE(text->find("riblt_session_bytes_to_peer_bucket"),
            std::string::npos);
  // The opened counter is live (nonzero): every line for it parses as
  // "name{...} value" -- cheap nonzero check via the registry snapshot.
  const obs::MetricsSnapshot snap = reg.snapshot();
  const auto* opened = snap.find_series("riblt_sessions_opened_total",
                                        {{"backend", "riblt"}});
  ASSERT_NE(opened, nullptr);
  ASSERT_GT(opened->counter, 0u);

  const auto json = scrape(admin, "METRICS_JSON");
  ASSERT_TRUE(json.has_value());
  ASSERT_NE(json->find("\"riblt_sessions_opened_total\""),
            std::string::npos);
  ASSERT_NE(json->find("\"p99\""), std::string::npos);

  const auto trace = scrape(admin, "TRACE");
  ASSERT_TRUE(trace.has_value());
  ASSERT_NE(trace->find("\"traceEvents\""), std::string::npos);
  ASSERT_NE(trace->find("session_open"), std::string::npos);

  // Unknown verbs answer with an in-band ERROR -> ProtocolError here.
  ASSERT_THROW((void)scrape(admin, "NO_SUCH_VERB"), sync::ProtocolError);

  stop.store(true, std::memory_order_release);
  load.join();
  server.stop();
}

TEST(PromLint, LiveScrapeEpollMidLoad) {
  live_scrape_roundtrip<SocketServer<Item8>>("epoll");
}

TEST(PromLint, LiveScrapeUringMidLoad) {
  if (!uring_or_skip("LiveScrapeUringMidLoad")) return;
#if defined(RIBLT_HAS_IO_URING)
  live_scrape_roundtrip<UringServer<Item8>>("uring");
#else
  live_scrape_roundtrip<UringServer<Item8>>("epoll");  // alias fallback
#endif
}

// ------------------------------------------------------- golden schema

using FamilySet = std::set<std::pair<std::string, std::string>>;

/// The (family, type) pairs a Prometheus text body declares.
FamilySet families_of(const std::string& text) {
  FamilySet out;
  std::size_t pos = 0;
  while ((pos = text.find("# TYPE ", pos)) != std::string::npos) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos + 7, eol - pos - 7);
    const std::size_t sp = line.find(' ');
    out.emplace(line.substr(0, sp), line.substr(sp + 1));
    pos = eol;
  }
  return out;
}

/// Every family name in `got` but not in `want`, marked '+', and the
/// reverse, marked '-' -- the failure message of a schema drift.
std::string schema_drift(const FamilySet& got, const FamilySet& want) {
  std::string out;
  for (const auto& f : got) {
    if (want.count(f) == 0) out += " +" + f.first + ":" + f.second;
  }
  for (const auto& f : want) {
    if (got.count(f) == 0) out += " -" + f.first + ":" + f.second;
  }
  return out;
}

/// The engine tier every tapped scrape carries: lifecycle, per-session
/// histograms, ingest, and SequenceCache cells.
const FamilySet kEngineFamilies = {
    {"riblt_cache_compact_us", "histogram"},
    {"riblt_cache_compactions_total", "counter"},
    {"riblt_cache_gate_wait_us", "histogram"},
    {"riblt_cache_journal_depth", "gauge"},
    {"riblt_engine_bytes_from_peers_total", "counter"},
    {"riblt_engine_frames_sent_total", "counter"},
    {"riblt_engine_items_added_total", "counter"},
    {"riblt_engine_items_removed_total", "counter"},
    {"riblt_serve_cpu_us", "histogram"},
    {"riblt_session_bytes_to_peer", "histogram"},
    {"riblt_session_duration_us", "histogram"},
    {"riblt_session_rounds", "histogram"},
    {"riblt_sessions_done_total", "counter"},
    {"riblt_sessions_evicted_total", "counter"},
    {"riblt_sessions_failed_total", "counter"},
    {"riblt_sessions_opened_total", "counter"},
    {"riblt_sessions_reaped_total", "counter"},
};

/// The exposition schema of a tapped server over a 2-shard engine after
/// one session, on either server: any added, missing, or renamed family
/// fails here.
template <typename Server>
FamilySet server_scrape_families() {
  obs::MetricsRegistry reg;
  sync::EngineOptions engine_options;
  engine_options.metrics = &reg;
  sync::ShardedEngine<Item8> engine(2, {}, engine_options);
  const auto w = make_set_pair<Item8>(200, 6, 4, 31);
  for (const auto& x : w.a) engine.add_item(x);
  SocketServerOptions options;
  options.metrics = &reg;
  Server server(engine, options);
  server.start();
  SocketClient sock(server.port());
  sync::ShardedClient<Item8> client(1, 2, sync::BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  EXPECT_TRUE(run_session(sock, client, 60.0));
  const auto text = scrape(sock, "METRICS");
  server.stop();
  return text ? families_of(*text) : FamilySet{};
}

TEST(PromLint, ServerScrapeMatchesGoldenSchema) {
  FamilySet want = kEngineFamilies;
  want.insert({
      {"riblt_server_conduit_pending_bytes", "histogram"},
      {"riblt_server_connections_accepted_total", "counter"},
      {"riblt_server_connections_closed_total", "counter"},
      {"riblt_server_frames_dropped_total", "counter"},
      {"riblt_server_frames_in_total", "counter"},
      {"riblt_server_frames_out_total", "counter"},
      {"riblt_server_protocol_errors_total", "counter"},
      {"riblt_server_sqe_submits_total", "counter"},
      {"riblt_server_syscalls_total", "counter"},
      {"riblt_shard_inbox_depth", "histogram"},
      {"riblt_shard_protocol_errors_total", "counter"},
  });
  const FamilySet epoll = server_scrape_families<SocketServer<Item8>>();
  ASSERT_EQ(epoll, want) << schema_drift(epoll, want);
  if (!uring_or_skip("ServerScrapeMatchesGoldenSchema")) return;
  const FamilySet uring = server_scrape_families<UringServer<Item8>>();
  ASSERT_EQ(uring, want) << schema_drift(uring, want);
}

TEST(PromLint, ReplicaScrapeMatchesGoldenSchema) {
  obs::MetricsRegistry reg;
  sync::ReplicaOptions options;
  options.replica_id = 1;
  options.engine.metrics = &reg;
  sync::Replica<Item8> replica(options);
  std::vector<std::vector<std::byte>> outbox;
  replica.add_peer(2, [&outbox](std::vector<std::byte> f) {
    outbox.push_back(std::move(f));
    return true;
  });
  replica.deliver(2, sync::v2::make_admin_frame(7, "METRICS"), 0.5);
  std::string body;
  for (const auto& raw : outbox) {
    body += sync::v2::error_text(sync::v2::parse_frame(raw));
  }
  FamilySet want = kEngineFamilies;
  want.insert({
      {"riblt_replica_backoff_ms", "histogram"},
      {"riblt_replica_items_applied_total", "counter"},
      {"riblt_replica_peer_backoff_ms", "gauge"},
      {"riblt_replica_peer_converged_total", "counter"},
      {"riblt_replica_peer_failures", "gauge"},
      {"riblt_replica_peer_last_success_ms", "gauge"},
      {"riblt_replica_restarts_total", "counter"},
      {"riblt_replica_retries_total", "counter"},
      {"riblt_replica_round_gap_us", "histogram"},
      {"riblt_replica_rounds_aborted_total", "counter"},
      {"riblt_replica_rounds_attempted_total", "counter"},
      {"riblt_replica_rounds_converged_total", "counter"},
  });
  const FamilySet got = families_of(body);
  ASSERT_EQ(got, want) << schema_drift(got, want);
}

/// Sends one raw ADMIN frame and returns the text of the in-band ERROR it
/// draws (or a marker that cannot match any ERROR text).
std::string admin_error(SocketClient& sock, std::vector<std::byte> raw) {
  sock.send_frame(std::move(raw));
  const auto reply = sock.recv_frame(/*timeout_s=*/20.0);
  if (!reply) return "<no reply>";
  const sync::v2::Frame frame = sync::v2::parse_frame(*reply);
  if (frame.type != sync::v2::FrameType::kError) return "<not an ERROR>";
  return sync::v2::error_text(frame);
}

/// An ADMIN frame whose routing prefix parses but whose body does not (a
/// trailing byte past the verb).
std::vector<std::byte> malformed_admin(std::uint64_t sid) {
  std::vector<std::byte> raw = sync::v2::make_admin_frame(sid, "METRICS");
  raw.push_back(std::byte{0});
  return raw;
}

/// The ERROR texts an untapped server answers {unknown verb, malformed
/// ADMIN} with; every such answer counts as a protocol error.
template <typename Server>
std::vector<std::string> untapped_admin_errors() {
  sync::ShardedEngine<Item8> engine(1);
  Server server(engine);  // no metrics/tracer taps
  server.start();
  SocketClient sock(server.port());
  EXPECT_THROW((void)scrape(sock, "METRICS"), sync::ProtocolError);
  EXPECT_THROW((void)scrape(sock, "TRACE"), sync::ProtocolError);
  std::vector<std::string> texts = {
      admin_error(sock, sync::v2::make_admin_frame(3, "NO_SUCH_VERB")),
      admin_error(sock, malformed_admin(4))};
  server.stop();
  EXPECT_EQ(server.stats().protocol_errors, 4u);
  return texts;
}

// One ADMIN dispatcher answers for both servers and the Replica tap, so
// an unset tap, an unknown verb, and a malformed ADMIN draw byte-identical
// ERROR text from all three.
TEST(PromLint, ScrapeWithoutTapsGetsError) {
  const std::vector<std::string> want = {
      "unsupported ADMIN verb: NO_SUCH_VERB", "malformed ADMIN"};
  ASSERT_EQ(untapped_admin_errors<SocketServer<Item8>>(), want);
  if (uring_or_skip("ScrapeWithoutTapsGetsError")) {
    ASSERT_EQ(untapped_admin_errors<UringServer<Item8>>(), want);
  }

  sync::ReplicaOptions options;
  options.replica_id = 1;
  options.jitter = 0;  // no metrics/tracer taps
  sync::Replica<Item8> replica(options);
  std::vector<std::vector<std::byte>> outbox;
  replica.add_peer(2, [&outbox](std::vector<std::byte> f) {
    outbox.push_back(std::move(f));
    return true;
  });
  std::vector<std::string> got;
  for (auto raw : {sync::v2::make_admin_frame(3, "NO_SUCH_VERB"),
                   malformed_admin(4), sync::v2::make_admin_frame(5, "TRACE")}) {
    outbox.clear();
    replica.deliver(2, raw, 0.5);
    ASSERT_EQ(outbox.size(), 1u);
    const sync::v2::Frame frame = sync::v2::parse_frame(outbox[0]);
    ASSERT_EQ(frame.type, sync::v2::FrameType::kError);
    got.push_back(sync::v2::error_text(frame));
  }
  ASSERT_EQ(got[2], "unsupported ADMIN verb: TRACE");
  got.pop_back();
  ASSERT_EQ(got, want);
}

// -------------------------------------------------- replica admin tap

TEST(PromLint, ReplicaAdminTapServesRegistryAndPeerRows) {
  obs::MetricsRegistry reg;
  sync::ReplicaOptions options;
  options.replica_id = 1;
  options.jitter = 0;
  options.engine.metrics = &reg;
  sync::Replica<Item32> replica(options);
  for (const auto& x : make_set_pair<Item32>(50, 5, 0, 7).a) {
    replica.add_item(x);
  }

  std::vector<std::vector<std::byte>> outbox;
  replica.add_peer(2, [&outbox](std::vector<std::byte> f) {
    outbox.push_back(std::move(f));
    return true;
  });

  replica.deliver(2, sync::v2::make_admin_frame(7, "METRICS"), 0.5);
  std::string body;
  bool final_seen = false;
  for (const auto& raw : outbox) {
    const sync::v2::Frame frame = sync::v2::parse_frame(raw);
    ASSERT_EQ(frame.type, sync::v2::FrameType::kAdminReply);
    body.append(sync::v2::error_text(frame));
    final_seen = frame.value != 0;
  }
  ASSERT_TRUE(final_seen);
  ASSERT_EQ(obs::lint_prometheus(body), "") << body.substr(0, 400);
  ASSERT_NE(body.find("riblt_replica_rounds_attempted_total"),
            std::string::npos);
  ASSERT_NE(body.find("peer=\"2\""), std::string::npos);
  ASSERT_NE(body.find("riblt_engine_items_added_total"), std::string::npos);

  // Unknown verb -> in-band ERROR frame back to the peer.
  outbox.clear();
  replica.deliver(2, sync::v2::make_admin_frame(8, "BOGUS"), 0.6);
  ASSERT_EQ(outbox.size(), 1u);
  ASSERT_EQ(sync::v2::parse_frame(outbox[0]).type,
            sync::v2::FrameType::kError);
}

}  // namespace
}  // namespace ribltx::net
