// Tests for the observability substrate (src/obs/): log-linear histogram
// geometry and quantile error bounds, snapshot merge algebra, registry
// dedup/kind rules, concurrent record-during-scrape (the TSan job hammers
// this), the session tracer's ring semantics, and the engine/replica
// instrumentation wiring (registry cells move when sessions run).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/prom.hpp"
#include "obs/trace.hpp"
#include "sync/sharded.hpp"
#include "testutil.hpp"

namespace ribltx::obs {
namespace {

using testing::make_set_pair;
using Item8 = U64Symbol;

// ------------------------------------------------------- bucket geometry

TEST(Histogram, UnitBucketsAreExactBelowSub) {
  for (std::uint64_t v = 0; v < HistogramLayout::kSub; ++v) {
    ASSERT_EQ(HistogramLayout::bucket_index(v), v);
    ASSERT_EQ(HistogramLayout::bucket_lower(v), v);
    ASSERT_EQ(HistogramLayout::bucket_upper(v), v + 1);
  }
}

TEST(Histogram, BucketBoundsContainTheirValues) {
  SplitMix64 rng(7);
  std::vector<std::uint64_t> probes = {
      32,  33,  63,  64,  65,  1000,  4096,  4097,  (1ull << 32) - 1,
      1ull << 32, (1ull << 32) + 1, ~0ull, ~0ull - 1, 1ull << 62};
  for (int i = 0; i < 2000; ++i) {
    // Random values spread across octaves (shifted so all widths hit).
    probes.push_back(rng.next() >> (rng.next() % 60));
  }
  for (const std::uint64_t v : probes) {
    const std::size_t idx = HistogramLayout::bucket_index(v);
    ASSERT_LT(idx, HistogramLayout::kBucketCount);
    const std::uint64_t lo = HistogramLayout::bucket_lower(idx);
    const std::uint64_t hi = HistogramLayout::bucket_upper(idx);
    ASSERT_LE(lo, v) << "v=" << v;
    // Upper bound is exclusive except at the top, where it clamps to the
    // u64 maximum (inclusive by necessity).
    if (hi != ~0ull) {
      ASSERT_GT(hi, v) << "v=" << v;
    } else {
      ASSERT_GE(hi, v) << "v=" << v;
    }
    // Log-linear width bound: width <= lower/kSub for v >= kSub (the
    // relative-error contract every quantile consumer leans on).
    if (v >= HistogramLayout::kSub && idx + 1 < HistogramLayout::kBucketCount) {
      ASSERT_LE(hi - lo, lo / HistogramLayout::kSub) << "v=" << v;
    }
  }
}

TEST(Histogram, BucketIndexIsMonotone) {
  // Monotonicity across every boundary value (lower(i) for all i).
  std::size_t prev = 0;
  for (std::size_t i = 0; i < HistogramLayout::kBucketCount; ++i) {
    const std::uint64_t lo = HistogramLayout::bucket_lower(i);
    const std::size_t idx = HistogramLayout::bucket_index(lo);
    ASSERT_EQ(idx, i) << "lower(" << i << ")=" << lo;
    ASSERT_GE(idx, prev);
    prev = idx;
  }
}

// ------------------------------------------------------- merge algebra

TEST(Histogram, MergeOfSnapshotsEqualsSnapshotOfMerge) {
  SplitMix64 rng(42);
  Histogram a;
  Histogram b;
  Histogram both;
  for (int i = 0; i < 5000; ++i) {
    const std::uint64_t va = rng.next() >> (rng.next() % 50);
    const std::uint64_t vb = rng.next() >> (rng.next() % 50);
    a.record(va);
    b.record(vb);
    both.record(va);
    both.record(vb);
  }
  HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const HistogramSnapshot direct = both.snapshot();
  ASSERT_EQ(merged.count, direct.count);
  ASSERT_EQ(merged.sum, direct.sum);
  ASSERT_EQ(merged.buckets, direct.buckets);
  ASSERT_EQ(merged.bucket_total(), direct.bucket_total());
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    ASSERT_EQ(merged.quantile(q), direct.quantile(q));
  }
}

// --------------------------------------------------- quantile error bound

TEST(Histogram, QuantileMatchesSortedVectorWithinBucketWidth) {
  SplitMix64 rng(1234);
  for (int trial = 0; trial < 8; ++trial) {
    Histogram h;
    std::vector<std::uint64_t> samples;
    const int n = 100 + static_cast<int>(rng.next() % 5000);
    for (int i = 0; i < n; ++i) {
      // Mixed regimes: small exact values and large bucketed ones.
      const std::uint64_t v = (rng.next() % 2) ? rng.next() % 64
                                               : rng.next() >> (rng.next() % 40);
      samples.push_back(v);
      h.record(v);
    }
    std::sort(samples.begin(), samples.end());
    const HistogramSnapshot s = h.snapshot();
    for (const double q : {0.0, 0.1, 0.5, 0.9, 0.99, 1.0}) {
      const auto rank = static_cast<std::size_t>(
          q * static_cast<double>(samples.size() - 1) + 0.5);
      const std::uint64_t exact = samples[rank];
      const double est = s.quantile(q);
      // The estimate lives in the same bucket as the exact rank value:
      // error is at most one bucket width = exact/kSub (plus the unit
      // slop of the midpoint convention).
      const double bound =
          static_cast<double>(exact) / HistogramLayout::kSub + 1.0;
      const double err = est > static_cast<double>(exact)
                             ? est - static_cast<double>(exact)
                             : static_cast<double>(exact) - est;
      ASSERT_LE(err, bound) << "q=" << q << " n=" << samples.size()
                            << " exact=" << exact << " est=" << est;
    }
  }
}

// -------------------------------------------- concurrency (TSan target)

TEST(Histogram, ConcurrentRecordDuringScrapeIsCoherent) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Histogram h;
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        h.record(rng.next() >> (rng.next() % 48));
      }
    });
  }
  go.store(true, std::memory_order_release);
  // Scrape while the writers hammer: every intermediate snapshot must be
  // internally monotone (bucket_total never exceeds a later total).
  std::uint64_t last_total = 0;
  for (int i = 0; i < 50; ++i) {
    const HistogramSnapshot s = h.snapshot();
    const std::uint64_t total = s.bucket_total();
    ASSERT_GE(total, last_total);
    ASSERT_LE(total, static_cast<std::uint64_t>(kThreads) * kPerThread);
    (void)s.quantile(0.99);  // must not crash/underflow mid-race
    last_total = total;
  }
  for (auto& th : writers) th.join();
  const HistogramSnapshot final_snap = h.snapshot();
  ASSERT_EQ(final_snap.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(final_snap.bucket_total(), final_snap.count);
}

TEST(Registry, ConcurrentRegistrationAndScrape) {
  MetricsRegistry reg;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&reg, &go, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      Counter& c = reg.counter("obs_test_shared_total", "shared cell");
      Histogram& h = reg.histogram(
          "obs_test_lat_us", "latency",
          {{"worker", std::to_string(t)}});
      for (int i = 0; i < 5000; ++i) {
        c.inc();
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  go.store(true, std::memory_order_release);
  for (int i = 0; i < 20; ++i) (void)reg.snapshot();
  for (auto& th : threads) th.join();
  const MetricsSnapshot s = reg.snapshot();
  const MetricsSnapshot::Series* shared =
      s.find_series("obs_test_shared_total");
  ASSERT_NE(shared, nullptr);
  ASSERT_EQ(shared->counter, 4u * 5000u);  // all threads shared one cell
  const MetricsSnapshot::Family* lat = s.find("obs_test_lat_us");
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->series.size(), 4u);  // distinct labels -> distinct cells
}

// ----------------------------------------------------------- registry

TEST(Registry, DedupesOnNameAndSortedLabels) {
  MetricsRegistry reg;
  Counter& a = reg.counter("x_total", "x", {{"b", "2"}, {"a", "1"}});
  Counter& b = reg.counter("x_total", "x", {{"a", "1"}, {"b", "2"}});
  ASSERT_EQ(&a, &b);  // label order is identity-blind
  Counter& c = reg.counter("x_total", "x", {{"a", "1"}});
  ASSERT_NE(&a, &c);
}

TEST(Registry, RejectsKindMismatchAndBadNames) {
  MetricsRegistry reg;
  (void)reg.counter("y_total", "y");
  ASSERT_THROW((void)reg.gauge("y_total", "y"), std::invalid_argument);
  ASSERT_THROW((void)reg.histogram("y_total", "y"), std::invalid_argument);
  ASSERT_THROW((void)reg.counter("9bad", "bad"), std::invalid_argument);
  ASSERT_THROW((void)reg.counter("has space", "bad"), std::invalid_argument);
  ASSERT_THROW((void)reg.counter("ok_total", "ok", {{"9bad", "v"}}),
               std::invalid_argument);
}

TEST(Registry, SnapshotCarriesValuesAndRenders) {
  MetricsRegistry reg;
  reg.counter("hits_total", "hits").inc(7);
  reg.gauge("depth", "queue depth").set(-3);
  reg.histogram("lat_us", "latency").record(100);
  const MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.find_series("hits_total")->counter, 7u);
  ASSERT_EQ(s.find_series("depth")->gauge, -3);
  ASSERT_EQ(s.find_series("lat_us")->hist.bucket_total(), 1u);
  // Both renderers accept the snapshot; the text form lints.
  const std::string text = prometheus_text(s);
  ASSERT_EQ(lint_prometheus(text), "");
  const std::string json = json_text(s);
  ASSERT_NE(json.find("\"hits_total\""), std::string::npos);
  ASSERT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(Registry, HistogramLeBoundsAreInclusive) {
  // Regression: `le` was rendered as bucket_upper (one PAST the largest
  // contained value), so an observation equal to a rendered boundary was
  // excluded from its own cumulative bucket. A unit-width bucket holding
  // value 6 must render le="6" and count 6 itself.
  MetricsRegistry reg;
  Histogram& h = reg.histogram("v", "values");
  h.record(6);
  h.record(64);  // bucket [64, 66): largest contained value is 65
  const std::string text = prometheus_text(reg.snapshot());
  ASSERT_NE(text.find("v_bucket{le=\"6\"} 1\n"), std::string::npos) << text;
  ASSERT_NE(text.find("v_bucket{le=\"65\"} 2\n"), std::string::npos) << text;
  ASSERT_NE(text.find("v_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  ASSERT_EQ(lint_prometheus(text), "");
}

// ------------------------------------------------------------- tracer

TEST(Tracer, RecordsAndExportsLifecycleEvents) {
  Tracer tracer(64);
  TraceEvent ev;
  ev.ts_s = 1.5;
  ev.session_id = 42;
  ev.kind = TraceKind::kOpen;
  ev.backend = 1;
  ev.a = 10;
  ev.b = 4;
  tracer.record(ev);
  ev.kind = TraceKind::kDone;
  ev.ts_s = 2.0;
  tracer.record(ev);
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 2u);
  ASSERT_EQ(events[0].session_id, 42u);
  ASSERT_EQ(events[0].kind, TraceKind::kOpen);
  ASSERT_EQ(events[1].kind, TraceKind::kDone);
  const std::string json = tracer.chrome_json();
  ASSERT_NE(json.find("\"traceEvents\""), std::string::npos);
  ASSERT_NE(json.find("session_open"), std::string::npos);
  ASSERT_NE(json.find("\"sid\":42"), std::string::npos);
}

TEST(Tracer, RingRetainsNewestAndMergesThreads) {
  constexpr std::size_t kCap = 128;
  Tracer tracer(kCap);
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < 1000; ++i) {
        TraceEvent ev;
        ev.session_id = static_cast<std::uint64_t>(t) * 10000 + i;
        ev.kind = TraceKind::kRound;
        tracer.record(ev);
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(tracer.ring_count(), 3u);
  const std::vector<TraceEvent> events = tracer.events();
  // Newest kCap - 1 per ring survive: the exporter always sacrifices one
  // slot to cover a possibly in-flight record (it cannot tell a
  // quiescent ring from one with a store racing the head bump).
  ASSERT_EQ(events.size(), 3u * (kCap - 1));
  // Per ring the retained window is the newest events in order.
  for (int t = 0; t < 3; ++t) {
    std::vector<std::uint64_t> ids;
    for (const TraceEvent& ev : events) {
      if (ev.session_id / 10000 == static_cast<std::uint64_t>(t)) {
        ids.push_back(ev.session_id % 10000);
      }
    }
    ASSERT_EQ(ids.size(), kCap - 1);
    ASSERT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    ASSERT_EQ(ids.back(), 999u);
  }
}

TEST(Tracer, SequentialTracersAtTheSameAddressDoNotAlias) {
  // Regression: the per-thread ring cache was keyed on the tracer's
  // address, so a tracer constructed where a destroyed one lived reused
  // the dead tracer's freed ring (use-after-free). optional guarantees
  // the same storage for both incarnations.
  std::optional<Tracer> tracer;
  tracer.emplace(16);
  TraceEvent ev;
  ev.session_id = 1;
  ev.kind = TraceKind::kOpen;
  tracer->record(ev);
  ASSERT_EQ(tracer->ring_count(), 1u);
  tracer.reset();
  tracer.emplace(16);
  ev.session_id = 2;
  tracer->record(ev);  // must register a fresh ring, not write the old one
  ASSERT_EQ(tracer->ring_count(), 1u);
  const std::vector<TraceEvent> events = tracer->events();
  ASSERT_EQ(events.size(), 1u);
  ASSERT_EQ(events[0].session_id, 2u);
}

TEST(Tracer, AlternatingBetweenLiveTracersReusesRings) {
  // Regression: switching tracers registered a brand-new ring on every
  // switch, growing rings_ without bound.
  Tracer a(16);
  Tracer b(16);
  TraceEvent ev;
  ev.kind = TraceKind::kRound;
  for (int i = 0; i < 100; ++i) {
    ev.session_id = static_cast<std::uint64_t>(i);
    a.record(ev);
    b.record(ev);
  }
  ASSERT_EQ(a.ring_count(), 1u);
  ASSERT_EQ(b.ring_count(), 1u);
  ASSERT_EQ(a.events().size(), 15u);  // capacity - 1 retained
  ASSERT_EQ(b.events().size(), 15u);
}

TEST(Tracer, ConcurrentScrapeExportsOnlyRealEvents) {
  // Writers lap a tiny ring while the exporter walks it; every exported
  // event must be a real recorded event, never a torn mix of two (the
  // per-field tag invariant below breaks on any cross-event mix). Also
  // the TSan job's race check for record() vs events().
  Tracer tracer(8);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&tracer, &stop, t] {
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        TraceEvent ev;
        ev.session_id = (static_cast<std::uint64_t>(t) << 32) | i;
        ev.a = ev.session_id ^ 0x5a5a5a5a5a5a5a5aull;
        ev.b = ~ev.session_id;
        ev.kind = TraceKind::kCredit;
        tracer.record(ev);
        ++i;
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    for (const TraceEvent& ev : tracer.events()) {
      ASSERT_EQ(ev.a, ev.session_id ^ 0x5a5a5a5a5a5a5a5aull);
      ASSERT_EQ(ev.b, ~ev.session_id);
      ASSERT_EQ(ev.kind, TraceKind::kCredit);
    }
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

// ----------------------------------------- engine instrumentation wiring

TEST(ObsWiring, EngineSessionsMoveRegistryCellsAndTracer) {
  MetricsRegistry reg;
  Tracer tracer;
  const auto w = make_set_pair<Item8>(400, 12, 8, 77);
  sync::EngineOptions options;
  options.metrics = &reg;
  options.tracer = &tracer;
  sync::ShardedEngine<Item8> engine(2, {}, options);
  for (const auto& x : w.a) engine.add_item(x);

  sync::ShardedClient<Item8> client(1, 2, sync::BackendId::kRiblt);
  for (const auto& y : w.b) client.add_item(y);
  for (auto& hello : client.hellos()) {
    for (const auto& reply : engine.handle_frame(hello)) {
      (void)client.handle_frame(reply);
    }
  }
  std::size_t guard = 0;
  bool progressed = true;
  while (progressed && !client.terminal() && guard++ < 100000) {
    progressed = false;
    for (std::size_t s = 0; s < 2; ++s) {
      const auto frame = engine.next_frame(client.sub_session_id(s));
      if (!frame) continue;
      progressed = true;
      for (const auto& reply : client.handle_frame(*frame)) {
        for (const auto& response : engine.handle_frame(reply)) {
          (void)client.handle_frame(response);
        }
      }
    }
  }
  ASSERT_TRUE(client.complete());
  // Per-session cells fold at retirement (a server does this on
  // disconnect); close both sub-sessions to land them.
  for (std::size_t s = 0; s < 2; ++s) {
    ASSERT_TRUE(engine.close_session(client.sub_session_id(s)));
  }

  const MetricsSnapshot s = reg.snapshot();
  const MetricsSnapshot::Series* opened =
      s.find_series("riblt_sessions_opened_total", {{"backend", "riblt"}});
  ASSERT_NE(opened, nullptr);
  ASSERT_EQ(opened->counter, 2u);  // one per shard, shared cells
  const MetricsSnapshot::Series* done =
      s.find_series("riblt_sessions_done_total", {{"backend", "riblt"}});
  ASSERT_NE(done, nullptr);
  ASSERT_EQ(done->counter, 2u);
  const MetricsSnapshot::Series* bytes =
      s.find_series("riblt_session_bytes_to_peer", {{"backend", "riblt"}});
  ASSERT_NE(bytes, nullptr);
  ASSERT_EQ(bytes->hist.bucket_total(), 2u);
  ASSERT_GT(bytes->hist.sum, 0u);

  // Lifecycle landed in the tracer: open and close per sub-session.
  std::size_t opens = 0;
  std::size_t closes = 0;
  for (const TraceEvent& ev : tracer.events()) {
    opens += ev.kind == TraceKind::kOpen ? 1 : 0;
    closes += ev.kind == TraceKind::kClose ? 1 : 0;
  }
  ASSERT_EQ(opens, 2u);
  ASSERT_EQ(closes, 2u);

  // The exposition lints, and the typed totals read the same cells.
  const std::string text = prometheus_text(reg.snapshot());
  ASSERT_EQ(lint_prometheus(text), "") << text.substr(0, 400);
  const sync::EngineTotals totals = engine.stats().totals;
  ASSERT_EQ(totals.sessions, 2u);
  ASSERT_EQ(totals.done, 2u);
  ASSERT_EQ(totals.bytes_to_peers, bytes->hist.sum);
}

}  // namespace
}  // namespace ribltx::obs
