// Tests for the shared serving path's core structure: SequenceCache (lazy
// doubling materialization, O(log m) in-place churn, churn journal) and its
// snapshot Cursor (per-session consistency under concurrent churn).
//
// Acceptance property (ISSUE 3): a churned cache decodes identically to a
// freshly-built sketch of the final set, under randomized add/remove
// interleavings.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/riblt.hpp"
#include "testutil.hpp"

namespace ribltx {
namespace {

using testing::for_all;
using testing::key_set;
using testing::make_set_pair;
using Item32 = ByteSymbol<32>;

template <Symbol T>
std::vector<CodedSymbol<T>> encoder_prefix(const std::vector<T>& items,
                                           std::size_t m) {
  Encoder<T> enc;
  for (const auto& x : items) enc.add_symbol(x);
  std::vector<CodedSymbol<T>> out;
  out.reserve(m);
  for (std::size_t i = 0; i < m; ++i) out.push_back(enc.produce_next());
  return out;
}

TEST(SequenceCache, LazyPrefixMatchesEncoderAcrossBlockBoundaries) {
  const auto w = make_set_pair<Item32>(500, 0, 0, 31);
  SequenceCache<Item32> cache;  // lazy: nothing materialized yet
  for (const auto& x : w.a) cache.add_symbol(x);
  CHECK_EQ(cache.materialized(), 0u);
  CHECK_EQ(cache.set_size(), w.a.size());

  const auto want = encoder_prefix(w.a, 300);
  // Read cells in an order that straddles several doubling blocks.
  CHECK(cache.cell(0) == want[0]);
  CHECK(cache.cell(65) == want[65]);    // forces 64 -> 128
  CHECK(cache.cell(299) == want[299]);  // forces -> 512
  for (std::size_t i = 0; i < 300; ++i) {
    if (!(cache.cell(i) == want[i])) {
      ADD_FAILURE() << "cell " << i << " diverges from the encoder stream";
      break;
    }
  }
  CHECK_EQ(cache.materialized(), 512u);
}

TEST(SequenceCache, PreMaterializedConstructorMatchesSketch) {
  const auto w = make_set_pair<Item32>(200, 0, 0, 32);
  constexpr std::size_t kCells = 100;
  SequenceCache<Item32> cache(kCells);
  Sketch<Item32> sketch(kCells);
  for (const auto& x : w.a) {
    cache.add_symbol(x);
    sketch.add_symbol(x);
  }
  REQUIRE_EQ(cache.materialized(), kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    CHECK(cache.cells()[i] == sketch.cells()[i]);
  }
}

// Acceptance criterion: a cache that lived through arbitrary interleaved
// adds/removes (including removes of never-materialized items and re-adds
// of removed ones) holds exactly the cells of a sketch built fresh from
// the final set.
TEST(SequenceCache, ChurnedCacheEqualsFreshSketchProperty) {
  for_all("churned cache == fresh sketch of the final set", 30, 777,
          [](SplitMix64& rng) {
            const std::size_t kCells = 64 + rng.next() % 128;
            SequenceCache<U64Symbol> cache;
            std::vector<U64Symbol> live;
            // Start with a base set.
            for (std::size_t i = 0; i < 60; ++i) {
              live.push_back(U64Symbol::random(rng.next()));
              cache.add_symbol(live.back());
            }
            // Force partial materialization mid-history.
            (void)cache.cell(kCells / 2);
            // Random interleaved churn.
            for (std::size_t step = 0; step < 120; ++step) {
              if (!live.empty() && rng.next() % 3 == 0) {
                const std::size_t victim = rng.next() % live.size();
                cache.remove_symbol(live[victim]);
                live[victim] = live.back();
                live.pop_back();
              } else {
                live.push_back(U64Symbol::random(rng.next()));
                cache.add_symbol(live.back());
              }
              if (step % 17 == 0) (void)cache.cell(rng.next() % kCells);
            }
            cache.ensure(kCells);
            Sketch<U64Symbol> fresh(kCells);
            for (const auto& x : live) fresh.add_symbol(x);
            for (std::size_t i = 0; i < kCells; ++i) {
              if (!(cache.cells()[i] == fresh.cells()[i])) return false;
            }
            return cache.set_size() == live.size();
          });
}

TEST(SequenceCache, ChurnedCacheDecodesAgainstAPeer) {
  // Decode path check on top of cell equality: subtract Bob's sketch from
  // the churned cache's prefix and peel.
  const auto w = make_set_pair<Item32>(300, 8, 5, 33);
  SequenceCache<Item32> cache;
  // Alice starts from B's shared part, then churns her way to A.
  for (const auto& x : w.b) cache.add_symbol(x);
  (void)cache.cell(10);  // some cells exist before the churn
  for (const auto& x : w.only_b) cache.remove_symbol(x);
  for (const auto& x : w.only_a) cache.add_symbol(x);

  constexpr std::size_t kCells = 256;
  cache.ensure(kCells);
  Sketch<Item32> bob(kCells);
  for (const auto& y : w.b) bob.add_symbol(y);

  Decoder<Item32> dec;
  std::size_t used = 0;
  for (std::size_t i = 0; i < kCells && !dec.decoded(); ++i, ++used) {
    CodedSymbol<Item32> diff = cache.cells()[i];
    diff.subtract(bob.cells()[i]);
    dec.add_coded_symbol(diff);
  }
  REQUIRE(dec.decoded());
  CHECK_EQ(dec.remote().size(), w.only_a.size());
  CHECK_EQ(dec.local().size(), w.only_b.size());
}

TEST(SequenceCacheCursor, SnapshotsSurviveConcurrentChurn) {
  // Two cursors pinned to different set versions stream their own
  // consistent snapshots from the one live cache.
  const auto w = make_set_pair<Item32>(150, 6, 0, 34);
  auto cache = std::make_shared<SequenceCache<Item32>>();
  for (const auto& x : w.a) cache->add_symbol(x);

  SequenceCache<Item32>::Cursor c0(cache);  // snapshot S0 = w.a
  std::vector<CodedSymbol<Item32>> first;
  for (int i = 0; i < 20; ++i) first.push_back(c0.next());

  // Churn: remove 5 items of S0, add 7 new ones -> S1.
  std::vector<Item32> s1(w.a.begin() + 5, w.a.end());
  for (std::size_t i = 0; i < 5; ++i) cache->remove_symbol(w.a[i]);
  for (std::size_t i = 0; i < 7; ++i) {
    s1.push_back(Item32::random(derive_seed(3400, i)));
    cache->add_symbol(s1.back());
  }

  SequenceCache<Item32>::Cursor c1(cache);  // snapshot S1
  const auto want0 = encoder_prefix(w.a, 120);
  const auto want1 = encoder_prefix(s1, 120);
  // Interleave reads; both cursors must reproduce their snapshot's stream,
  // and c0's pre-churn cells must agree with what it already handed out.
  for (std::size_t i = 0; i < 20; ++i) {
    CHECK(first[i] == want0[i]);
  }
  for (std::size_t i = 20, j = 0; i < 120; ++i, ++j) {
    CHECK(c0.next() == want0[i]);
    CHECK(c1.next() == want1[j]);
  }

  // The journal retains ops only while cursors that predate them live.
  CHECK(cache->journal_size() > 0);
  {
    SequenceCache<Item32>::Cursor drop = std::move(c0);
  }
  {
    SequenceCache<Item32>::Cursor drop = std::move(c1);
  }
  CHECK_EQ(cache->live_cursor_count(), 0u);
  CHECK_EQ(cache->journal_size(), 0u);  // last cursor's death emptied it
}

TEST(SequenceCacheCursor, RemovedThenReaddedItemRoundTrips) {
  // Tombstone + re-add: the cursor stream of the final snapshot matches a
  // fresh encode even when the same item cycled out and back in.
  auto cache = std::make_shared<SequenceCache<U64Symbol>>();
  std::vector<U64Symbol> items;
  for (std::size_t i = 0; i < 40; ++i) {
    items.push_back(U64Symbol::random(derive_seed(35, i)));
    cache->add_symbol(items.back());
  }
  (void)cache->cell(5);
  cache->remove_symbol(items[3]);
  cache->add_symbol(items[3]);
  const auto want = encoder_prefix(items, 80);
  SequenceCache<U64Symbol>::Cursor cur(cache);
  for (std::size_t i = 0; i < 80; ++i) {
    if (!(cur.next() == want[i])) {
      ADD_FAILURE() << "cell " << i << " diverges after remove/re-add";
      break;
    }
  }
}

TEST(SequenceCache, JournalPruningBounds) {
  auto cache = std::make_shared<SequenceCache<U64Symbol>>();
  cache->add_symbol(U64Symbol::random(1));
  CHECK_EQ(cache->journal_size(), 0u);  // no cursors -> no history kept

  SequenceCache<U64Symbol>::Cursor cur(cache);
  for (std::uint64_t i = 2; i < 10; ++i) {
    cache->add_symbol(U64Symbol::random(i));
  }
  CHECK_EQ(cache->journal_size(), 8u);
  // Ops below the cursor's floor can go; the cursor still streams fine.
  cache->prune_journal(cur.journal_position());
  CHECK_EQ(cache->journal_size(), 8u);  // floor is the snapshot: keeps all
  (void)cur.next();                     // catches up; floor advances
  cache->prune_journal(cur.journal_position());
  CHECK_EQ(cache->journal_size(), 0u);
  EXPECT_THROW((void)cache->op(cur.snapshot_version()), std::out_of_range);
}

// Satellite (ISSUE 4): sustained churn must not grow the coding window
// without bound -- once tombstones and their cancelled adds dominate, the
// window is rebuilt from the live set, and everything (cells, future
// blocks, snapshots) stays exactly equivalent.
TEST(SequenceCache, WindowCompactionBoundsSustainedChurn) {
  auto cache = std::make_shared<SequenceCache<U64Symbol>>();
  std::vector<U64Symbol> live;
  SplitMix64 rng(909);
  for (std::size_t i = 0; i < 300; ++i) {
    live.push_back(U64Symbol::random(rng.next()));
    cache->add_symbol(live.back());
  }
  (void)cache->cell(40);  // partially materialized before the churn

  // Weeks of churn in miniature: 2000 replace cycles on a 300-item set.
  for (std::size_t step = 0; step < 2000; ++step) {
    const std::size_t victim = rng.next() % live.size();
    cache->remove_symbol(live[victim]);
    live[victim] = U64Symbol::random(rng.next());
    cache->add_symbol(live[victim]);
    if (step % 97 == 0) (void)cache->cell(rng.next() % 128);
  }

  // Without compaction the window would hold 300 + 2 * 2000 entries; the
  // tombstone-ratio trigger keeps it within a small multiple of the live
  // set (the bound below allows one full not-yet-triggered batch).
  CHECK_EQ(cache->set_size(), live.size());
  CHECK(cache->window_size() <
        2 * live.size() + 4 * SequenceCache<U64Symbol>::kCompactMinTombstones)
      << "window grew to " << cache->window_size();

  // Cells (materialized and future) still equal a fresh sketch of the
  // live set.
  constexpr std::size_t kCells = 700;
  cache->ensure(kCells);
  Sketch<U64Symbol> fresh(kCells);
  for (const auto& x : live) fresh.add_symbol(x);
  for (std::size_t i = 0; i < kCells; ++i) {
    if (!(cache->cells()[i] == fresh.cells()[i])) {
      ADD_FAILURE() << "cell " << i << " diverges after compaction";
      break;
    }
  }

  // An explicit compaction drops every dead pair outright, and a snapshot
  // cursor opened before more churn still streams its own set.
  cache->compact_window();
  CHECK_EQ(cache->window_tombstones(), 0u);
  CHECK(cache->window_size() <= live.size());
  SequenceCache<U64Symbol>::Cursor cur(cache);
  const auto before = live;
  cache->remove_symbol(live[0]);
  cache->add_symbol(U64Symbol::random(rng.next()));
  const auto want = encoder_prefix(before, 64);
  for (std::size_t i = 0; i < 64; ++i) {
    if (!(cur.next() == want[i])) {
      ADD_FAILURE() << "snapshot cell " << i << " diverges across churn "
                       "after compaction";
      break;
    }
  }
}

// --------------------------------------------------------------------------
// Multi-writer churn (ISSUE 7). The SequenceCacheConcurrent suite is the
// TSan CI target: every test drives real threads through the lock-free
// churn path (atomic cells + striped journals + the exclusive gate) and
// then checks exact equality against single-threaded reference structures
// -- linearity says the interleaving must not matter at all.

// Seeded property: K writer threads churning concurrently (adds + removes
// of their own items, with lazy growth forced mid-churn) leave the cache
// byte-equal to a fresh sketch of the net multiset.
TEST(SequenceCacheConcurrent, MultiWriterChurnEqualsFreshSketch) {
  for_all("K-writer concurrent churn == fresh sketch of the net set", 5,
          4242, [](SplitMix64& rng) {
            const std::size_t writers = 2 + rng.next() % 3;  // 2..4
            constexpr std::size_t kOps = 300;
            constexpr std::size_t kCells = 256;
            SequenceCache<U64Symbol> cache(192);  // growth forced below
            std::vector<std::uint64_t> seeds;
            for (std::size_t w = 0; w < writers; ++w) {
              seeds.push_back(rng.next());
            }
            std::vector<std::vector<U64Symbol>> live(writers);
            std::vector<std::thread> fleet;
            for (std::size_t w = 0; w < writers; ++w) {
              fleet.emplace_back([&cache, &live, &seeds, w] {
                SplitMix64 wrng(seeds[w]);
                auto& mine = live[w];
                for (std::size_t i = 0; i < kOps; ++i) {
                  if (!mine.empty() && wrng.next() % 3 == 0) {
                    const std::size_t victim = wrng.next() % mine.size();
                    cache.remove_symbol(mine[victim]);
                    mine[victim] = mine.back();
                    mine.pop_back();
                  } else {
                    mine.push_back(U64Symbol::random(wrng.next()));
                    cache.add_symbol(mine.back());
                  }
                  if (i % 64 == 63) {
                    // Block materialization races steady-state churn.
                    (void)cache.cell(kCells - 1 - (w % 8));
                  }
                }
              });
            }
            for (auto& t : fleet) t.join();

            cache.ensure(kCells);
            Sketch<U64Symbol> fresh(kCells);
            std::size_t net = 0;
            for (const auto& mine : live) {
              for (const auto& x : mine) fresh.add_symbol(x);
              net += mine.size();
            }
            const auto cells = cache.cells();
            for (std::size_t i = 0; i < kCells; ++i) {
              if (!(cells[i] == fresh.cells()[i])) return false;
            }
            return cache.set_size() == net;
          });
}

// A cursor opened WHILE writers churn pins some completed-op prefix; the
// test recovers exactly which set that was (by decoding the snapshot
// stream against a quiesced final-set stream) and demands the cursor's
// cells be byte-equal to a fresh sketch of that set.
TEST(SequenceCacheConcurrent, CursorSnapshotConsistentUnderConcurrentChurn) {
  constexpr std::size_t kWriters = 3;
  constexpr std::size_t kOps = 150;
  constexpr std::size_t kRead = 1024;
  auto cache = std::make_shared<SequenceCache<U64Symbol>>(128);
  std::vector<U64Symbol> base;
  SplitMix64 rng(5151);
  for (std::size_t i = 0; i < 100; ++i) {
    base.push_back(U64Symbol::random(rng.next()));
    cache->add_symbol(base.back());
  }

  std::vector<std::uint64_t> seeds;
  for (std::size_t w = 0; w < kWriters; ++w) seeds.push_back(rng.next());
  std::vector<std::vector<U64Symbol>> live(kWriters);
  std::atomic<bool> started{false};
  std::vector<std::thread> fleet;
  for (std::size_t w = 0; w < kWriters; ++w) {
    fleet.emplace_back([&, w] {
      SplitMix64 wrng(seeds[w]);
      auto& mine = live[w];
      for (std::size_t i = 0; i < kOps; ++i) {
        if (i == 4 && w == 0) started.store(true, std::memory_order_release);
        if (!mine.empty() && wrng.next() % 4 == 0) {
          const std::size_t victim = wrng.next() % mine.size();
          cache->remove_symbol(mine[victim]);
          mine[victim] = mine.back();
          mine.pop_back();
        } else {
          mine.push_back(U64Symbol::random(wrng.next()));
          cache->add_symbol(mine.back());
        }
      }
    });
  }

  // Snapshot mid-churn and stream it while writers keep going: seqlock
  // retries, journal catch-up, and lazy growth all race live churn here.
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
  SequenceCache<U64Symbol>::Cursor mid(cache);
  std::vector<CodedSymbol<U64Symbol>> mid_cells;
  mid_cells.reserve(kRead);
  for (std::size_t i = 0; i < kRead; ++i) mid_cells.push_back(mid.next());
  for (auto& t : fleet) t.join();

  // Quiesced final stream, then decode (snapshot - final).
  SequenceCache<U64Symbol>::Cursor fin(cache);
  Decoder<U64Symbol> dec;
  for (std::size_t i = 0; i < kRead && !dec.decoded(); ++i) {
    CodedSymbol<U64Symbol> diff = mid_cells[i];
    diff.subtract(fin.next());
    dec.add_coded_symbol(diff);
  }
  REQUIRE(dec.decoded());

  // Reconstruct the snapshot set S = (F \ local) | remote and pin the
  // cursor's whole output to a fresh sketch of S.
  std::set<U64Symbol> snap(base.begin(), base.end());
  for (const auto& mine : live) snap.insert(mine.begin(), mine.end());
  for (const auto& s : dec.local()) snap.erase(s.symbol);
  for (const auto& s : dec.remote()) snap.insert(s.symbol);
  Sketch<U64Symbol> fresh(kRead);
  for (const auto& x : snap) fresh.add_symbol(x);
  for (std::size_t i = 0; i < kRead; ++i) {
    if (!(mid_cells[i] == fresh.cells()[i])) {
      ADD_FAILURE() << "snapshot cell " << i
                    << " diverges from the recovered snapshot set";
      break;
    }
  }
  CHECK_EQ(cache->live_cursor_count(), 2u);
}

// Satellite (ISSUE 7): the compaction threshold reads tombstone counters
// that concurrent writers bump -- compaction must be able to fire (both
// from the racy maybe_compact trigger and an explicit call on another
// thread) while writers are mid-churn, without corrupting anything.
TEST(SequenceCacheConcurrent, CompactionDuringConcurrentChurn) {
  constexpr std::size_t kWriters = 3;
  constexpr std::size_t kOps = 400;
  SequenceCache<U64Symbol> cache(128);
  SplitMix64 rng(6767);
  std::vector<std::uint64_t> seeds;
  for (std::size_t w = 0; w < kWriters; ++w) seeds.push_back(rng.next());
  std::vector<std::vector<U64Symbol>> live(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    SplitMix64 wrng(seeds[w] ^ 1);
    for (std::size_t i = 0; i < 50; ++i) {
      live[w].push_back(U64Symbol::random(wrng.next()));
      cache.add_symbol(live[w].back());
    }
  }

  std::atomic<bool> churning{true};
  std::thread compactor([&] {
    // Explicit compactions racing the writers' own maybe_compact triggers.
    while (churning.load(std::memory_order_acquire)) {
      cache.compact_window();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> fleet;
  for (std::size_t w = 0; w < kWriters; ++w) {
    fleet.emplace_back([&cache, &live, &seeds, w] {
      SplitMix64 wrng(seeds[w]);
      auto& mine = live[w];
      for (std::size_t i = 0; i < kOps; ++i) {
        // Pure replacement churn: maximal tombstone pressure.
        const std::size_t victim = wrng.next() % mine.size();
        cache.remove_symbol(mine[victim]);
        mine[victim] = U64Symbol::random(wrng.next());
        cache.add_symbol(mine[victim]);
      }
    });
  }
  for (auto& t : fleet) t.join();
  churning.store(false, std::memory_order_release);
  compactor.join();

  std::size_t net = 0;
  Sketch<U64Symbol> fresh(128);
  for (const auto& mine : live) {
    for (const auto& x : mine) fresh.add_symbol(x);
    net += mine.size();
  }
  CHECK_EQ(cache.set_size(), net);
  cache.compact_window();
  CHECK_EQ(cache.window_tombstones(), 0u);
  CHECK(cache.window_size() <= net);
  const auto cells = cache.cells();
  for (std::size_t i = 0; i < 128; ++i) {
    if (!(cells[i] == fresh.cells()[i])) {
      ADD_FAILURE() << "cell " << i << " diverges after concurrent "
                       "compaction + churn";
      break;
    }
  }
}

}  // namespace
}  // namespace ribltx
