// End-to-end and unit tests for the core Rateless IBLT: coded-symbol
// algebra, streaming encode/decode, sketch subtraction, wire format,
// incremental sequence-cache updates, and the irregular variant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/riblt.hpp"
#include "testutil.hpp"

namespace ribltx {
namespace {

using testing::make_set_pair;

using Item32 = ByteSymbol<32>;
using Item8 = U64Symbol;

// ------------------------------------------------------------- ByteSymbol

TEST(ByteSymbol, XorGroupLaws) {
  const auto a = Item32::random(1);
  const auto b = Item32::random(2);
  const auto c = Item32::random(3);
  EXPECT_EQ((a ^ b) ^ c, a ^ (b ^ c));
  EXPECT_EQ(a ^ b, b ^ a);
  EXPECT_EQ(a ^ Item32{}, a);
  EXPECT_EQ(a ^ a, Item32{});
  EXPECT_TRUE((a ^ a).is_zero());
}

TEST(ByteSymbol, OddSizeXorTail) {
  // Sizes not divisible by 8 exercise the byte-wise tail path.
  using Odd = ByteSymbol<13>;
  const auto a = Odd::random(4);
  const auto b = Odd::random(5);
  const auto c = a ^ b;
  for (std::size_t i = 0; i < 13; ++i) {
    EXPECT_EQ(c.data[i], a.data[i] ^ b.data[i]);
  }
}

TEST(ByteSymbol, FromU64LittleEndian) {
  const auto s = Item8::from_u64(0x0102030405060708ULL);
  EXPECT_EQ(static_cast<int>(s.data[0]), 0x08);
  EXPECT_EQ(static_cast<int>(s.data[7]), 0x01);
  using Tiny = ByteSymbol<4>;
  const auto t = Tiny::from_u64(0xaabbccddeeff0011ULL);
  EXPECT_EQ(static_cast<int>(t.data[0]), 0x11);
  EXPECT_EQ(static_cast<int>(t.data[3]), 0xee);
}

TEST(ByteSymbol, RandomIsDeterministicAndSpread) {
  EXPECT_EQ(Item32::random(9), Item32::random(9));
  EXPECT_NE(Item32::random(9), Item32::random(10));
  // Full-entropy content: all 32 bytes should rarely be zero.
  EXPECT_FALSE(Item32::random(9).is_zero());
}

// ----------------------------------------------------------- CodedSymbol

TEST(CodedSymbol, ApplyAndSubtract) {
  const SipHasher<Item8> hasher;
  const auto x = hasher.hashed(Item8::from_u64(7));
  const auto y = hasher.hashed(Item8::from_u64(9));

  CodedSymbol<Item8> cell;
  EXPECT_TRUE(cell.is_empty());
  cell.apply(x, Direction::kAdd);
  EXPECT_EQ(cell.count, 1);
  EXPECT_TRUE(cell.is_pure(hasher));
  cell.apply(y, Direction::kAdd);
  EXPECT_EQ(cell.count, 2);
  EXPECT_FALSE(cell.is_pure(hasher));
  cell.apply(x, Direction::kRemove);
  EXPECT_TRUE(cell.is_pure(hasher));
  EXPECT_EQ(cell.sum, y.symbol);
  cell.apply(y, Direction::kRemove);
  EXPECT_TRUE(cell.is_empty());
}

TEST(CodedSymbol, PureWithNegativeCount) {
  const SipHasher<Item8> hasher;
  CodedSymbol<Item8> a;  // empty cell (Alice side)
  CodedSymbol<Item8> b;
  b.apply(hasher.hashed(Item8::from_u64(5)), Direction::kAdd);
  const auto diff = a - b;
  EXPECT_EQ(diff.count, -1);
  EXPECT_TRUE(diff.is_pure(hasher));
}

TEST(CodedSymbol, SharedItemsCancelInSubtraction) {
  const SipHasher<Item32> hasher;
  const auto shared = hasher.hashed(Item32::random(1));
  const auto only_a = hasher.hashed(Item32::random(2));

  CodedSymbol<Item32> a, b;
  a.apply(shared, Direction::kAdd);
  a.apply(only_a, Direction::kAdd);
  b.apply(shared, Direction::kAdd);
  const auto diff = a - b;
  EXPECT_EQ(diff.count, 1);
  EXPECT_EQ(diff.sum, only_a.symbol);
  EXPECT_TRUE(diff.is_pure(hasher));
}

// ----------------------------------------------------- Encoder / Decoder

/// Runs a full streaming reconciliation; returns coded symbols used.
template <Symbol T>
std::size_t reconcile(const std::vector<T>& set_a, const std::vector<T>& set_b,
                      std::vector<HashedSymbol<T>>* out_remote = nullptr,
                      std::vector<HashedSymbol<T>>* out_local = nullptr,
                      std::size_t max_symbols = 1 << 20) {
  Encoder<T> alice;
  for (const T& x : set_a) alice.add_symbol(x);
  Decoder<T> bob;
  for (const T& y : set_b) bob.add_local_symbol(y);

  std::size_t used = 0;
  while (!bob.decoded()) {
    if (used >= max_symbols) {
      ADD_FAILURE() << "reconciliation did not converge in " << max_symbols;
      break;
    }
    bob.add_coded_symbol(alice.produce_next());
    ++used;
  }
  if (out_remote) out_remote->assign(bob.remote().begin(), bob.remote().end());
  if (out_local) out_local->assign(bob.local().begin(), bob.local().end());
  return used;
}

TEST(Reconcile, IdenticalSetsNeedOneSymbol) {
  const auto w = make_set_pair<Item32>(100, 0, 0, 1);
  std::vector<HashedSymbol<Item32>> remote, local;
  const auto used = reconcile(w.a, w.b, &remote, &local);
  EXPECT_EQ(used, 1u);  // first difference cell is already empty
  EXPECT_TRUE(remote.empty());
  EXPECT_TRUE(local.empty());
}

TEST(Reconcile, EmptySetsBothSides) {
  const std::vector<Item32> empty;
  const auto used = reconcile(empty, empty);
  EXPECT_EQ(used, 1u);
}

TEST(Reconcile, SingleDifferenceEachDirection) {
  {
    const auto w = make_set_pair<Item32>(50, 1, 0, 2);
    std::vector<HashedSymbol<Item32>> remote, local;
    reconcile(w.a, w.b, &remote, &local);
    ASSERT_EQ(remote.size(), 1u);
    EXPECT_TRUE(local.empty());
    EXPECT_EQ(remote[0].symbol, w.only_a[0]);
  }
  {
    const auto w = make_set_pair<Item32>(50, 0, 1, 3);
    std::vector<HashedSymbol<Item32>> remote, local;
    reconcile(w.a, w.b, &remote, &local);
    ASSERT_EQ(local.size(), 1u);
    EXPECT_TRUE(remote.empty());
    EXPECT_EQ(local[0].symbol, w.only_b[0]);
  }
}

void expect_exact_recovery(const std::vector<Item32>& only_a,
                           const std::vector<Item32>& only_b,
                           const std::vector<HashedSymbol<Item32>>& remote,
                           const std::vector<HashedSymbol<Item32>>& local) {
  const auto want_remote = testing::key_set(only_a);
  const auto want_local = testing::key_set(only_b);
  ASSERT_EQ(remote.size(), want_remote.size());
  ASSERT_EQ(local.size(), want_local.size());
  for (const auto& s : remote) {
    EXPECT_TRUE(want_remote.contains(
        siphash24(SipKey{0x1234, 0x5678}, s.symbol.bytes())));
  }
  for (const auto& s : local) {
    EXPECT_TRUE(want_local.contains(
        siphash24(SipKey{0x1234, 0x5678}, s.symbol.bytes())));
  }
}

TEST(Reconcile, BidirectionalDifferences) {
  const auto w = make_set_pair<Item32>(200, 17, 23, 4);
  std::vector<HashedSymbol<Item32>> remote, local;
  reconcile(w.a, w.b, &remote, &local);
  expect_exact_recovery(w.only_a, w.only_b, remote, local);
}

TEST(Reconcile, BobEmptySetWholeTransfer) {
  // Degenerate but valid: Bob has nothing; the stream transfers all of A.
  const auto w = make_set_pair<Item32>(0, 64, 0, 5);
  std::vector<HashedSymbol<Item32>> remote, local;
  reconcile(w.a, w.b, &remote, &local);
  expect_exact_recovery(w.only_a, w.only_b, remote, local);
}

TEST(Reconcile, KeyedHashingChangesStreamButStillDecodes) {
  const auto w = make_set_pair<Item32>(64, 8, 8, 6);
  const SipHasher<Item32> keyed(SipKey{0xfeed, 0xbeef});

  Encoder<Item32> alice(keyed);
  for (const auto& x : w.a) alice.add_symbol(x);
  Decoder<Item32> bob(keyed);
  for (const auto& y : w.b) bob.add_local_symbol(y);
  std::size_t used = 0;
  while (!bob.decoded() && used < 4096) {
    bob.add_coded_symbol(alice.produce_next());
    ++used;
  }
  EXPECT_TRUE(bob.decoded());

  // Different key => different coded symbols for the same set.
  Encoder<Item32> alice_default;
  for (const auto& x : w.a) alice_default.add_symbol(x);
  Encoder<Item32> alice_keyed(keyed);
  for (const auto& x : w.a) alice_keyed.add_symbol(x);
  EXPECT_NE(alice_default.produce_next(), alice_keyed.produce_next());
}

TEST(Reconcile, OverheadStaysBelowTwoForModerateD) {
  // Paper Fig 5: mean overhead peaks at 1.72 (d=4) and is < 1.4 for
  // d > 128. Individual runs vary, so check the mean over trials.
  for (std::size_t d : {16u, 64u, 256u}) {
    double total = 0;
    constexpr int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
      const auto w =
          make_set_pair<Item8>(256, d / 2, d - d / 2,
                               derive_seed(100 + d, static_cast<std::uint64_t>(t)));
      total += static_cast<double>(reconcile(w.a, w.b));
    }
    const double overhead = total / kTrials / static_cast<double>(d);
    EXPECT_GT(overhead, 1.0) << "d=" << d;   // info-theoretic floor
    EXPECT_LT(overhead, 2.2) << "d=" << d;   // generous Fig 5 envelope
  }
}

TEST(Reconcile, FirstCellDecodesLast) {
  // rho(0)=1: cell 0 contains every difference, so it must settle exactly
  // when decoding completes -- the paper's termination signal (§4.1).
  const auto w = make_set_pair<Item32>(32, 6, 6, 8);
  Encoder<Item32> alice;
  for (const auto& x : w.a) alice.add_symbol(x);
  Decoder<Item32> bob;
  for (const auto& y : w.b) bob.add_local_symbol(y);
  while (!bob.decoded()) {
    bob.add_coded_symbol(alice.produce_next());
    ASSERT_LT(bob.cells_received(), 4096u);
    if (!bob.decoded()) {
      // Not done => cell 0 still holds undecoded mass.
      EXPECT_FALSE(bob.cell(0).is_empty());
    }
  }
  EXPECT_TRUE(bob.cell(0).is_empty());
}

TEST(Encoder, RejectsAddAfterProduce) {
  Encoder<Item8> enc;
  enc.add_symbol(Item8::from_u64(1));
  (void)enc.produce_next();
  EXPECT_THROW(enc.add_symbol(Item8::from_u64(2)), std::logic_error);
  enc.reset();
  EXPECT_NO_THROW(enc.add_symbol(Item8::from_u64(2)));
}

TEST(Decoder, RejectsLocalAddAfterStream) {
  Decoder<Item8> dec;
  dec.add_local_symbol(Item8::from_u64(1));
  Encoder<Item8> enc;
  enc.add_symbol(Item8::from_u64(1));
  dec.add_coded_symbol(enc.produce_next());
  EXPECT_THROW(dec.add_local_symbol(Item8::from_u64(2)), std::logic_error);
}

TEST(Decoder, ResetClearsState) {
  Decoder<Item8> dec;
  dec.add_local_symbol(Item8::from_u64(1));
  Encoder<Item8> enc;
  enc.add_symbol(Item8::from_u64(2));
  dec.add_coded_symbol(enc.produce_next());
  dec.reset();
  EXPECT_EQ(dec.cells_received(), 0u);
  EXPECT_FALSE(dec.decoded());
  EXPECT_NO_THROW(dec.add_local_symbol(Item8::from_u64(3)));
}

TEST(Reconcile, ParameterizedItemSizes) {
  // The same machinery must work across item lengths (paper Fig 11 range).
  const auto run = [](auto tag) {
    using T = decltype(tag);
    const auto w = make_set_pair<T>(64, 5, 5, 77);
    Encoder<T> alice;
    for (const auto& x : w.a) alice.add_symbol(x);
    Decoder<T> bob;
    for (const auto& y : w.b) bob.add_local_symbol(y);
    std::size_t used = 0;
    while (!bob.decoded() && used < 4096) {
      bob.add_coded_symbol(alice.produce_next());
      ++used;
    }
    EXPECT_TRUE(bob.decoded());
    EXPECT_EQ(bob.remote().size(), 5u);
    EXPECT_EQ(bob.local().size(), 5u);
  };
  run(ByteSymbol<8>{});
  run(ByteSymbol<13>{});
  run(ByteSymbol<32>{});
  run(ByteSymbol<92>{});
  run(ByteSymbol<512>{});
}

// -------------------------------------------------------- CodingWindow

using Window = CodingWindow<Item8>;

/// Brute-force reference: applies `s` at every index its mapping visits from
/// `mapping`'s current position up to the end of `ref`.
void fold_reference(std::vector<CodedSymbol<Item8>>& ref,
                    const HashedSymbol<Item8>& s, IndexMapping mapping,
                    Direction dir) {
  while (mapping.index() < ref.size()) {
    ref[static_cast<std::size_t>(mapping.index())].apply(s, dir);
    mapping.advance();
  }
}

TEST(CodingWindow, ApplyAtMatchesBruteForceFold) {
  // Up-front adds of both signs, mid-stream adds whose mappings are
  // pre-walked to the visit position, and visits of both signs, over 3
  // horizons so entries park in the far heap and come back.
  const SipHasher<Item8> hasher;
  const std::size_t m = 3 * Window::kHorizon;
  testing::for_all(
      "CodingWindow == brute-force fold", 8, 41, [&](SplitMix64& rng) {
        const auto random_dir = [&] {
          return rng.next_below(3) == 0 ? Direction::kRemove
                                        : Direction::kAdd;
        };
        Window window;
        std::vector<CodedSymbol<Item8>> ref(m);
        for (std::size_t i = 0; i < 200; ++i) {
          const auto s = hasher.hashed(Item8::random(rng.next()));
          const Direction dir = random_dir();
          fold_reference(ref, s, IndexMapping(s.hash), dir);
          if (dir == Direction::kAdd) {
            window.add(s, DefaultMappingFactory{});
          } else {
            window.add_with_mapping(s, IndexMapping(s.hash), dir);
          }
        }
        std::vector<Direction> visit(m);
        for (auto& v : visit) v = random_dir();
        for (std::size_t i = 0; i < m; ++i) {
          if (rng.next_below(256) == 0) {
            // A late symbol (a decoder's recovery): its mapping is walked
            // to the visit position before it joins the window.
            const auto s = hasher.hashed(Item8::random(rng.next()));
            IndexMapping mapping(s.hash);
            while (mapping.index() < i) mapping.advance();
            const Direction dir = random_dir();
            fold_reference(ref, s, mapping, dir);
            window.add_with_mapping(s, mapping, dir);
          }
          CodedSymbol<Item8> cell;
          window.apply_at(i, cell, visit[i]);
          // Signs multiply: a kRemove visit negates the reference count.
          CodedSymbol<Item8> want = ref[i];
          if (visit[i] == Direction::kRemove) want.count = -want.count;
          if (!(cell == want)) return false;
        }
        return true;
      });
}

TEST(CodingWindow, RevisitingOnlyTheLastIndexIsLegal) {
  const SipHasher<Item8> hasher;
  Window window;
  window.add(hasher.hashed(Item8::from_u64(1)), DefaultMappingFactory{});
  CodedSymbol<Item8> cell;
  for (std::uint64_t i = 0; i < 6; ++i) {
    window.apply_at(i, cell, Direction::kAdd);
  }
  CodedSymbol<Item8> again;
  EXPECT_NO_THROW(window.apply_at(5, again, Direction::kAdd));
  EXPECT_TRUE(again.is_empty());  // its slot was drained on the first visit
  EXPECT_THROW(window.apply_at(4, again, Direction::kAdd), std::logic_error);
}

TEST(CodingWindow, SkippingALiveEntryThrows) {
  const SipHasher<Item8> hasher;
  const auto s = hasher.hashed(Item8::from_u64(2));
  CodedSymbol<Item8> cell;
  Window near;  // every symbol maps to index 0, which lives in a bucket
  near.add(s, DefaultMappingFactory{});
  EXPECT_THROW(near.apply_at(1, cell, Direction::kAdd), std::logic_error);

  Window far;  // an entry beyond the horizon lives in the far heap
  IndexMapping mapping(s.hash);
  while (mapping.index() < 2 * Window::kHorizon) mapping.advance();
  const std::uint64_t key = mapping.index();
  far.add_with_mapping(s, mapping);
  EXPECT_THROW(far.apply_at(key + Window::kHorizon, cell, Direction::kAdd),
               std::logic_error);
}

TEST(CodingWindow, AddBelowTheVisitPositionThrows) {
  const SipHasher<Item8> hasher;
  Window window;
  CodedSymbol<Item8> cell;
  for (std::uint64_t i = 0; i < 10; ++i) {
    window.apply_at(i, cell, Direction::kAdd);
  }
  const auto s = hasher.hashed(Item8::from_u64(3));
  EXPECT_THROW(window.add_with_mapping(s, IndexMapping(s.hash)),
               std::logic_error);
  EXPECT_EQ(window.size(), 0u);  // a rejected entry leaves no symbol behind
  IndexMapping mapping(s.hash);
  while (mapping.index() < 10) mapping.advance();
  EXPECT_NO_THROW(window.add_with_mapping(s, mapping, Direction::kRemove));
  EXPECT_EQ(window.size(), 1u);
}

// -------------------------------------------------------------- Sketch

TEST(Sketch, SubtractAndDecode) {
  const auto w = make_set_pair<Item32>(500, 10, 10, 10);
  constexpr std::size_t kCells = 128;
  Sketch<Item32> sa(kCells), sb(kCells);
  for (const auto& x : w.a) sa.add_symbol(x);
  for (const auto& y : w.b) sb.add_symbol(y);
  sa.subtract(sb);
  const auto result = sa.decode();
  ASSERT_TRUE(result.success);
  expect_exact_recovery(w.only_a, w.only_b, result.remote, result.local);
}

TEST(Sketch, EqualsEncoderPrefix) {
  // A sketch of A must be exactly the first m coded symbols the streaming
  // encoder would produce (prefix property, Fig 3).
  const auto w = make_set_pair<Item32>(100, 0, 0, 11);
  constexpr std::size_t kCells = 64;
  Sketch<Item32> sketch(kCells);
  Encoder<Item32> enc;
  for (const auto& x : w.a) {
    sketch.add_symbol(x);
    enc.add_symbol(x);
  }
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(enc.produce_next(), sketch.cells()[i]) << "cell " << i;
  }
}

TEST(Sketch, UndersizedFailsGracefully) {
  // Way fewer cells than differences: decode must report failure, not hang
  // or return garbage.
  const auto w = make_set_pair<Item32>(10, 40, 40, 12);
  Sketch<Item32> sa(8), sb(8);
  for (const auto& x : w.a) sa.add_symbol(x);
  for (const auto& y : w.b) sb.add_symbol(y);
  sa.subtract(sb);
  const auto result = sa.decode();
  EXPECT_FALSE(result.success);
}

TEST(Sketch, AddThenRemoveIsIdentity) {
  Sketch<Item32> s(32);
  const auto item = Item32::random(3);
  s.add_symbol(item);
  s.remove_symbol(item);
  for (const auto& cell : s.cells()) {
    EXPECT_TRUE(cell.is_empty());
  }
}

TEST(Sketch, SizeMismatchThrows) {
  Sketch<Item32> a(16), b(32);
  EXPECT_THROW(a.subtract(b), std::invalid_argument);
  EXPECT_THROW(Sketch<Item32>(0), std::invalid_argument);
  EXPECT_THROW((void)a.prefix(17), std::out_of_range);
  EXPECT_NO_THROW((void)a.prefix(16));
}

TEST(SequenceCache, IncrementalUpdateMatchesRebuild) {
  // Alice updates her set; the cached coded symbols updated in place must
  // equal a from-scratch sketch of the new set (§7.3 linearity).
  const auto w = make_set_pair<Item32>(300, 24, 0, 13);
  constexpr std::size_t kCells = 256;

  SequenceCache<Item32> cache(kCells);
  for (const auto& x : w.b) cache.add_symbol(x);  // start from B = shared

  // Apply updates: insert all of only_a, delete 10 shared items.
  for (const auto& x : w.only_a) cache.add_symbol(x);
  for (std::size_t i = 0; i < 10; ++i) cache.remove_symbol(w.b[i]);

  Sketch<Item32> rebuilt(kCells);
  for (std::size_t i = 10; i < w.b.size(); ++i) rebuilt.add_symbol(w.b[i]);
  for (const auto& x : w.only_a) rebuilt.add_symbol(x);

  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(cache.cells()[i], rebuilt.cells()[i]) << "cell " << i;
  }
}

// ---------------------------------------------------------------- wire

TEST(Wire, SketchRoundTrip) {
  const auto w = make_set_pair<Item32>(1000, 0, 0, 14);
  constexpr std::size_t kCells = 64;
  Sketch<Item32> sketch(kCells);
  for (const auto& x : w.a) sketch.add_symbol(x);

  const auto data = wire::serialize_sketch(sketch, w.a.size());
  const auto parsed = wire::parse_sketch<Item32>(data);
  ASSERT_EQ(parsed.cells.size(), kCells);
  EXPECT_EQ(parsed.set_size, w.a.size());
  for (std::size_t i = 0; i < kCells; ++i) {
    EXPECT_EQ(parsed.cells[i], sketch.cells()[i]) << "cell " << i;
  }
}

TEST(Wire, CountResidualsAreSmall) {
  // §6: counts stored as residuals against N*rho(i) cost ~1 byte each.
  const auto w = make_set_pair<Item32>(20000, 0, 0, 15);
  constexpr std::size_t kCells = 512;
  Sketch<Item32> sketch(kCells);
  for (const auto& x : w.a) sketch.add_symbol(x);

  const auto with_counts = wire::serialize_sketch(sketch, w.a.size());
  wire::SketchWireOptions no_counts;
  no_counts.include_counts = false;
  const auto without = wire::serialize_sketch(sketch, w.a.size(), no_counts);
  const double count_bytes_per_cell =
      static_cast<double>(with_counts.size() - without.size()) / kCells;
  EXPECT_LT(count_bytes_per_cell, 2.5);  // naive fixed encoding would be 8
}

TEST(Wire, FourByteChecksumRoundTrip) {
  const auto w = make_set_pair<Item8>(100, 0, 0, 16);
  Sketch<Item8> sketch(32);
  for (const auto& x : w.a) sketch.add_symbol(x);
  wire::SketchWireOptions opts;
  opts.checksum_len = 4;
  const auto data = wire::serialize_sketch(sketch, w.a.size(), opts);
  const auto parsed = wire::parse_sketch<Item8>(data);
  for (std::size_t i = 0; i < parsed.cells.size(); ++i) {
    EXPECT_EQ(parsed.cells[i].checksum,
              sketch.cells()[i].checksum & 0xffffffffULL);
    EXPECT_EQ(parsed.cells[i].count, sketch.cells()[i].count);
  }
}

TEST(Wire, MalformedInputThrows) {
  const auto w = make_set_pair<Item8>(10, 0, 0, 17);
  Sketch<Item8> sketch(8);
  for (const auto& x : w.a) sketch.add_symbol(x);
  auto data = wire::serialize_sketch(sketch, w.a.size());

  {
    auto bad = data;
    bad[0] = std::byte{0x00};  // clobber magic
    EXPECT_THROW((void)wire::parse_sketch<Item8>(bad), std::invalid_argument);
  }
  {
    auto truncated = data;
    truncated.resize(truncated.size() - 3);
    EXPECT_THROW((void)wire::parse_sketch<Item8>(truncated),
                 std::out_of_range);
  }
  {
    // Wrong symbol type for the payload.
    EXPECT_THROW((void)wire::parse_sketch<Item32>(data),
                 std::invalid_argument);
  }
}

TEST(Wire, StreamSymbolRoundTrip) {
  const SipHasher<Item32> hasher;
  CodedSymbol<Item32> cell;
  cell.apply(hasher.hashed(Item32::random(1)), Direction::kAdd);
  cell.apply(hasher.hashed(Item32::random(2)), Direction::kAdd);
  ByteWriter wtr;
  wire::write_stream_symbol(wtr, cell);
  ByteReader rdr(wtr.view());
  const auto back = wire::read_stream_symbol<Item32>(rdr);
  EXPECT_EQ(back, cell);
  EXPECT_TRUE(rdr.done());
}

// ----------------------------------------------------------- Irregular

TEST(Irregular, ReconcilesBidirectionalDifferences) {
  const auto w = make_set_pair<Item32>(128, 20, 20, 18);
  IrregularEncoder<Item32> alice;
  for (const auto& x : w.a) alice.add_symbol(x);
  IrregularDecoder<Item32> bob;
  for (const auto& y : w.b) bob.add_local_symbol(y);
  std::size_t used = 0;
  while (!bob.decoded() && used < 1 << 14) {
    bob.add_coded_symbol(alice.produce_next());
    ++used;
  }
  ASSERT_TRUE(bob.decoded());
  std::vector<HashedSymbol<Item32>> remote(bob.remote().begin(),
                                           bob.remote().end());
  std::vector<HashedSymbol<Item32>> local(bob.local().begin(),
                                          bob.local().end());
  expect_exact_recovery(w.only_a, w.only_b, remote, local);
}

TEST(Irregular, LowerOverheadThanRegularAtLargeD) {
  // Fig 15: irregular overhead approaches 1.10 (multi-type density
  // evolution gives 1.1005 for the §8 config) vs regular 1.35. Individual
  // irregular runs are heavy-tailed near threshold (occasional stopping
  // sets decode late), so compare medians over several trials.
  constexpr std::size_t kD = 2048;
  constexpr int kTrials = 9;
  std::vector<double> regular_runs, irregular_runs;
  for (int t = 0; t < kTrials; ++t) {
    const auto w = make_set_pair<Item8>(
        0, kD, 0, derive_seed(900, static_cast<std::uint64_t>(t)));
    {
      Encoder<Item8> alice;
      for (const auto& x : w.a) alice.add_symbol(x);
      Decoder<Item8> bob;
      std::size_t used = 0;
      while (!bob.decoded()) {
        bob.add_coded_symbol(alice.produce_next());
        ++used;
      }
      regular_runs.push_back(static_cast<double>(used) / kD);
    }
    {
      IrregularEncoder<Item8> alice;
      for (const auto& x : w.a) alice.add_symbol(x);
      IrregularDecoder<Item8> bob;
      std::size_t used = 0;
      while (!bob.decoded()) {
        bob.add_coded_symbol(alice.produce_next());
        ++used;
      }
      irregular_runs.push_back(static_cast<double>(used) / kD);
    }
  }
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  const double reg_med = median(regular_runs);
  const double irr_med = median(irregular_runs);
  EXPECT_LT(irr_med, reg_med);
  EXPECT_LT(irr_med, 1.28);
  EXPECT_GT(irr_med, 1.0);
  EXPECT_LT(reg_med, 1.55);
}

}  // namespace
}  // namespace ribltx
