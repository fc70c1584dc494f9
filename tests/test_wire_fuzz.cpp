// Malformed-wire-input coverage (run under the ASan CI job): truncated
// sketches, bad magic/version bytes, oversized cell-count claims, and
// random-byte frames through every parser that faces the network --
// parse_sketch, read_stream_symbol, the IBLT/strata wire, and the v2
// engine frame parser. The contract everywhere: throw a typed exception,
// never UB, and reject hostile size claims before allocating. Cell counts
// at the extremes of their integer range go through the codecs' count
// arithmetic on both ends (UBSan aborts on any signed overflow there).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "core/riblt.hpp"
#include "iblt/iblt_wire.hpp"
#include "iblt/strata.hpp"
#include "net/frame_conduit.hpp"
#include "sync/adaptive.hpp"
#include "sync/engine.hpp"
#include "sync/reconciler.hpp"
#include "testutil.hpp"

namespace ribltx {
namespace {

using testing::for_all;
using testing::make_set_pair;
using Item8 = U64Symbol;
using Item32 = ByteSymbol<32>;

[[nodiscard]] std::vector<std::byte> random_bytes(SplitMix64& rng,
                                                  std::size_t max_len) {
  const std::size_t len = rng.next() % (max_len + 1);
  std::vector<std::byte> out(len);
  for (auto& b : out) b = static_cast<std::byte>(rng.next());
  return out;
}

TEST(WireFuzz, SketchTruncatedAtEveryOffset) {
  const auto w = make_set_pair<Item8>(40, 0, 0, 21);
  Sketch<Item8> sketch(16);
  for (const auto& x : w.a) sketch.add_symbol(x);
  const auto data = wire::serialize_sketch(sketch, w.a.size());
  for (std::size_t cut = 0; cut < data.size(); ++cut) {
    std::vector<std::byte> truncated(
        data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)wire::parse_sketch<Item8>(truncated), std::exception);
  }
  EXPECT_NO_THROW((void)wire::parse_sketch<Item8>(data));
}

TEST(WireFuzz, SketchBadMagicVersionAndChecksumLen) {
  Sketch<Item8> sketch(4);
  sketch.add_symbol(Item8::random(1));
  auto data = wire::serialize_sketch(sketch, 1);
  {
    auto bad = data;
    bad[2] = std::byte{0x7e};  // magic
    EXPECT_THROW((void)wire::parse_sketch<Item8>(bad), std::invalid_argument);
  }
  {
    auto bad = data;
    bad[4] = std::byte{0x09};  // version
    EXPECT_THROW((void)wire::parse_sketch<Item8>(bad), std::invalid_argument);
  }
  {
    auto bad = data;
    bad[6] = std::byte{0x05};  // checksum_len not in {4, 8}
    EXPECT_THROW((void)wire::parse_sketch<Item8>(bad), std::invalid_argument);
  }
}

TEST(WireFuzz, SketchRejectsOversizedCellCountBeforeAllocating) {
  // A header claiming 2^40 cells in a tiny frame must be rejected up front
  // (an allocation that size would take the process down, sanitizer or
  // not).
  ByteWriter w;
  w.u32(wire::kMagic);
  w.u8(wire::kVersion);
  w.u8(wire::kFlagHasCounts);
  w.u8(8);
  w.u32(static_cast<std::uint32_t>(Item8::kSize));
  w.uvarint(1ull << 40);  // num_cells
  w.uvarint(100);         // set_size
  w.u64(0xdead);          // a few token bytes of "cells"
  EXPECT_THROW((void)wire::parse_sketch<Item8>(w.view()), std::out_of_range);
}

TEST(WireFuzz, IbltRejectsOversizedCellCountBeforeAllocating) {
  ByteWriter w;
  w.u32(iblt::wire::kMagic);
  w.u8(iblt::wire::kVersion);
  w.u8(3);      // k
  w.u8(8);      // checksum_len
  w.u64(0);     // salt
  w.u32(static_cast<std::uint32_t>(Item32::kSize));
  w.uvarint(1ull << 40);  // num_cells
  w.u64(0);
  EXPECT_THROW((void)iblt::wire::parse<Item32>(w.view()), std::out_of_range);
}

TEST(WireFuzz, StrataRejectsOversizedGeometry) {
  iblt::StrataEstimator<Item8> est(4, 8, 2);
  est.add_symbol(Item8::random(3));
  const auto data = est.serialize();
  // Round-trips cleanly...
  EXPECT_NO_THROW((void)iblt::StrataEstimator<Item8>::deserialize(data));
  // ...but truncation and geometry lies are rejected.
  for (std::size_t cut = 0; cut < data.size(); cut += 7) {
    std::vector<std::byte> truncated(
        data.begin(), data.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_THROW((void)iblt::StrataEstimator<Item8>::deserialize(truncated),
                 std::exception);
  }
  ByteWriter w;
  w.u32(iblt::StrataEstimator<Item8>::kWireMagic);
  w.u8(iblt::StrataEstimator<Item8>::kWireVersion);
  w.u8(8);                // checksum_len
  w.uvarint(64);          // num_strata
  w.uvarint(1ull << 32);  // cells_per_stratum
  w.u8(4);
  w.u32(static_cast<std::uint32_t>(Item8::kSize));
  EXPECT_THROW((void)iblt::StrataEstimator<Item8>::deserialize(w.view()),
               std::out_of_range);

  // Geometry whose product wraps uint64 (64 * 2^58 = 2^64 -> 0) must not
  // slip past the pre-allocation guard.
  ByteWriter wrap;
  wrap.u32(iblt::StrataEstimator<Item8>::kWireMagic);
  wrap.u8(iblt::StrataEstimator<Item8>::kWireVersion);
  wrap.u8(8);                // checksum_len
  wrap.uvarint(64);          // num_strata
  wrap.uvarint(1ull << 58);  // cells_per_stratum: product overflows to 0
  wrap.u8(4);
  wrap.u32(static_cast<std::uint32_t>(Item8::kSize));
  EXPECT_THROW((void)iblt::StrataEstimator<Item8>::deserialize(wrap.view()),
               std::out_of_range);
}

TEST(WireFuzz, StreamSymbolTruncationThrows) {
  const SipHasher<Item32> hasher;
  CodedSymbol<Item32> cell;
  cell.apply(hasher.hashed(Item32::random(5)), Direction::kAdd);
  for (const std::uint8_t width : {std::uint8_t{4}, std::uint8_t{8}}) {
    ByteWriter w;
    wire::write_stream_symbol(w, cell, width);
    for (std::size_t cut = 0; cut < w.size(); ++cut) {
      ByteReader r(std::span<const std::byte>(w.view().data(), cut));
      EXPECT_THROW((void)wire::read_stream_symbol<Item32>(r, width),
                   std::out_of_range);
    }
    ByteReader ok(w.view());
    const auto back = wire::read_stream_symbol<Item32>(ok, width);
    CHECK(back.sum == cell.sum);
  }
}

TEST(WireFuzz, FrameConduitTruncatedPrefixesYieldNothing) {
  // A record cut anywhere -- inside the length prefix or the body -- must
  // produce no frame and no exception; the codec waits for more bytes.
  net::FrameConduit tx;
  tx.send(std::vector<std::byte>(200, std::byte{0x42}));
  std::vector<std::byte> record;
  {
    std::span<const std::byte> chunks[4];
    const std::size_t n = tx.gather(chunks);
    for (std::size_t i = 0; i < n; ++i) {
      record.insert(record.end(), chunks[i].begin(), chunks[i].end());
    }
  }
  for (std::size_t cut = 0; cut < record.size(); ++cut) {
    net::FrameConduit rx;
    rx.feed(std::span<const std::byte>(record.data(), cut));
    CHECK_EQ(rx.frames_pending(), 0u);
    CHECK(!rx.poisoned());
  }
}

TEST(WireFuzz, FrameConduitRejectsOversizedClaimBeforeAllocating) {
  // A 2^40-byte length claim in a 12-byte buffer must throw on the prefix
  // itself, never attempt the allocation (the ASan job would flag the
  // resulting OOM path).
  net::FrameConduit rx(/*max_frame=*/1 << 16);
  std::vector<std::byte> evil;
  put_uvarint(evil, 1ull << 40);
  evil.push_back(std::byte{0x00});
  EXPECT_THROW(rx.feed(evil), sync::ProtocolError);
  CHECK(rx.poisoned());
  // A poisoned stream is unrecoverable: further input is refused too.
  EXPECT_THROW(rx.feed(std::vector<std::byte>(1)), sync::ProtocolError);
  // An 11-byte continuation run (no uvarint terminator) is equally fatal.
  net::FrameConduit rx2;
  const std::vector<std::byte> forever(11, std::byte{0x80});
  EXPECT_THROW(rx2.feed(forever), sync::ProtocolError);
  // The send side refuses to produce what the peer would reject.
  net::FrameConduit tx(/*max_frame=*/16);
  EXPECT_THROW(tx.send(std::vector<std::byte>(17)), sync::ProtocolError);
}

TEST(WireFuzz, FrameConduitByteAtATimeParity) {
  for_all("byte-at-a-time reassembly == whole-record delivery", 40, 6021,
          [](SplitMix64& rng) {
            net::FrameConduit tx;
            std::vector<std::vector<std::byte>> frames;
            const std::size_t count = 1 + rng.next() % 6;
            for (std::size_t i = 0; i < count; ++i) {
              frames.push_back(random_bytes(rng, 400));
              tx.send(frames.back());
            }
            std::vector<std::byte> stream;
            while (tx.has_output()) {
              std::span<const std::byte> chunks[8];
              const std::size_t n = tx.gather(chunks);
              std::size_t copied = 0;
              for (std::size_t i = 0; i < n; ++i) {
                stream.insert(stream.end(), chunks[i].begin(),
                              chunks[i].end());
                copied += chunks[i].size();
              }
              tx.consume(copied);
            }
            net::FrameConduit whole;
            whole.feed(stream);
            net::FrameConduit trickle;
            for (const std::byte b : stream) {
              trickle.feed(std::span<const std::byte>(&b, 1));
            }
            for (const auto& want : frames) {
              const auto a = whole.next_frame();
              const auto b = trickle.next_frame();
              if (!a || !b || *a != want || *b != want) return false;
            }
            return whole.frames_pending() == 0 &&
                   trickle.frames_pending() == 0 &&
                   trickle.reassembly_bytes() == 0;
          });
}

TEST(WireFuzz, RandomBytesNeverCrashAnyParser) {
  for_all("random-byte frames are rejected or parsed, never UB", 500, 2024,
          [](SplitMix64& rng) {
            const auto junk = random_bytes(rng, 96);
            // Each parser either throws a typed exception or returns; any
            // memory error dies under the ASan job.
            try {
              (void)wire::parse_sketch<Item8>(junk);
            } catch (const std::exception&) {
            }
            try {
              (void)iblt::wire::parse<Item8>(junk);
            } catch (const std::exception&) {
            }
            try {
              (void)iblt::StrataEstimator<Item8>::deserialize(junk);
            } catch (const std::exception&) {
            }
            try {
              (void)sync::v2::parse_frame(junk);
            } catch (const sync::ProtocolError&) {
            }
            try {
              ByteReader r(junk);
              (void)wire::read_stream_symbol<Item8>(r, 8);
            } catch (const std::exception&) {
            }
            try {
              net::FrameConduit conduit(256);
              conduit.feed(junk);
              while (conduit.next_frame()) {
              }
            } catch (const sync::ProtocolError&) {
            }
            return true;
          });
}

TEST(WireFuzz, RandomFramesThroughEngineAndClient) {
  // The engine and client must translate arbitrary garbage into
  // ProtocolError -- no other exception type, no UB.
  sync::SyncEngine<Item8> engine;
  engine.add_item(Item8::random(7));
  sync::SyncClient<Item8> client(1, sync::BackendId::kRiblt);
  client.add_item(Item8::random(8));
  for (const auto& response : engine.handle_frame(client.hello())) {
    (void)client.handle_frame(response);
  }
  for_all("garbage frames yield ProtocolError", 500, 4048,
          [&](SplitMix64& rng) {
            const auto junk = random_bytes(rng, 64);
            bool ok = true;
            try {
              (void)engine.handle_frame(junk);
            } catch (const sync::ProtocolError&) {
            } catch (const std::exception&) {
              ok = false;  // wrong exception type escaping the engine
            }
            try {
              (void)client.handle_frame(junk);
            } catch (const sync::ProtocolError&) {
            } catch (const std::exception&) {
              ok = false;
            }
            return ok;
          });
}

// ------------------------------------------ counts at the integer limits

constexpr std::int64_t kInt64Min = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kInt64Max = std::numeric_limits<std::int64_t>::max();

/// The stream-symbol bytes of `cells` (8-byte checksums, plain counts).
std::vector<std::byte> stream_of(
    std::initializer_list<CodedSymbol<Item8>> cells) {
  ByteWriter w;
  for (const auto& cell : cells) wire::write_stream_symbol(w, cell, 8);
  return std::move(w).take();
}

/// Feeds `payload` to `backend`: true when the client ends undecoded or
/// fails with a typed exception -- a garbage count never decodes.
bool ends_undecoded(sync::RibltDecoderBackend<Item8>& backend,
                    const std::vector<std::byte>& payload) {
  try {
    backend.absorb(payload);
  } catch (const std::exception&) {
    return true;
  }
  return !backend.decoded();
}

// Server: an adaptive HELLO whose probe cells all carry count INT64_MIN,
// subtracted from the engine's own probe digest (2000 items).
TEST(WireFuzz, ProbeCountAtInt64MinGetsGrantOrProtocolError) {
  sync::SyncEngine<Item8> engine;
  for (std::uint64_t i = 0; i < 2000; ++i) engine.add_item(Item8::random(i));

  // The probe geometry comes from an empty digest; its cells are rewritten.
  const auto empty = sync::adaptive::make_probe<Item8>(SipHasher<Item8>{})
                         .serialize(sync::adaptive::kProbeChecksumLen);
  ByteReader r(empty);
  (void)r.u32();  // magic
  (void)r.u8();   // version
  (void)r.u8();   // checksum_len
  const std::uint64_t strata = r.uvarint();
  const std::uint64_t cells = strata * r.uvarint();
  (void)r.u8();   // k
  (void)r.u32();  // symbol size
  ByteWriter probe;
  probe.bytes(std::span(empty).first(empty.size() - r.remaining()));
  for (std::uint64_t i = 0; i < cells; ++i) {
    wire::write_stream_symbol(probe, CodedSymbol<Item8>{{}, 0, kInt64Min},
                              sync::adaptive::kProbeChecksumLen);
  }

  sync::SyncClient<Item8> client(1, sync::BackendId::kRiblt);
  client.set_adaptive(/*peer_id=*/7);
  sync::v2::Frame hello = sync::v2::parse_frame(client.hello());
  hello.probe = std::move(probe).take();
  bool answered = false;
  try {
    const auto out = engine.handle_frame(sync::v2::encode_frame(hello));
    answered = !out.empty() && sync::v2::parse_frame(out.front()).type ==
                                   sync::v2::FrameType::kHelloAck;
  } catch (const sync::ProtocolError&) {
    answered = true;
  }
  CHECK(answered);
}

// Client: cell 0 carries count INT64_MIN while the local set (one item)
// is folded into it.
TEST(WireFuzz, StreamCountAtInt64MinFoldingLocalSetEndsUndecoded) {
  sync::RibltDecoderBackend<Item8> backend;
  backend.add_item(Item8::random(1));
  CHECK(ends_undecoded(backend,
                       stream_of({{Item8::random(2), 0x5eed, kInt64Min}})));
}

// Client: cell 0 carries count INT32_MIN (the decoder's 32-bit cell
// count), then a pure cell peels a symbol whose removal lands in cell 0.
TEST(WireFuzz, StreamCountAtInt32MinWhilePeelingEndsUndecoded) {
  const Item8 y = Item8::random(3);
  sync::RibltDecoderBackend<Item8> backend;
  CHECK(ends_undecoded(
      backend,
      stream_of({{Item8::random(4), 0x5eed,
                  std::numeric_limits<std::int32_t>::min()},
                 {y, SipHasher<Item8>{}(y), 1}})));
}

// Client: a residual stream anchored at 2^62 carries residual INT64_MAX,
// and a counted sketch anchored at 2^62 the same residual.
TEST(WireFuzz, CountResidualPastInt64MaxEndsUndecoded) {
  constexpr std::uint64_t kAnchor = std::uint64_t{1} << 62;
  ByteWriter w;
  w.bytes(Item8::random(5).bytes());
  w.u64(0x5eed);
  w.svarint(kInt64Max);
  const auto payload = std::move(w).take();
  sync::RibltDecoderBackend<Item8> backend(SipHasher<Item8>{}, 8,
                                           /*count_residuals=*/true, kAnchor);
  CHECK(ends_undecoded(backend, payload));

  ByteWriter sketch;
  sketch.u32(wire::kMagic);
  sketch.u8(wire::kVersion);
  sketch.u8(wire::kFlagHasCounts);
  sketch.u8(8);
  sketch.u32(static_cast<std::uint32_t>(Item8::kSize));
  sketch.uvarint(1);        // num_cells
  sketch.uvarint(kAnchor);  // set_size
  sketch.bytes(payload);
  const auto parsed = wire::parse_sketch<Item8>(std::move(sketch).take());
  REQUIRE_EQ(parsed.cells.size(), 1u);
  CHECK_EQ(parsed.cells[0].checksum, 0x5eedu);
}

}  // namespace
}  // namespace ribltx
