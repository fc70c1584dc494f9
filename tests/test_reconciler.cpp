// Tests for the runtime-polymorphic Reconciler backend interface: every
// backend driven through the same encoder/decoder loopback recovers the
// same symmetric difference, round-request dialogues escalate correctly,
// and misuse (CPI on wide items, out-of-sequence rounds) fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sync/reconciler.hpp"
#include "testutil.hpp"

namespace ribltx::sync {
namespace {

using testing::key_set;
using testing::make_set_pair;
using Item32 = ByteSymbol<32>;

constexpr BackendId kAllBackends[] = {BackendId::kRiblt,
                                      BackendId::kIbltStrata, BackendId::kCpi,
                                      BackendId::kMetIblt};

/// Drives one encoder/decoder pair over an in-memory loopback until the
/// decoder completes: emitted chunks are absorbed directly, round requests
/// are fed straight back. Returns false on a stall (encoder has nothing to
/// send and the decoder asked for nothing).
template <Symbol T>
bool pump_backend(ReconcilerEncoder<T>& enc, ReconcilerDecoder<T>& dec,
                  std::size_t max_chunks = 100'000) {
  for (std::size_t i = 0; i < max_chunks && !dec.decoded(); ++i) {
    ByteWriter w;
    const std::size_t n = enc.emit(w, 1024);
    if (n > 0) {
      dec.absorb(w.view());
      if (dec.decoded()) return true;
    }
    if (auto request = dec.round_request()) {
      enc.handle_round_request(*request);
    } else if (n == 0) {
      return false;  // stalled
    }
  }
  return dec.decoded();
}

/// Checks a recovered diff against the ground-truth workload.
template <Symbol T>
void expect_diff_matches(const SetDiff<T>& diff,
                         const testing::SetPair<T>& w) {
  REQUIRE_EQ(diff.remote.size(), w.only_a.size());
  REQUIRE_EQ(diff.local.size(), w.only_b.size());
  CHECK(key_set(diff.remote) == key_set(w.only_a));
  CHECK(key_set(diff.local) == key_set(w.only_b));
}

template <Symbol T>
void run_backend_loopback(BackendId backend, std::size_t shared,
                          std::size_t only_a, std::size_t only_b,
                          std::uint64_t seed, ReconcilerConfig config = {}) {
  const auto w = make_set_pair<T>(shared, only_a, only_b, seed);
  auto enc = make_reconciler_encoder<T>(backend, config);
  auto dec = make_reconciler_decoder<T>(backend, config);
  for (const auto& x : w.a) enc->add_item(x);
  for (const auto& y : w.b) dec->add_item(y);
  REQUIRE(pump_backend(*enc, *dec));
  expect_diff_matches(dec->diff(), w);
}

TEST(Reconciler, EveryBackendRecoversTheDifference) {
  for (const BackendId backend : kAllBackends) {
    run_backend_loopback<U64Symbol>(backend, 200, 7, 5, 42);
  }
}

TEST(Reconciler, WideItemBackendsRecoverTheDifference) {
  for (const BackendId backend :
       {BackendId::kRiblt, BackendId::kIbltStrata, BackendId::kMetIblt}) {
    run_backend_loopback<Item32>(backend, 300, 11, 3, 43);
  }
}

TEST(Reconciler, EmptyDifferenceCompletesQuickly) {
  for (const BackendId backend : kAllBackends) {
    run_backend_loopback<U64Symbol>(backend, 150, 0, 0, 44);
  }
}

TEST(Reconciler, RibltHonorsNarrowChecksums) {
  ReconcilerConfig config;
  config.checksum_len = 4;
  const auto w = make_set_pair<Item32>(400, 9, 6, 45);
  auto enc = make_reconciler_encoder<Item32>(BackendId::kRiblt, config);
  auto dec = make_reconciler_decoder<Item32>(BackendId::kRiblt, config);
  for (const auto& x : w.a) enc->add_item(x);
  for (const auto& y : w.b) dec->add_item(y);
  REQUIRE(pump_backend(*enc, *dec));
  expect_diff_matches(dec->diff(), w);

  // The narrow stream really is narrower: the first coded symbol of a
  // fresh 4-byte-checksum stream is exactly 4 bytes shorter than the
  // 8-byte one (same sum and count varint, half the checksum).
  auto enc4 = make_reconciler_encoder<Item32>(BackendId::kRiblt, config);
  auto enc8 = make_reconciler_encoder<Item32>(BackendId::kRiblt, {});
  for (const auto& x : w.a) {
    enc4->add_item(x);
    enc8->add_item(x);
  }
  ByteWriter narrow, wide;
  (void)enc4->emit(narrow, 0);  // budget 0: exactly one symbol
  (void)enc8->emit(wide, 0);
  CHECK_EQ(wide.size() - narrow.size(), 4u);
}

TEST(Reconciler, RatelessFlagMatchesDialogue) {
  for (const BackendId backend : kAllBackends) {
    auto enc = make_reconciler_encoder<U64Symbol>(backend);
    CHECK_EQ(enc->rateless(), backend == BackendId::kRiblt);
  }
  auto riblt = make_reconciler_encoder<U64Symbol>(BackendId::kRiblt);
  EXPECT_THROW(riblt->handle_round_request({}), ProtocolError);
}

TEST(Reconciler, CpiRequiresEightByteItems) {
  EXPECT_THROW((void)make_reconciler_encoder<Item32>(BackendId::kCpi),
               ProtocolError);
  EXPECT_THROW((void)make_reconciler_decoder<Item32>(BackendId::kCpi),
               ProtocolError);
}

TEST(Reconciler, CpiEscalatesCapacityUntilDecode) {
  ReconcilerConfig config;
  config.cpi_initial_capacity = 4;
  const auto w = make_set_pair<U64Symbol>(100, 10, 9, 46);  // d=19 > 4
  auto enc = make_reconciler_encoder<U64Symbol>(BackendId::kCpi, config);
  auto dec = make_reconciler_decoder<U64Symbol>(BackendId::kCpi, config);
  for (const auto& x : w.a) enc->add_item(x);
  for (const auto& y : w.b) dec->add_item(y);
  REQUIRE(pump_backend(*enc, *dec));
  expect_diff_matches(dec->diff(), w);
}

// A peer's CPI set size is any uvarint. At 2^63 and 2^64 - 1 against 5000
// local items the degree split must see a gap beyond the capacity (the
// sizes compare unsigned), fail the decode, and ask for more capacity.
TEST(Reconciler, CpiHugeRemoteSetSizeFailsAndEscalates) {
  const auto w = make_set_pair<U64Symbol>(5000, 0, 0, 49);
  auto enc = make_reconciler_encoder<U64Symbol>(BackendId::kCpi);
  for (const auto& x : w.a) enc->add_item(x);
  ByteWriter honest;
  REQUIRE(enc->emit(honest, 1024) > 0);
  ByteReader r(honest.view());
  const std::uint64_t capacity = r.uvarint();
  (void)r.uvarint();  // the encoder's own set size, replaced below
  const std::uint64_t count = r.uvarint();
  const auto evals = honest.view().last(r.remaining());
  for (const std::uint64_t remote_size :
       {std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
    ByteWriter hostile;
    hostile.uvarint(capacity);
    hostile.uvarint(remote_size);
    hostile.uvarint(count);
    hostile.bytes(evals);
    auto dec = make_reconciler_decoder<U64Symbol>(BackendId::kCpi);
    for (const auto& y : w.b) dec->add_item(y);
    dec->absorb(hostile.view());
    CHECK(!dec->decoded());
    CHECK(dec->round_request().has_value());
  }
}

TEST(Reconciler, StrataSizesTheFirstTableFromTheEstimate) {
  // A large difference must not start from the minimum table size: the
  // first real round's request grows with the estimator's answer.
  const auto w = make_set_pair<U64Symbol>(500, 400, 350, 47);
  auto enc = make_reconciler_encoder<U64Symbol>(BackendId::kIbltStrata);
  auto dec = make_reconciler_decoder<U64Symbol>(BackendId::kIbltStrata);
  for (const auto& x : w.a) enc->add_item(x);
  for (const auto& y : w.b) dec->add_item(y);

  ByteWriter estimator;
  REQUIRE(enc->emit(estimator, 1024) > 0);
  dec->absorb(estimator.view());
  const auto request = dec->round_request();
  REQUIRE(request.has_value());
  ByteReader r(*request);
  const std::uint64_t cells = r.uvarint();
  CHECK(cells >= 400);  // ~2x an estimate of d=750 (estimates vary ~2x)
  enc->handle_round_request(*request);
  REQUIRE(pump_backend(*enc, *dec));
  expect_diff_matches(dec->diff(), w);
}

TEST(Reconciler, MetEncoderRejectsOutOfSequenceRounds) {
  auto enc = make_reconciler_encoder<U64Symbol>(BackendId::kMetIblt);
  enc->add_item(U64Symbol::random(1));
  ByteWriter w0;
  REQUIRE(enc->emit(w0, 1024) > 0);  // block 0 goes out unprompted
  ByteWriter req;
  req.uvarint(3);  // skipping blocks 1 and 2
  EXPECT_THROW(enc->handle_round_request(req.view()), ProtocolError);
}

TEST(Reconciler, RoundBackendsWaitBetweenRounds) {
  for (const BackendId backend :
       {BackendId::kIbltStrata, BackendId::kCpi, BackendId::kMetIblt}) {
    auto enc = make_reconciler_encoder<U64Symbol>(backend);
    enc->add_item(U64Symbol::random(2));
    ByteWriter first, second;
    CHECK(enc->emit(first, 1024) > 0);
    CHECK_EQ(enc->emit(second, 1024), 0u);  // blocked until a request
  }
}

TEST(Reconciler, DecoderRejectsMalformedPayloads) {
  const auto w = make_set_pair<U64Symbol>(64, 2, 2, 48);
  for (const BackendId backend :
       {BackendId::kIbltStrata, BackendId::kCpi, BackendId::kMetIblt}) {
    auto dec = make_reconciler_decoder<U64Symbol>(backend);
    for (const auto& y : w.b) dec->add_item(y);
    std::vector<std::byte> junk(11, std::byte{0x5a});
    EXPECT_THROW(dec->absorb(junk), std::exception);
  }
}

}  // namespace
}  // namespace ribltx::sync
