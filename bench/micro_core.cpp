// Microbenchmarks (google-benchmark) for the hot paths, including the
// ablations DESIGN.md calls out:
//  * alpha = 0.5 sqrt mapping vs generic-alpha pow mapping (§4.2's reason
//    for fixing alpha = 0.5);
//  * SipHash keyed checksums (§4.3: "negligible cost compared to sums");
//  * symbol XOR across item sizes (the Fig 11 cost driver);
//  * encoder/decoder per-symbol costs and the §7.2 items-per-second claim;
//  * GF(2^64) multiply (the PinSketch cost unit);
//  * atomic vs plain coded-cell XOR (the multi-writer churn trade):
//    SequenceCache's materialized cells are AtomicCodedCells so concurrent
//    writers need no lock, which taxes the SINGLE-writer ingest path with
//    uncontended lock-prefixed RMWs. In isolation that tax is large by
//    construction (BM_AtomicCellXor vs BM_PlainCellXor measures a lock
//    xadd per word against a register XOR: ~8x / ~15x at 8 / 32 bytes),
//    so the regression budget is judged where it is meaningful -- end to
//    end: BM_SequenceCacheChurn (the full lock-free churn op) must stay
//    within ~15% of BM_SketchAddSymbol (the plain-cell walk at the same
//    m; measured +16%), the serving-path churn_us in
//    bench_extra_serving_throughput within ~10-15% of its pre-lock-free
//    value (measured +12% mean, inside that bench's run-to-run noise
//    band), and fig08/fig10 (pure Encoder paths, no cache) exactly 0%.
//    If the end-to-end tax ever outgrows that, the escape hatch is a
//    plain-cell fast path taken while the cache has never seen a second
//    writer thread -- not needed at the current numbers.
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "core/atomic_cell.hpp"
#include "core/riblt.hpp"
#include "net/frame_conduit.hpp"
#include "pinsketch/pinsketch.hpp"

namespace {

using namespace ribltx;

void BM_MappingAdvanceSqrt(benchmark::State& state) {
  // Ablation (a): the production alpha = 0.5 sampler (exact inverse, sqrt).
  std::uint64_t seed = 0x12345;
  for (auto _ : state) {
    IndexMapping m(seed++);
    std::uint64_t last = 0;
    for (int i = 0; i < 24; ++i) last = m.advance();
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_MappingAdvanceSqrt);

void BM_MappingAdvanceGenericPow(benchmark::State& state) {
  // Ablation (b): generic alpha (pow path; paper: "significantly slower").
  std::uint64_t seed = 0x12345;
  for (auto _ : state) {
    GenericMapping m(0.68, seed++);
    std::uint64_t last = 0;
    for (int i = 0; i < 24; ++i) last = m.advance();
    benchmark::DoNotOptimize(last);
  }
  state.SetItemsProcessed(state.iterations() * 24);
}
BENCHMARK(BM_MappingAdvanceGenericPow);

template <std::size_t N>
void BM_SipHash(benchmark::State& state) {
  const auto sym = ByteSymbol<N>::random(7);
  const SipKey key{1, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(siphash24(key, sym.bytes()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(N));
}
BENCHMARK(BM_SipHash<8>);
BENCHMARK(BM_SipHash<32>);
BENCHMARK(BM_SipHash<1024>);

template <std::size_t N>
void BM_SipHash4(benchmark::State& state) {
  // The decoder's batched checksum verification: four interleaved SipHash
  // lanes per dispatch. Compare items/s against BM_SipHash to see the ILP
  // win; a regression here shows up in fig09 before anything else.
  const auto s0 = ByteSymbol<N>::random(11);
  const auto s1 = ByteSymbol<N>::random(12);
  const auto s2 = ByteSymbol<N>::random(13);
  const auto s3 = ByteSymbol<N>::random(14);
  const ByteSymbol<N>* const syms[4] = {&s0, &s1, &s2, &s3};
  const SipHasher<ByteSymbol<N>> hasher(SipKey{1, 2});
  std::uint64_t out[4];
  for (auto _ : state) {
    hasher.hash4(syms, out);
    benchmark::DoNotOptimize(out[0] ^ out[1] ^ out[2] ^ out[3]);
  }
  state.SetItemsProcessed(state.iterations() * 4);
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(4 * N));
}
BENCHMARK(BM_SipHash4<8>);
BENCHMARK(BM_SipHash4<32>);

template <std::size_t N>
void BM_SubtractRun(benchmark::State& state) {
  // The vectorizable contiguous cell-wise subtraction every sketch family
  // leans on (Sketch/Iblt/StrataEstimator/MetIblt + the MET arrival path).
  constexpr std::size_t kCells = 1024;
  std::vector<CodedSymbol<ByteSymbol<N>>> dst(kCells), src(kCells);
  const SipHasher<ByteSymbol<N>> hasher;
  SplitMix64 rng(15);
  for (std::size_t i = 0; i < kCells; ++i) {
    dst[i].apply(hasher.hashed(ByteSymbol<N>::random(rng.next())),
                 Direction::kAdd);
    src[i].apply(hasher.hashed(ByteSymbol<N>::random(rng.next())),
                 Direction::kAdd);
  }
  for (auto _ : state) {
    subtract_run<ByteSymbol<N>>(dst, src);
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kCells));
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(kCells * sizeof(CodedSymbol<ByteSymbol<N>>)));
}
BENCHMARK(BM_SubtractRun<8>);
BENCHMARK(BM_SubtractRun<32>);

template <std::size_t N>
void BM_SymbolXor(benchmark::State& state) {
  auto a = ByteSymbol<N>::random(1);
  const auto b = ByteSymbol<N>::random(2);
  for (auto _ : state) {
    a ^= b;
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(N));
}
BENCHMARK(BM_SymbolXor<8>);
BENCHMARK(BM_SymbolXor<92>);
BENCHMARK(BM_SymbolXor<2048>);
BENCHMARK(BM_SymbolXor<32768>);

template <std::size_t N>
void BM_PlainCellXor(benchmark::State& state) {
  // Baseline: one churn op's worth of work against a plain CodedSymbol
  // cell (what Sketch and the single-threaded paths pay per touched cell).
  const SipHasher<ByteSymbol<N>> hasher;
  const auto hs = hasher.hashed(ByteSymbol<N>::random(21));
  CodedSymbol<ByteSymbol<N>> cell;
  for (auto _ : state) {
    cell.apply(hs, Direction::kAdd);
    benchmark::DoNotOptimize(cell);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(N));
}
BENCHMARK(BM_PlainCellXor<8>);
BENCHMARK(BM_PlainCellXor<32>);

template <std::size_t N>
void BM_AtomicCellXor(benchmark::State& state) {
  // The same op against an AtomicCodedCell with zero contention -- the
  // single-writer overhead SequenceCache now pays per touched cell. This
  // is the ablation, not the budget gate: lock-prefixed RMWs vs register
  // XORs is ~8x in isolation, but each churn op touches only ~log(m)
  // cells amid hashing/mapping work, so the end-to-end pairs in the
  // header comment are what the budget is judged on.
  const SipHasher<ByteSymbol<N>> hasher;
  const auto hs = hasher.hashed(ByteSymbol<N>::random(21));
  AtomicCodedCell<ByteSymbol<N>> cell;
  for (auto _ : state) {
    cell.apply(hs, Direction::kAdd);
    benchmark::DoNotOptimize(cell);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(N));
}
BENCHMARK(BM_AtomicCellXor<8>);
BENCHMARK(BM_AtomicCellXor<32>);

void BM_SequenceCacheChurn(benchmark::State& state) {
  // End-to-end single-writer churn against the lock-free cache: enter the
  // lane, reserve a version, walk the atomic cells, register in the lane
  // window. Compare against BM_SketchAddSymbol for the full path tax.
  auto cache = SequenceCache<U64Symbol>(10'000);
  SplitMix64 rng(22);
  for (auto _ : state) {
    cache.add_symbol(U64Symbol::random(rng.next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SequenceCacheChurn);

void BM_EncoderProduceNext(benchmark::State& state) {
  // Per-coded-symbol cost at d = 1024 (paper §7.2: millions of items/s).
  const auto d = static_cast<std::size_t>(state.range(0));
  Encoder<U64Symbol> enc;
  SplitMix64 rng(3);
  for (std::size_t i = 0; i < d; ++i) {
    enc.add_symbol(U64Symbol::random(rng.next()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.produce_next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncoderProduceNext)->Arg(1024)->Arg(65536);

void BM_DecoderRoundTrip(benchmark::State& state) {
  // Whole-difference decode; items/second is the §7.2 throughput metric.
  const auto d = static_cast<std::size_t>(state.range(0));
  Encoder<U64Symbol> enc;
  SplitMix64 rng(4);
  for (std::size_t i = 0; i < d; ++i) {
    enc.add_symbol(U64Symbol::random(rng.next()));
  }
  std::vector<CodedSymbol<U64Symbol>> cells;
  for (std::size_t i = 0; i < 2 * d + 16; ++i) {
    cells.push_back(enc.produce_next());
  }
  for (auto _ : state) {
    Decoder<U64Symbol> dec;
    for (const auto& c : cells) {
      dec.add_coded_symbol(c);
      if (dec.decoded()) break;
    }
    benchmark::DoNotOptimize(dec.decoded());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d));
}
BENCHMARK(BM_DecoderRoundTrip)->Arg(1024);

void BM_DecoderFold(benchmark::State& state) {
  // The client's decode: Bob holds n - d of the server's n items, so every
  // arriving cell first folds out his local set (and each recovered symbol)
  // through the decoder's window -- core.client_absorb_us's shape, where
  // BM_DecoderRoundTrip has no local set. The stream is recorded up front;
  // each iteration registers the (pre-hashed) local set and decodes it.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  Encoder<U64Symbol> enc;
  std::vector<HashedSymbol<U64Symbol>> local;
  SplitMix64 rng(8);
  for (std::size_t i = 0; i < n; ++i) {
    const auto item = U64Symbol::random(rng.next());
    enc.add_symbol(item);
    if (i >= d) local.push_back(enc.hasher().hashed(item));
  }
  std::vector<CodedSymbol<U64Symbol>> cells;
  Decoder<U64Symbol> probe;
  for (const auto& s : local) probe.add_local_hashed_symbol(s);
  while (!probe.decoded()) {
    cells.push_back(enc.produce_next());
    probe.add_coded_symbol(cells.back());
  }
  for (auto _ : state) {
    Decoder<U64Symbol> dec;
    for (const auto& s : local) dec.add_local_hashed_symbol(s);
    for (const auto& c : cells) dec.add_coded_symbol(c);
    benchmark::DoNotOptimize(dec.decoded());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(d));
  state.counters["cells"] = static_cast<double>(cells.size());
}
BENCHMARK(BM_DecoderFold)->Args({5000, 10})->Args({10000, 2500});

void BM_SketchAddSymbol(benchmark::State& state) {
  Sketch<U64Symbol> sketch(10'000);
  SplitMix64 rng(5);
  for (auto _ : state) {
    sketch.add_symbol(U64Symbol::random(rng.next()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SketchAddSymbol);

void BM_FrameConduitEmit(benchmark::State& state) {
  // The serving path's per-frame allocation cost: send() materializes a
  // length-prefix buffer and feed() materializes each inbound frame, both
  // on the serving thread, out of the conduit's pool of retired buffers.
  // One conduit plays both directions, like a server conn: consume()
  // recycles the emitted prefix+payload buffers, feed() and the next
  // send() draw them back out, so the steady state allocates only the
  // caller's frame copy.
  net::FrameConduit conduit;
  std::vector<std::byte> frame(512);
  SplitMix64 rng(23);
  for (auto& b : frame) b = static_cast<std::byte>(rng.next());
  std::span<const std::byte> chunks[8];
  for (auto _ : state) {
    conduit.send(std::vector<std::byte>(frame));
    const std::size_t n = conduit.gather(chunks);
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i) {
      conduit.feed(chunks[i]);
      bytes += chunks[i].size();
    }
    conduit.consume(bytes);
    benchmark::DoNotOptimize(conduit.next_frame());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_FrameConduitEmit);

void BM_Gf64Mul(benchmark::State& state) {
  pinsketch::GF64 a(0x123456789abcdef1ULL), b(0xfedcba9876543211ULL);
  for (auto _ : state) {
    a = a * b;
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Gf64Mul);

void BM_PinSketchAdd(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  pinsketch::PinSketch sketch(capacity);
  SplitMix64 rng(6);
  for (auto _ : state) {
    sketch.add_symbol(U64Symbol::from_u64(rng.next() | 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PinSketchAdd)->Arg(64)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
