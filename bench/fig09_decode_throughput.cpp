// Fig 9: decoding throughput and time vs difference size, 8-byte items.
//
// Decoding operates on the difference only, so the set size is irrelevant
// (paper §7.2). Expected shape: Rateless IBLT decode is O(d log d) --
// throughput drops only ~2x over a 10^4x growth in d -- while PinSketch is
// O(d^2) (Berlekamp-Massey + root finding), so its throughput collapses;
// the paper reports a 10-10^7x gap. Default caps PinSketch at d = 512 to
// stay interactive (--full raises to 2048; the quadratic wall is already
// unmistakable).
//
// Each Rateless IBLT row is the median of repeated decodes of the same
// cells after one untimed warm-up decode: a single cold decode at small d
// mostly times first-touch allocation, not decoding. Short decodes are
// batched so that one sample spans many of them.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "benchutil.hpp"
#include "pinsketch/pinsketch.hpp"

namespace {

using namespace ribltx;

/// Timed samples per row the batch size aims for, and the floor.
constexpr std::size_t kTargetSamples = 25;
constexpr std::size_t kMinSamples = 5;

/// Decodes `cells` with a fresh decoder; true once the prefix decodes.
bool decode_stream(const std::vector<CodedSymbol<U64Symbol>>& cells) {
  Decoder<U64Symbol> dec;
  for (const auto& c : cells) {
    dec.add_coded_symbol(c);
    if (dec.decoded()) return true;
  }
  return false;
}

struct DecodeTiming {
  double seconds = 0;  ///< median seconds per decode
  std::size_t reps = 0;
};

/// Median time of one decode of a d-item difference, over repeated decodes
/// of the same cells that together take about `budget_s`.
DecodeTiming riblt_decode_seconds(std::size_t d, std::uint64_t seed,
                                  double budget_s) {
  std::vector<CodedSymbol<U64Symbol>> cells;
  for (;; ++seed) {
    Encoder<U64Symbol> enc;
    SplitMix64 rng(seed);
    for (std::size_t i = 0; i < d; ++i) {
      enc.add_symbol(U64Symbol::random(rng.next()));
    }
    // Materialize the stream first; the decoder alone is timed.
    cells.clear();
    const auto len =
        static_cast<std::size_t>(2.2 * static_cast<double>(d)) + 16;
    for (std::size_t i = 0; i < len; ++i) cells.push_back(enc.produce_next());
    if (decode_stream(cells)) break;  // the untimed warm-up; rare tail retries
  }
  bench::Timer timer;
  bool ok = decode_stream(cells);
  const double first = timer.elapsed();
  const auto batch = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             budget_s / (static_cast<double>(kTargetSamples) * first)));
  std::vector<double> samples;
  bench::Timer budget;
  while (samples.size() < kMinSamples || budget.elapsed() < budget_s) {
    timer.reset();
    for (std::size_t r = 0; r < batch; ++r) ok &= decode_stream(cells);
    samples.push_back(timer.elapsed() / static_cast<double>(batch));
  }
  if (!ok) {
    std::fprintf(stderr, "fig09: d = %zu failed to re-decode\n", d);
    std::exit(1);
  }
  const auto mid =
      samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  return {*mid, samples.size() * batch};
}

double pinsketch_decode_seconds(std::size_t d, std::uint64_t seed,
                                bool& ok) {
  pinsketch::PinSketch sketch(d);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < d; ++i) {
    sketch.add_symbol(U64Symbol::from_u64(rng.next() | 1));
  }
  bench::Timer timer;
  const auto r = sketch.decode();
  ok = r.success && r.difference.size() == d;
  return timer.elapsed();
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::JsonReport report(opts, "fig09_decode_throughput");
  const std::size_t riblt_max =
      opts.pick<std::size_t>(1'000, 100'000, 1'000'000);
  const std::size_t pin_max = opts.pick<std::size_t>(64, 512, 2048);
  const double row_budget_s = opts.pick(0.005, 0.05, 0.2);

  std::printf("# Fig 9: decode throughput/time vs d (8-byte items)\n");
  std::printf("%-8s %-14s %-14s %-8s %-14s %-14s %-4s\n", "d", "riblt_s",
              "riblt_d_per_s", "reps", "pinsketch_s", "pin_d_per_s", "ok");
  for (std::size_t d = 1; d <= riblt_max; d *= 4) {
    const DecodeTiming timing =
        riblt_decode_seconds(d, derive_seed(opts.seed, d), row_budget_s);
    const double rt = timing.seconds;
    std::printf("%-8zu %-14.9f %-14.1f %-8zu", d, rt,
                static_cast<double>(d) / rt, timing.reps);
    auto& row = report.row().num("d", d).num("riblt_s", rt).num(
        "riblt_d_per_s", static_cast<double>(d) / rt);
    if (d <= pin_max) {
      bool ok = false;
      const double pt =
          pinsketch_decode_seconds(d, derive_seed(opts.seed, d + 1), ok);
      std::printf(" %-14.6f %-14.1f %-4s\n", pt, static_cast<double>(d) / pt,
                  ok ? "y" : "N");
      row.num("pinsketch_s", pt);
    } else {
      std::printf(" %-14s %-14s %-4s\n", "-", "-", "-");
    }
    std::fflush(stdout);
  }
  return 0;
}
