// Fig 8: encoding throughput and time vs difference size, 8-byte items,
// for set sizes N = 1,000,000 (Fig 8a) and N = 10,000 (Fig 8b).
//
// Throughput is defined as in the paper: difference size divided by the
// time to generate enough coded symbols for successful reconciliation
// (1.35d symbols for Rateless IBLT, d syndromes for PinSketch).
//
// Expected shape: Rateless IBLT throughput grows almost linearly with d
// (cost per coded symbol shrinks as the mapping gets sparser), while
// PinSketch's converges to a constant (every syndrome touches every item);
// the gap reaches 2-2000x. Our portable GF(2^64) multiply is slower than
// minisketch's CLMUL path, so PinSketch absolute numbers are lower than the
// paper's; the scaling (and therefore the gap's growth) is preserved --
// see DESIGN.md §1.4.
#include <cstdio>
#include <vector>

#include "benchutil.hpp"
#include "pinsketch/pinsketch.hpp"

namespace {

using namespace ribltx;

double riblt_encode_seconds(std::size_t n, std::size_t d,
                            std::uint64_t seed) {
  // Symbols needed ~ 1.35 d (paper §5); round up to be safe.
  const auto symbols = static_cast<std::size_t>(1.35 * static_cast<double>(d)) + 8;
  Encoder<U64Symbol> enc;
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    enc.add_symbol(U64Symbol::random(rng.next()));
  }
  bench::Timer timer;
  for (std::size_t i = 0; i < symbols; ++i) {
    volatile auto cell = enc.produce_next();
    (void)cell;
  }
  return timer.elapsed();
}

double pinsketch_encode_seconds(std::size_t n, std::size_t d,
                                std::uint64_t seed) {
  pinsketch::PinSketch sketch(d);
  SplitMix64 rng(seed);
  bench::Timer timer;
  for (std::size_t i = 0; i < n; ++i) {
    sketch.add_symbol(U64Symbol::from_u64(rng.next() | 1));
  }
  return timer.elapsed();
}

void run_panel(const char* name, std::size_t n, std::size_t max_d,
               std::size_t pin_max_d, std::uint64_t seed,
               bench::JsonReport& report) {
  std::printf("# Fig 8%s: N = %zu\n", name, n);
  std::printf("%-8s %-14s %-14s %-14s %-14s\n", "d", "riblt_s",
              "riblt_d_per_s", "pinsketch_s", "pin_d_per_s");
  for (std::size_t d = 1; d <= max_d; d *= 10) {
    const double rt = riblt_encode_seconds(n, d, seed + d);
    double pt = -1;
    if (d <= pin_max_d) pt = pinsketch_encode_seconds(n, d, seed + d + 1);
    std::printf("%-8zu %-14.5f %-14.1f", d, rt, static_cast<double>(d) / rt);
    auto& row = report.row().num("n", n).num("d", d).num("riblt_s", rt).num(
        "riblt_d_per_s", static_cast<double>(d) / rt);
    if (pt >= 0) {
      std::printf(" %-14.5f %-14.1f\n", pt, static_cast<double>(d) / pt);
      row.num("pinsketch_s", pt);
    } else {
      std::printf(" %-14s %-14s\n", "-", "-");
    }
    std::fflush(stdout);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::Options::parse(argc, argv);
  bench::JsonReport report(opts, "fig08_encode_throughput");
  // PinSketch encode is O(N*d) field multiplies; cap d to keep the default
  // run interactive (--full raises the cap).
  if (opts.smoke) {
    run_panel("a", 10'000, 1'000, 100, opts.seed, report);
  } else if (opts.full) {
    run_panel("a", 1'000'000, 100'000, 1'000, opts.seed, report);
    run_panel("b", 10'000, 1'000, 1'000, opts.seed + 99, report);
  } else {
    run_panel("a", 1'000'000, 100'000, 100, opts.seed, report);
    run_panel("b", 10'000, 1'000, 1'000, opts.seed + 99, report);
  }
  return 0;
}
