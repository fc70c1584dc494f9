// Shared helpers for the figure-reproduction benches: flag parsing, wall
// clock, and Monte-Carlo overhead measurement on the core codec.
//
// Every bench binary prints a gnuplot-ready table (columns separated by
// whitespace, '#' comment headers). Default parameters finish in seconds
// and show the same curve shapes as the paper; pass --full for paper-scale
// sweeps, whose larger N and trial counts tighten the curves without
// changing their shape.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/riblt.hpp"
#include "obs/metrics.hpp"

// 1 under ASan/TSan, whose instrumentation distorts timings: benches skip
// their timing gates there and keep only their correctness checks.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RIBLT_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RIBLT_BENCH_SANITIZED 1
#endif
#endif
#ifndef RIBLT_BENCH_SANITIZED
#define RIBLT_BENCH_SANITIZED 0
#endif

namespace ribltx::bench {

struct Options {
  bool full = false;
  bool smoke = false;       ///< tiny-N ctest mode: full code path, seconds
  bool sweep = false;       ///< opt-in extra sweep (bench-specific meaning)
  int trials = 0;           ///< 0 = bench-specific default
  std::uint64_t seed = 1;
  std::string json_path;    ///< --json <path>: machine-readable output

  /// Scale knob selector: --smoke < default < --full.
  template <typename V>
  [[nodiscard]] V pick(V smoke_value, V default_value, V full_value) const {
    return smoke ? smoke_value : full ? full_value : default_value;
  }

  static Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--full") {
        o.full = true;
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--sweep") {
        o.sweep = true;
      } else if (arg.rfind("--trials=", 0) == 0) {
        o.trials = std::atoi(arg.c_str() + 9);
      } else if (arg.rfind("--seed=", 0) == 0) {
        o.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
      } else if (arg.rfind("--json=", 0) == 0) {
        o.json_path = arg.substr(7);
      } else if (arg == "--json" && i + 1 < argc) {
        o.json_path = argv[++i];
      } else if (arg == "--help" || arg == "-h") {
        std::printf(
            "usage: %s [--full|--smoke] [--sweep] [--trials=N] [--seed=N] "
            "[--json <path>]\n",
            argv[0]);
        std::exit(0);
      } else {
        std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
        std::exit(2);
      }
    }
    if (o.full && o.smoke) {
      std::fprintf(stderr, "--full and --smoke are mutually exclusive\n");
      std::exit(2);
    }
    return o;
  }
};

/// Machine-readable sidecar for a bench run (--json <path>): collects flat
/// key/value rows alongside the human-readable table and writes one JSON
/// document on destruction:
///
///   {"bench": "...", "mode": "smoke", "seed": 1, "rows": [{...}, ...]}
///
/// Keys and string values must be plain identifiers (no quotes/escapes);
/// that is all the perf-trajectory tooling needs. When no --json path was
/// given every call is a no-op, so benches can log rows unconditionally.
class JsonReport {
 public:
  JsonReport(const Options& opts, std::string bench_name)
      : path_(opts.json_path), bench_(std::move(bench_name)), opts_(opts) {}

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  ~JsonReport() { write(); }

  [[nodiscard]] bool enabled() const noexcept { return !path_.empty(); }

  /// One output row built field by field; fields render in call order.
  class Row {
   public:
    Row& str(const char* key, const std::string& value) {
      field(key);
      body_ += '"';
      body_ += value;
      body_ += '"';
      return *this;
    }

    Row& num(const char* key, double value) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.8g", value);
      field(key);
      body_ += buf;
      return *this;
    }

    template <typename V>
      requires std::is_integral_v<V>
    Row& num(const char* key, V value) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(value));
      field(key);
      body_ += buf;
      return *this;
    }

    /// Quantile fields from a registry histogram snapshot: emits
    /// `<key>_p50` and `<key>_p99` (the suffixes perf_trend.py treats as
    /// noisy lower-is-better metrics), so benches report latency
    /// distributions through the same snapshot path the live METRICS
    /// scrape uses instead of private sample vectors.
    Row& hist(const char* key, const obs::HistogramSnapshot& s,
              double scale = 1.0) {
      num((std::string(key) + "_p50").c_str(), s.quantile(0.50) * scale);
      num((std::string(key) + "_p99").c_str(), s.quantile(0.99) * scale);
      return *this;
    }

   private:
    friend class JsonReport;
    void field(const char* key) {
      if (!body_.empty()) body_ += ',';
      body_ += '"';
      body_ += key;
      body_ += "\":";
    }
    std::string body_;
  };

  /// Appends a new row and returns it for field chaining.
  Row& row() {
    rows_.emplace_back();
    return rows_.back();
  }

  /// Writes the document now (also called by the destructor; idempotent).
  void write() {
    if (path_.empty() || written_) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "JsonReport: cannot open %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\"bench\":\"%s\",\"mode\":\"%s\",\"seed\":%llu,",
                 bench_.c_str(),
                 opts_.smoke ? "smoke" : opts_.full ? "full" : "default",
                 static_cast<unsigned long long>(opts_.seed));
    std::fprintf(f, "\"rows\":[");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      std::fprintf(f, "%s{%s}", i == 0 ? "" : ",", rows_[i].body_.c_str());
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    written_ = true;
  }

 private:
  std::string path_;
  std::string bench_;
  Options opts_;
  std::vector<Row> rows_;
  bool written_ = false;
};

class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction or last reset.
  [[nodiscard]] double elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  void reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// One reconciliation trial: encode a fresh d-item set, stream coded
/// symbols into a decoder with no local items (the difference-set view),
/// return coded symbols consumed. Overhead = result / d.
template <typename MappingFactory>
[[nodiscard]] std::size_t coded_symbols_to_decode(std::size_t d,
                                                  const MappingFactory& mf,
                                                  std::uint64_t seed,
                                                  std::size_t cap = 0) {
  Encoder<U64Symbol, SipHasher<U64Symbol>, MappingFactory> enc({}, mf);
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < d; ++i) {
    enc.add_symbol(U64Symbol::random(rng.next()));
  }
  Decoder<U64Symbol, SipHasher<U64Symbol>, MappingFactory> dec({}, mf);
  std::size_t used = 0;
  const std::size_t limit = cap == 0 ? 400 * d + 4096 : cap;
  while (!dec.decoded() && used < limit) {
    dec.add_coded_symbol(enc.produce_next());
    ++used;
  }
  return used;
}

struct OverheadStats {
  double mean = 0;
  double stddev = 0;
  double median = 0;
};

template <typename MappingFactory>
[[nodiscard]] OverheadStats measure_overhead(std::size_t d, int trials,
                                             const MappingFactory& mf,
                                             std::uint64_t seed) {
  std::vector<double> xs;
  xs.reserve(static_cast<std::size_t>(trials));
  for (int t = 0; t < trials; ++t) {
    const auto used = coded_symbols_to_decode(
        d, mf, derive_seed(seed, static_cast<std::uint64_t>(t)));
    xs.push_back(static_cast<double>(used) / static_cast<double>(d));
  }
  OverheadStats s;
  for (double x : xs) s.mean += x;
  s.mean /= static_cast<double>(xs.size());
  for (double x : xs) s.stddev += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1
                 ? std::sqrt(s.stddev / static_cast<double>(xs.size() - 1))
                 : 0.0;
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2), xs.end());
  s.median = xs[xs.size() / 2];
  return s;
}

}  // namespace ribltx::bench
