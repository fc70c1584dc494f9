// Measurement primitives the benchmark owns: exact quantiles over raw
// samples, CPU and memory clocks, and the result-file JSON writer. None of
// this goes through src/obs, so a change to the library's metrics plane
// cannot change what the benchmark measures.
#pragma once

#include <pthread.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace ribltbench {

/// Quantile `q` of raw samples, interpolating linearly between the two
/// nearest order statistics. 0 for an empty sample.
template <typename T>
[[nodiscard]] double quantile(std::vector<T> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}

[[nodiscard]] inline double seconds_on(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

[[nodiscard]] inline double thread_cpu_s() {
  return seconds_on(CLOCK_THREAD_CPUTIME_ID);
}

[[nodiscard]] inline double process_cpu_s() {
  return seconds_on(CLOCK_PROCESS_CPUTIME_ID);
}

/// CPU clock of another live thread, readable from any thread.
[[nodiscard]] inline clockid_t cpu_clock_of(pthread_t thread) {
  clockid_t id{};
  if (pthread_getcpuclockid(thread, &id) != 0) {
    return CLOCK_THREAD_CPUTIME_ID;  // unreachable for a joinable thread
  }
  return id;
}

[[nodiscard]] inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

[[nodiscard]] inline double seconds_since(
    std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Streaming JSON writer for the result file. Numbers keep every digit
/// (%.17g); a non-finite number is written as null, which the consumers
/// reject, so a broken measurement cannot pass as a value.
class JsonWriter {
 public:
  JsonWriter& begin_object(const char* key = nullptr) {
    item(key);
    out_ += '{';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& end_object() {
    first_.pop_back();
    out_ += '}';
    return *this;
  }
  JsonWriter& begin_array(const char* key = nullptr) {
    item(key);
    out_ += '[';
    first_.push_back(true);
    return *this;
  }
  JsonWriter& end_array() {
    first_.pop_back();
    out_ += ']';
    return *this;
  }
  JsonWriter& number(const char* key, double v) {
    item(key);
    if (!std::isfinite(v)) {
      out_ += "null";
      return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ += buf;
    return *this;
  }
  JsonWriter& integer(const char* key, std::uint64_t v) {
    item(key);
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& text(const char* key, std::string_view v) {
    item(key);
    quote(v);
    return *this;
  }
  JsonWriter& boolean(const char* key, bool v) {
    item(key);
    out_ += v ? "true" : "false";
    return *this;
  }
  /// {"value": v, "unit": unit} -- the shape every reported metric takes.
  JsonWriter& metric(const char* key, double v, const char* unit) {
    begin_object(key);
    number("value", v);
    text("unit", unit);
    return end_object();
  }

  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void item(const char* key) {
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
    if (key != nullptr) {
      quote(key);
      out_ += ':';
    }
  }

  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
};

/// Writes `body` to `path`; false (with a message) when the file cannot be
/// written completely.
inline bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ribltbench: cannot open %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace ribltbench
