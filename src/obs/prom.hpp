// Prometheus text exposition (0.0.4) and JSON rendering for
// MetricsSnapshot, plus PromWriter -- the line writer the text renderer
// is built on -- and an in-tree exposition-format lint (the ctest target
// test_promlint runs live scrape output through it).
//
// Histogram rendering emits cumulative `le` buckets only at boundaries
// that end a nonzero bucket (plus +Inf). Dropping empty boundaries is
// format-legal -- cumulative buckets stay cumulative under any boundary
// subset; it just coarsens the histogram -- and keeps a 1920-bucket
// log-linear histogram from producing 1920 lines per scrape.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace ribltx::obs {

/// Formats a double the way the exposition format expects (no
/// locale, shortest-ish round-trip form).
[[nodiscard]] inline std::string prom_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Escapes a label value (backslash, quote, newline).
[[nodiscard]] inline std::string prom_escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
  return out;
}

/// Line-level writer for the text exposition format. Families must be
/// written contiguously (help/type once, then every sample); the
/// registry snapshot renderer below does that.
class PromWriter {
 public:
  void help(std::string_view name, std::string_view text) {
    out_ += "# HELP ";
    out_ += name;
    out_ += ' ';
    out_ += text;
    out_ += '\n';
  }

  void type(std::string_view name, std::string_view kind) {
    out_ += "# TYPE ";
    out_ += name;
    out_ += ' ';
    out_ += kind;
    out_ += '\n';
  }

  void sample(std::string_view name, const Labels& labels,
              std::uint64_t value) {
    sample_prefix(name, labels, {});
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, value);
    out_ += buf;
    out_ += '\n';
  }

  void sample(std::string_view name, const Labels& labels,
              std::int64_t value) {
    sample_prefix(name, labels, {});
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRId64, value);
    out_ += buf;
    out_ += '\n';
  }

  void sample(std::string_view name, const Labels& labels, double value) {
    sample_prefix(name, labels, {});
    out_ += prom_double(value);
    out_ += '\n';
  }

  /// One cumulative histogram bucket line: name_bucket{...,le="<le>"}.
  void bucket(std::string_view name, const Labels& labels,
              std::string_view le, std::uint64_t cumulative) {
    std::string n(name);
    n += "_bucket";
    sample_prefix(n, labels, le);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%" PRIu64, cumulative);
    out_ += buf;
    out_ += '\n';
  }

  [[nodiscard]] std::string take() && { return std::move(out_); }
  [[nodiscard]] const std::string& text() const noexcept { return out_; }

 private:
  void sample_prefix(std::string_view name, const Labels& labels,
                     std::string_view le) {
    out_ += name;
    if (!labels.empty() || !le.empty()) {
      out_ += '{';
      bool first = true;
      for (const auto& [k, v] : labels) {
        if (!first) out_ += ',';
        first = false;
        out_ += k;
        out_ += "=\"";
        out_ += prom_escape(v);
        out_ += '"';
      }
      if (!le.empty()) {
        if (!first) out_ += ',';
        out_ += "le=\"";
        out_ += le;
        out_ += '"';
      }
      out_ += '}';
    }
    out_ += ' ';
  }

  std::string out_;
};

/// Renders one histogram snapshot as a family sample set (bucket lines,
/// _sum, _count). `count` is rendered as the bucket total so the +Inf
/// bucket always equals _count even when the snapshot raced writers.
inline void write_histogram(PromWriter& w, std::string_view name,
                            const Labels& labels,
                            const HistogramSnapshot& h) {
  const std::uint64_t total = h.bucket_total();
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
    if (h.buckets[i] == 0) continue;
    cum += h.buckets[i];
    // Prometheus `le` is an INCLUSIVE upper bound, while bucket_upper
    // is one past the largest contained value; recorded values are
    // integers, so the largest value counted by this bucket is
    // upper - 1 (the top bucket saturates: its upper IS its largest).
    const std::uint64_t upper = HistogramLayout::bucket_upper(i);
    const std::uint64_t le_value = upper == ~0ull ? upper : upper - 1;
    char le[32];
    std::snprintf(le, sizeof le, "%" PRIu64, le_value);
    w.bucket(name, labels, le, cum);
  }
  w.bucket(name, labels, "+Inf", total);
  std::string n(name);
  w.sample(n + "_sum", labels, h.sum);
  w.sample(n + "_count", labels, total);
}

/// Full text exposition of a registry snapshot.
[[nodiscard]] inline std::string prometheus_text(const MetricsSnapshot& s) {
  PromWriter w;
  for (const auto& f : s.families) {
    if (!f.help.empty()) w.help(f.name, f.help);
    switch (f.kind) {
      case MetricKind::kCounter:
        w.type(f.name, "counter");
        for (const auto& series : f.series) {
          w.sample(f.name, series.labels, series.counter);
        }
        break;
      case MetricKind::kGauge:
        w.type(f.name, "gauge");
        for (const auto& series : f.series) {
          w.sample(f.name, series.labels, series.gauge);
        }
        break;
      case MetricKind::kHistogram:
        w.type(f.name, "histogram");
        for (const auto& series : f.series) {
          write_histogram(w, f.name, series.labels, series.hist);
        }
        break;
    }
  }
  return std::move(w).take();
}

// --------------------------------------------------------------- JSON

[[nodiscard]] inline std::string json_escape(std::string_view v) {
  std::string out;
  out.reserve(v.size());
  for (const char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON rendering of a snapshot: the machine-readable twin of the text
/// exposition (benches consume this for their BENCH_*.json rows, and
/// the METRICS_JSON admin verb returns it). Histograms carry count,
/// sum, and the standard quantiles; buckets are (upper_bound, count)
/// pairs for the nonzero buckets only.
[[nodiscard]] inline std::string json_text(const MetricsSnapshot& s) {
  std::string out = "{\"metrics\":[";
  bool first_m = true;
  for (const auto& f : s.families) {
    for (const auto& series : f.series) {
      if (!first_m) out += ',';
      first_m = false;
      out += "{\"name\":\"" + json_escape(f.name) + "\"";
      if (!series.labels.empty()) {
        out += ",\"labels\":{";
        bool first_l = true;
        for (const auto& [k, v] : series.labels) {
          if (!first_l) out += ',';
          first_l = false;
          out += '"' + json_escape(k) + "\":\"" + json_escape(v) + '"';
        }
        out += '}';
      }
      char buf[64];
      switch (f.kind) {
        case MetricKind::kCounter:
          out += ",\"type\":\"counter\",\"value\":";
          std::snprintf(buf, sizeof buf, "%" PRIu64, series.counter);
          out += buf;
          break;
        case MetricKind::kGauge:
          out += ",\"type\":\"gauge\",\"value\":";
          std::snprintf(buf, sizeof buf, "%" PRId64, series.gauge);
          out += buf;
          break;
        case MetricKind::kHistogram: {
          const HistogramSnapshot& h = series.hist;
          out += ",\"type\":\"histogram\"";
          std::snprintf(buf, sizeof buf, ",\"count\":%" PRIu64,
                        h.bucket_total());
          out += buf;
          std::snprintf(buf, sizeof buf, ",\"sum\":%" PRIu64, h.sum);
          out += buf;
          out += ",\"p50\":" + prom_double(h.quantile(0.50));
          out += ",\"p90\":" + prom_double(h.quantile(0.90));
          out += ",\"p99\":" + prom_double(h.quantile(0.99));
          out += ",\"buckets\":[";
          bool first_b = true;
          for (std::size_t i = 0; i < h.buckets.size(); ++i) {
            if (h.buckets[i] == 0) continue;
            if (!first_b) out += ',';
            first_b = false;
            std::snprintf(buf, sizeof buf, "[%" PRIu64 ",%" PRIu64 "]",
                          HistogramLayout::bucket_upper(i), h.buckets[i]);
            out += buf;
          }
          out += ']';
          break;
        }
      }
      out += '}';
    }
  }
  out += "]}";
  return out;
}

// --------------------------------------------------- exposition lint

/// Validates Prometheus text-format output. Returns an empty string on
/// success, else a one-line diagnostic naming the first offending line.
/// Checks, per the 0.0.4 exposition format:
///   * every line is a # HELP / # TYPE comment, blank, or a sample
///     `name{labels} value` with a legal metric name and float value;
///   * a family's # TYPE precedes its samples and is declared once;
///   * histogram bucket series are cumulative (non-decreasing in file
///     order), end with le="+Inf", and the +Inf bucket equals _count.
[[nodiscard]] inline std::string lint_prometheus(std::string_view text) {
  auto is_name = [](std::string_view n) {
    if (n.empty()) return false;
    auto head = [](char c) {
      return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
             c == ':';
    };
    if (!head(n[0])) return false;
    for (const char c : n.substr(1)) {
      if (!head(c) && !(c >= '0' && c <= '9')) return false;
    }
    return true;
  };
  auto fail = [](std::size_t lineno, const std::string& why,
                 std::string_view line) {
    return "line " + std::to_string(lineno) + ": " + why + ": " +
           std::string(line.substr(0, 120));
  };
  /// Family name of a sample: strip the histogram suffixes.
  auto family_of = [](std::string_view name) {
    for (const std::string_view suffix :
         {"_bucket", "_sum", "_count", "_total"}) {
      if (name.size() > suffix.size() &&
          name.substr(name.size() - suffix.size()) == suffix) {
        return std::string(name.substr(0, name.size() - suffix.size()));
      }
    }
    return std::string(name);
  };

  std::map<std::string, std::string> declared;  ///< family -> type
  /// Per (family + labels-minus-le) histogram bucket state.
  struct BucketRun {
    std::uint64_t last = 0;
    bool inf_seen = false;
    std::uint64_t inf_value = 0;
  };
  std::map<std::string, BucketRun> buckets;
  std::map<std::string, std::uint64_t> counts;  ///< family+labels -> _count

  std::size_t lineno = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++lineno;
    if (line.empty()) continue;
    if (line[0] == '#') {
      // # HELP name text | # TYPE name kind
      if (line.rfind("# HELP ", 0) != 0 && line.rfind("# TYPE ", 0) != 0) {
        return fail(lineno, "unknown comment form", line);
      }
      const bool is_type = line.rfind("# TYPE ", 0) == 0;
      std::string_view rest = line.substr(7);
      const std::size_t sp = rest.find(' ');
      const std::string_view name =
          sp == std::string_view::npos ? rest : rest.substr(0, sp);
      if (!is_name(name)) return fail(lineno, "bad metric name", line);
      if (is_type) {
        const std::string_view kind =
            sp == std::string_view::npos ? "" : rest.substr(sp + 1);
        if (kind != "counter" && kind != "gauge" && kind != "histogram" &&
            kind != "summary" && kind != "untyped") {
          return fail(lineno, "bad TYPE kind", line);
        }
        if (!declared.emplace(std::string(name), std::string(kind)).second) {
          return fail(lineno, "duplicate TYPE for family", line);
        }
      }
      continue;
    }
    // Sample: name[{labels}] value
    std::size_t i = 0;
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    const std::string_view name = line.substr(0, i);
    if (!is_name(name)) return fail(lineno, "bad sample name", line);
    std::string le;
    std::string label_key;
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string_view::npos) {
        return fail(lineno, "unterminated label set", line);
      }
      // Parse k="v" pairs; collect the non-le labels as an identity key
      // and pull out le.
      std::string_view body = line.substr(i + 1, close - i - 1);
      while (!body.empty()) {
        const std::size_t eq = body.find('=');
        if (eq == std::string_view::npos || eq + 1 >= body.size() ||
            body[eq + 1] != '"') {
          return fail(lineno, "malformed label pair", line);
        }
        const std::string_view k = body.substr(0, eq);
        if (!is_name(k)) return fail(lineno, "bad label name", line);
        std::size_t v_end = eq + 2;
        while (v_end < body.size() &&
               !(body[v_end] == '"' && body[v_end - 1] != '\\')) {
          ++v_end;
        }
        if (v_end >= body.size()) {
          return fail(lineno, "unterminated label value", line);
        }
        const std::string_view v = body.substr(eq + 2, v_end - eq - 2);
        if (k == "le") {
          le = std::string(v);
        } else {
          label_key += std::string(k) + "=" + std::string(v) + ";";
        }
        body = body.substr(v_end + 1);
        if (!body.empty()) {
          if (body[0] != ',') return fail(lineno, "missing comma", line);
          body = body.substr(1);
        }
      }
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ') {
      return fail(lineno, "missing value separator", line);
    }
    const std::string value_str(line.substr(i + 1));
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    const bool inf_ok = value_str == "+Inf" || value_str == "-Inf" ||
                        value_str == "NaN";
    if (!inf_ok && (end == value_str.c_str() || *end != '\0')) {
      return fail(lineno, "bad sample value", line);
    }
    // TYPE-before-sample and histogram shape checks.
    const std::string fam = family_of(name);
    const auto decl = declared.find(fam);
    const bool histo = decl != declared.end() && decl->second == "histogram";
    if (histo && name.size() > 7 &&
        name.substr(name.size() - 7) == "_bucket") {
      if (le.empty()) return fail(lineno, "bucket without le", line);
      BucketRun& run = buckets[fam + "{" + label_key + "}"];
      const auto cum = static_cast<std::uint64_t>(value);
      if (cum < run.last) {
        return fail(lineno, "non-cumulative histogram buckets", line);
      }
      run.last = cum;
      if (le == "+Inf") {
        run.inf_seen = true;
        run.inf_value = cum;
      }
    } else if (histo && name.size() > 6 &&
               name.substr(name.size() - 6) == "_count") {
      counts[fam + "{" + label_key + "}"] =
          static_cast<std::uint64_t>(value);
    }
  }
  for (const auto& [key, run] : buckets) {
    if (!run.inf_seen) return "histogram " + key + " missing +Inf bucket";
    const auto it = counts.find(key);
    if (it == counts.end()) return "histogram " + key + " missing _count";
    if (it->second != run.inf_value) {
      return "histogram " + key + " +Inf bucket != _count";
    }
  }
  return "";
}

}  // namespace ribltx::obs
