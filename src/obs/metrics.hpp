// Process-wide metrics substrate: lock-free counters, gauges, and
// log-linear (HdrHistogram-style) histograms behind a named registry.
//
// Design constraints, in order:
//
//   * record() is O(1) and purely relaxed-atomic -- safe from shard
//     workers, SequenceCache writer lanes, and the uring serving thread
//     without ever taking a lock or fencing the caller. A histogram
//     record is exactly three relaxed fetch_adds (bucket, count, sum).
//   * Handles are stable raw pointers: registration (mutexed, slow) is
//     done once at wiring time; the hot path never touches the registry.
//   * Scrapes never stop the world: a snapshot is a plain relaxed walk
//     of the cells. See "Snapshot consistency" below for exactly what
//     that buys -- and what it does not.
//
// Snapshot consistency model (the contract every scrape-facing surface
// in this tree documents against -- the typed stats() reads included:
// EngineTotals, ShardedStats, SocketServerStats, and ReplicaStats are
// loads of the same cells a scrape walks):
//
//   * Each individual cell (one counter, one gauge, one histogram
//     bucket) is a single 64-bit atomic: a snapshot of it is always a
//     real value some record() produced -- never torn mid-word.
//   * CROSS-cell invariants may transiently not hold in a snapshot
//     taken while writers run: a histogram's `count` can differ from
//     the sum of its buckets by the handful of records in flight, and
//     two counters bumped by the same code path can be off by a few
//     events from each other. Quantiles therefore rank against the sum
//     of the snapshotted buckets, not the count cell.
//   * Counters and histogram cells are monotone, so two successive
//     snapshots bracket the truth: anything that happened before the
//     first is in both, anything after the second is in neither.
//
// This is deliberately the weakest model that is still useful: making a
// scrape linearizable would put a barrier (or a seqlock retry loop) on
// every record() -- the exact cost this subsystem exists to avoid.
#pragma once

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ribltx::obs {

/// Label set of one time series ((key, value) pairs, order-significant
/// at registration; the registry sorts them so lookups are order-blind).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event counter on its own cache line (shard workers and the
/// serving thread bump disjoint counters without false sharing).
struct alignas(64) Counter {
  std::atomic<std::uint64_t> v{0};

  void inc(std::uint64_t d = 1) noexcept {
    v.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t load() const noexcept {
    return v.load(std::memory_order_relaxed);
  }
};

/// Instantaneous signed level (queue depths, live session counts).
struct alignas(64) Gauge {
  std::atomic<std::int64_t> v{0};

  void set(std::int64_t x) noexcept {
    v.store(x, std::memory_order_relaxed);
  }
  void add(std::int64_t d) noexcept {
    v.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t load() const noexcept {
    return v.load(std::memory_order_relaxed);
  }
};

/// Log-linear bucket geometry shared by Histogram and its snapshots:
/// values below kSub get unit-width buckets; above, each power-of-two
/// octave splits into kSub linear sub-buckets, so the relative width of
/// any bucket is at most 1/kSub (3.125%) of its lower bound. Covers the
/// full uint64 range in kBucketCount buckets -- callers record ns, us,
/// bytes, or plain counts and the geometry is unit-agnostic.
struct HistogramLayout {
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;  // 32
  static constexpr std::size_t kBucketCount =
      (64 - kSubBits + 1) * static_cast<std::size_t>(kSub);  // 1920

  [[nodiscard]] static std::size_t bucket_index(std::uint64_t v) noexcept {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - std::countl_zero(v);  // floor(log2 v) >= kSubBits
    const std::uint64_t sub =
        (v >> (static_cast<std::uint32_t>(e) - kSubBits)) & (kSub - 1);
    return (static_cast<std::size_t>(e) - (kSubBits - 1)) * kSub +
           static_cast<std::size_t>(sub);
  }

  /// Smallest value that lands in bucket `idx`.
  [[nodiscard]] static std::uint64_t bucket_lower(std::size_t idx) noexcept {
    if (idx < kSub) return idx;
    const std::uint32_t e =
        static_cast<std::uint32_t>(idx / kSub) + (kSubBits - 1);
    const std::uint64_t sub = idx % kSub;
    return (kSub + sub) << (e - kSubBits);
  }

  /// One past the largest value in bucket `idx` (saturates at the top).
  [[nodiscard]] static std::uint64_t bucket_upper(std::size_t idx) noexcept {
    if (idx + 1 >= kBucketCount) return ~0ull;
    return bucket_lower(idx + 1);
  }
};

/// Read-side copy of one histogram. Also the merge algebra: merging two
/// snapshots is bucket-wise addition, so merge(snapshot(a), snapshot(b))
/// equals snapshot of a histogram that recorded both streams -- the
/// property test in tests/test_obs.cpp pins this.
struct HistogramSnapshot : HistogramLayout {
  std::vector<std::uint64_t> buckets;  ///< size kBucketCount (or empty)
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void merge(const HistogramSnapshot& o) {
    if (o.buckets.empty()) {
      count += o.count;
      sum += o.sum;
      return;
    }
    if (buckets.empty()) buckets.assign(kBucketCount, 0);
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets[i] += o.buckets[i];
    }
    count += o.count;
    sum += o.sum;
  }

  /// Total events actually visible in the bucket cells. Under concurrent
  /// record() this can trail `count` by the in-flight handful (see the
  /// consistency model above); ranking quantiles against it keeps them
  /// internally consistent with the buckets they walk.
  [[nodiscard]] std::uint64_t bucket_total() const noexcept {
    std::uint64_t t = 0;
    for (const std::uint64_t b : buckets) t += b;
    return t;
  }

  /// Quantile estimate: the representative value of the bucket holding
  /// the rank-q sample (width-1 buckets are exact; wider buckets return
  /// their midpoint, so the error is at most half the bucket width --
  /// a relative error <= 1/(2*kSub) + rounding of the true value).
  /// Rank convention matches the benches' sorted-vector percentile:
  /// index round(q * (n - 1)) of the sorted samples.
  [[nodiscard]] double quantile(double q) const noexcept {
    const std::uint64_t total = bucket_total();
    if (total == 0) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const auto rank = static_cast<std::uint64_t>(
        q * static_cast<double>(total - 1) + 0.5);
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      cum += buckets[i];
      if (cum > rank) return representative(i);
    }
    return representative(buckets.size() - 1);
  }

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  [[nodiscard]] static double representative(std::size_t idx) noexcept {
    const std::uint64_t lo = bucket_lower(idx);
    const std::uint64_t hi = bucket_upper(idx);
    if (hi - lo <= 1) return static_cast<double>(lo);
    return (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0;
  }
};

/// Write-side histogram: a flat array of relaxed atomic bucket cells.
/// The bucket array is NOT per-bucket padded -- concurrent recorders of
/// similar values do share lines, but a record is one fetch_add per
/// cell and the workloads here (timings, sizes) spread across octaves;
/// the count/sum pair gets its own line so every record's two common
/// cells never contend with an unrelated histogram.
class Histogram : public HistogramLayout {
 public:
  Histogram() : buckets_(new std::atomic<std::uint64_t>[kBucketCount]) {
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      buckets_[i].store(0, std::memory_order_relaxed);
    }
  }

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// O(1), three relaxed fetch_adds, no branches past the bucket math.
  void record(std::uint64_t v) noexcept {
    buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const {
    HistogramSnapshot s;
    s.buckets.resize(kBucketCount);
    for (std::size_t i = 0; i < kBucketCount; ++i) {
      s.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  /// count/sum share one dedicated line: the same record() bumps both,
  /// and nothing else lives there to false-share with.
  alignas(64) std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Point-in-time copy of every registered series, grouped by family.
/// Render with prometheus_text() / json() (src/obs/prom.hpp holds the
/// format helpers; this struct is the data they consume).
struct MetricsSnapshot {
  struct Series {
    Labels labels;
    std::uint64_t counter = 0;  ///< kCounter
    std::int64_t gauge = 0;     ///< kGauge
    HistogramSnapshot hist;     ///< kHistogram
  };
  struct Family {
    std::string name;
    std::string help;
    MetricKind kind{};
    std::vector<Series> series;
  };
  std::vector<Family> families;

  [[nodiscard]] const Family* find(std::string_view name) const noexcept {
    for (const Family& f : families) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  /// First series of `name` whose labels contain every (k, v) in
  /// `subset` (empty subset: the first series). Null when absent.
  [[nodiscard]] const Series* find_series(std::string_view name,
                                          const Labels& subset = {}) const {
    const Family* f = find(name);
    if (f == nullptr) return nullptr;
    for (const Series& s : f->series) {
      bool all = true;
      for (const auto& [k, v] : subset) {
        bool got = false;
        for (const auto& [sk, sv] : s.labels) {
          if (sk == k && sv == v) {
            got = true;
            break;
          }
        }
        if (!got) {
          all = false;
          break;
        }
      }
      if (all) return &s;
    }
    return nullptr;
  }
};

/// Name -> series registry. Registration is mutexed and dedupes on
/// (name, sorted labels) -- asking twice returns the same handle. A
/// registry is one node's view: owners that register the same series
/// share its cell (the K shards of a ShardedEngine by design, and every
/// engine of a simulated fleet bound to one registry), so owners whose
/// facts must stay apart label them (Replica's {replica=id}). Shared
/// gauges therefore move by add(), never set(). Handles are valid for
/// the registry's lifetime (deque storage: no reallocation ever moves a
/// cell).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name, std::string_view help,
                   Labels labels = {}) {
    return *static_cast<Counter*>(
        series(name, help, MetricKind::kCounter, std::move(labels)));
  }

  Gauge& gauge(std::string_view name, std::string_view help,
               Labels labels = {}) {
    return *static_cast<Gauge*>(
        series(name, help, MetricKind::kGauge, std::move(labels)));
  }

  Histogram& histogram(std::string_view name, std::string_view help,
                       Labels labels = {}) {
    return *static_cast<Histogram*>(
        series(name, help, MetricKind::kHistogram, std::move(labels)));
  }

  /// Relaxed walk of every cell; see the consistency model above.
  [[nodiscard]] MetricsSnapshot snapshot() const {
    const std::lock_guard<std::mutex> lk(mu_);
    MetricsSnapshot out;
    out.families.reserve(families_.size());
    for (const auto& [name, fam] : families_) {
      MetricsSnapshot::Family f;
      f.name = name;
      f.help = fam.help;
      f.kind = fam.kind;
      f.series.reserve(fam.series.size());
      for (const SeriesCell& cell : fam.series) {
        MetricsSnapshot::Series s;
        s.labels = cell.labels;
        switch (fam.kind) {
          case MetricKind::kCounter:
            s.counter = cell.counter->load();
            break;
          case MetricKind::kGauge:
            s.gauge = cell.gauge->load();
            break;
          case MetricKind::kHistogram:
            s.hist = cell.hist->snapshot();
            break;
        }
        f.series.push_back(std::move(s));
      }
      out.families.push_back(std::move(f));
    }
    return out;
  }

 private:
  struct SeriesCell {
    Labels labels;  ///< sorted by key
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> hist;
  };
  struct Family {
    std::string help;
    MetricKind kind{};
    std::deque<SeriesCell> series;
  };

  [[nodiscard]] static bool valid_name(std::string_view n) noexcept {
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
  }

  void* series(std::string_view name, std::string_view help, MetricKind kind,
               Labels labels) {
    if (!valid_name(name)) {
      throw std::invalid_argument("obs: invalid metric name: " +
                                  std::string(name));
    }
    for (const auto& [k, v] : labels) {
      if (!valid_name(k)) {
        throw std::invalid_argument("obs: invalid label name: " + k);
      }
      (void)v;
    }
    std::sort(labels.begin(), labels.end());
    const std::lock_guard<std::mutex> lk(mu_);
    auto [it, inserted] = families_.try_emplace(std::string(name));
    Family& fam = it->second;
    if (inserted) {
      fam.help = std::string(help);
      fam.kind = kind;
    } else if (fam.kind != kind) {
      throw std::invalid_argument("obs: metric re-registered as a "
                                  "different kind: " +
                                  std::string(name));
    }
    for (SeriesCell& cell : fam.series) {
      if (cell.labels == labels) return cell_ptr(fam.kind, cell);
    }
    SeriesCell cell;
    cell.labels = std::move(labels);
    switch (kind) {
      case MetricKind::kCounter:
        cell.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        cell.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        cell.hist = std::make_unique<Histogram>();
        break;
    }
    fam.series.push_back(std::move(cell));
    return cell_ptr(kind, fam.series.back());
  }

  [[nodiscard]] static void* cell_ptr(MetricKind kind,
                                      SeriesCell& cell) noexcept {
    switch (kind) {
      case MetricKind::kCounter: return cell.counter.get();
      case MetricKind::kGauge: return cell.gauge.get();
      case MetricKind::kHistogram: return cell.hist.get();
    }
    return nullptr;
  }

  mutable std::mutex mu_;
  std::map<std::string, Family> families_;  ///< ordered -> stable render
};

/// The registry an owner binds its accounting cells to: the caller's
/// when one is passed, else a private one parked in `own` for the
/// owner's lifetime -- so stats() reads the same cells either way.
inline MetricsRegistry& registry_or_own(MetricsRegistry* caller,
                                        std::unique_ptr<MetricsRegistry>& own) {
  if (caller != nullptr) return *caller;
  own = std::make_unique<MetricsRegistry>();
  return *own;
}

}  // namespace ribltx::obs
