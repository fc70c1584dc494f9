// The four workloads, their seeded inputs, and the ground truth every
// session's diff is checked against.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/symbol.hpp"
#include "report.hpp"
#include "sync/sharded.hpp"

namespace ribltbench {

using ribltx::U64Symbol;
using Engine = ribltx::sync::ShardedEngine<U64Symbol>;
using Client = ribltx::sync::ShardedClient<U64Symbol>;

inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kClients = 2;  ///< client threads = connections
inline constexpr std::size_t kPoolSize = 64;

/// Why each workload exists is in README.md and BENCHMARK.json.
struct Workload {
  std::string_view name;
  std::size_t n;      ///< server set size
  std::size_t d_min;  ///< per-session diff, log-uniform in [d_min, d_max]
  std::size_t d_max;
  bool adaptive;           ///< ShardedClient::set_adaptive
  bool allow_uring;        ///< false pins the epoll server
  double writer_ops_per_s;  ///< 0 = no writer thread
};

inline constexpr Workload kWorkloads[] = {
    {"small", 10'000, 1, 100, true, true, 0},
    {"bulk", 20'000, 5'000, 5'000, true, true, 0},
    {"churn", 100'000, 100, 100, true, true, 1e5},
    {"unpaced", 10'000, 100, 100, false, false, 0},
};

/// Seeded inputs: the server set and the writer pool, all distinct, and the
/// seed of the session plans.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<U64Symbol> items;
  std::vector<U64Symbol> pool;         ///< writer pool, in write order
  std::vector<U64Symbol> pool_sorted;  ///< for diff checks

  static Inputs make(const Workload& w, std::uint64_t seed) {
    Inputs in;
    in.seed = seed;
    ribltx::SplitMix64 rng(ribltx::derive_seed(seed, 0));
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(w.n + kPoolSize);
    const auto fresh = [&] {
      std::uint64_t v = rng.next();
      while (!seen.insert(v).second) v = rng.next();
      return U64Symbol::from_u64(v);
    };
    in.items.reserve(w.n);
    for (std::size_t i = 0; i < w.n; ++i) in.items.push_back(fresh());
    if (w.writer_ops_per_s > 0) {
      for (std::size_t i = 0; i < kPoolSize; ++i) in.pool.push_back(fresh());
    }
    in.pool_sorted = in.pool;
    std::sort(in.pool_sorted.begin(), in.pool_sorted.end());
    return in;
  }
};

/// One session's input: the peer lacks items[start, start + d) (cyclic).
struct SessionPlan {
  std::size_t d = 0;
  std::size_t start = 0;
};

/// The seeded sequence of session plans of one connection.
class PlanStream {
 public:
  PlanStream(const Workload& w, std::uint64_t seed, std::uint64_t stream)
      : w_(&w), rng_(ribltx::derive_seed(seed, 1 + stream)) {}

  SessionPlan next() {
    SessionPlan p;
    if (w_->d_min == w_->d_max) {
      p.d = w_->d_min;
    } else {
      const double lo = std::log(static_cast<double>(w_->d_min));
      const double hi = std::log(static_cast<double>(w_->d_max + 1));
      p.d = static_cast<std::size_t>(std::exp(lo + (hi - lo) * rng_.next_double()));
      p.d = std::clamp(p.d, w_->d_min, w_->d_max);
    }
    p.start = static_cast<std::size_t>(rng_.next_below(w_->n));
    return p;
  }

 private:
  const Workload* w_;
  ribltx::SplitMix64 rng_;
};

/// Calls `fn` on every server item the peer holds (all but the slice).
template <typename Fn>
void for_each_kept(const Inputs& in, const SessionPlan& p, Fn&& fn) {
  const std::size_t n = in.items.size();
  std::size_t j = (p.start + p.d) % n;
  for (std::size_t c = p.d; c < n; ++c) {
    fn(in.items[j]);
    j = j + 1 == n ? 0 : j + 1;
  }
}

/// The ground-truth check: `remote` holds exactly the missing slice plus,
/// when a writer runs, only items from its pool; `local` is empty.
[[nodiscard]] inline bool diff_is_correct(
    const Inputs& in, const SessionPlan& p,
    const ribltx::sync::SetDiff<U64Symbol>& diff) {
  if (!diff.local.empty()) return false;
  std::vector<U64Symbol> slice;
  slice.reserve(p.d);
  for (std::size_t k = 0; k < p.d; ++k) {
    slice.push_back(in.items[(p.start + k) % in.items.size()]);
  }
  std::sort(slice.begin(), slice.end());
  std::vector<U64Symbol> remote = diff.remote;
  std::sort(remote.begin(), remote.end());
  if (std::adjacent_find(remote.begin(), remote.end()) != remote.end()) {
    return false;
  }
  std::size_t matched = 0;
  for (const auto& x : remote) {
    if (std::binary_search(slice.begin(), slice.end(), x)) {
      ++matched;
    } else if (!std::binary_search(in.pool_sorted.begin(),
                                   in.pool_sorted.end(), x)) {
      return false;
    }
  }
  return matched == p.d;
}

/// The churn writer: open loop at a fixed op rate over the pool (add all 64,
/// then remove all 64, repeat). Each 1 ms tick issues every op that is due,
/// so a stall shows as lag, not as a lower rate.
class Writer {
 public:
  Writer(Engine& engine, const std::vector<U64Symbol>& pool, double ops_per_s)
      : engine_(engine), pool_(pool), ops_per_s_(ops_per_s) {
    thread_ = std::thread([this] { loop(); });
  }

  ~Writer() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// While recording is on, every kTimeEvery-th op is timed.
  void set_recording(bool on) {
    recording_.store(on, std::memory_order_relaxed);
  }

  /// Moves out the latencies recorded so far.
  [[nodiscard]] std::vector<float> take_latencies_us() {
    const std::lock_guard<std::mutex> lk(mu_);
    return std::exchange(latencies_us_, {});
  }

  [[nodiscard]] double cpu_s() {
    return seconds_on(cpu_clock_of(thread_.native_handle()));
  }
  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double max_lag_ms() const {
    return max_lag_ms_.load(std::memory_order_relaxed);
  }

 private:
  /// Times adds and removes alike (it divides the pool cycle) and keeps the
  /// samples small beside the engine's own memory, which peak_rss_mb sees.
  static constexpr std::uint64_t kTimeEvery = 8;

  void loop() {
    using clock = std::chrono::steady_clock;
    const auto t0 = clock::now();
    std::uint64_t done = 0;
    std::vector<float> tick;
    for (std::uint64_t ms = 1; !stop_.load(std::memory_order_relaxed); ++ms) {
      const double now_s = seconds_since(t0);
      const auto due = static_cast<std::uint64_t>(now_s * ops_per_s_);
      const double lag_ms = now_s * 1e3 - static_cast<double>(ms - 1);
      if (lag_ms > max_lag_ms_.load(std::memory_order_relaxed)) {
        max_lag_ms_.store(lag_ms, std::memory_order_relaxed);
      }
      const bool rec = recording_.load(std::memory_order_relaxed);
      tick.clear();
      for (; done < due; ++done) {
        const std::size_t i = done % (2 * pool_.size());
        const bool timed = rec && done % kTimeEvery == 0;
        const auto a = timed ? clock::now() : clock::time_point{};
        const bool ok = i < pool_.size()
                            ? engine_.add_item(pool_[i])
                            : engine_.remove_item(pool_[i - pool_.size()]);
        if (timed) {
          tick.push_back(
              std::chrono::duration<float, std::micro>(clock::now() - a)
                  .count());
        }
        if (!ok) rejected_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!tick.empty()) {
        const std::lock_guard<std::mutex> lk(mu_);
        latencies_us_.insert(latencies_us_.end(), tick.begin(), tick.end());
      }
      std::this_thread::sleep_until(t0 + std::chrono::milliseconds(ms));
    }
  }

  Engine& engine_;
  const std::vector<U64Symbol>& pool_;
  double ops_per_s_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> recording_{false};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<double> max_lag_ms_{0};
  std::mutex mu_;
  std::vector<float> latencies_us_;  ///< guarded by mu_
  std::thread thread_;
};

}  // namespace ribltbench
