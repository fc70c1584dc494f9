// Chaos anti-entropy harness: N Replica daemons reconciling continuously
// over a full mesh of SimConduit links while a seeded fault plan injects
// partitions, a crash/restart, corruption, loss, and duplication on top of
// ledger-style churn.
//
// The convergence gate (also a ctest target, default and --smoke scales):
// once churn and faults stop, every replica must reach byte-exact set
// equality with every other within a bounded quiesce window, and no engine
// session or in-flight round may leak (session_count() == 0 fleet-wide
// after the drain). The process exits nonzero when either fails, so CI
// catches both divergence and leaks.
//
// Workload model (ledgerbench shape, replica-local view): per block,
// `creates` fresh accounts appear at 1-2 random origin replicas and
// `modifies` existing accounts get a new version at origins while the old
// version is deleted from every *alive* replica. Deletions propagate only
// through the churn driver (no tombstones in a plain set), so a crashed or
// partitioned replica can resurrect an old version into the mesh -- the
// union is still monotone once churn stops, which is exactly why the gate
// demands inter-replica equality rather than equality to a ledger oracle.
//
// Reported metrics: staleness p50/p99 (item birth at origin -> applied via
// anti-entropy elsewhere -- the continuous analogue of Fig 12's staleness
// axis), bytes per reconciled item (all link bytes, retransmits and ACKs
// included), time-to-converge after churn ends, and the abort/reap/retry
// counters that show the robustness machinery actually engaged.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "benchutil.hpp"
#include "ledger/ledger.hpp"
#include "net/sim_conduit.hpp"
#include "obs/metrics.hpp"
#include "sync/replica.hpp"

namespace ribltx::bench {
namespace {

using ledger::StateItem;
using sync::Replica;

struct ChaosParams {
  std::size_t replicas = 5;
  std::size_t base_items = 1500;   ///< shared pre-loaded population
  std::size_t blocks = 80;         ///< churn blocks
  double seconds_per_block = 0.5;  ///< sim-time block cadence
  std::size_t creates_per_block = 4;
  std::size_t modifies_per_block = 3;
  double tick_dt = 0.05;
  double check_dt = 0.25;
  double drain_s = 8.0;       ///< quiesce window after convergence detected
  double converge_cap_s = 60; ///< max post-churn time before declaring failure
  std::uint64_t seed = 1;
};

ChaosParams pick_params(const Options& opts) {
  ChaosParams p;
  p.replicas = opts.pick<std::size_t>(4, 5, 6);
  p.base_items = opts.pick<std::size_t>(400, 1500, 4000);
  p.blocks = opts.pick<std::size_t>(30, 80, 160);
  p.creates_per_block = opts.pick<std::size_t>(3, 4, 6);
  p.modifies_per_block = opts.pick<std::size_t>(2, 3, 4);
  p.seconds_per_block = opts.smoke ? 0.4 : 0.5;
  p.seed = opts.seed;
  return p;
}

/// Deterministic account content, ledger-flavored: 92-byte address||value
/// items keyed by (account index, version).
StateItem account_item(std::uint64_t seed, std::uint64_t account,
                       std::uint64_t version) {
  return StateItem::random(
      derive_seed(seed ^ 0x63686173616363ULL, mix64(account) ^ version));
}

struct Account {
  std::uint64_t id = 0;
  std::uint64_t version = 0;
  StateItem item;
};

/// One mesh edge: replica lo's endpoint is a(), hi's is b().
struct Pipe {
  std::size_t lo = 0;
  std::size_t hi = 0;
  std::unique_ptr<net::SimConduit> conduit;
};

class Fleet {
 public:
  Fleet(const ChaosParams& params, const Options& opts)
      : p_(params), churn_rng_(mix64(params.seed ^ 0x63686f7321ULL)) {
    (void)opts;
    const double t_churn = churn_end();
    // Staleness lands in a registry histogram (microsecond scale) -- the
    // same cells a live METRICS scrape would read -- with the raw sample
    // vector retained as the parity oracle for the quantile estimates.
    staleness_hist_ = &registry_.histogram(
        "chaos_staleness_us",
        "Item birth at origin to applied via anti-entropy elsewhere");
    replicas_.reserve(p_.replicas);
    for (std::size_t i = 0; i < p_.replicas; ++i) {
      sync::ReplicaOptions ro;
      ro.replica_id = i + 1;
      ro.sync_interval_s = 0.4;
      ro.backoff_base_s = 0.2;
      ro.backoff_cap_s = 4.0;
      ro.jitter = 0.25;
      ro.session_deadline_s = 2.0;
      ro.engine.idle_deadline_s = 3.0;
      ro.engine.metrics = &registry_;
      ro.serve_budget = 32;
      ro.seed = derive_seed(p_.seed, i);
      replicas_.push_back(std::make_unique<Replica<StateItem>>(ro));
      down_.push_back(false);
    }
    // Shared base population: every replica starts from the same state.
    for (std::size_t a = 0; a < p_.base_items; ++a) {
      accounts_.push_back({a, 0, account_item(p_.seed, a, 0)});
      for (auto& r : replicas_) (void)r->add_item(accounts_.back().item);
    }
    next_account_ = p_.base_items;

    for (std::size_t i = 0; i < p_.replicas; ++i) {
      const std::size_t idx = i;
      replicas_[i]->on_item_applied([this, idx](const StateItem& item,
                                                double now) {
        ++applied_[idx];
        const auto it = birth_.find(item);
        if (it != birth_.end()) {
          const double lag = now - it->second;
          staleness_.push_back(lag);
          staleness_hist_->record(
              static_cast<std::uint64_t>(lag * 1e6));
        }
      });
      applied_.push_back(0);
    }

    // Full mesh; peers registered once, links rebindable after a crash.
    for (std::size_t i = 0; i < p_.replicas; ++i) {
      for (std::size_t j = i + 1; j < p_.replicas; ++j) {
        pipes_.push_back({i, j, nullptr});
        rebuild_pipe(pipes_.back(), /*first_time=*/true);
      }
    }

    // Fault plan, scaled to the churn phase: two bidirectional partition
    // windows on distinct mesh edges plus one crash/restart.
    Pipe& part_a = pipe_between(0, 1);
    part_a.conduit->link_ab().add_partition(0.20 * t_churn, 0.32 * t_churn);
    part_a.conduit->link_ba().add_partition(0.20 * t_churn, 0.32 * t_churn);
    if (p_.replicas > 2) {
      Pipe& part_b = pipe_between(0, 2);
      part_b.conduit->link_ab().add_partition(0.55 * t_churn, 0.68 * t_churn);
      part_b.conduit->link_ba().add_partition(0.55 * t_churn, 0.68 * t_churn);
    }
    crash_victim_ = p_.replicas - 1;
    loop_.schedule_at(0.35 * t_churn, [this] { crash(crash_victim_); });
    loop_.schedule_at(0.58 * t_churn, [this] { recover(crash_victim_); });

    for (std::size_t b = 1; b <= p_.blocks; ++b) {
      loop_.schedule_at(static_cast<double>(b) * p_.seconds_per_block,
                        [this] { churn_block(); });
    }
    for (std::size_t i = 0; i < p_.replicas; ++i) schedule_tick(i);
    schedule_check();
  }

  [[nodiscard]] double churn_end() const {
    return static_cast<double>(p_.blocks) * p_.seconds_per_block;
  }

  void run() { loop_.run(); }

  /// Post-run sweep: jump time forward so session deadlines and idle reaps
  /// fire for anything the drain window left behind, then let the loop
  /// deliver the resulting abort/ERROR frames. Three passes retire chains
  /// (client abort -> server ERROR -> server retire).
  void final_sweep() {
    for (int pass = 0; pass < 3; ++pass) {
      const double t = loop_.now() + p_.drain_s;
      for (std::size_t i = 0; i < p_.replicas; ++i) {
        if (!down_[i]) replicas_[i]->tick(t);
      }
      loop_.run();
    }
  }

  [[nodiscard]] bool converged_flag() const { return converged_at_ >= 0; }
  [[nodiscard]] double converge_latency() const {
    return converged_at_ < 0 ? -1 : converged_at_ - churn_end();
  }

  /// Byte-exact equality: every replica's sorted item vector must match
  /// replica 0's.
  [[nodiscard]] bool byte_exact_equal() const {
    std::vector<StateItem> ref = items_of(0);
    for (std::size_t i = 1; i < p_.replicas; ++i) {
      if (items_of(i) != ref) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t leaked_sessions() const {
    std::size_t n = 0;
    for (const auto& r : replicas_) n += r->session_count();
    return n;
  }

  [[nodiscard]] std::uint64_t link_bytes() {
    std::uint64_t total = 0;
    const auto add = [&](net::SimConduit& c) {
      total += c.a().data_bytes() + c.a().ack_bytes() + c.b().data_bytes() +
               c.b().ack_bytes();
    };
    for (const auto& pipe : pipes_) add(*pipe.conduit);
    for (const auto& dead : graveyard_) add(*dead);
    return total;
  }

  [[nodiscard]] std::uint64_t items_applied() const {
    std::uint64_t n = 0;
    for (const std::uint64_t a : applied_) n += a;
    return n;
  }

  [[nodiscard]] std::vector<double> staleness_samples() const {
    return staleness_;
  }

  /// Snapshot of the whole fleet's registry (staleness histogram plus
  /// every replica engine's bound cells) -- the scrape-path view the
  /// JSON report reads its quantiles from.
  [[nodiscard]] obs::MetricsSnapshot metrics() const {
    return registry_.snapshot();
  }

  [[nodiscard]] sync::ReplicaStats stats_of(std::size_t i) const {
    return replicas_[i]->stats();
  }

  [[nodiscard]] std::size_t replica_count() const { return p_.replicas; }
  [[nodiscard]] std::size_t item_count_of(std::size_t i) const {
    return replicas_[i]->item_count();
  }

 private:
  [[nodiscard]] std::vector<StateItem> items_of(std::size_t i) const {
    std::vector<StateItem> out;
    out.reserve(replicas_[i]->item_count());
    replicas_[i]->for_each_item(
        [&](const HashedSymbol<StateItem>& hs) { out.push_back(hs.symbol); });
    std::sort(out.begin(), out.end());
    return out;
  }

  Pipe& pipe_between(std::size_t a, std::size_t b) {
    for (auto& pipe : pipes_) {
      if (pipe.lo == std::min(a, b) && pipe.hi == std::max(a, b)) return pipe;
    }
    throw std::logic_error("chaos: no such pipe");
  }

  /// (Re)creates the conduit for one edge and rebinds both replicas'
  /// transports to the fresh endpoints. Lossy, jittery, corrupting,
  /// duplicating links -- the steady-state fault floor.
  void rebuild_pipe(Pipe& pipe, bool first_time) {
    netsim::LinkConfig link;
    link.one_way_delay_s = 0.01;
    link.bandwidth_bps = 50e6;
    link.loss_rate = 0.05;
    link.reorder_jitter_s = 0.005;
    link.corrupt_rate = 0.01;
    link.duplicate_rate = 0.01;
    // Fresh seeds per incarnation so a rebuilt link draws a new stream.
    link.seed = derive_seed(p_.seed ^ 0x6c696e6b73ULL,
                            (pipe.lo << 20) ^ (pipe.hi << 8) ^ incarnation_);
    netsim::LinkConfig back = link;
    back.seed = mix64(link.seed);
    ++incarnation_;

    if (pipe.conduit) graveyard_.push_back(std::move(pipe.conduit));
    pipe.conduit = std::make_unique<net::SimConduit>(loop_, link, back);

    const std::size_t lo = pipe.lo;
    const std::size_t hi = pipe.hi;
    net::SimEndpoint* lo_end = &pipe.conduit->a();
    net::SimEndpoint* hi_end = &pipe.conduit->b();
    lo_end->on_frame([this, hi, lo](std::vector<std::byte> f) {
      if (!down_[lo]) replicas_[lo]->deliver(hi + 1, f, loop_.now());
    });
    hi_end->on_frame([this, hi, lo](std::vector<std::byte> f) {
      if (!down_[hi]) replicas_[hi]->deliver(lo + 1, f, loop_.now());
    });
    lo_end->on_error([this, hi, lo] {
      if (!down_[lo]) replicas_[lo]->peer_link_down(hi + 1, loop_.now());
    });
    hi_end->on_error([this, hi, lo] {
      if (!down_[hi]) replicas_[hi]->peer_link_down(lo + 1, loop_.now());
    });

    const auto send_via = [](net::SimEndpoint* ep) {
      return [ep](std::vector<std::byte> f) {
        if (ep->broken()) return false;
        ep->send_frame(std::move(f));
        return true;
      };
    };
    const auto ready_via = [](net::SimEndpoint* ep) {
      return [ep] { return !ep->broken() && ep->writable(); };
    };
    if (first_time) {
      replicas_[lo]->add_peer(hi + 1, send_via(lo_end), ready_via(lo_end));
      replicas_[hi]->add_peer(lo + 1, send_via(hi_end), ready_via(hi_end));
    } else {
      replicas_[lo]->set_peer_link(hi + 1, send_via(lo_end),
                                   ready_via(lo_end));
      replicas_[hi]->set_peer_link(lo + 1, send_via(hi_end),
                                   ready_via(hi_end));
    }
  }

  void crash(std::size_t victim) {
    down_[victim] = true;
    for (auto& pipe : pipes_) {
      if (pipe.lo != victim && pipe.hi != victim) continue;
      // Both ends die: the victim's abruptly (crash), the survivor's via
      // its on_error -> peer backoff takes over.
      pipe.conduit->a().sever();
      pipe.conduit->b().sever();
    }
  }

  void recover(std::size_t victim) {
    replicas_[victim]->restart(loop_.now());
    down_[victim] = false;
    for (auto& pipe : pipes_) {
      if (pipe.lo == victim || pipe.hi == victim) {
        rebuild_pipe(pipe, /*first_time=*/false);
      }
    }
  }

  void churn_block() {
    const double now = loop_.now();
    for (std::size_t c = 0; c < p_.creates_per_block; ++c) {
      Account acct{next_account_++, 0, {}};
      acct.item = account_item(p_.seed, acct.id, 0);
      accounts_.push_back(acct);
      place_at_origins(acct.item, now);
    }
    for (std::size_t m = 0; m < p_.modifies_per_block && !accounts_.empty();
         ++m) {
      Account& acct = accounts_[static_cast<std::size_t>(
          churn_rng_.next_below(accounts_.size()))];
      const StateItem old = acct.item;
      ++acct.version;
      acct.item = account_item(p_.seed, acct.id, acct.version);
      // The delete reaches only alive replicas: a crashed one keeps the
      // old version on "disk" and may resurrect it after recovery -- the
      // union still converges, which is what the gate checks.
      for (std::size_t i = 0; i < p_.replicas; ++i) {
        if (!down_[i]) (void)replicas_[i]->remove_item(old);
      }
      place_at_origins(acct.item, now);
    }
  }

  /// New versions land at 1-2 random alive replicas; anti-entropy carries
  /// them everywhere else (staleness clock starts now).
  void place_at_origins(const StateItem& item, double now) {
    birth_[item] = now;
    std::vector<std::size_t> alive;
    for (std::size_t i = 0; i < p_.replicas; ++i) {
      if (!down_[i]) alive.push_back(i);
    }
    if (alive.empty()) return;
    const std::size_t origins =
        1 + static_cast<std::size_t>(churn_rng_.next_below(2));
    for (std::size_t k = 0; k < origins; ++k) {
      const std::size_t who = alive[static_cast<std::size_t>(
          churn_rng_.next_below(alive.size()))];
      (void)replicas_[who]->add_item(item);
    }
  }

  void schedule_tick(std::size_t i) {
    loop_.schedule_in(p_.tick_dt, [this, i] {
      if (!running_) return;
      if (!down_[i]) replicas_[i]->tick(loop_.now());
      schedule_tick(i);
    });
  }

  void schedule_check() {
    loop_.schedule_in(p_.check_dt, [this] {
      if (!running_) return;
      const double now = loop_.now();
      if (now >= churn_end() && !paused_) {
        if (fingerprints_equal()) {
          converged_at_ = now;
          paused_ = true;
          drain_until_ = now + p_.drain_s;
          for (auto& r : replicas_) r->set_paused(true);
        } else if (now > churn_end() + p_.converge_cap_s) {
          running_ = false;  // divergence: report after the run
          return;
        }
      } else if (paused_ && now >= drain_until_) {
        running_ = false;
        return;
      }
      schedule_check();
    });
  }

  /// Cheap convergence probe (count + hash-xor); the byte-exact comparison
  /// runs once at the end.
  [[nodiscard]] bool fingerprints_equal() const {
    if (std::find(down_.begin(), down_.end(), true) != down_.end()) {
      return false;
    }
    std::uint64_t ref_xor = 0;
    std::size_t ref_count = 0;
    for (std::size_t i = 0; i < p_.replicas; ++i) {
      std::uint64_t x = 0;
      std::size_t count = 0;
      replicas_[i]->for_each_item([&](const HashedSymbol<StateItem>& hs) {
        x ^= hs.hash;
        ++count;
      });
      if (i == 0) {
        ref_xor = x;
        ref_count = count;
      } else if (x != ref_xor || count != ref_count) {
        return false;
      }
    }
    return true;
  }

  ChaosParams p_;
  obs::MetricsRegistry registry_;
  obs::Histogram* staleness_hist_ = nullptr;
  netsim::EventLoop loop_;
  std::vector<std::unique_ptr<Replica<StateItem>>> replicas_;
  std::vector<bool> down_;
  std::vector<Pipe> pipes_;
  /// Severed conduits: EventLoop closures hold raw endpoint pointers, so
  /// dead incarnations must outlive the run.
  std::vector<std::unique_ptr<net::SimConduit>> graveyard_;
  SplitMix64 churn_rng_;
  std::vector<Account> accounts_;
  std::uint64_t next_account_ = 0;
  std::map<StateItem, double> birth_;  ///< item -> origin-placement time
  std::vector<double> staleness_;
  std::vector<std::uint64_t> applied_;
  std::size_t crash_victim_ = 0;
  std::uint64_t incarnation_ = 0;
  bool running_ = true;
  bool paused_ = false;
  double converged_at_ = -1;
  double drain_until_ = 0;
};

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

int run_chaos(const Options& opts) {
  const ChaosParams params = pick_params(opts);
  JsonReport report(opts, "chaos_anti_entropy");
  Fleet fleet(params, opts);

  Timer wall;
  fleet.run();
  fleet.final_sweep();
  const double wall_s = wall.elapsed();

  const bool equal = fleet.byte_exact_equal();
  const std::size_t leaked = fleet.leaked_sessions();
  const auto staleness = fleet.staleness_samples();
  const double p50_exact = percentile(staleness, 0.50);
  const double p99_exact = percentile(staleness, 0.99);

  // Staleness quantiles now come off the registry histogram -- the same
  // snapshot path a live METRICS scrape reads. The retained sample vector
  // is the migration oracle: at the pinned seed both views rank the same
  // samples, so the log-linear estimate must agree with the exact
  // percentile to within one bucket (<= 1/32 relative + 1us unit slop).
  const obs::MetricsSnapshot snap = fleet.metrics();
  const auto* stale_series = snap.find_series("chaos_staleness_us");
  if (stale_series == nullptr) {
    std::fprintf(stderr, "chaos: staleness histogram missing from snapshot\n");
    return 1;
  }
  const obs::HistogramSnapshot& stale = stale_series->hist;
  const double p50 = stale.quantile(0.50) / 1e6;
  const double p99 = stale.quantile(0.99) / 1e6;
  if (stale.bucket_total() != staleness.size()) {
    std::fprintf(stderr, "chaos: histogram count %llu != %zu samples\n",
                 static_cast<unsigned long long>(stale.bucket_total()),
                 staleness.size());
    return 1;
  }
  const auto quantiles_agree = [](double est, double exact) {
    const double slop =
        exact / static_cast<double>(obs::HistogramLayout::kSub) + 2e-6;
    return est >= exact - slop && est <= exact + slop;
  };
  if (!quantiles_agree(p50, p50_exact) || !quantiles_agree(p99, p99_exact)) {
    std::fprintf(stderr,
                 "chaos: histogram quantiles diverge from exact percentiles "
                 "(p50 %.6f vs %.6f, p99 %.6f vs %.6f)\n",
                 p50, p50_exact, p99, p99_exact);
    return 1;
  }
  const std::uint64_t applied = fleet.items_applied();
  const double bytes_per_item =
      applied == 0 ? 0
                   : static_cast<double>(fleet.link_bytes()) /
                         static_cast<double>(applied);

  std::uint64_t aborted = 0;
  std::uint64_t retries = 0;
  std::uint64_t converged_rounds = 0;
  // The replicas' engines share the fleet registry, so its reap and evict
  // counters are fleet totals.
  const auto fleet_counter = [&snap](const char* name) {
    const auto* series = snap.find_series(name);
    return series == nullptr ? std::uint64_t{0} : series->counter;
  };
  const std::uint64_t reaped = fleet_counter("riblt_sessions_reaped_total");
  const std::uint64_t evicted = fleet_counter("riblt_sessions_evicted_total");
  std::printf("# chaos anti-entropy: %zu replicas, %zu blocks, churn end "
              "%.1fs (sim)\n",
              fleet.replica_count(), params.blocks, fleet.churn_end());
  std::printf("# replica  items  rounds_ok  aborted  retries\n");
  for (std::size_t i = 0; i < fleet.replica_count(); ++i) {
    const auto s = fleet.stats_of(i);
    std::printf("%9zu %6zu %10llu %8llu %8llu\n", i + 1,
                fleet.item_count_of(i),
                static_cast<unsigned long long>(s.rounds_converged),
                static_cast<unsigned long long>(s.rounds_aborted),
                static_cast<unsigned long long>(s.retries));
    aborted += s.rounds_aborted;
    retries += s.retries;
    converged_rounds += s.rounds_converged;
  }
  std::printf("# staleness p50 %.3fs p99 %.3fs (%zu samples)\n", p50, p99,
              staleness.size());
  std::printf("# bytes/item %.1f  applied %llu  converge %.2fs  wall %.2fs\n",
              bytes_per_item, static_cast<unsigned long long>(applied),
              fleet.converge_latency(), wall_s);
  std::printf("# converged=%s byte_exact=%s leaked_sessions=%zu\n",
              fleet.converged_flag() ? "yes" : "NO", equal ? "yes" : "NO",
              leaked);

  report.row()
      .str("scenario", "chaos")
      .num("replicas", static_cast<std::uint64_t>(fleet.replica_count()))
      .num("blocks", static_cast<std::uint64_t>(params.blocks))
      .num("staleness_p50_s", p50)
      .num("staleness_p99_s", p99)
      .num("bytes_per_item", bytes_per_item)
      .num("converge_s", fleet.converge_latency())
      .num("sessions_aborted", aborted)
      .num("sessions_reaped", reaped + evicted)
      .num("rounds_converged", converged_rounds)
      .num("wall_s", wall_s);

  if (!fleet.converged_flag() || !equal) {
    std::fprintf(stderr,
                 "chaos: FLEET DID NOT CONVERGE (converged=%d exact=%d)\n",
                 fleet.converged_flag() ? 1 : 0, equal ? 1 : 0);
    return 1;
  }
  if (leaked != 0) {
    std::fprintf(stderr, "chaos: %zu LEAKED SESSIONS after quiesce\n",
                 leaked);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace ribltx::bench

int main(int argc, char** argv) {
  const auto opts = ribltx::bench::Options::parse(argc, argv);
  return ribltx::bench::run_chaos(opts);
}
