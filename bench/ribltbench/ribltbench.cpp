// ribltbench: rateless reconciliation over loopback TCP, end to end and
// layer by layer.
//
// The server is a 2-shard ShardedEngine behind net::AnyServer with a
// MetricsRegistry attached (as on a scraped node) and no Tracer. Two client
// threads each hold one connection and run ShardedClient sessions back to
// back (closed loop: an anti-entropy peer waits for its session before the
// next); in session s the peer lacks a seeded d-item slice of the server
// set, and every recovered diff is checked against that ground truth.
//
// Default mode measures the end-to-end metrics with no spans. --trace=DIR
// runs the traced pass instead: untraced and traced phases alternate (so
// the tracing overhead is measured, not assumed), spans around the calls
// into each layer give the per-layer split, and a socket-free "mem pass"
// drives the same sessions through ShardedEngine's synchronous path to
// price the engine alone.
//
//   ribltbench [--workload=small|bulk|churn|unpaced|all] [--seed=N]
//              [--seconds=S] [--out=FILE.json] [--trace=DIR] [--smoke]
//
// Exits 1 when any session's diff is wrong, 2 on a bad flag.
#include <malloc.h>
#include <sys/utsname.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/socket_client.hpp"
#include "net/socket_server.hpp"
#include "net/uring.hpp"
#include "net/uring_server.hpp"
#include "obs/metrics.hpp"
#include "report.hpp"
#include "spans.hpp"
#include "workload.hpp"

namespace ribltbench {
namespace {

using namespace ribltx;
using Server = net::AnyServer<U64Symbol>;
using Clock = std::chrono::steady_clock;
namespace v2 = sync::v2;

constexpr std::int64_t kSessionTimeoutNs = 20'000'000'000;
constexpr std::size_t kKeptSessionsPerThread = 16;  ///< spans in the file
constexpr std::size_t kBackendSlots = 5;            ///< BackendId is 1..4
constexpr double kWindowS = 1.0;  ///< about; whole windows fill each phase
/// Peers leave SO_RCVBUF to the kernel. With SocketClient's 64 KiB default,
/// unpaced loopback streams stall on ~200 ms TCP persist-timer probes (and
/// now and then for seconds), so unpaced runs measured the stall count, not
/// the serving path.
constexpr int kPeerRecvBuffer = 0;

struct Config {
  std::uint64_t seed = 7;
  double seconds = 25;
  bool smoke = false;
  std::string out_path;
  std::string trace_dir;
  std::size_t setups = 5;  ///< server sets per run, each measured in turn
  std::size_t warmup_sessions = 16;  ///< per connection
  std::size_t mem_sessions = 500;
  double calib_s = 0.5;
};

/// One completed session.
struct Sample {
  std::int64_t done_ns = 0;
  double latency_us = 0;
  double cpu_s = 0;  ///< client thread CPU from construction to terminal
};

/// What one connection saw over one phase.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< failed or timed out
  std::uint64_t wrong = 0;   ///< completed with a wrong diff
  std::vector<Sample> samples;
  double thread_cpu_s = 0;  ///< client thread CPU over the whole phase
  std::uint64_t bytes_up = 0;
  std::uint64_t bytes_down = 0;
  std::uint64_t frames_up = 0;
  std::uint64_t frames_down = 0;
  std::uint64_t stale_frames = 0;  ///< for sessions already terminal
  std::uint64_t stale_bytes = 0;
  std::uint64_t diff_items = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t credits = 0;
  std::array<std::uint64_t, kBackendSlots> backends{};  ///< granted, per sub

  void merge(const Tally& o) {
    attempted += o.attempted;
    completed += o.completed;
    failed += o.failed;
    wrong += o.wrong;
    samples.insert(samples.end(), o.samples.begin(), o.samples.end());
    thread_cpu_s += o.thread_cpu_s;
    bytes_up += o.bytes_up;
    bytes_down += o.bytes_down;
    frames_up += o.frames_up;
    frames_down += o.frames_down;
    stale_frames += o.stale_frames;
    stale_bytes += o.stale_bytes;
    diff_items += o.diff_items;
    payload_bytes += o.payload_bytes;
    rounds += o.rounds;
    credits += o.credits;
    for (std::size_t b = 0; b < kBackendSlots; ++b) backends[b] += o.backends[b];
  }
};

/// The system under test plus its peers' connections.
struct Node {
  obs::MetricsRegistry registry;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<Server> server;
  std::vector<std::unique_ptr<net::SocketClient>> socks;
  std::vector<PlanStream> plans;  ///< one seeded session stream per conn
  std::unique_ptr<Writer> writer;
  std::atomic<std::uint64_t> next_base{1};
  bool thread_error = false;
};

/// Bytes a frame occupies on the stream: uvarint length prefix + frame.
[[nodiscard]] std::uint64_t wire_size(std::size_t frame_bytes) {
  return uvarint_size(frame_bytes) + frame_bytes;
}

[[nodiscard]] bool is_type(const std::vector<std::byte>& frame,
                           v2::FrameType type) {
  return !frame.empty() &&
         static_cast<std::uint8_t>(frame[0]) == static_cast<std::uint8_t>(type);
}

[[nodiscard]] bool sub_terminal(const Client& client, std::uint64_t sid) {
  const auto& sub = client.sub(static_cast<std::size_t>((sid - 1) % kShards));
  return sub.complete() || sub.failed();
}

void send(net::SocketClient& sock, std::vector<std::byte> frame,
          SpanRecorder* rec, Tally& t) {
  ++t.frames_up;
  t.bytes_up += wire_size(frame.size());
  const ScopedSpan span(rec, Layer::kSend);
  sock.send_frame(std::move(frame));
}

void reconnect(Node& node, std::size_t conn) {
  try {
    node.socks[conn] = std::make_unique<net::SocketClient>(
        node.server->port(), net::FrameConduit::kDefaultMaxFrame,
        kPeerRecvBuffer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ribltbench: reconnect failed: %s\n", e.what());
  }
}

/// Books a finished client's outcome into the tally.
void settle(const Client& client, const Inputs& in, const SessionPlan& plan,
            const Sample& sample, Tally& t) {
  if (!client.complete()) {
    ++t.failed;
    return;
  }
  ++t.completed;
  t.samples.push_back(sample);
  const auto diff = client.diff();
  if (!diff_is_correct(in, plan, diff)) ++t.wrong;
  t.diff_items += diff.remote.size() + diff.local.size();
  t.payload_bytes += client.payload_bytes();
  for (std::size_t s = 0; s < kShards; ++s) {
    const auto& sub = client.sub(s);
    t.rounds += sub.rounds();
    t.credits += sub.credits();
    ++t.backends[static_cast<std::size_t>(sub.backend()) % kBackendSlots];
  }
}

/// One session over connection `conn`: the loop of net::run_session, with
/// every frame counted (stale ones included) and each layer call spanned.
void socket_session(Node& node, std::size_t conn, const Workload& w,
                    const Inputs& in, const SessionPlan& plan,
                    SpanRecorder* rec, Tally& t) {
  const std::uint64_t base =
      node.next_base.fetch_add(1, std::memory_order_relaxed);
  ++t.attempted;
  const double cpu0 = thread_cpu_s();
  const std::int64_t t0 = now_ns();
  if (rec != nullptr) rec->begin_session(base);

  Client client(base, kShards, sync::BackendId::kRiblt);
  if (w.adaptive) client.set_adaptive(conn + 1);
  {
    const ScopedSpan span(rec, Layer::kHash);
    for_each_kept(in, plan, [&](const U64Symbol& x) { client.add_item(x); });
  }
  net::SocketClient& sock = *node.socks[conn];
  bool broken = false;
  try {
    std::vector<std::vector<std::byte>> hellos;
    {
      const ScopedSpan span(rec, Layer::kHello);
      hellos = client.hellos();
    }
    for (auto& h : hellos) send(sock, std::move(h), rec, t);
    const std::int64_t deadline = t0 + kSessionTimeoutNs;
    while (!client.terminal()) {
      const double left_s = static_cast<double>(deadline - now_ns()) / 1e9;
      if (left_s <= 0) break;
      std::optional<std::vector<std::byte>> frame;
      {
        const ScopedSpan span(rec, Layer::kRecvWait);
        frame = sock.recv_frame(left_s);
      }
      if (!frame) break;
      const std::uint64_t bytes = wire_size(frame->size());
      ++t.frames_down;
      t.bytes_down += bytes;
      const std::uint64_t sid = v2::peek_session_id(*frame);
      if (!client.owns(sid) || sub_terminal(client, sid)) {
        ++t.stale_frames;
        t.stale_bytes += bytes;
        continue;
      }
      std::vector<std::vector<std::byte>> replies;
      {
        const ScopedSpan span(rec, is_type(*frame, v2::FrameType::kHelloAck)
                                       ? Layer::kSeed
                                       : Layer::kAbsorb);
        replies = client.handle_frame(*frame);
      }
      for (auto& r : replies) send(sock, std::move(r), rec, t);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ribltbench: session %llu: %s\n",
                 static_cast<unsigned long long>(base), e.what());
    broken = true;
  }
  const std::int64_t t1 = now_ns();
  const Sample sample{t1, static_cast<double>(t1 - t0) / 1e3,
                      thread_cpu_s() - cpu0};
  if (rec != nullptr) rec->end_session(t0, t1);
  settle(client, in, plan, sample, t);
  if (client.complete()) return;
  if (!broken) {
    // Timed out: abort the live sub-sessions so the server retires them.
    try {
      for (std::size_t s = 0; s < kShards; ++s) {
        const auto& sub = client.sub(s);
        if (sub.complete() || sub.failed()) continue;
        send(sock,
             v2::make_error_frame(client.sub_session_id(s),
                                  "ribltbench: session timed out"),
             nullptr, t);
      }
    } catch (const std::exception&) {
      broken = true;
    }
  }
  if (broken) reconnect(node, conn);
}

/// One kWindowS slice of a measured phase. A completed session counts in
/// each window it overlaps by the share of its duration spent there, so
/// per-window rates are not rounded to whole sessions.
struct Window {
  double sessions = 0;
  double client_cpu_s = 0;  ///< the same shares of Sample::cpu_s
  double server_cpu_s = 0;
};

/// One measured phase: every connection runs sessions until `seconds` have
/// passed or it has run `max_sessions`.
struct Phase {
  Tally tally;
  double wall_s = 0;
  double server_cpu_s = 0;  ///< process CPU minus client/writer/main threads
  std::vector<Window> windows;  ///< equal windows covering `seconds`
  double window_s = 0;
  net::SocketServerStats stats_before{};
  net::SocketServerStats stats_after{};

  [[nodiscard]] double sessions_per_s() const {
    return static_cast<double>(tally.completed) / wall_s;
  }
};

Phase run_phase(Node& node, const Workload& w, const Inputs& in,
                double seconds, std::size_t max_sessions,
                std::vector<SpanRecorder>* recorders) {
  Phase ph;
  ph.stats_before = node.server->stats();
  const std::size_t windows =
      std::isinf(seconds)
          ? 0
          : std::max<std::size_t>(1, static_cast<std::size_t>(seconds / kWindowS));
  ph.window_s = windows == 0 ? 0 : seconds / static_cast<double>(windows);
  std::vector<clockid_t> clocks;
  const auto writer_cpu = [&] {
    return node.writer ? node.writer->cpu_s() : 0.0;
  };
  // Server CPU is what the process burned minus every other thread.
  const auto others_cpu = [&] {
    double s = thread_cpu_s() + writer_cpu();
    for (const clockid_t id : clocks) s += seconds_on(id);
    return s;
  };
  const double writer0 = writer_cpu();
  const double proc0 = process_cpu_s();
  const double main0 = thread_cpu_s();
  const auto t0 = Clock::now();
  const std::int64_t t0_ns = now_ns();
  const auto deadline =
      std::isinf(seconds)
          ? Clock::time_point::max()
          : t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(seconds));
  std::array<Tally, kClients> tallies;
  std::array<bool, kClients> errors{};
  // Client threads outlive the last window sample, so their CPU clocks
  // stay readable until then.
  std::atomic<bool> sampled{false};
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const double cpu0 = thread_cpu_s();
        try {
          SpanRecorder* rec =
              recorders != nullptr ? &(*recorders)[c] : nullptr;
          for (std::size_t k = 0; k < max_sessions && Clock::now() < deadline;
               ++k) {
            socket_session(node, c, w, in, node.plans[c].next(), rec,
                           tallies[c]);
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "ribltbench: client thread: %s\n", e.what());
          errors[c] = true;
        }
        tallies[c].thread_cpu_s = thread_cpu_s() - cpu0;
        sampled.wait(false);
      });
      clocks.push_back(cpu_clock_of(threads.back().native_handle()));
    }
    double proc_prev = proc0;
    double others_prev = others_cpu();
    for (std::size_t k = 1; k <= windows; ++k) {
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(ph.window_s * k)));
      const double proc = process_cpu_s();
      const double others = others_cpu();
      Window win;
      win.server_cpu_s = (proc - proc_prev) - (others - others_prev);
      ph.windows.push_back(win);
      proc_prev = proc;
      others_prev = others;
    }
    sampled = true;
    sampled.notify_all();
  }
  ph.wall_s = seconds_since(t0);
  const double proc = process_cpu_s() - proc0;
  const double main_cpu = thread_cpu_s() - main0;
  ph.stats_after = node.server->stats();
  for (std::size_t c = 0; c < kClients; ++c) {
    ph.tally.merge(tallies[c]);
    node.thread_error = node.thread_error || errors[c];
  }
  ph.server_cpu_s =
      proc - main_cpu - (writer_cpu() - writer0) - ph.tally.thread_cpu_s;
  const double window_ns = ph.window_s * 1e9;
  for (const Sample& s : ph.tally.samples) {
    const double end = static_cast<double>(s.done_ns - t0_ns);
    const double begin = end - s.latency_us * 1e3;
    const auto last = static_cast<std::size_t>(end / window_ns);
    for (auto k = static_cast<std::size_t>(std::max(0.0, begin) / window_ns);
         k <= last && k < ph.windows.size(); ++k) {
      const double lo = std::max(begin, window_ns * static_cast<double>(k));
      const double hi = std::min(end, window_ns * static_cast<double>(k + 1));
      const double share = end > begin ? (hi - lo) / (end - begin) : 1.0;
      ph.windows[k].sessions += share;
      ph.windows[k].client_cpu_s += share * s.cpu_s;
    }
  }
  return ph;
}

/// Builds the server set, starts the server, connects both peers, starts
/// the writer, and runs the warm-up sessions (which also let the
/// SequenceCache materialize). Returns the node and its set-up time.
std::unique_ptr<Node> set_up(const Workload& w, const Inputs& in,
                             const Config& cfg, double& setup_s,
                             Tally& warmup) {
  const auto t0 = Clock::now();
  auto node = std::make_unique<Node>();
  sync::EngineOptions options;
  options.metrics = &node->registry;
  node->engine = std::make_unique<Engine>(kShards, SipHasher<U64Symbol>{},
                                          options);
  for (const auto& x : in.items) node->engine->add_item(x);
  net::SocketServerOptions server_options;
  server_options.metrics = &node->registry;
  node->server = std::make_unique<Server>(*node->engine, server_options,
                                          w.allow_uring);
  node->server->start();
  for (std::size_t c = 0; c < kClients; ++c) {
    node->socks.push_back(std::make_unique<net::SocketClient>(
        node->server->port(), net::FrameConduit::kDefaultMaxFrame,
        kPeerRecvBuffer));
    node->plans.emplace_back(w, in.seed, c);
  }
  if (w.writer_ops_per_s > 0) {
    node->writer =
        std::make_unique<Writer>(*node->engine, in.pool, w.writer_ops_per_s);
  }
  const Phase ph =
      run_phase(*node, w, in, std::numeric_limits<double>::infinity(),
                cfg.warmup_sessions, nullptr);
  warmup.merge(ph.tally);
  setup_s = seconds_since(t0);
  return node;
}

/// Mean engine cost per session with no socket: the same seeded sessions
/// driven through ShardedEngine's synchronous handle_frame / next_frame /
/// close_session path.
struct MemPass {
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t frames = 0;
  double open_us = 0;    ///< handle_frame(HELLO)
  double handle_us = 0;  ///< handle_frame(ROUND/DONE/credit) + close_session
  double emit_us = 0;    ///< next_frame
  /// What timing an empty call reads: a thread CPU clock read is a syscall
  /// (~0.35 us here), as long as a small engine call.
  double clock_us = 0;

  [[nodiscard]] double per_session(double total) const {
    return sessions == 0 ? 0 : total / static_cast<double>(sessions);
  }

  /// Adds `fn`'s thread CPU time to `bucket` and returns its result. CPU,
  /// like the socket runs' server CPU that net.server_cpu_us offsets.
  template <typename Fn>
  auto timed(double& bucket, Fn&& fn) {
    const double a = thread_cpu_s();
    auto out = fn();
    bucket += (thread_cpu_s() - a) * 1e6 - clock_us;
    return out;
  }
};

void mem_session(Engine& engine, const Workload& w, const Inputs& in,
                 const SessionPlan& plan, std::uint64_t base, MemPass& m) {
  Client client(base, kShards, sync::BackendId::kRiblt);
  if (w.adaptive) client.set_adaptive(1);
  for_each_kept(in, plan, [&](const U64Symbol& x) { client.add_item(x); });
  ++m.sessions;
  try {
    std::deque<std::vector<std::byte>> to_server;
    for (auto& h : client.hellos()) to_server.push_back(std::move(h));
    const auto pump = [&] {
      while (!to_server.empty()) {
        const std::vector<std::byte> f = std::move(to_server.front());
        to_server.pop_front();
        const bool hello = is_type(f, v2::FrameType::kHello);
        const auto replies = m.timed(hello ? m.open_us : m.handle_us,
                                   [&] { return engine.handle_frame(f); });
        for (const auto& r : replies) {
          for (auto& back : client.handle_frame(r)) {
            to_server.push_back(std::move(back));
          }
        }
      }
    };
    pump();
    while (!client.terminal()) {
      bool progressed = false;
      for (std::size_t s = 0; s < kShards; ++s) {
        const auto& sub = client.sub(s);
        if (sub.complete() || sub.failed()) continue;
        auto frame = m.timed(m.emit_us, [&] {
          return engine.next_frame(client.sub_session_id(s));
        });
        if (!frame) continue;
        progressed = true;
        ++m.frames;
        for (auto& back : client.handle_frame(*frame)) {
          to_server.push_back(std::move(back));
        }
        pump();
      }
      if (!progressed) break;  // stalled: counts as failed below
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ribltbench: mem session %llu: %s\n",
                 static_cast<unsigned long long>(base), e.what());
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    (void)m.timed(m.handle_us, [&] {
      return engine.close_session(client.sub_session_id(s));
    });
  }
  if (!client.complete()) {
    ++m.failed;
  } else if (!diff_is_correct(in, plan, client.diff())) {
    ++m.wrong;
  }
}

/// Warms a fresh engine up as set_up() does, then times up to
/// cfg.mem_sessions sessions within `time_cap_s`.
MemPass mem_pass(const Workload& w, const Inputs& in, const Config& cfg,
                 double time_cap_s) {
  obs::MetricsRegistry registry;
  sync::EngineOptions options;
  options.metrics = &registry;
  Engine engine(kShards, SipHasher<U64Symbol>{}, options);
  for (const auto& x : in.items) engine.add_item(x);
  std::unique_ptr<Writer> writer;
  if (w.writer_ops_per_s > 0) {
    writer = std::make_unique<Writer>(engine, in.pool, w.writer_ops_per_s);
  }
  PlanStream plans(w, in.seed, 0);
  std::uint64_t base = 1;
  MemPass warmup;
  for (std::size_t k = 0; k < kClients * cfg.warmup_sessions; ++k) {
    mem_session(engine, w, in, plans.next(), base++, warmup);
  }
  MemPass m;
  std::vector<double> empty;
  for (int i = 0; i < 1000; ++i) {
    const double a = thread_cpu_s();
    empty.push_back((thread_cpu_s() - a) * 1e6);
  }
  m.clock_us = median(std::move(empty));
  const auto t0 = Clock::now();
  while (m.sessions < cfg.mem_sessions && seconds_since(t0) < time_cap_s) {
    mem_session(engine, w, in, plans.next(), base++, m);
  }
  m.failed += warmup.failed;
  m.wrong += warmup.wrong;
  return m;
}

/// Fixed SipHash loop timed before each workload: a run that straddles a
/// machine-speed shift shows it here.
double calibrate_ns_per_hash(double seconds) {
  const SipHasher<U64Symbol> hasher;
  std::uint64_t x = 0;
  std::uint64_t hashes = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 4096; ++i) x = hasher(U64Symbol::from_u64(x + 1));
    hashes += 4096;
    elapsed = seconds_since(t0);
  } while (elapsed < seconds);
  if (x == 0) std::fprintf(stderr, " ");  // keeps the chain observable
  return elapsed * 1e9 / static_cast<double>(hashes);
}

struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

struct Result {
  const Workload* workload = nullptr;
  std::string server_backend;
  double calib_ns_per_hash = 0;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;  ///< the contract metrics of this mode
  std::vector<Metric> info;     ///< sample counts and context
};

[[nodiscard]] double ratio(double num, double den) {
  return den == 0 ? 0 : num / den;
}

[[nodiscard]] const char* backend_name(const Server& server) {
  return server.backend() == net::ServerBackend::kUring ? "uring" : "epoll";
}

Result run_e2e(const Workload& w, const Config& cfg) {
  Result r;
  r.workload = &w;
  r.calib_ns_per_hash = calibrate_ns_per_hash(cfg.calib_s);
  // Each set-up builds its own seeded server set and is measured for an
  // equal share of the run, so set-dependent behaviour (such as how often
  // the adaptive probe misjudges d) averages over sets instead of deciding
  // a whole run. Rates and CPU shares are medians over all windows, so a
  // transient stall moves a few windows instead of the result.
  Tally warmup;
  Tally t;
  std::vector<double> setups;
  std::vector<double> rate;
  std::vector<double> client_us;
  std::vector<double> server_us;
  std::vector<float> ingest_us;
  double wall_s = 0;
  double writer_lag_ms = 0;
  std::uint64_t writer_rejected = 0;
  bool thread_error = false;
  for (std::size_t i = 0; i < cfg.setups; ++i) {
    const Inputs in = Inputs::make(w, derive_seed(cfg.seed, i));
    double s = 0;
    auto node = set_up(w, in, cfg, s, warmup);
    setups.push_back(s);
    r.server_backend = backend_name(*node->server);
    if (node->writer) node->writer->set_recording(true);
    const Phase ph =
        run_phase(*node, w, in, cfg.seconds / static_cast<double>(cfg.setups),
                  std::numeric_limits<std::size_t>::max(), nullptr);
    if (node->writer) {
      const auto lat = node->writer->take_latencies_us();
      ingest_us.insert(ingest_us.end(), lat.begin(), lat.end());
      writer_lag_ms = std::max(writer_lag_ms, node->writer->max_lag_ms());
      writer_rejected += node->writer->rejected();
    }
    thread_error = thread_error || node->thread_error;
    node.reset();
    // Hand the torn-down set's free pages back, so that the next set's peak
    // RSS does not stack on memory the allocator kept.
    malloc_trim(0);
    t.merge(ph.tally);
    wall_s += ph.wall_s;
    for (const Window& win : ph.windows) {
      rate.push_back(win.sessions / ph.window_s);
      if (win.sessions == 0) continue;
      client_us.push_back(win.client_cpu_s * 1e6 / win.sessions);
      server_us.push_back(win.server_cpu_s * 1e6 / win.sessions);
    }
  }

  const double done = static_cast<double>(t.completed);
  std::vector<double> latency_us;
  for (const Sample& smp : t.samples) latency_us.push_back(smp.latency_us);
  r.attempted = t.attempted + warmup.attempted;
  r.failed = t.failed + warmup.failed;
  r.correct = t.wrong == 0 && warmup.wrong == 0 && writer_rejected == 0 &&
              !thread_error && t.completed > 0;
  r.metrics = {
      {"sessions_per_s", median(rate), "1/s"},
      {"latency_p50_ms", quantile(latency_us, 0.50) / 1e3, "ms"},
      {"latency_p99_ms", quantile(latency_us, 0.99) / 1e3, "ms"},
      {"wire_bytes_per_diff",
       ratio(static_cast<double>(t.bytes_up + t.bytes_down),
             static_cast<double>(t.diff_items)),
       "B"},
      {"client_cpu_us_per_session", median(client_us), "us"},
      {"server_cpu_us_per_session", median(server_us), "us"},
      {"setup_s", median(setups), "s"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
  r.info = {
      {"latency_samples", done, "count"},
      {"failed_ratio",
       ratio(static_cast<double>(r.failed), static_cast<double>(r.attempted)),
       "ratio"},
      {"measured_wall_s", wall_s, "s"},
  };
  if (w.writer_ops_per_s > 0) {
    r.info.push_back({"ingest_p99_us", quantile(ingest_us, 0.99), "us"});
    r.info.push_back({"ingest_p50_us", quantile(ingest_us, 0.50), "us"});
    r.info.push_back(
        {"ingest_ops", static_cast<double>(ingest_us.size()), "count"});
    r.info.push_back({"writer_max_lag_ms", writer_lag_ms, "ms"});
  }
  return r;
}

Result run_traced(const Workload& w, const Config& cfg) {
  Result r;
  r.workload = &w;
  r.calib_ns_per_hash = calibrate_ns_per_hash(cfg.calib_s);
  const Inputs in = Inputs::make(w, derive_seed(cfg.seed, 0));
  Tally warmup;
  double setup_s = 0;
  auto node = set_up(w, in, cfg, setup_s, warmup);
  r.server_backend = backend_name(*node->server);

  // Untraced and traced phases alternate so drift hits both alike; they
  // take 3/4 of the run and the mem pass at most the last 1/4.
  std::vector<SpanRecorder> recorders(kClients,
                                      SpanRecorder(kKeptSessionsPerThread));
  Tally plain;
  Tally traced;
  double plain_wall = 0;
  double traced_wall = 0;
  double plain_server_cpu = 0;
  std::uint64_t syscalls = 0;
  std::uint64_t wakeups = 0;
  std::vector<float> ingest_us;
  const double phase_s = cfg.seconds * 3 / 16;
  for (int i = 0; i < 4; ++i) {
    const bool trace = i % 2 == 1;
    if (node->writer) node->writer->set_recording(trace);
    const Phase ph =
        run_phase(*node, w, in, phase_s,
                  std::numeric_limits<std::size_t>::max(),
                  trace ? &recorders : nullptr);
    syscalls += ph.stats_after.syscalls() - ph.stats_before.syscalls();
    wakeups += ph.stats_after.wakeups - ph.stats_before.wakeups;
    if (trace) {
      traced.merge(ph.tally);
      traced_wall += ph.wall_s;
    } else {
      plain.merge(ph.tally);
      plain_wall += ph.wall_s;
      plain_server_cpu += ph.server_cpu_s;
    }
  }
  std::uint64_t writer_rejected = 0;
  if (node->writer) {
    ingest_us = node->writer->take_latencies_us();
    writer_rejected = node->writer->rejected();
  }
  const bool thread_error = node->thread_error;
  node.reset();
  const MemPass mem = mem_pass(w, in, cfg, cfg.seconds / 4);

  const double traced_n = static_cast<double>(traced.attempted);
  const double traced_done = static_cast<double>(traced.completed);
  const double all_done = static_cast<double>(plain.completed + traced.completed);
  const auto span_mean = [&](Layer layer) {
    double us = 0;
    for (const auto& rec : recorders) us += rec.total_us(layer);
    return ratio(us, traced_n);
  };
  double session_us = 0;
  double children_us = 0;
  for (const auto& rec : recorders) {
    session_us += rec.total_us(Layer::kSession);
    children_us += rec.children_us();
  }
  std::uint64_t granted = 0;
  for (const std::uint64_t b : traced.backends) granted += b;
  const auto share = [&](sync::BackendId b) {
    return ratio(static_cast<double>(traced.backends[static_cast<std::size_t>(b)]),
                 static_cast<double>(granted));
  };
  const double mem_engine_us =
      mem.per_session(mem.open_us + mem.handle_us + mem.emit_us);
  const double plain_sps = ratio(static_cast<double>(plain.completed), plain_wall);
  const double traced_sps = ratio(traced_done, traced_wall);

  r.attempted = plain.attempted + traced.attempted + warmup.attempted +
                mem.sessions;
  r.failed = plain.failed + traced.failed + warmup.failed + mem.failed;
  r.correct = plain.wrong == 0 && traced.wrong == 0 && warmup.wrong == 0 &&
              mem.wrong == 0 && writer_rejected == 0 && !thread_error &&
              traced.completed > 0 && plain.completed > 0;
  r.metrics = {
      {"common.hash_us", span_mean(Layer::kHash), "us"},
      {"sync.client_hello_us", span_mean(Layer::kHello), "us"},
      {"sync.engine_open_us", mem.per_session(mem.open_us), "us"},
      {"sync.engine_handle_us", mem.per_session(mem.handle_us), "us"},
      {"sync.backend_share.riblt", share(sync::BackendId::kRiblt), "ratio"},
      {"sync.backend_share.iblt", share(sync::BackendId::kIbltStrata), "ratio"},
      {"sync.backend_share.cpi", share(sync::BackendId::kCpi), "ratio"},
      {"sync.backend_share.met", share(sync::BackendId::kMetIblt), "ratio"},
      {"sync.rounds", ratio(static_cast<double>(traced.rounds), traced_done),
       "count"},
      {"sync.credits", ratio(static_cast<double>(traced.credits), traced_done),
       "count"},
      {"core.client_seed_us", span_mean(Layer::kSeed), "us"},
      {"core.client_absorb_us", span_mean(Layer::kAbsorb), "us"},
      {"core.engine_emit_us", mem.per_session(mem.emit_us), "us"},
      {"core.frames", mem.per_session(static_cast<double>(mem.frames)),
       "count"},
      {"core.payload_bytes_per_diff",
       ratio(static_cast<double>(traced.payload_bytes),
             static_cast<double>(traced.diff_items)),
       "B"},
      {"core.ingest_op_us_p50", quantile(ingest_us, 0.50), "us"},
      {"core.ingest_op_us_p99", quantile(ingest_us, 0.99), "us"},
      {"net.recv_wait_us", span_mean(Layer::kRecvWait), "us"},
      {"net.send_us", span_mean(Layer::kSend), "us"},
      {"net.server_cpu_us",
       ratio(plain_server_cpu * 1e6, static_cast<double>(plain.completed)) -
           mem_engine_us,
       "us"},
      {"net.syscalls", ratio(static_cast<double>(syscalls), all_done),
       "count"},
      {"net.wakeups", ratio(static_cast<double>(wakeups), all_done), "count"},
      {"net.frames_down",
       ratio(static_cast<double>(traced.frames_down), traced_done), "count"},
      {"net.frames_up", ratio(static_cast<double>(traced.frames_up), traced_done),
       "count"},
      {"net.stale_frames",
       ratio(static_cast<double>(traced.stale_frames), traced_done), "count"},
      {"net.stale_bytes",
       ratio(static_cast<double>(traced.stale_bytes), traced_done), "B"},
      {"net.useful_byte_ratio",
       ratio(static_cast<double>(traced.bytes_down - traced.stale_bytes),
             static_cast<double>(traced.bytes_down)),
       "ratio"},
      {"trace.coverage", ratio(children_us, session_us), "ratio"},
      {"trace.overhead_pct", ratio(plain_sps - traced_sps, plain_sps) * 100,
       "%"},
  };
  r.info = {
      {"untraced_sessions_per_s", plain_sps, "1/s"},
      {"traced_sessions_per_s", traced_sps, "1/s"},
      {"traced_sessions", traced_done, "count"},
      {"mem_sessions", static_cast<double>(mem.sessions), "count"},
      {"mem_engine_us", mem_engine_us, "us"},
      {"setup_s", setup_s, "s"},
  };

  std::vector<const SpanRecorder*> recs;
  for (const auto& rec : recorders) recs.push_back(&rec);
  const std::string path =
      cfg.trace_dir + "/" + std::string(w.name) + ".trace.json";
  if (!write_file(path, chrome_trace(recs))) r.correct = false;
  return r;
}

// ------------------------------------------------------------ reporting

[[nodiscard]] std::string run_command(const std::string& cmd) {
  std::string out;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, p) != nullptr) out += buf;
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

/// The commit under test, when the source tree is a git checkout.
[[nodiscard]] std::string source_commit() {
  const std::string root = RIBLTBENCH_REPO_ROOT;
  if (!std::filesystem::exists(root + "/.git")) return "unknown";
  const std::string git = "git -C '" + root + "' ";
  std::string head = run_command(git + "rev-parse HEAD 2>/dev/null");
  if (head.empty()) return "unknown";
  if (!run_command(git + "status --porcelain --untracked-files=no 2>/dev/null")
           .empty()) {
    head += "-dirty";
  }
  return head;
}

void write_fingerprint(JsonWriter& j) {
  utsname u{};
  ::uname(&u);
#if defined(RIBLT_HAS_IO_URING)
  const bool uring = net::uring_available();
#else
  const bool uring = false;
#endif
  j.begin_object("fingerprint")
      .integer("nproc", std::thread::hardware_concurrency())
      .text("kernel", std::string(u.sysname) + " " + u.release + " " + u.machine)
      .text("compiler", std::string("gcc ") + __VERSION__)
#if defined(__OPTIMIZE__)
      .boolean("optimized", true)
#else
      .boolean("optimized", false)
#endif
      .text("commit", source_commit())
      .boolean("io_uring", uring)
      .end_object();
}

std::string result_document(const std::vector<Result>& results,
                            const Config& cfg) {
  JsonWriter j;
  j.begin_object()
      .text("benchmark", "ribltbench")
      .text("mode", cfg.trace_dir.empty() ? "e2e" : "trace")
      .integer("seed", cfg.seed)
      .number("seconds", cfg.seconds)
      .boolean("smoke", cfg.smoke);
  write_fingerprint(j);
  j.begin_array("workloads");
  for (const Result& r : results) {
    j.begin_object()
        .text("name", r.workload->name)
        .text("server_backend", r.server_backend)
        .number("calib_ns_per_hash", r.calib_ns_per_hash)
        .boolean("correct", r.correct)
        .integer("attempted", r.attempted)
        .integer("failed", r.failed);
    j.begin_object("metrics");
    for (const Metric& m : r.metrics) j.metric(m.name.c_str(), m.value, m.unit);
    j.end_object().begin_object("info");
    for (const Metric& m : r.info) j.metric(m.name.c_str(), m.value, m.unit);
    j.end_object().end_object();
  }
  j.end_array().end_object();
  return j.str() + "\n";
}

void print_result(const Result& r, const Config& cfg) {
  std::printf("# ribltbench workload=%s mode=%s seed=%llu seconds=%g "
              "server=%s calib_ns_per_hash=%.3f correct=%s attempted=%llu "
              "failed=%llu\n",
              std::string(r.workload->name).c_str(),
              cfg.trace_dir.empty() ? "e2e" : "trace",
              static_cast<unsigned long long>(cfg.seed), cfg.seconds,
              r.server_backend.c_str(), r.calib_ns_per_hash,
              r.correct ? "yes" : "NO",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const auto* list : {&r.metrics, &r.info}) {
    for (const Metric& m : *list) {
      std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit);
    }
  }
  std::fflush(stdout);
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "ribltbench: %s\nusage: ribltbench "
               "[--workload=small|bulk|churn|unpaced|all] [--seed=N] "
               "[--seconds=S] [--out=FILE] [--trace=DIR] [--smoke]\n",
               msg.c_str());
  std::exit(2);
}

}  // namespace
}  // namespace ribltbench

int main(int argc, char** argv) {
  using namespace ribltbench;
  Config cfg;
  std::string workload = "all";
  std::optional<double> seconds;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto has = [&](const char* flag) {
      return arg.rfind(std::string(flag) + "=", 0) == 0;
    };
    const std::string value = arg.substr(arg.find('=') + 1);
    if (has("--workload")) {
      workload = value;
    } else if (has("--seed")) {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (has("--seconds")) {
      seconds = std::strtod(value.c_str(), nullptr);
      if (!(*seconds > 0)) usage_error("--seconds must be positive");
    } else if (has("--out")) {
      cfg.out_path = value;
    } else if (has("--trace")) {
      cfg.trace_dir = value;
      if (cfg.trace_dir.empty()) usage_error("--trace needs a directory");
    } else if (arg == "--smoke") {
      cfg.smoke = true;
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (cfg.smoke) {
    cfg.seconds = 1;
    cfg.setups = 1;
    cfg.warmup_sessions = 2;
    cfg.mem_sessions = 20;
    cfg.calib_s = 0.05;
  }
  if (seconds) cfg.seconds = *seconds;

  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (workload == "all" || workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) usage_error("unknown workload " + workload);
  if (!cfg.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.trace_dir, ec);
    if (ec) usage_error("cannot create " + cfg.trace_dir);
  }

  std::vector<Result> results;
  bool correct = true;
  for (const Workload* w : selected) {
    results.push_back(cfg.trace_dir.empty() ? run_e2e(*w, cfg)
                                            : run_traced(*w, cfg));
    print_result(results.back(), cfg);
    correct = correct && results.back().correct;
  }
  if (!cfg.out_path.empty() &&
      !write_file(cfg.out_path, result_document(results, cfg))) {
    return 1;
  }
  if (!correct) std::fprintf(stderr, "ribltbench: WRONG RESULT\n");
  return correct ? 0 : 1;
}
