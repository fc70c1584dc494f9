// Spans for the traced pass, recorded by the benchmark around its own calls
// into each layer's public functions (nothing inside the library is
// instrumented). One recorder per client thread: no locks, no atomics.
// Totals cover every span; the spans themselves are kept only for the first
// few sessions per thread so the chrome-trace file stays small.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace ribltbench {

/// Span names. Every one but kSession is a child of a session span, and the
/// children run one after another on the session's thread.
enum class Layer : std::uint8_t {
  kSession,
  kHash,      ///< ShardedClient::add_item over the local set
  kHello,     ///< ShardedClient::hellos (the adaptive probe build)
  kSend,      ///< SocketClient::send_frame
  kRecvWait,  ///< SocketClient::recv_frame
  kSeed,      ///< ShardedClient::handle_frame(HELLO_ACK): decoder seeding
  kAbsorb,    ///< ShardedClient::handle_frame(SYMBOLS/ERROR)
  kCount,
};

inline constexpr std::array<const char*, static_cast<std::size_t>(Layer::kCount)>
    kLayerNames = {"session",       "common.hash",      "sync.client_hello",
                   "net.send",      "net.recv_wait",    "core.client_seed",
                   "core.client_absorb"};

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    Layer layer = Layer::kSession;
    std::uint64_t session_id = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t parent = kNoParent;  ///< index of the session span
  };
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  explicit SpanRecorder(std::size_t keep_sessions)
      : keep_sessions_(keep_sessions) {}

  void begin_session(std::uint64_t session_id) {
    session_id_ = session_id;
    keeping_ = sessions_ < keep_sessions_;
    ++sessions_;
    if (keeping_) {
      session_slot_ = spans_.size();
      spans_.push_back(Span{Layer::kSession, session_id, 0, 0, kNoParent});
    }
  }

  void end_session(std::int64_t start_ns, std::int64_t end_ns) {
    add(Layer::kSession, start_ns, end_ns);
    if (keeping_) {
      spans_[session_slot_].start_ns = start_ns;
      spans_[session_slot_].end_ns = end_ns;
    }
  }

  void record(Layer layer, std::int64_t start_ns, std::int64_t end_ns) {
    add(layer, start_ns, end_ns);
    if (keeping_) {
      spans_.push_back(Span{layer, session_id_, start_ns, end_ns,
                            session_slot_});
    }
  }

  /// Summed duration of every span of `layer`, in microseconds.
  [[nodiscard]] double total_us(Layer layer) const {
    return static_cast<double>(total_ns_[static_cast<std::size_t>(layer)]) /
           1e3;
  }

  /// Summed duration of every child span, in microseconds.
  [[nodiscard]] double children_us() const {
    double us = 0;
    for (std::size_t l = 1; l < total_ns_.size(); ++l) {
      us += static_cast<double>(total_ns_[l]) / 1e3;
    }
    return us;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

 private:
  void add(Layer layer, std::int64_t start_ns, std::int64_t end_ns) {
    total_ns_[static_cast<std::size_t>(layer)] += end_ns - start_ns;
  }

  std::size_t keep_sessions_;
  std::size_t sessions_ = 0;
  bool keeping_ = false;
  std::uint64_t session_id_ = 0;
  std::size_t session_slot_ = kNoParent;
  std::array<std::int64_t, static_cast<std::size_t>(Layer::kCount)> total_ns_{};
  std::vector<Span> spans_;
};

/// Times one call into a layer; a null recorder costs no clock read.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder),
        layer_(layer),
        start_ns_(recorder != nullptr ? now_ns() : 0) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->record(layer_, start_ns_, now_ns());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  Layer layer_;
  std::int64_t start_ns_;
};

/// chrome://tracing JSON of every kept span: one "X" event each, one tid per
/// client thread, with the session id and the parent span in args.
inline std::string chrome_trace(
    const std::vector<const SpanRecorder*>& recorders) {
  std::int64_t origin = 0;
  for (const SpanRecorder* r : recorders) {
    for (const auto& s : r->spans()) {
      if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
    }
  }
  JsonWriter j;
  j.begin_object().begin_array("traceEvents");
  for (std::size_t tid = 0; tid < recorders.size(); ++tid) {
    const auto& spans = recorders[tid]->spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const auto& s = spans[i];
      j.begin_object()
          .text("name", kLayerNames[static_cast<std::size_t>(s.layer)])
          .text("ph", "X")
          .number("ts", static_cast<double>(s.start_ns - origin) / 1e3)
          .number("dur", static_cast<double>(s.end_ns - s.start_ns) / 1e3)
          .integer("pid", 1)
          .integer("tid", tid)
          .begin_object("args")
          .integer("session_id", s.session_id)
          .integer("span", i);
      if (s.parent != SpanRecorder::kNoParent) j.integer("parent", s.parent);
      j.end_object().end_object();
    }
  }
  j.end_array().end_object();
  return j.str();
}

}  // namespace ribltbench
