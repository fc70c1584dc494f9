// SocketClient: the peer end of the loopback transport -- a blocking TCP
// connection wrapping a FrameConduit, plus drivers that run a SyncClient or
// ShardedClient session dialogue over it to completion.
//
// The client side is deliberately simple (blocking fd, poll()-enforced
// deadline): all the async machinery lives on the serving side, which is
// where the paper's many-peers scaling question is. One SocketClient may
// run many sessions back to back over one connection (the bench does), and
// a ShardedClient's K sub-sessions multiplex over the single connection
// exactly like they multiplex over the in-memory router.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "net/frame_conduit.hpp"
#include "net/tcp.hpp"
#include "sync/sharded.hpp"

namespace ribltx::net {

class SocketClient {
 public:
  /// Connects to 127.0.0.1:`port` (blocking fd). `recv_buffer` != 0 caps
  /// SO_RCVBUF before connecting; the default 0 keeps the kernel's
  /// autotuned window. A capped window stalls unpaced loopback streams on
  /// TCP persist-timer probes (~200 ms a stall), and it is not what bounds
  /// a stream's runway past the DONE: pacing does for adaptive sessions,
  /// and the server's high watermark plus its SO_SNDBUF do for unpaced
  /// ones.
  explicit SocketClient(std::uint16_t port,
                        std::size_t max_frame = FrameConduit::kDefaultMaxFrame,
                        int recv_buffer = 0);

  /// Queues and fully flushes one frame (blocking).
  void send_frame(std::vector<std::byte> frame);

  /// Next inbound frame, waiting up to `timeout_s`. nullopt on timeout;
  /// throws ProtocolError when the server closes the stream or poisons
  /// framing.
  [[nodiscard]] std::optional<std::vector<std::byte>> recv_frame(
      double timeout_s);

  [[nodiscard]] bool open() const noexcept { return conn_.open(); }
  void close() noexcept { conn_.close(); }

 private:
  TcpConn conn_;
  FrameConduit conduit_;
};

/// Runs one SyncClient session over the socket to a terminal state.
/// Returns true when the session completed (client.complete()); false on
/// failure or deadline. The server must host a ShardedEngine, so an
/// unsharded client should set_shard(0, 1) against a 1-shard server.
/// Frames for other sessions -- the rateless tail of an earlier session on
/// this connection still in flight when its DONE crossed the stream -- are
/// dropped, exactly as the engine drops stale post-DONE client frames.
template <Symbol T, typename Hasher>
bool run_session(SocketClient& sock, sync::SyncClient<T, Hasher>& client,
                 double timeout_s = 30.0) {
  sock.send_frame(client.hello());
  while (!client.complete() && !client.failed()) {
    auto frame = sock.recv_frame(timeout_s);
    if (!frame) return false;  // deadline
    if (sync::v2::peek_session_id(*frame) != client.session_id()) continue;
    for (auto& reply : client.handle_frame(*frame)) {
      sock.send_frame(std::move(reply));
    }
  }
  return client.complete();
}

/// Scrapes one observability verb ("METRICS", "METRICS_JSON", "TRACE")
/// from a server over an open connection: sends the ADMIN frame and
/// reassembles the chunked ADMIN_REPLY stream into the body -- the
/// curl-equivalent of hitting a Prometheus endpoint, usable from a second
/// connection while sessions load the first. `session_id` only correlates
/// request and reply (any nonzero value; no session is created). Frames
/// for other sessions interleaved on this connection are skipped. Throws
/// ProtocolError when the server answers with an in-band ERROR (unknown
/// verb / tap not configured); nullopt on deadline. `timeout_s` bounds
/// the WHOLE scrape (an absolute deadline), so steady interleaved
/// session traffic on the connection cannot stretch it unboundedly.
inline std::optional<std::string> scrape(SocketClient& sock,
                                         std::string_view verb,
                                         std::uint64_t session_id = 1,
                                         double timeout_s = 30.0) {
  sock.send_frame(sync::v2::make_admin_frame(session_id, verb));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  std::string body;
  for (;;) {
    const double remaining =
        std::chrono::duration<double>(deadline -
                                      std::chrono::steady_clock::now())
            .count();
    if (remaining <= 0) return std::nullopt;  // deadline
    auto raw = sock.recv_frame(remaining);
    if (!raw) return std::nullopt;  // deadline
    if (sync::v2::peek_session_id(*raw) != session_id) continue;
    const sync::v2::Frame frame = sync::v2::parse_frame(*raw);
    if (frame.type == sync::v2::FrameType::kError) {
      throw sync::ProtocolError(sync::v2::error_text(frame));
    }
    if (frame.type != sync::v2::FrameType::kAdminReply) continue;
    body.append(sync::v2::error_text(frame));  // payload bytes as text
    if (frame.value != 0) return body;         // final chunk
  }
}

/// Runs a ShardedClient's K sub-sessions (multiplexed over the one
/// connection) to a terminal state. True when every sub-session completed.
/// Stale frames from other sessions on the connection are dropped (see the
/// SyncClient overload).
template <Symbol T, typename Hasher>
bool run_session(SocketClient& sock, sync::ShardedClient<T, Hasher>& client,
                 double timeout_s = 30.0) {
  for (auto& hello : client.hellos()) sock.send_frame(std::move(hello));
  while (!client.terminal()) {
    auto frame = sock.recv_frame(timeout_s);
    if (!frame) return false;  // deadline
    if (!client.owns(sync::v2::peek_session_id(*frame))) continue;
    for (auto& reply : client.handle_frame(*frame)) {
      sock.send_frame(std::move(reply));
    }
  }
  return client.complete();
}

}  // namespace ribltx::net
