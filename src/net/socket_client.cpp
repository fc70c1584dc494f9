#include "net/socket_client.hpp"

#include <poll.h>

#include <chrono>
#include <cmath>

namespace ribltx::net {

namespace {

/// Waits for readability with a millisecond deadline; EINTR retries.
[[nodiscard]] bool wait_readable(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  int rc;
  do {
    rc = ::poll(&pfd, 1, timeout_ms);
  } while (rc < 0 && errno == EINTR);
  return rc > 0;
}

}  // namespace

SocketClient::SocketClient(std::uint16_t port, std::size_t max_frame,
                           int recv_buffer)
    : conn_(TcpConn::connect_loopback(port, /*nonblocking=*/false,
                                      recv_buffer)),
      conduit_(max_frame) {}

void SocketClient::send_frame(std::vector<std::byte> frame) {
  conduit_.send(std::move(frame));
  while (conduit_.has_output()) {
    std::span<const std::byte> chunks[TcpConn::kMaxIov];
    const std::size_t n = conduit_.gather(chunks);
    const TcpConn::IoResult r = conn_.write_gather(
        std::span<const std::span<const std::byte>>(chunks, n));
    if (r.status == TcpConn::Io::kClosed) {
      conn_.close();
      throw sync::ProtocolError("SocketClient: connection closed on send");
    }
    conduit_.consume(r.bytes);  // blocking fd: kProgress or kClosed only
  }
}

std::optional<std::vector<std::byte>> SocketClient::recv_frame(
    double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  for (;;) {
    if (auto frame = conduit_.next_frame()) return frame;
    // Rounded up: a truncated wait returns before the deadline, and a
    // sub-millisecond timeout would not wait at all.
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) return std::nullopt;
    if (!wait_readable(conn_.fd(), static_cast<int>(left.count()))) {
      return std::nullopt;
    }
    std::byte buf[64 * 1024];
    const TcpConn::IoResult r = conn_.read_some(buf);
    if (r.status == TcpConn::Io::kClosed) {
      conn_.close();
      throw sync::ProtocolError("SocketClient: connection closed by server");
    }
    if (r.status == TcpConn::Io::kProgress) {
      conduit_.feed(std::span<const std::byte>(buf, r.bytes));
    }
  }
}

}  // namespace ribltx::net
