// Thin io_uring wrapper for the C10K->C1M serving path (no liburing
// dependency: raw io_uring_setup/enter/register syscalls + mmap'd rings).
//
// Two-level availability gating:
//
//   build time:  CMake probes <linux/io_uring.h> and defines
//                RIBLT_HAS_IO_URING when present and RIBLT_ENABLE_URING is
//                ON. Without it this header only declares the probe
//                functions (always "unavailable") and UringServer aliases
//                the epoll SocketServer, so every caller compiles and runs
//                on the fallback path unchanged.
//
//   run time:    uring_available() creates and destroys a tiny ring once
//                (cached) and passes only when the kernel offers every
//                feature the server uses (see probe_caps() in uring.cpp:
//                in practice Linux >= 6.0). io_uring_setup failing with
//                ENOSYS (old kernel) or EPERM (seccomp, e.g. default
//                Docker profiles), a missing feature bit or opcode, or the
//                RIBLT_NO_URING environment variable (fallback testing
//                without a rebuild) all mean the epoll server serves. There
//                is no partially featured ring.
//
// The wrapper is deliberately small: SQE acquisition with auto-flush, CQE
// reaping, a provided-buffer ring (IORING_REGISTER_PBUF_RING) for
// multishot recv, and static prep helpers for exactly the ops the server
// uses. Ring state is single-threaded (the serving loop owns it); cross-
// thread wakeups go through a separate mutex-guarded sender ring
// (IORING_OP_MSG_RING), never through this ring's SQ.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <span>
#include <vector>

#include "obs/metrics.hpp"

#if defined(RIBLT_HAS_IO_URING)
#include <linux/io_uring.h>
#include <linux/time_types.h>
struct msghdr;  // <sys/socket.h>; only referenced by pointer here
#endif

namespace ribltx::net {

/// Per-process io_uring capability summary (see uring_caps()).
struct UringCaps {
  bool available = false;   ///< every feature the server uses is present
  const char* reason = "";  ///< why unavailable (empty when available)
};

/// Cached runtime probe: can this process create and drive an io_uring
/// with every feature UringServer uses? False on old kernels (ENOSYS),
/// seccomp denials (EPERM), a missing setup feature or opcode, builds
/// without <linux/io_uring.h>, and when the RIBLT_NO_URING environment
/// variable is set (forced-fallback testing).
[[nodiscard]] bool uring_available() noexcept;

/// The full capability record behind uring_available().
[[nodiscard]] const UringCaps& uring_caps() noexcept;

#if defined(RIBLT_HAS_IO_URING)

/// RAII io_uring instance: SQ/CQ ring mmaps, SQE acquisition, submission,
/// CQE reaping, and an optional provided-buffer ring. Single-owner: all
/// SQ-side calls must come from one thread (MSG_RING CQEs may be posted
/// into the CQ by other rings; that is kernel-side and safe).
class Uring {
 public:
  struct Cqe {
    std::uint64_t user_data = 0;
    std::int32_t res = 0;
    std::uint32_t flags = 0;
    [[nodiscard]] bool more() const noexcept {
      return (flags & IORING_CQE_F_MORE) != 0;
    }
    [[nodiscard]] bool has_buffer() const noexcept {
      return (flags & IORING_CQE_F_BUFFER) != 0;
    }
    [[nodiscard]] std::uint16_t buffer_id() const noexcept {
      return static_cast<std::uint16_t>(flags >> IORING_CQE_BUFFER_SHIFT);
    }
  };

  /// Creates the ring (throws std::system_error when the kernel refuses;
  /// callers gate on uring_available(), which also vouches for the
  /// single-mmap ring layout this maps). `cq_entries` 0 = kernel default
  /// (2x SQ); the server passes a deep CQ because multishot ops complete
  /// many times per SQE.
  explicit Uring(unsigned sq_entries, unsigned cq_entries = 0);
  ~Uring();
  Uring(const Uring&) = delete;
  Uring& operator=(const Uring&) = delete;

  [[nodiscard]] int ring_fd() const noexcept { return fd_; }

  /// Next free SQE, zero-initialized. Auto-flushes (submit()) when the SQ
  /// is full, so it never returns null.
  [[nodiscard]] io_uring_sqe* get_sqe();

  /// Publishes pending SQEs to the kernel. Returns the count submitted.
  unsigned submit();

  /// submit() + block until at least `min_complete` CQEs are available
  /// (or the in-flight TIMEOUT op fires -- the server keeps one armed, so
  /// this never hangs past its tick). Returns SQEs submitted.
  unsigned submit_and_wait(unsigned min_complete);

  /// Drains available CQEs into `out`; returns the count.
  [[nodiscard]] std::size_t reap(std::span<Cqe> out) noexcept;

  // ------------------------------------------------- provided-buffer ring

  /// Registers a provided-buffer ring (group `bgid`, `entries` buffers of
  /// `buf_size` bytes, entries must be a power of two). At most once per
  /// ring; throws std::system_error when the kernel refuses.
  void setup_buf_ring(std::uint16_t bgid, unsigned entries,
                      std::size_t buf_size);

  /// The payload bytes of provided buffer `bid` (valid ids only).
  [[nodiscard]] std::span<std::byte> buffer(std::uint16_t bid) noexcept;

  /// Returns buffer `bid` to the kernel's ring for reuse.
  void recycle_buffer(std::uint16_t bid) noexcept;

  // ------------------------------------------------------- prep helpers

  /// Multishot accept: one SQE, one CQE per accepted connection.
  static void prep_accept(io_uring_sqe& s, int listen_fd,
                          std::uint64_t user_data) noexcept;
  /// Multishot recv via the provided-buffer ring (buffer group `bgid`).
  static void prep_recv_multishot(io_uring_sqe& s, int fd, std::uint16_t bgid,
                                  std::uint64_t user_data) noexcept;
  /// sendmsg (MSG_NOSIGNAL); `msg` and its iovecs must stay stable until
  /// the completion arrives.
  static void prep_sendmsg(io_uring_sqe& s, int fd, const msghdr* msg,
                           std::uint64_t user_data) noexcept;
  /// Relative timeout; `ts` must stay stable until completion.
  static void prep_timeout(io_uring_sqe& s, __kernel_timespec* ts,
                           std::uint64_t user_data) noexcept;
  /// Posts a CQE with `target_user_data` onto `target_ring_fd`'s CQ.
  static void prep_msg_ring(io_uring_sqe& s, int target_ring_fd,
                            std::uint64_t target_user_data,
                            std::uint64_t user_data) noexcept;
  /// Cancels every in-flight op on this ring (IORING_ASYNC_CANCEL_ANY).
  static void prep_cancel_all(io_uring_sqe& s,
                              std::uint64_t user_data) noexcept;

  // ------------------------------------------------------- accounting

  /// Counts this ring's io_uring_enter syscalls (the uring side of
  /// syscalls/session) and the SQEs they hand the kernel (the submission
  /// batching numerator) into the given cells; unbound rings count
  /// nothing. Both must outlive the ring.
  void count_into(obs::Counter* enters, obs::Counter* sqes) noexcept {
    enters_ = enters;
    sqes_submitted_ = sqes;
  }

 private:
  void flush_tail() noexcept;
  int enter(unsigned to_submit, unsigned min_complete, unsigned flags);

  int fd_ = -1;
  // SQ and CQ rings share one mapping (IORING_FEAT_SINGLE_MMAP).
  void* ring_mmap_ = nullptr;
  std::size_t ring_mmap_len_ = 0;
  void* sqe_mmap_ = nullptr;
  std::size_t sqe_mmap_len_ = 0;
  io_uring_sqe* sqes_ = nullptr;
  unsigned* sq_head_ = nullptr;
  unsigned* sq_tail_ = nullptr;
  unsigned sq_mask_ = 0;
  unsigned sq_entries_ = 0;
  unsigned local_tail_ = 0;      ///< app-side tail (published on submit)
  unsigned submitted_ = 0;       ///< SQEs the kernel has consumed
  io_uring_cqe* cqes_ = nullptr;
  unsigned* cq_head_ = nullptr;
  unsigned* cq_tail_ = nullptr;
  unsigned cq_mask_ = 0;
  // Provided-buffer ring.
  io_uring_buf_ring* br_ = nullptr;
  std::uint16_t br_bgid_ = 0;    ///< the group setup_buf_ring registered
  std::size_t br_mmap_len_ = 0;
  unsigned br_entries_ = 0;
  std::uint16_t br_tail_ = 0;
  std::size_t br_buf_size_ = 0;
  std::vector<std::byte> br_data_;

  obs::Counter* enters_ = nullptr;          ///< see count_into()
  obs::Counter* sqes_submitted_ = nullptr;  ///< see count_into()
};

#endif  // RIBLT_HAS_IO_URING

}  // namespace ribltx::net
