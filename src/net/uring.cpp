#include "net/uring.hpp"

#include <cstdlib>
#include <mutex>

#if defined(RIBLT_HAS_IO_URING)

#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <system_error>

namespace ribltx::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

int sys_io_uring_setup(unsigned entries, io_uring_params* p) noexcept {
  return static_cast<int>(::syscall(__NR_io_uring_setup, entries, p));
}

int sys_io_uring_enter(int fd, unsigned to_submit, unsigned min_complete,
                       unsigned flags) noexcept {
  return static_cast<int>(::syscall(__NR_io_uring_enter, fd, to_submit,
                                    min_complete, flags, nullptr, 0));
}

int sys_io_uring_register(int fd, unsigned opcode, void* arg,
                          unsigned nr_args) noexcept {
  return static_cast<int>(
      ::syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

template <typename U>
[[nodiscard]] U* ring_ptr(void* base, std::uint32_t off) noexcept {
  return reinterpret_cast<U*>(static_cast<char*>(base) + off);
}

/// One-shot runtime probe: create a tiny ring, check that it has every
/// setup feature and opcode UringServer uses, tear it down. This is the
/// one place that decides whether io_uring serves: a kernel lacking any of
/// them gets the epoll server, never a partially featured ring.
UringCaps probe_caps() noexcept {
  UringCaps caps;
  if (std::getenv("RIBLT_NO_URING") != nullptr) {
    caps.reason = "disabled by RIBLT_NO_URING";
    return caps;
  }
  io_uring_params p{};
  const int fd = sys_io_uring_setup(4, &p);
  if (fd < 0) {
    caps.reason = errno == ENOSYS ? "io_uring_setup: ENOSYS (kernel too old)"
                  : errno == EPERM
                      ? "io_uring_setup: EPERM (seccomp/sysctl denied)"
                      : "io_uring_setup failed";
    return caps;
  }
  // Uring maps the SQ and CQ rings as one region and relies on the kernel
  // keeping overflowed completions rather than dropping them.
  constexpr std::uint32_t kFeatures =
      IORING_FEAT_SINGLE_MMAP | IORING_FEAT_NODROP;
  if ((p.features & kFeatures) != kFeatures) {
    caps.reason = "kernel lacks IORING_FEAT_SINGLE_MMAP or IORING_FEAT_NODROP";
    ::close(fd);
    return caps;
  }
  // Opcode probe (5.6+). A kernel too old to probe is too old to serve.
  constexpr unsigned kProbeOps = 64;
  alignas(io_uring_probe) unsigned char buf[sizeof(io_uring_probe) +
                                            kProbeOps *
                                                sizeof(io_uring_probe_op)] = {};
  auto* probe = reinterpret_cast<io_uring_probe*>(buf);
  const auto supported = [probe](unsigned op) {
    return op <= probe->last_op &&
           (probe->ops[op].flags & IO_URING_OP_SUPPORTED) != 0;
  };
  if (sys_io_uring_register(fd, IORING_REGISTER_PROBE, probe, kProbeOps) < 0) {
    caps.reason = "IORING_REGISTER_PROBE unsupported";
    ::close(fd);
    return caps;
  }
  // No opcode names multishot recv, the provided-buffer ring, multishot
  // accept or IORING_ASYNC_CANCEL_ANY, so SEND_ZC stands in for them: it
  // arrived in Linux 6.0 together with multishot recv, and the others came
  // earlier (5.19). The proxy errs toward epoll: a kernel with all four
  // but no SEND_ZC serves epoll, and no mainline kernel has SEND_ZC
  // without them.
  if (!supported(IORING_OP_ACCEPT) || !supported(IORING_OP_RECV) ||
      !supported(IORING_OP_SENDMSG) || !supported(IORING_OP_ASYNC_CANCEL) ||
      !supported(IORING_OP_TIMEOUT) || !supported(IORING_OP_MSG_RING) ||
      !supported(IORING_OP_SEND_ZC)) {
    caps.reason = "kernel lacks a required io_uring opcode";
    ::close(fd);
    return caps;
  }
  caps.available = true;
  ::close(fd);
  return caps;
}

const UringCaps& cached_caps() noexcept {
  static const UringCaps caps = probe_caps();
  return caps;
}

}  // namespace

bool uring_available() noexcept { return cached_caps().available; }

const UringCaps& uring_caps() noexcept { return cached_caps(); }

// ------------------------------------------------------------------ Uring

Uring::Uring(unsigned sq_entries, unsigned cq_entries) {
  io_uring_params p{};
  if (cq_entries != 0) {
    p.flags |= IORING_SETUP_CQSIZE;
    p.cq_entries = cq_entries;
  }
  fd_ = sys_io_uring_setup(sq_entries, &p);
  if (fd_ < 0) throw_errno("io_uring_setup");

  // One mapping holds both rings (IORING_FEAT_SINGLE_MMAP, which the probe
  // requires): as long as the longer of the two.
  const std::size_t sq_len =
      p.sq_off.array + p.sq_entries * sizeof(std::uint32_t);
  const std::size_t cq_len = p.cq_off.cqes + p.cq_entries * sizeof(io_uring_cqe);
  ring_mmap_len_ = sq_len > cq_len ? sq_len : cq_len;
  ring_mmap_ = ::mmap(nullptr, ring_mmap_len_, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_POPULATE, fd_, IORING_OFF_SQ_RING);
  if (ring_mmap_ == MAP_FAILED) {
    const int saved = errno;
    ::close(fd_);
    errno = saved;
    throw_errno("mmap(SQ/CQ rings)");
  }
  sqe_mmap_len_ = p.sq_entries * sizeof(io_uring_sqe);
  sqe_mmap_ = ::mmap(nullptr, sqe_mmap_len_, PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_POPULATE, fd_, IORING_OFF_SQES);
  if (sqe_mmap_ == MAP_FAILED) {
    const int saved = errno;
    ::munmap(ring_mmap_, ring_mmap_len_);
    ::close(fd_);
    errno = saved;
    throw_errno("mmap(SQEs)");
  }

  sqes_ = static_cast<io_uring_sqe*>(sqe_mmap_);
  sq_head_ = ring_ptr<unsigned>(ring_mmap_, p.sq_off.head);
  sq_tail_ = ring_ptr<unsigned>(ring_mmap_, p.sq_off.tail);
  sq_mask_ = *ring_ptr<unsigned>(ring_mmap_, p.sq_off.ring_mask);
  sq_entries_ = p.sq_entries;
  local_tail_ = *sq_tail_;
  submitted_ = local_tail_;
  // Identity SQ index array: slot i of the array always names SQE i, and
  // the SQE for a submission is chosen as (tail & mask).
  unsigned* sq_array = ring_ptr<unsigned>(ring_mmap_, p.sq_off.array);
  for (unsigned i = 0; i < p.sq_entries; ++i) sq_array[i] = i;

  cqes_ = ring_ptr<io_uring_cqe>(ring_mmap_, p.cq_off.cqes);
  cq_head_ = ring_ptr<unsigned>(ring_mmap_, p.cq_off.head);
  cq_tail_ = ring_ptr<unsigned>(ring_mmap_, p.cq_off.tail);
  cq_mask_ = *ring_ptr<unsigned>(ring_mmap_, p.cq_off.ring_mask);
}

Uring::~Uring() {
  if (br_ != nullptr) {
    io_uring_buf_reg reg{};
    reg.bgid = br_bgid_;
    (void)sys_io_uring_register(fd_, IORING_UNREGISTER_PBUF_RING, &reg, 1);
    ::munmap(br_, br_mmap_len_);
  }
  if (sqe_mmap_ != nullptr) ::munmap(sqe_mmap_, sqe_mmap_len_);
  if (ring_mmap_ != nullptr) ::munmap(ring_mmap_, ring_mmap_len_);
  if (fd_ >= 0) ::close(fd_);
}

io_uring_sqe* Uring::get_sqe() {
  if (local_tail_ - std::atomic_ref<unsigned>(*sq_head_).load(
                        std::memory_order_acquire) >=
      sq_entries_) {
    (void)submit();  // SQ full: hand the backlog to the kernel first
  }
  io_uring_sqe* s = &sqes_[local_tail_ & sq_mask_];
  ++local_tail_;
  std::memset(s, 0, sizeof *s);
  return s;
}

void Uring::flush_tail() noexcept {
  std::atomic_ref<unsigned>(*sq_tail_).store(local_tail_,
                                             std::memory_order_release);
}

int Uring::enter(unsigned to_submit, unsigned min_complete, unsigned flags) {
  int r;
  do {
    r = sys_io_uring_enter(fd_, to_submit, min_complete, flags);
  } while (r < 0 && errno == EINTR);
  if (r < 0 && errno == EBUSY) {
    // CQ overflow backlog the kernel could not flush into the CQ (NODROP
    // kernels still report it this way): flush completions, retry.
    do {
      r = sys_io_uring_enter(fd_, to_submit, min_complete,
                             flags | IORING_ENTER_GETEVENTS);
    } while (r < 0 && errno == EINTR);
  }
  if (r < 0) throw_errno("io_uring_enter");
  if (enters_ != nullptr) enters_->inc();
  return r;
}

unsigned Uring::submit() {
  flush_tail();
  const unsigned pending = local_tail_ - submitted_;
  if (pending == 0) return 0;
  const int consumed = enter(pending, 0, 0);
  submitted_ += static_cast<unsigned>(consumed);
  if (sqes_submitted_ != nullptr) {
    sqes_submitted_->inc(static_cast<unsigned>(consumed));
  }
  return static_cast<unsigned>(consumed);
}

unsigned Uring::submit_and_wait(unsigned min_complete) {
  flush_tail();
  const unsigned pending = local_tail_ - submitted_;
  const int consumed = enter(pending, min_complete, IORING_ENTER_GETEVENTS);
  submitted_ += static_cast<unsigned>(consumed);
  if (sqes_submitted_ != nullptr) {
    sqes_submitted_->inc(static_cast<unsigned>(consumed));
  }
  return static_cast<unsigned>(consumed);
}

std::size_t Uring::reap(std::span<Cqe> out) noexcept {
  unsigned head = *cq_head_;  // sole consumer
  const unsigned tail =
      std::atomic_ref<unsigned>(*cq_tail_).load(std::memory_order_acquire);
  std::size_t n = 0;
  while (head != tail && n < out.size()) {
    const io_uring_cqe& c = cqes_[head & cq_mask_];
    out[n++] = Cqe{c.user_data, c.res, c.flags};
    ++head;
  }
  std::atomic_ref<unsigned>(*cq_head_).store(head, std::memory_order_release);
  return n;
}

// ------------------------------------------------- provided-buffer ring

void Uring::setup_buf_ring(std::uint16_t bgid, unsigned entries,
                           std::size_t buf_size) {
  const std::size_t len = entries * sizeof(io_uring_buf);
  void* mem = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                     MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
  if (mem == MAP_FAILED) throw_errno("mmap(buffer ring)");
  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uint64_t>(mem);
  reg.ring_entries = entries;
  reg.bgid = bgid;
  if (sys_io_uring_register(fd_, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
    const int saved = errno;
    ::munmap(mem, len);
    errno = saved;
    throw_errno("IORING_REGISTER_PBUF_RING");
  }
  br_ = static_cast<io_uring_buf_ring*>(mem);
  br_mmap_len_ = len;
  br_bgid_ = bgid;
  br_entries_ = entries;
  br_buf_size_ = buf_size;
  br_tail_ = 0;
  br_data_.resize(static_cast<std::size_t>(entries) * buf_size);
  for (unsigned i = 0; i < entries; ++i) {
    recycle_buffer(static_cast<std::uint16_t>(i));
  }
}

std::span<std::byte> Uring::buffer(std::uint16_t bid) noexcept {
  return std::span<std::byte>(br_data_.data() + bid * br_buf_size_,
                              br_buf_size_);
}

void Uring::recycle_buffer(std::uint16_t bid) noexcept {
  // NOT br_->bufs[...]: under C++ the UAPI header's __DECLARE_FLEX_ARRAY
  // wraps the flexible array in an anonymous struct whose empty leading
  // member still occupies space, shifting offsetof(bufs) from 0 to 8 --
  // every slot would land 8 bytes past where the kernel reads it. The
  // kernel's contract is that slot i lives at ring_addr + i * 16.
  auto* slots = reinterpret_cast<io_uring_buf*>(br_);
  io_uring_buf& slot = slots[br_tail_ & (br_entries_ - 1)];
  slot.addr = reinterpret_cast<std::uint64_t>(br_data_.data() +
                                              bid * br_buf_size_);
  slot.len = static_cast<std::uint32_t>(br_buf_size_);
  slot.bid = bid;
  ++br_tail_;
  std::atomic_ref<std::uint16_t>(br_->tail).store(br_tail_,
                                                  std::memory_order_release);
}

// ------------------------------------------------------- prep helpers

void Uring::prep_accept(io_uring_sqe& s, int listen_fd,
                        std::uint64_t user_data) noexcept {
  s.opcode = IORING_OP_ACCEPT;
  s.fd = listen_fd;
  s.ioprio = IORING_ACCEPT_MULTISHOT;
  s.accept_flags = SOCK_CLOEXEC;
  s.user_data = user_data;
}

void Uring::prep_recv_multishot(io_uring_sqe& s, int fd, std::uint16_t bgid,
                                std::uint64_t user_data) noexcept {
  s.opcode = IORING_OP_RECV;
  s.fd = fd;
  s.ioprio = IORING_RECV_MULTISHOT;
  s.flags = IOSQE_BUFFER_SELECT;
  s.buf_group = bgid;
  s.user_data = user_data;
}

void Uring::prep_sendmsg(io_uring_sqe& s, int fd, const msghdr* msg,
                         std::uint64_t user_data) noexcept {
  s.opcode = IORING_OP_SENDMSG;
  s.fd = fd;
  s.addr = reinterpret_cast<std::uint64_t>(msg);
  s.len = 1;
  s.msg_flags = MSG_NOSIGNAL;
  s.user_data = user_data;
}

void Uring::prep_timeout(io_uring_sqe& s, __kernel_timespec* ts,
                         std::uint64_t user_data) noexcept {
  s.opcode = IORING_OP_TIMEOUT;
  s.addr = reinterpret_cast<std::uint64_t>(ts);
  s.len = 1;
  s.fd = -1;
  s.user_data = user_data;
}

void Uring::prep_msg_ring(io_uring_sqe& s, int target_ring_fd,
                          std::uint64_t target_user_data,
                          std::uint64_t user_data) noexcept {
  s.opcode = IORING_OP_MSG_RING;
  s.fd = target_ring_fd;
  s.addr = IORING_MSG_DATA;
  s.len = 0;                 // becomes the target CQE's res
  s.off = target_user_data;  // becomes the target CQE's user_data
  s.user_data = user_data;
}

void Uring::prep_cancel_all(io_uring_sqe& s,
                            std::uint64_t user_data) noexcept {
  s.opcode = IORING_OP_ASYNC_CANCEL;
  s.fd = -1;
  s.cancel_flags = IORING_ASYNC_CANCEL_ANY;
  s.user_data = user_data;
}

}  // namespace ribltx::net

#else  // !RIBLT_HAS_IO_URING

namespace ribltx::net {

namespace {
const UringCaps kNoUring{false, "built without <linux/io_uring.h>"};
}  // namespace

bool uring_available() noexcept { return false; }

const UringCaps& uring_caps() noexcept { return kNoUring; }

}  // namespace ribltx::net

#endif  // RIBLT_HAS_IO_URING
