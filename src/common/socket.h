#ifndef HARMONY_COMMON_SOCKET_H_
#define HARMONY_COMMON_SOCKET_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "common/status.h"

namespace harmony::net {

/// Thin POSIX socket helpers for the serving layer: Unix-domain or loopback
/// TCP listeners, blocking connects, and a length-prefixed frame transport.
///
/// Frame format (DESIGN.md §9): a 4-byte big-endian unsigned payload length
/// followed by that many bytes of UTF-8 JSON. Big-endian so a hexdump reads
/// naturally; 4 bytes bounds a frame at 4 GiB, and `RecvFrame` enforces a
/// far smaller application cap so a corrupt or hostile peer can't balloon
/// the daemon's memory.

/// Creates, binds and listens on a Unix-domain socket at `path`, unlinking
/// any stale socket file first. Returns the listening fd.
Result<int> ListenUnix(const std::string& path);

/// Listens on loopback TCP `port` (0 picks a free port; use BoundPort to
/// discover it). SO_REUSEADDR is set for fast daemon restarts.
Result<int> ListenTcp(int port);

/// Port a TCP listener actually bound (for ListenTcp(0)).
Result<int> BoundPort(int listen_fd);

Result<int> ConnectUnix(const std::string& path);
Result<int> ConnectTcp(const std::string& host, int port);

/// Accepts one connection; blocks. Returns the connection fd.
Result<int> Accept(int listen_fd);

/// Accepts one connection without blocking; the returned fd is already
/// non-blocking and close-on-exec (accept4). Returns Unavailable when no
/// connection is pending (EAGAIN) — the reactor's "drained the backlog"
/// signal, not an error.
Result<int> AcceptNonBlocking(int listen_fd);

/// Puts an fd into non-blocking mode (O_NONBLOCK).
Status SetNonBlocking(int fd);

/// Disables Nagle on a TCP connection fd (no-op errors ignored for Unix
/// sockets): pipelined sub-frame writes must not wait for ACK coalescing.
void SetTcpNoDelay(int fd);

/// eventfd(2) wrappers for cross-thread loop wakeups: worker threads call
/// SignalEventFd after posting a completion, the owning event loop has the
/// fd in its epoll set and DrainEventFd's it on wakeup.
Result<int> CreateEventFd();
void SignalEventFd(int fd);
void DrainEventFd(int fd);

/// Writes one frame (length prefix + payload), looping over partial writes.
Status SendFrame(int fd, std::string_view payload);

/// Reads one frame. Returns NotFound on clean EOF before any byte of the
/// length prefix (the peer hung up between frames — the daemon's normal
/// end-of-connection) or on a reset (the peer closed with our bytes unread),
/// InvalidArgument for oversized frames, Internal for other I/O errors or
/// mid-frame EOF.
Result<std::string> RecvFrame(int fd, size_t max_payload = 64ull << 20);

/// close(2) wrapper, ignoring EINTR/EBADF noise.
void CloseFd(int fd);

/// Incremental decoder for the length-prefixed frame transport: feed it
/// whatever byte run a non-blocking read produced — a length prefix split at
/// any byte, a payload spread over many reads, several frames in one read —
/// and pop complete frames in arrival order. The framing is
/// self-synchronizing, so a frame whose *payload* turns out to be garbage
/// does not desynchronize the stream; only an oversized length prefix does.
///
/// An oversized frame (declared length > max_payload) is rejected the moment
/// its prefix completes — none of its payload is ever buffered — and the
/// decoder poisons itself: every later Feed returns the same InvalidArgument,
/// because the remaining byte stream can no longer be framed.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_payload = 64ull << 20)
      : max_payload_(max_payload) {}

  /// Consumes `n` bytes from the transport. InvalidArgument on an oversized
  /// declared length (see above); Ok otherwise.
  Status Feed(const char* data, size_t n);

  bool HasFrame() const { return !frames_.empty(); }
  /// Next complete frame payload, in arrival order. HasFrame() must be true.
  std::string PopFrame();

  /// True between the first byte of a frame (prefix or payload) arriving and
  /// its last — the state a slow-loris peer parks a connection in, and what a
  /// partial-frame deadline therefore watches.
  bool mid_frame() const { return prefix_filled_ > 0 || expecting_payload_; }

  /// Declared length of the frame that poisoned the decoder (0 otherwise).
  uint64_t oversized_length() const { return oversized_length_; }

  /// Bytes buffered for the partially received frame (not yet poppable).
  size_t partial_bytes() const { return prefix_filled_ + payload_.size(); }

 private:
  size_t max_payload_;
  unsigned char prefix_[4] = {0, 0, 0, 0};
  size_t prefix_filled_ = 0;
  bool expecting_payload_ = false;
  size_t expected_len_ = 0;
  std::string payload_;
  std::deque<std::string> frames_;
  uint64_t oversized_length_ = 0;
};

/// Buffered non-blocking frame writer: queue whole frames (prefix + payload
/// copied into one output buffer), then Flush until the kernel stops taking
/// bytes. The reactor arms EPOLLOUT exactly while pending_bytes() > 0.
class FrameWriter {
 public:
  /// Appends one frame to the output buffer (payload must be < 4 GiB,
  /// which RecvFrame/FrameDecoder enforce on the peer side anyway).
  void QueueFrame(std::string_view payload);

  /// Writes as much buffered output as the socket accepts right now.
  /// Ok + pending_bytes()==0 when drained; Ok + pending_bytes()>0 on EAGAIN
  /// (re-arm EPOLLOUT); NotFound when the peer closed (EPIPE/ECONNRESET).
  Status Flush(int fd);

  size_t pending_bytes() const { return buffer_.size() - offset_; }

 private:
  std::string buffer_;
  size_t offset_ = 0;  // bytes of buffer_ already written
};

}  // namespace harmony::net

#endif  // HARMONY_COMMON_SOCKET_H_
