#include "common/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>

namespace harmony::net {

namespace {

Status Errno(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

Result<int> ListenUnix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_UNIX)");
  ::unlink(path.c_str());  // stale socket from a previous daemon run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseFd(fd);
    return Errno("bind(" + path + ")");
  }
  if (::listen(fd, 128) != 0) {
    CloseFd(fd);
    return Errno("listen(" + path + ")");
  }
  return fd;
}

Result<int> ListenTcp(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseFd(fd);
    return Errno("bind(port " + std::to_string(port) + ")");
  }
  if (::listen(fd, 128) != 0) {
    CloseFd(fd);
    return Errno("listen");
  }
  return fd;
}

Result<int> BoundPort(int listen_fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Errno("getsockname");
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<int> ConnectUnix(const std::string& path) {
  if (path.size() >= sizeof(sockaddr_un{}.sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_UNIX)");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseFd(fd);
    return Errno("connect(" + path + ")");
  }
  return fd;
}

Result<int> ConnectTcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket(AF_INET)");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseFd(fd);
    return Errno("connect(" + host + ":" + std::to_string(port) + ")");
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<int> Accept(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Result<int> AcceptNonBlocking(int listen_fd) {
  for (;;) {
    const int fd = ::accept4(listen_fd, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) return fd;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Unavailable("no pending connection");
    }
    // A connection that died between epoll and accept is the backlog's
    // problem, not ours: report it as drained-for-now so the loop re-polls.
    if (errno == ECONNABORTED) return Status::Unavailable("aborted in backlog");
    return Errno("accept4");
  }
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
  return Status::Ok();
}

void SetTcpNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<int> CreateEventFd() {
  const int fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (fd < 0) return Errno("eventfd");
  return fd;
}

void SignalEventFd(int fd) {
  const uint64_t one = 1;
  // A full counter (EAGAIN) already guarantees a pending wakeup; nothing to
  // do. EINTR retries like every other write.
  for (;;) {
    if (::write(fd, &one, sizeof(one)) >= 0 || errno != EINTR) return;
  }
}

void DrainEventFd(int fd) {
  uint64_t count;
  while (::read(fd, &count, sizeof(count)) > 0) {
  }
}

namespace {

Status WriteAll(int fd, const char* data, size_t len) {
  while (len > 0) {
    // send(MSG_NOSIGNAL) rather than write(): a peer that hangs up while we
    // are mid-frame must surface as a connection error on this one
    // connection, not raise SIGPIPE and kill the whole daemon.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::NotFound("peer closed connection");
      }
      return Errno("send");
    }
    data += n;
    len -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `len` bytes. `*clean_eof` is set when EOF arrives before
/// the first byte (only meaningful when nothing has been read yet).
Status ReadAll(int fd, char* data, size_t len, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, data + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      // A peer that closes with our bytes still unread resets the
      // connection: to retry loops that is the same event as a clean close.
      if (errno == ECONNRESET) return Status::NotFound("peer closed connection");
      return Errno("read");
    }
    if (n == 0) {
      if (got == 0 && clean_eof != nullptr) {
        *clean_eof = true;
        return Status::NotFound("peer closed connection");
      }
      return Status::Internal("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status SendFrame(int fd, std::string_view payload) {
  if (payload.size() > 0xffffffffull) {
    return Status::InvalidArgument("frame payload exceeds 4 GiB");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char prefix[4] = {static_cast<char>(len >> 24), static_cast<char>(len >> 16),
                    static_cast<char>(len >> 8), static_cast<char>(len)};
  HARMONY_RETURN_IF_ERROR(WriteAll(fd, prefix, sizeof(prefix)));
  return WriteAll(fd, payload.data(), payload.size());
}

Result<std::string> RecvFrame(int fd, size_t max_payload) {
  char prefix[4];
  bool clean_eof = false;
  const Status head = ReadAll(fd, prefix, sizeof(prefix), &clean_eof);
  if (!head.ok()) return head;
  const uint32_t len = (static_cast<uint32_t>(static_cast<unsigned char>(prefix[0])) << 24) |
                       (static_cast<uint32_t>(static_cast<unsigned char>(prefix[1])) << 16) |
                       (static_cast<uint32_t>(static_cast<unsigned char>(prefix[2])) << 8) |
                       static_cast<uint32_t>(static_cast<unsigned char>(prefix[3]));
  if (len > max_payload) {
    return Status::InvalidArgument("frame of " + std::to_string(len) +
                                   " bytes exceeds cap of " +
                                   std::to_string(max_payload));
  }
  std::string payload(len, '\0');
  if (len > 0) {
    HARMONY_RETURN_IF_ERROR(ReadAll(fd, payload.data(), len, nullptr));
  }
  return payload;
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

Status FrameDecoder::Feed(const char* data, size_t n) {
  if (oversized_length_ > 0) {
    return Status::InvalidArgument(
        "stream poisoned by an oversized frame of " +
        std::to_string(oversized_length_) + " bytes");
  }
  while (n > 0) {
    if (!expecting_payload_) {
      const size_t take = std::min(n, sizeof(prefix_) - prefix_filled_);
      std::memcpy(prefix_ + prefix_filled_, data, take);
      prefix_filled_ += take;
      data += take;
      n -= take;
      if (prefix_filled_ < sizeof(prefix_)) return Status::Ok();
      const uint64_t len = (static_cast<uint64_t>(prefix_[0]) << 24) |
                           (static_cast<uint64_t>(prefix_[1]) << 16) |
                           (static_cast<uint64_t>(prefix_[2]) << 8) |
                           static_cast<uint64_t>(prefix_[3]);
      if (len > max_payload_) {
        // Reject before reserving a byte of payload: a hostile prefix must
        // not be able to size an allocation.
        oversized_length_ = len;
        prefix_filled_ = 0;
        return Status::InvalidArgument(
            "frame of " + std::to_string(len) + " bytes exceeds cap of " +
            std::to_string(max_payload_));
      }
      expecting_payload_ = true;
      expected_len_ = static_cast<size_t>(len);
      payload_.clear();
      payload_.reserve(expected_len_);
    }
    const size_t take = std::min(n, expected_len_ - payload_.size());
    payload_.append(data, take);
    data += take;
    n -= take;
    if (payload_.size() == expected_len_) {
      frames_.push_back(std::move(payload_));
      payload_.clear();
      expecting_payload_ = false;
      prefix_filled_ = 0;
    }
  }
  return Status::Ok();
}

std::string FrameDecoder::PopFrame() {
  std::string frame = std::move(frames_.front());
  frames_.pop_front();
  return frame;
}

void FrameWriter::QueueFrame(std::string_view payload) {
  // Compact once the consumed prefix dominates, so a long-lived connection's
  // buffer doesn't grow monotonically with traffic ever sent.
  if (offset_ > 4096 && offset_ >= buffer_.size() / 2) {
    buffer_.erase(0, offset_);
    offset_ = 0;
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const char prefix[4] = {
      static_cast<char>(len >> 24), static_cast<char>(len >> 16),
      static_cast<char>(len >> 8), static_cast<char>(len)};
  buffer_.append(prefix, sizeof(prefix));
  buffer_.append(payload.data(), payload.size());
}

Status FrameWriter::Flush(int fd) {
  while (offset_ < buffer_.size()) {
    const ssize_t n = ::send(fd, buffer_.data() + offset_,
                             buffer_.size() - offset_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
      if (errno == EPIPE || errno == ECONNRESET) {
        return Status::NotFound("peer closed connection");
      }
      return Errno("send");
    }
    offset_ += static_cast<size_t>(n);
  }
  buffer_.clear();
  offset_ = 0;
  return Status::Ok();
}

}  // namespace harmony::net
