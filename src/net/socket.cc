#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

namespace cinderella {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point DeadlineFrom(int timeout_ms) {
  return Clock::now() + std::chrono::milliseconds(timeout_ms);
}

/// Milliseconds until `deadline`, clamped to >= 0.
int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
  return left > 0 ? static_cast<int>(left) : 0;
}

Status Errno(const char* what) {
  return Status::Internal(std::string(what) + ": " + std::strerror(errno));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Polls `fd` for `events` until `deadline`; true when ready, false on
/// timeout, error Status on poll failure.
StatusOr<bool> PollFd(int fd, short events, Clock::time_point deadline) {
  while (true) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int timeout = RemainingMs(deadline);
    const int rc = ::poll(&pfd, 1, timeout);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno("poll");
    }
    if (rc == 0) return false;
    return true;
  }
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return addr;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

StatusOr<Socket> Socket::Listen(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  CINDERELLA_RETURN_IF_ERROR(SetNonBlocking(fd));
  sockaddr_in addr = LoopbackAddr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Status::Unavailable("bind 127.0.0.1:" + std::to_string(port) +
                               ": " + std::strerror(errno));
  }
  if (::listen(fd, 64) < 0) return Errno("listen");
  return socket;
}

StatusOr<Socket> Socket::Accept(int timeout_ms) {
  const auto deadline = DeadlineFrom(timeout_ms);
  while (true) {
    StatusOr<bool> ready = PollFd(fd_, POLLIN, deadline);
    CINDERELLA_RETURN_IF_ERROR(ready.status());
    if (!*ready) return Status::DeadlineExceeded("accept timed out");
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;  // Raced another acceptor; poll again.
      }
      return Errno("accept");
    }
    Socket accepted(conn);
    CINDERELLA_RETURN_IF_ERROR(SetNonBlocking(conn));
    const int one = 1;
    (void)::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return accepted;
  }
}

StatusOr<Socket> Socket::Connect(const std::string& host, uint16_t port,
                                 int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  Socket socket(fd);
  CINDERELLA_RETURN_IF_ERROR(SetNonBlocking(fd));
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address " + host);
  }
  const auto deadline = DeadlineFrom(timeout_ms);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    return socket;
  }
  if (errno == ECONNREFUSED) {
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": connection refused");
  }
  if (errno != EINPROGRESS && errno != EINTR) return Errno("connect");
  // Non-blocking connect: wait for writability, then read SO_ERROR.
  StatusOr<bool> ready = PollFd(fd, POLLOUT, deadline);
  CINDERELLA_RETURN_IF_ERROR(ready.status());
  if (!*ready) {
    return Status::DeadlineExceeded("connect " + host + ":" +
                                    std::to_string(port) + " timed out");
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0) {
    return Errno("getsockopt(SO_ERROR)");
  }
  if (err != 0) {
    return Status::Unavailable("connect " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(err));
  }
  return socket;
}

Status Socket::SendAll(const void* data, size_t len, int timeout_ms) {
  const auto deadline = DeadlineFrom(timeout_ms);
  const char* bytes = static_cast<const char*>(data);
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd_, bytes + sent, len - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) {
      return Status::Unavailable("peer closed during send");
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Errno("send");
    }
    StatusOr<bool> ready = PollFd(fd_, POLLOUT, deadline);
    CINDERELLA_RETURN_IF_ERROR(ready.status());
    if (!*ready) return Status::DeadlineExceeded("send timed out");
  }
  return Status::OK();
}

Status Socket::RecvAll(void* data, size_t len, int timeout_ms) {
  const auto deadline = DeadlineFrom(timeout_ms);
  char* bytes = static_cast<char*>(data);
  size_t received = 0;
  while (received < len) {
    const ssize_t n = ::recv(fd_, bytes + received, len - received, 0);
    if (n > 0) {
      received += static_cast<size_t>(n);
      continue;
    }
    if (n == 0) return Status::Unavailable("peer closed during recv");
    if (errno == ECONNRESET) {
      return Status::Unavailable("connection reset during recv");
    }
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return Errno("recv");
    }
    StatusOr<bool> ready = PollFd(fd_, POLLIN, deadline);
    CINDERELLA_RETURN_IF_ERROR(ready.status());
    if (!*ready) return Status::DeadlineExceeded("recv timed out");
  }
  return Status::OK();
}

StatusOr<bool> Socket::WaitReadable(int timeout_ms) {
  return PollFd(fd_, POLLIN, DeadlineFrom(timeout_ms));
}

uint16_t Socket::local_port() const {
  sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

Status WriteFrame(Socket* socket, FrameType type, std::string* frame,
                  int timeout_ms) {
  SealFrame(type, frame);
  return socket->SendAll(frame->data(), frame->size(), timeout_ms);
}

Status ReadFrame(Socket* socket, Frame* frame, int timeout_ms) {
  const auto deadline = DeadlineFrom(timeout_ms);
  char bytes[kFrameHeaderBytes];
  CINDERELLA_RETURN_IF_ERROR(
      socket->RecvAll(bytes, sizeof(bytes), RemainingMs(deadline)));
  FrameHeader header;
  CINDERELLA_RETURN_IF_ERROR(
      ParseFrameHeader(std::string_view(bytes, sizeof(bytes)), &header));
  // The header is valid: receive exactly the announced payload straight
  // into the frame, then check it once.
  frame->type = header.type;
  frame->payload.resize(header.length);
  CINDERELLA_RETURN_IF_ERROR(socket->RecvAll(
      frame->payload.data(), header.length, RemainingMs(deadline)));
  return CheckFramePayload(header, frame->payload);
}

}  // namespace net
}  // namespace cinderella
