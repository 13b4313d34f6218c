#ifndef CINDERELLA_NET_SOCKET_H_
#define CINDERELLA_NET_SOCKET_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "net/frame.h"

namespace cinderella {
namespace net {

/// A minimal RAII TCP socket for the loopback transport. All fds are
/// non-blocking; every operation polls against a caller-supplied timeout
/// and returns DeadlineExceeded when it expires, Unavailable when the
/// peer refused or hung up — the two codes the coordinator's retry and
/// partial-result policies key on. Move-only; the destructor closes.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Binds 127.0.0.1:`port` (0 = kernel-assigned ephemeral port; read it
  /// back via local_port) and listens.
  static StatusOr<Socket> Listen(uint16_t port);

  /// Accepts one pending connection; DeadlineExceeded when none arrives
  /// within `timeout_ms`.
  StatusOr<Socket> Accept(int timeout_ms);

  /// Connects to `host`:`port` within `timeout_ms`. A refused connection
  /// returns Unavailable (the node is down), a missed deadline
  /// DeadlineExceeded.
  static StatusOr<Socket> Connect(const std::string& host, uint16_t port,
                                  int timeout_ms);

  /// Writes exactly `len` bytes or fails.
  Status SendAll(const void* data, size_t len, int timeout_ms);

  /// Reads exactly `len` bytes or fails; a clean peer close mid-read is
  /// Unavailable.
  Status RecvAll(void* data, size_t len, int timeout_ms);

  /// Polls for readability: true when a read would not block, false on
  /// timeout. Used by server connection loops to interleave stop checks
  /// with idle waiting.
  StatusOr<bool> WaitReadable(int timeout_ms);

  /// The locally bound port (listener sockets; 0 on error).
  uint16_t local_port() const;

 private:
  int fd_ = -1;
};

/// Seals the frame begun in `*frame` (BeginFrame, then the payload) as
/// `type` and writes it with one SendAll. Every frame type goes out this
/// way; the buffer keeps its capacity for the next frame.
Status WriteFrame(Socket* socket, FrameType type, std::string* frame,
                  int timeout_ms);

/// Reads one complete frame: the header, validated, then the payload
/// received straight into `frame->payload` and checked against the header's
/// CRC32C. Corrupt bytes surface as InvalidArgument, timeouts as
/// DeadlineExceeded, peer close as Unavailable.
Status ReadFrame(Socket* socket, Frame* frame, int timeout_ms);

}  // namespace net
}  // namespace cinderella

#endif  // CINDERELLA_NET_SOCKET_H_
