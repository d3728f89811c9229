#ifndef DIRECTLOAD_RPC_SOCKET_H_
#define DIRECTLOAD_RPC_SOCKET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace directload::rpc {

/// Thin POSIX TCP helpers shared by the RPC client, the KV server, and the
/// socket-level tests. All calls are blocking with explicit timeouts (poll
/// under the hood); none raise SIGPIPE. Errors map onto the project Status
/// taxonomy: kUnavailable for connection-level failures (refused, reset,
/// EOF), kTimedOut for expired deadlines, kIOError for everything else.

/// An owning socket fd. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Half-closes the write side (the reader still drains in-flight data).
  void ShutdownWrite();

  /// Writes all of `data`, looping over short writes. `timeout_ms < 0`
  /// blocks indefinitely.
  Status SendAll(const Slice& data, int timeout_ms);

  /// Reads up to `cap` bytes into `buf`. Returns the byte count — 0 means
  /// the peer cleanly closed, never a spurious wakeup (those re-poll within
  /// the deadline) — kTimedOut when nothing arrived within `timeout_ms`,
  /// kUnavailable on reset.
  Result<size_t> RecvSome(char* buf, size_t cap, int timeout_ms);

  /// Reads up to `cap` bytes without waiting, for callers told of
  /// readability by an event loop. Returns 0 on a clean close and
  /// kTimedOut when nothing is readable yet.
  Result<size_t> RecvNow(char* buf, size_t cap);

 private:
  int fd_ = -1;
};

/// Waits until at least one of `fds` is readable — data, end of stream or
/// an error to report — or `timeout_ms` passes (<0 = forever). Returns the
/// indices of the readable fds in order; none on timeout. If poll itself
/// fails, every index is returned, so each reader meets the error itself.
std::vector<size_t> PollReadable(const std::vector<int>& fds, int timeout_ms);

/// Connects to host:port within `timeout_ms`. Numeric IPv4 or names
/// resolvable by getaddrinfo.
Result<Socket> ConnectTo(const std::string& host, uint16_t port,
                         int timeout_ms);

/// Binds and listens on `host:port` (port 0 = kernel-assigned ephemeral
/// port). Returns the listening socket; query the bound port with
/// ListenPort().
Result<Socket> Listen(const std::string& host, uint16_t port, int backlog);

/// The locally bound port of a listening (or connected) socket.
Result<uint16_t> LocalPort(const Socket& socket);

/// Accepts one connection within `timeout_ms`. Returns kTimedOut when none
/// arrived — callers poll so they can observe shutdown flags.
Result<Socket> AcceptOne(const Socket& listener, int timeout_ms);

/// Accepts one pending connection without waiting, for a non-blocking
/// listener driven by an event loop. The new socket is non-blocking.
/// Returns kTimedOut when no connection is pending. Errors that concern
/// only the connection being accepted are skipped over; any other error
/// (descriptor or memory exhaustion, say) is returned.
Result<Socket> AcceptNow(const Socket& listener);

}  // namespace directload::rpc

#endif  // DIRECTLOAD_RPC_SOCKET_H_
