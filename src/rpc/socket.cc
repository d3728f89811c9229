#include "rpc/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>

#include "common/failpoint.h"

namespace directload::rpc {

namespace {

// Wire-level failpoints. `rpc_send`/`rpc_recv` fire before the syscall —
// an injected kUnavailable looks exactly like a peer reset, an injected
// delay like network latency. `rpc_connect` makes dial attempts flaky,
// which is what exercises the client's backoff loop.
DIRECTLOAD_FAILPOINT_DEFINE(fp_rpc_send, "rpc_send");
DIRECTLOAD_FAILPOINT_DEFINE(fp_rpc_recv, "rpc_recv");
DIRECTLOAD_FAILPOINT_DEFINE(fp_rpc_connect, "rpc_connect");

Status Errno(const char* what) {
  std::string msg = what;
  msg += ": ";
  msg += std::strerror(errno);
  if (errno == ECONNREFUSED || errno == ECONNRESET || errno == EPIPE ||
      errno == ENOTCONN) {
    return Status::Unavailable(msg);
  }
  return Status::IOError(msg);
}

/// Polls `fd` for `events` within `timeout_ms` (<0 = forever). Returns OK
/// when ready, kTimedOut otherwise.
Status PollFor(int fd, short events, int timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  while (true) {
    const int r = ::poll(&pfd, 1, timeout_ms);
    if (r > 0) return Status::OK();
    if (r == 0) return Status::TimedOut("poll deadline expired");
    if (errno == EINTR) continue;
    return Errno("poll");
  }
}

/// One timeout budget shared across repeated polls: retries after EINTR,
/// spurious wakeups, or short transfers consume the remaining time instead
/// of restarting the clock, so a call can never outlive its `timeout_ms`.
class Deadline {
 public:
  explicit Deadline(int timeout_ms) : forever_(timeout_ms < 0) {
    if (!forever_) {
      end_ = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(timeout_ms);
    }
  }

  /// Remaining budget in poll() terms: -1 = no deadline, 0 = expired.
  int remaining_ms() const {
    if (forever_) return -1;
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          end_ - std::chrono::steady_clock::now())
                          .count();
    return left > 0 ? static_cast<int>(left) : 0;
  }

 private:
  bool forever_;
  std::chrono::steady_clock::time_point end_{};
};

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

Status Socket::SendAll(const Slice& data, int timeout_ms) {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  DIRECTLOAD_FAILPOINT(fp_rpc_send);
  const Deadline deadline(timeout_ms);
  const char* p = data.data();
  size_t left = data.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n > 0) {
      p += n;
      left -= static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // A full send buffer (tiny SO_SNDBUF, slow reader, nonblocking fd):
      // wait for writability against the one shared deadline, then retry.
      Status ready = PollFor(fd_, POLLOUT, deadline.remaining_ms());
      if (!ready.ok()) return ready;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Errno("send");
  }
  return Status::OK();
}

Result<size_t> Socket::RecvSome(char* buf, size_t cap, int timeout_ms) {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  DIRECTLOAD_FAILPOINT(fp_rpc_recv);
  const Deadline deadline(timeout_ms);
  while (true) {
    Status ready = PollFor(fd_, POLLIN, deadline.remaining_ms());
    if (!ready.ok()) return ready;
    const ssize_t n = ::recv(fd_, buf, cap, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // POLLIN with nothing readable — a spurious wakeup or a racing
      // reader, not EOF. Re-poll on the same budget, mirroring how the
      // send path treats EAGAIN; returning 0 here would forge a clean
      // end-of-stream.
      continue;
    }
    return Errno("recv");
  }
}

Result<size_t> Socket::RecvNow(char* buf, size_t cap) {
  if (fd_ < 0) return Status::Unavailable("socket is closed");
  DIRECTLOAD_FAILPOINT(fp_rpc_recv);
  while (true) {
    const ssize_t n = ::recv(fd_, buf, cap, MSG_DONTWAIT);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::TimedOut("nothing to read yet");
    }
    return Errno("recv");
  }
}

std::vector<size_t> PollReadable(const std::vector<int>& fds, int timeout_ms) {
  std::vector<struct pollfd> pfds(fds.size());
  for (size_t i = 0; i < fds.size(); ++i) {
    pfds[i].fd = fds[i];
    pfds[i].events = POLLIN;
    pfds[i].revents = 0;
  }
  const Deadline deadline(timeout_ms);
  std::vector<size_t> ready;
  while (true) {
    const int r = ::poll(pfds.data(), pfds.size(), deadline.remaining_ms());
    if (r == 0) return ready;
    if (r < 0 && errno == EINTR) continue;
    for (size_t i = 0; i < pfds.size(); ++i) {
      if (r < 0 || pfds[i].revents != 0) ready.push_back(i);
    }
    return ready;
  }
}

Result<Socket> ConnectTo(const std::string& host, uint16_t port,
                         int timeout_ms) {
  DIRECTLOAD_FAILPOINT(fp_rpc_connect);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  const std::string port_text = std::to_string(port);
  if (::getaddrinfo(host.c_str(), port_text.c_str(), &hints, &res) != 0 ||
      res == nullptr) {
    return Status::Unavailable("cannot resolve " + host);
  }

  Socket socket(::socket(res->ai_family, res->ai_socktype, res->ai_protocol));
  if (!socket.valid()) {
    ::freeaddrinfo(res);
    return Errno("socket");
  }
  // Connect with a deadline: non-blocking connect + poll for writability.
  const int flags = ::fcntl(socket.fd(), F_GETFL, 0);
  ::fcntl(socket.fd(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(socket.fd(), res->ai_addr, res->ai_addrlen);
  ::freeaddrinfo(res);
  if (rc != 0 && errno != EINPROGRESS) return Errno("connect");
  if (rc != 0) {
    Status ready = PollFor(socket.fd(), POLLOUT, timeout_ms);
    if (!ready.ok()) {
      return ready.IsTimedOut() ? Status::TimedOut("connect timed out")
                                : ready;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(socket.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
        err != 0) {
      errno = err != 0 ? err : errno;
      return Errno("connect");
    }
  }
  ::fcntl(socket.fd(), F_SETFL, flags);  // Back to blocking.
  int one = 1;
  ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return socket;
}

Result<Socket> Listen(const std::string& host, uint16_t port, int backlog) {
  Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
  if (!socket.valid()) return Errno("socket");
  int one = 1;
  ::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("listen host must be a numeric IPv4 "
                                   "address: " + host);
  }
  if (::bind(socket.fd(), reinterpret_cast<struct sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return Errno("bind");
  }
  if (::listen(socket.fd(), backlog) != 0) return Errno("listen");
  return socket;
}

Result<uint16_t> LocalPort(const Socket& socket) {
  struct sockaddr_in addr;
  socklen_t len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                    &len) != 0) {
    return Errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Result<Socket> AcceptOne(const Socket& listener, int timeout_ms) {
  Status ready = PollFor(listener.fd(), POLLIN, timeout_ms);
  if (!ready.ok()) return ready;
  while (true) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    return Errno("accept");
  }
}

Result<Socket> AcceptNow(const Socket& listener) {
  // Linux passes a new connection's pending network errors up to accept();
  // they say nothing about the next pending connection.
  static constexpr int kSkipped[] = {EINTR,       ECONNABORTED, EPROTO,
                                     EPERM,       ENETDOWN,     ENETUNREACH,
                                     ENONET,      ENOPROTOOPT,  EHOSTDOWN,
                                     EHOSTUNREACH, EOPNOTSUPP};
  while (true) {
    const int fd = ::accept4(listener.fd(), nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::TimedOut("no pending connection");
    }
    if (std::find(std::begin(kSkipped), std::end(kSkipped), errno) ==
        std::end(kSkipped)) {
      return Errno("accept");
    }
  }
}

}  // namespace directload::rpc
