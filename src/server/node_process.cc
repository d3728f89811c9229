#include "server/node_process.h"

#include <cerrno>
#include <cstdlib>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <utility>

#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace directload::server {

namespace {

/// Reads the child's stdout through `fd` until the ready line's "port=" token
/// arrives, a deadline passes, or the pipe closes (child died before
/// serving). The pipe stays open after this returns — the child keeps a
/// writable stdout for its lifetime — but nothing reads it further; node
/// output beyond the handshake is not part of the protocol.
Status ReadReadyPort(int fd, int timeout_ms, uint16_t* port) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  std::string line;
  char c;
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return Status::TimedOut("node ready line");
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int remaining = static_cast<int>(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now)
            .count());
    const int ready = ::poll(&pfd, 1, remaining);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("poll on node stdout: ") +
                              std::strerror(errno));
    }
    if (ready == 0) return Status::TimedOut("node ready line");
    const ssize_t n = ::read(fd, &c, 1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("read node stdout: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      return Status::Unavailable("node exited before its ready line");
    }
    if (c != '\n') {
      line.push_back(c);
      continue;
    }
    const size_t at = line.find("port=");
    if (at != std::string::npos) {
      const long parsed = std::strtol(line.c_str() + at + 5, nullptr, 10);
      if (parsed <= 0 || parsed > 65535) {
        return Status::Protocol("malformed node ready line: " + line);
      }
      *port = static_cast<uint16_t>(parsed);
      return Status::OK();
    }
    line.clear();  // Not the handshake; keep scanning.
  }
}

}  // namespace

NodeProcess::~NodeProcess() { Kill(); }

NodeProcess::NodeProcess(NodeProcess&& other) noexcept
    : binary_(std::move(other.binary_)),
      shards_(other.shards_),
      pid_(other.pid_),
      port_(other.port_) {
  other.pid_ = -1;
}

NodeProcess& NodeProcess::operator=(NodeProcess&& other) noexcept {
  if (this != &other) {
    Kill();
    binary_ = std::move(other.binary_);
    shards_ = other.shards_;
    pid_ = other.pid_;
    port_ = other.port_;
    other.pid_ = -1;
  }
  return *this;
}

Status NodeProcess::Start(const std::string& binary, uint16_t port,
                          int shards, int ready_timeout_ms) {
  if (running()) return Status::InvalidArgument("node is already running");
  binary_ = binary;
  shards_ = shards;

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    return Status::IOError(std::string("pipe: ") + std::strerror(errno));
  }
  const int pid = ::fork();
  if (pid < 0) {
    ::close(pipe_fds[0]);
    ::close(pipe_fds[1]);
    return Status::IOError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    // Child: stdout becomes the handshake pipe; stdin is detached.
    ::close(pipe_fds[0]);
    ::dup2(pipe_fds[1], STDOUT_FILENO);
    ::close(pipe_fds[1]);
    const std::string port_arg = std::to_string(port);
    const std::string shards_arg = std::to_string(shards);
    ::execl(binary_.c_str(), binary_.c_str(), "--port", port_arg.c_str(),
            "--shards", shards_arg.c_str(), static_cast<char*>(nullptr));
    // exec failed; nothing sensible to do but die loudly (the parent sees
    // the closed pipe).
    std::fprintf(stderr, "exec %s: %s\n", binary_.c_str(),
                 std::strerror(errno));
    ::_exit(127);
  }
  ::close(pipe_fds[1]);
  pid_ = pid;
  Status ready = ReadReadyPort(pipe_fds[0], ready_timeout_ms, &port_);
  ::close(pipe_fds[0]);
  if (!ready.ok()) {
    Kill();
    return ready;
  }
  return Status::OK();
}

void NodeProcess::Reap() {
  if (pid_ <= 0) return;
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
}

void NodeProcess::Kill() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  Reap();
}

Status NodeProcess::Terminate() {
  if (pid_ <= 0) return Status::InvalidArgument("node is not running");
  ::kill(pid_, SIGTERM);
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  if (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0) return Status::OK();
  return Status::IOError("node exited abnormally on SIGTERM");
}

Status NodeProcess::Suspend() {
  if (pid_ <= 0) return Status::InvalidArgument("node is not running");
  if (::kill(pid_, SIGSTOP) != 0) {
    return Status::IOError(std::string("SIGSTOP: ") + std::strerror(errno));
  }
  // kill() returns once the signal is queued, but the kernel hands it to
  // one thread and the rest of the node keeps serving until that thread
  // runs and stops the whole group. Wait for the stop to be reported so a
  // request sent after Suspend() returns can never be answered.
  int wstatus = 0;
  while (::waitpid(pid_, &wstatus, WUNTRACED) < 0) {
    if (errno != EINTR) {
      return Status::IOError(std::string("waitpid: ") + std::strerror(errno));
    }
  }
  if (!WIFSTOPPED(wstatus)) {
    pid_ = -1;  // The child exited instead of stopping, and is now reaped.
    return Status::IOError("node exited instead of stopping");
  }
  return Status::OK();
}

Status NodeProcess::Resume() {
  if (pid_ <= 0) return Status::InvalidArgument("node is not running");
  if (::kill(pid_, SIGCONT) != 0) {
    return Status::IOError(std::string("SIGCONT: ") + std::strerror(errno));
  }
  return Status::OK();
}

Status NodeProcess::Restart(int ready_timeout_ms) {
  if (running()) return Status::InvalidArgument("node is still running");
  if (binary_.empty() || port_ == 0) {
    return Status::InvalidArgument("node was never started");
  }
  return Start(binary_, port_, shards_, ready_timeout_ms);
}

}  // namespace directload::server
