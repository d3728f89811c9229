#ifndef DIRECTLOAD_SERVER_NODE_PROCESS_H_
#define DIRECTLOAD_SERVER_NODE_PROCESS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace directload::server {

/// Owns one dmint_node child process: fork/exec, the ready-line handshake
/// (the child prints "dmint_node: ready port=<port> ..." on stdout once its
/// server is bound), and teardown. The chaos harnesses drive the lifecycle:
/// Terminate() is the graceful drain, Kill() is the crash arm (SIGKILL, the
/// node's in-memory SSD is lost), Suspend()/Resume() freeze a live node so
/// its kernel still accepts TCP but nothing answers — the stimulus that
/// forces timer-based hedging. Restart() re-launches on the recorded port
/// so a coordinator's fixed endpoint table keeps pointing at the node.
///
/// Not thread-safe; one owner drives each process.
class NodeProcess {
 public:
  NodeProcess() = default;
  ~NodeProcess();  // Kills the child if still running.

  NodeProcess(const NodeProcess&) = delete;
  NodeProcess& operator=(const NodeProcess&) = delete;
  NodeProcess(NodeProcess&& other) noexcept;
  NodeProcess& operator=(NodeProcess&& other) noexcept;

  /// Launches `binary --port <port> --shards <shards>` and blocks until the
  /// ready line arrives (or `ready_timeout_ms` passes — kUnavailable, child
  /// reaped). port 0 asks the node for an ephemeral port; the bound port is
  /// read back from the handshake either way.
  Status Start(const std::string& binary, uint16_t port, int shards,
               int ready_timeout_ms = 10'000);

  /// SIGKILL + reap: the crash. Idempotent.
  void Kill();

  /// SIGTERM + reap: the graceful drain. Fails if the child exited non-zero.
  Status Terminate();

  /// SIGSTOP / SIGCONT: freeze and thaw without losing state. Suspend()
  /// returns only once the whole node has stopped.
  Status Suspend();
  Status Resume();

  /// Re-launches the same binary/shards on the same port after Kill() or
  /// Terminate().
  Status Restart(int ready_timeout_ms = 10'000);

  bool running() const { return pid_ > 0; }
  int pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  void Reap();

  std::string binary_;
  int shards_ = 1;
  int pid_ = -1;
  uint16_t port_ = 0;
};

}  // namespace directload::server

#endif  // DIRECTLOAD_SERVER_NODE_PROCESS_H_
