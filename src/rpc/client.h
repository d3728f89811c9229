#ifndef DIRECTLOAD_RPC_CLIENT_H_
#define DIRECTLOAD_RPC_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"

namespace directload::rpc {

/// A blocking client for the DirectLoad serving protocol. Each call carries
/// a per-request deadline; connection failures are retried with a bounded
/// number of reconnects (safe here because every operation is idempotent —
/// a PUT names its exact key/version, so replaying it converges). Wire
/// errors come back as the ordinary Status codes: the server's own result
/// for the operation, kTimedOut for an expired deadline, kUnavailable when
/// the server is unreachable, kProtocol / kCorruption when the byte stream
/// itself is broken (those tear the connection down; the next call
/// reconnects).
///
/// Thread-safe: calls are serialized on an internal lock (rank
/// LockRank::kRpcClient). For parallel load, use one client per thread —
/// that is what the closed-loop load generator does.
class RpcClient {
 public:
  struct Options {
    int connect_timeout_ms = 2000;
    /// Per-request deadline covering send + receive of one attempt.
    int request_timeout_ms = 5000;
    /// Reconnect-and-resend attempts after a connection-level failure.
    int max_reconnects = 2;
    /// Capped exponential backoff before retry k (1-based): the cap-clamped
    /// base is backoff_initial_ms << (k-1), and the slept delay is drawn
    /// uniformly from [base/2, base] — jittered so a fleet of clients
    /// retrying against one recovering server does not stampede in phase.
    int backoff_initial_ms = 5;
    int backoff_max_ms = 200;
    /// Per-call retry budget: once the elapsed time plus the next backoff
    /// delay would exceed this, the call stops retrying and returns the
    /// last connection error. Covers sleeps and attempts together.
    int retry_budget_ms = 10000;
    /// Seed for the jitter stream. Deterministic per client, so a chaos
    /// schedule that fixes its seeds replays the same delays every run.
    uint64_t backoff_seed = 1;
  };

  RpcClient(std::string host, uint16_t port)
      : RpcClient(std::move(host), port, Options()) {}
  RpcClient(std::string host, uint16_t port, Options options);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  /// Eagerly connects (calls also connect lazily).
  Status Connect() EXCLUDES(mu_);
  void Close() EXCLUDES(mu_);

  Result<std::string> Get(const Slice& key, uint64_t version) EXCLUDES(mu_);
  Result<std::string> GetLatest(const Slice& key) EXCLUDES(mu_);
  Status Put(const Slice& key, uint64_t version, const Slice& value,
             bool dedup = false) EXCLUDES(mu_);
  Status Del(const Slice& key, uint64_t version) EXCLUDES(mu_);

  /// Ships `ops` as one kWriteBatch frame — the whole batch costs a single
  /// round trip and the server commits it through the engines' group-commit
  /// path. `statuses` (optional) receives one status per op, in op order.
  /// Returns the first non-OK per-op status; transport-level failures come
  /// back as the usual connection statuses with `statuses` left empty
  /// (nothing is known about individual ops).
  Status WriteBatch(const std::vector<BatchOp>& ops,
                    std::vector<Status>* statuses = nullptr) EXCLUDES(mu_);

  Result<std::string> Stats() EXCLUDES(mu_);
  Status Ping() EXCLUDES(mu_);

  /// Failure-detector probe: asks the node for its serving state and live
  /// entry count. Detector callers typically run this client with
  /// `max_reconnects = 0` and a short deadline — a probe that needs a retry
  /// *is* the signal.
  Result<HeartbeatInfo> Heartbeat() EXCLUDES(mu_);

  /// One page of the node's repair scan (see Opcode::kRepairScan).
  Result<RepairPage> RepairScan(const RepairScanRequest& req) EXCLUDES(mu_);

  /// The capped-exponential reconnect delay for attempt `attempt`
  /// (1-based), jitter included — exposed so tests can pin the schedule
  /// (base doubling, cap clamp, [base/2, base] jitter bounds) without
  /// standing up a failing server and timing real sleeps.
  int BackoffDelayMsForTest(int attempt) { return BackoffDelayMs(attempt); }

  // -- Pipelined surface (the load generator drives this directly) --------

  /// Fresh request id for a caller-built frame.
  uint64_t NextRequestId() { return next_id_.fetch_add(1); }

  /// Ships one request without waiting for its response.
  Status Send(const Frame& request) EXCLUDES(mu_);

  /// Blocks for the next response frame (any request id — pipelined
  /// responses may complete out of order; the caller matches ids).
  Result<Frame> Receive() EXCLUDES(mu_);

  /// Receive with an explicit deadline; 0 takes only what has already
  /// arrived. kTimedOut leaves the stream intact: a partly received frame
  /// stays buffered, and a later Receive returns it whole.
  Result<Frame> Receive(int timeout_ms) EXCLUDES(mu_);

  /// Waits until at least one of `clients` has a Receive that will not
  /// block — bytes arrived, the connection broke or closed, or a whole
  /// frame is already buffered — or `timeout_ms` passes (<0 = forever).
  /// Returns the indices of those clients in order; none on timeout. The
  /// caller must own the clients: no other thread may use them meanwhile.
  static std::vector<size_t> WaitReadable(
      const std::vector<RpcClient*>& clients, int timeout_ms);

 private:
  /// One request/response exchange with reconnect-and-resend.
  Result<Frame> Call(Frame request) EXCLUDES(mu_);

  /// The jittered delay before reconnect attempt `attempt` (1-based). Takes
  /// mu_ briefly for the jitter draw; the caller sleeps unlocked.
  int BackoffDelayMs(int attempt) EXCLUDES(mu_);

  Status EnsureConnectedLocked() REQUIRES(mu_);
  Status SendLocked(const Frame& frame, int timeout_ms) REQUIRES(mu_);
  Result<Frame> ReceiveLocked(int timeout_ms) REQUIRES(mu_);
  void CloseLocked() REQUIRES(mu_);

  const std::string host_;
  const uint16_t port_;
  const Options options_;
  std::atomic<uint64_t> next_id_{1};

  Mutex mu_{LockRank::kRpcClient, "RpcClient::mu_"};
  Socket socket_ GUARDED_BY(mu_);
  FrameDecoder decoder_ GUARDED_BY(mu_);
  Random backoff_rng_ GUARDED_BY(mu_);
};

}  // namespace directload::rpc

#endif  // DIRECTLOAD_RPC_CLIENT_H_
