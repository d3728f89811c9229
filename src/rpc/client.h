#ifndef DIRECTLOAD_RPC_CLIENT_H_
#define DIRECTLOAD_RPC_CLIENT_H_

#include <atomic>
#include <chrono>
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

/// A blocking client for the DirectLoad serving protocol. Every request runs
/// as an `Exchange` (below), which resends after a broken connection — safe
/// because every operation is idempotent: a PUT names its exact
/// key/version, so replaying it converges. The typed calls drive one
/// exchange to completion on the caller's thread. Wire errors come back as
/// the ordinary Status codes: the server's own result for the operation,
/// kTimedOut for an expired deadline, kUnavailable when the server is
/// unreachable, kProtocol / kCorruption when the byte stream itself is
/// broken (those tear the connection down; the next call reconnects).
///
/// Thread-safe: calls are serialized on an internal lock (rank
/// LockRank::kRpcCall). For parallel load, use one client per thread.
class RpcClient {
 public:
  struct Options {
    int connect_timeout_ms = 2000;
    /// Per-send deadline covering send + receive of one attempt.
    int request_timeout_ms = 5000;
    /// Reconnect-and-resend attempts after a connection-level failure.
    int max_reconnects = 2;
    /// The first resend dials at once; resend k+1 first sleeps a capped
    /// exponential backoff: the cap-clamped base is backoff_initial_ms <<
    /// (k-1), and the slept delay is drawn uniformly from [base/2, base] —
    /// jittered so a fleet of clients retrying against one recovering
    /// server does not stampede in phase.
    int backoff_initial_ms = 5;
    int backoff_max_ms = 200;
    /// Per-request retry budget: once the elapsed time plus the next
    /// backoff delay would exceed this, the exchange stops resending and
    /// returns the last connection error. Covers sleeps and sends together.
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

  /// The jittered backoff step `attempt` (1-based), drawn as Options
  /// describes. An exchange sleeps it before each re-dial after the first,
  /// and a caller that retries a whole request (the coordinator's write
  /// retry) sleeps it too.
  int BackoffDelayMs(int attempt) EXCLUDES(mu_);

  class Exchange;

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
  /// One exchange driven to completion on the caller's thread.
  Result<Frame> Call(Frame request) EXCLUDES(call_mu_);

  Status EnsureConnectedLocked() REQUIRES(mu_);
  Status SendLocked(const Frame& frame, int timeout_ms) REQUIRES(mu_);
  Result<Frame> ReceiveLocked(int timeout_ms) REQUIRES(mu_);
  void CloseLocked() REQUIRES(mu_);

  const std::string host_;
  const uint16_t port_;
  const Options options_;
  std::atomic<uint64_t> next_id_{1};

  Mutex call_mu_{LockRank::kRpcCall, "RpcClient::call_mu_"};
  Mutex mu_{LockRank::kRpcClient, "RpcClient::mu_"};
  Socket socket_ GUARDED_BY(mu_);
  FrameDecoder decoder_ GUARDED_BY(mu_);
  Random backoff_rng_ GUARDED_BY(mu_);
};

/// One request on one client, run as a state machine so that one thread
/// can drive several at once (MintCoordinator does). The exchange
///  - sends the request under a fresh id, each send with a fresh deadline;
///  - on a broken connection re-dials and resends, at once the first time
///    and after the client's jittered backoff later, within
///    `max_reconnects` and `retry_budget_ms`;
///  - skips responses to other request ids (a reconnect or an abandoned
///    request may leave them ahead of its own);
///  - ends with the response, a transport failure, or kTimedOut at the
///    deadline, which leaves the stream intact.
/// The caller owns the client while the exchange runs.
class RpcClient::Exchange {
 public:
  using Clock = std::chrono::steady_clock;

  /// Sends `request` on `client`.
  Exchange(RpcClient* client, Frame request);

  bool done() const { return done_; }

  /// Once done: the response, or the failure that ended the exchange.
  Result<Frame> TakeResponse();

  /// Waits until `until`, or until an unfinished exchange among
  /// `exchanges` receives, fails, reaches its deadline or its resend time,
  /// and advances those.
  static void Await(const std::vector<Exchange*>& exchanges,
                    Clock::time_point until);

 private:
  void Transmit();
  /// Takes responses until this exchange's own arrives, up to `until`.
  void Poll(Clock::time_point until);
  /// Schedules a resend if `s` is a broken connection and one is left;
  /// otherwise ends the exchange with `s`.
  void Fail(const Status& s);

  RpcClient* client_;
  Frame request_;
  int resends_ = 0;
  Clock::time_point budget_;
  /// When the exchange acts on its own: the deadline of the latest send,
  /// or the time of a pending resend.
  Clock::time_point due_;
  bool resend_pending_ = false;
  bool done_ = false;
  Status status_;
  Frame response_;
};

/// What a response says about its operation: the transport failure when
/// there is no response, else the server's status, with the value on
/// success.
Result<std::string> Unwrap(Result<Frame> response);

}  // namespace directload::rpc

#endif  // DIRECTLOAD_RPC_CLIENT_H_
