#ifndef DIRECTLOAD_SERVER_KV_SERVER_H_
#define DIRECTLOAD_SERVER_KV_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "mint/cluster.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"

namespace directload::server {

struct KvServerOptions {
  /// Numeric IPv4 listen address. Loopback by default: the simulated
  /// cluster behind the server is a research artifact, not a hardened
  /// network service.
  std::string host = "127.0.0.1";  // dl-lint: ignore(option-setter)
  /// 0 = kernel-assigned ephemeral port; read it back via port().
  uint16_t port = 0;
  /// Worker threads; each executes the requests it reads. <= 0 sizes the
  /// pool to the hardware concurrency (minimum 2).
  int num_workers = 0;
  /// Connections with no complete request for this long are closed.
  int idle_timeout_ms = 60'000;
};

/// A multi-threaded TCP front end over a mint::MintCluster — the serving
/// path of the paper's regional store: web-search reads and streaming index
/// writes arrive over the same wire protocol (src/rpc/protocol.h) while the
/// engines behind it keep their own concurrency story.
///
/// Threading model (see docs/serving.md): a pool of workers shares one
/// epoll set. Connections are registered EPOLLONESHOT, so one worker at a
/// time owns a connection's read side: it reads once, decodes, re-arms,
/// then executes the frames itself and writes the responses under the
/// connection's write lock. There is no request queue; TCP flow control
/// pushes back on clients while every worker is busy.
///
/// Responses may complete out of order; the request id ties them back.
/// Shutdown() drains gracefully — the workers stop reading, but each first
/// executes and acknowledges every frame it has decoded; then the sockets
/// close. An acknowledged write is therefore always applied to the
/// cluster, which the smoke test checks across a server restart.
///
/// Locks (all ranked above the engine ranks — a worker may take engine
/// locks while holding nothing of the server's):
///   kServerState      mu_        lifecycle + connection registry
///   kServerConnRead   read_mu    per-connection decoder
///   kServerConnWrite  write_mu   per-connection response serialization
class KvServer {
 public:
  /// The cluster must outlive the server and must already be Start()ed.
  KvServer(mint::MintCluster* cluster, KvServerOptions options);
  ~KvServer();

  KvServer(const KvServer&) = delete;
  KvServer& operator=(const KvServer&) = delete;

  /// Binds, listens, and spawns the worker threads.
  Status Start() EXCLUDES(mu_);

  /// Graceful drain; idempotent. Blocks until every in-flight request is
  /// answered and every thread joined.
  void Shutdown() EXCLUDES(mu_);

  /// The bound port (valid after Start(); the interesting case is an
  /// ephemeral bind with options.port == 0).
  uint16_t port() const { return port_; }

  struct Counters {
    std::atomic<uint64_t> connections_accepted{0};
    std::atomic<uint64_t> connections_idle_closed{0};
    std::atomic<uint64_t> requests_served{0};
    /// Answered kBusy at admission (only the `server_enqueue` failpoint).
    std::atomic<uint64_t> requests_rejected_busy{0};
    /// Single-op write requests that rode a multi-request batched run.
    std::atomic<uint64_t> writes_batched{0};
    /// Connections torn down for kProtocol / kCorruption streams.
    std::atomic<uint64_t> stream_errors{0};
    /// Response frames that failed to send (peer gone, or not reading for
    /// the write deadline). The response is dropped and the connection
    /// shut down, but the drop is counted, never silent.
    std::atomic<uint64_t> response_send_failures{0};
    /// Bulk-ingest sessions opened (kBulkBegin acked).
    std::atomic<uint64_t> bulk_sessions_opened{0};
    /// Slice frames staged into the cluster (first landing only).
    std::atomic<uint64_t> bulk_slices_landed{0};
    /// Slice frames rejected kCorruption by the per-hop checksum (each one
    /// repaired by a client re-send, never a torn-down connection).
    std::atomic<uint64_t> bulk_checksum_rejects{0};
  };
  const Counters& counters() const { return counters_; }

 private:
  struct Connection;

  void WorkerLoop();
  /// Accepts every pending connection, then re-arms the listener.
  void AcceptReady() EXCLUDES(mu_);
  /// One wake-up on a connection: read, decode, re-arm, execute.
  void ServeReady(Connection* tagged, std::vector<rpc::Frame>* frames)
      EXCLUDES(mu_);
  /// At most once per poll slice: shuts idle connections down (their next
  /// owner tears them down) and re-arms a paused listener.
  void Housekeep() EXCLUDES(mu_);
  /// EPOLL_CTL_ADD/MOD of `fd` for one event (false if epoll refuses);
  /// `tag` nullptr = the listener.
  bool Arm(int op, int fd, Connection* tag);

  /// Executes one request against the cluster and returns its response.
  /// Takes the connection because bulk-ingest opcodes read and mutate its
  /// session state.
  rpc::Frame Execute(Connection& conn, const rpc::Frame& request);

  /// Executes a run of single-op write requests (a lone one too) as one
  /// cluster write batch and answers each request with its own status.
  void ExecuteWriteRun(Connection& conn, std::span<rpc::Frame> run);

  std::string StatsText();

  mint::MintCluster* const cluster_;
  const KvServerOptions options_;
  uint16_t port_ = 0;
  Counters counters_;

  /// Worker stop signal; set by Shutdown before it joins the workers.
  std::atomic<bool> draining_{false};
  /// Steady-clock ms of the next housekeeping pass.
  std::atomic<int64_t> next_housekeeping_ms_{0};
  /// A failed accept left the listener disarmed for housekeeping to re-arm.
  std::atomic<bool> accept_paused_{false};

  Mutex mu_{LockRank::kServerState, "KvServer::mu_"};
  bool running_ GUARDED_BY(mu_) = false;
  std::unordered_set<std::shared_ptr<Connection>> connections_
      GUARDED_BY(mu_);

  // Lifecycle members, written by Start()/Shutdown() only (which external
  // callers serialize) and stable for the whole time the workers run, so
  // they read them without a lock.
  rpc::Socket listener_;
  rpc::Socket epoll_;  // The workers' shared epoll set (an owned fd).
  std::vector<std::thread> workers_;
};

}  // namespace directload::server

#endif  // DIRECTLOAD_SERVER_KV_SERVER_H_
