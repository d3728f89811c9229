#ifndef DIRECTLOAD_MINT_COORDINATOR_H_
#define DIRECTLOAD_MINT_COORDINATOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/latency_estimator.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "rpc/client.h"

namespace directload::mint {

/// Address of one storage-node KvServer process.
struct NodeEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Failure-detector verdict for a node. `kSuspect` deprioritizes the node
/// for reads (it is tried last among the candidates); `kDown` additionally
/// routes writes around it — the pairs it misses are healed by RepairNode.
enum class NodeHealth { kUp, kSuspect, kDown };

struct CoordinatorOptions {
  /// Copies per pair, chosen by rendezvous hashing within the key's group.
  /// A write is reported durable once a majority of them ack (2 of 3), so
  /// "SIGKILL one replica" loses zero acked writes: every ack then has a
  /// surviving copy.
  int replicas = 3;

  // -- Hedged reads ("Tail-Tolerant Distributed Search") -------------------
  /// A read goes to the preferred replica; if it has not answered within
  /// the hedge delay, a backup attempt goes to the next candidate and
  /// whichever answers first wins. The caller's thread waits on both
  /// sockets. The loser's connection is closed, not pooled — the DLP1
  /// protocol has no cancel, so a pooled client never has a request
  /// outstanding and an abandoned response can never bleed into a later
  /// request. The delay is the primary's rolling p95 latency, never below
  /// 1 ms; until the primary has hedge_min_samples samples, it is
  /// hedge_default_delay_ms.
  double hedge_default_delay_ms = 20.0;
  int hedge_min_samples = 16;

  // -- Failure detector ----------------------------------------------------
  /// The detector thread probes every node each interval with kHeartbeat on
  /// a dedicated no-retry client; data-path transport failures count as
  /// misses too, so a dead node is usually detected by the first write that
  /// hits it rather than by the next probe.
  int heartbeat_interval_ms = 50;
  int heartbeat_timeout_ms = 250;
  int suspect_after_misses = 2;
  int down_after_misses = 4;

  /// Pairs requested per kRepairScan page.
  uint32_t repair_page_pairs = 512;
};

/// The coordinator half of distributed Mint: speaks DLP1 to a fleet of
/// storage-node KvServer processes, replicating writes to each key's
/// rendezvous replicas with quorum accounting, serving hedged reads, running
/// the heartbeat failure detector, and healing replicas over RPC. Placement
/// (group dispatch + rendezvous ranking) is shared with the in-process
/// MintCluster via mint/routing.h, so a coordinator and a cluster given the
/// same topology agree on where every pair lives.
///
/// Thread-safe. Every read and write runs on the calling thread: it sends
/// to its nodes over pooled clients, then waits on their sockets together.
/// The only lock is mu_ (rank kMintCoord), which guards the node table
/// (health, miss counters, client pools) and is only ever taken standalone.
class MintCoordinator {
 public:
  /// `groups[g]` lists group g's node endpoints; node ids are assigned
  /// contiguously in iteration order (group 0's nodes first).
  MintCoordinator(std::vector<std::vector<NodeEndpoint>> groups,
                  CoordinatorOptions options);
  ~MintCoordinator();

  MintCoordinator(const MintCoordinator&) = delete;
  MintCoordinator& operator=(const MintCoordinator&) = delete;

  /// Starts the failure-detector thread. Does not require the nodes to be
  /// reachable yet — unreachable nodes simply accumulate misses.
  Status Start();

  /// Stops the detector. Idempotent.
  void Stop();

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int num_groups() const { return static_cast<int>(groups_.size()); }
  const NodeEndpoint& endpoint(int node_id) const {
    return nodes_[node_id]->endpoint;
  }

  int GroupOf(const Slice& key) const;
  std::vector<int> ReplicasOf(const Slice& key) const;

  struct WriteReport {
    int acks = 0;      // Replicas that applied the write.
    int targets = 0;   // Replica-set size.
    int quorum = 0;    // Acks required.
    int attempts = 0;  // Total sends, retries included.
  };

  /// Replicates the put to the key's rendezvous replicas, one ack per
  /// replica, and succeeds once a majority of them acked. The replicas
  /// are written in parallel and all of them are waited for. Down nodes
  /// are skipped (routed around); replicas that miss the write are healed
  /// by RepairNode.
  Status Put(const Slice& key, uint64_t version, const Slice& value,
             bool dedup = false, WriteReport* report = nullptr);

  /// Deletes fan out to the key's whole group (mirroring MintCluster::Del):
  /// any replica acking suffices, NotFound aggregates across replicas.
  Status Del(const Slice& key, uint64_t version);

  struct ReadResult {
    std::string value;
    int served_by = -1;     // Node id that answered.
    bool hedged = false;    // A backup attempt was launched.
    double latency_ms = 0;  // Wall time of the whole read.
  };

  Result<ReadResult> Get(const Slice& key, uint64_t version);
  Result<ReadResult> GetLatest(const Slice& key);

  /// Re-replication over RPC: inventories the target (keys-only scan), then
  /// pages every live peer's repair scan, filters each page down to pairs
  /// the target is responsible for but lacks, and bulk-applies them via
  /// kWriteBatch. Returns the number of pairs copied. The target serves
  /// (and takes new writes) throughout.
  Result<uint64_t> RepairNode(int node_id);

  /// Verifies the replication factor for `node_id`: counts pairs held by
  /// live peers that rendezvous-route to the node but are missing from it.
  /// 0 means the node holds its full share.
  Result<uint64_t> VerifyNodeComplete(int node_id);

  NodeHealth health(int node_id) const EXCLUDES(mu_);

  struct Counters {
    uint64_t writes_acked = 0;
    uint64_t write_quorum_failures = 0;
    uint64_t replica_write_failures = 0;
    uint64_t hedged_reads = 0;   // Backup attempts launched by the timer.
    uint64_t hedge_wins = 0;     // Reads won by the hedge attempt.
    uint64_t read_failovers = 0; // Attempts launched by a failed attempt.
    uint64_t heartbeat_misses = 0;
    uint64_t repair_pairs_copied = 0;
  };
  Counters counters() const;

 private:
  struct Node {
    NodeEndpoint endpoint;
    int group = -1;
    NodeHealth health = NodeHealth::kUp;  // Guarded by mu_ (see below).
    int misses = 0;                       // Guarded by mu_.
    /// Idle data-path clients. A client is popped for the duration of one
    /// call and pushed back only if the transport stayed healthy.
    std::vector<std::unique_ptr<rpc::RpcClient>> pool;  // Guarded by mu_.
    /// The detector's dedicated probe client; detector thread only.
    std::unique_ptr<rpc::RpcClient> probe;
    /// Rolling successful-read latencies (wall ms); internally locked.
    LatencyEstimator latency_ms;
  };

  struct Attempt;

  Result<ReadResult> ReadInternal(const Slice& key, uint64_t version,
                                  bool latest);

  /// Sends `request` to every node in `targets` at once, then collects the
  /// answers, so a write costs its slowest replica rather than the sum.
  /// Per target: a down node is routed around, `coord_replica_write` fires,
  /// and a kBusy or transport failure is sent once more after the client's
  /// jittered backoff. Returns one status per target; `sends` counts every
  /// send, retries included.
  std::vector<Status> FanOut(const std::vector<int>& targets,
                             const rpc::Frame& request, int* sends);

  /// Pops a pooled client for `node_id` and starts an exchange of
  /// `request` on it.
  Attempt Begin(int node_id, const rpc::Frame& request, int slot);
  /// Waits on the attempts' exchanges together (RpcClient::Exchange::Await).
  static void Await(std::vector<Attempt>* attempts,
                    std::chrono::steady_clock::time_point until);
  /// Pools a finished attempt's client if the node answered, and feeds the
  /// failure detector.
  void Finish(Attempt* a, const Status& answer) EXCLUDES(mu_);

  /// The hedge delay the next read of this node's group would use.
  double HedgeDelayMsFor(int node_id);

  std::unique_ptr<rpc::RpcClient> AcquireClient(int node_id) EXCLUDES(mu_);
  void ReleaseClient(int node_id, std::unique_ptr<rpc::RpcClient> client,
                     bool reusable) EXCLUDES(mu_);

  /// Feeds the failure detector from probe results and data-path outcomes.
  void ReportNodeOutcome(int node_id, bool healthy) EXCLUDES(mu_);

  /// Read candidates for a group: up nodes first (fastest rolling p95
  /// first), then suspects, then down nodes as a last resort — a down node
  /// may have restarted before the detector noticed.
  std::vector<int> ReadOrder(int group) const EXCLUDES(mu_);

  void DetectorLoop();

  /// Pages through `node_id`'s repair scan from the start over one pooled
  /// client, handing each page to `on_page`; the client is pooled again
  /// unless the transport failed. Returns the scan's failure, or OK once
  /// the last page is handled.
  Status ScanNode(int node_id, bool keys_only,
                  const std::function<void(rpc::RepairPage*)>& on_page);

  /// Keys-only inventory of everything `node_id` currently holds, as
  /// key-bytes + fixed64-version tokens (the fixed-width suffix makes the
  /// encoding unambiguous for arbitrary key bytes).
  Result<std::unordered_set<std::string>> InventoryNode(int node_id);

  const CoordinatorOptions options_;
  // The vector itself is immutable after the ctor (Node pointers stay
  // stable); each Node's mutable fields are guarded by mu_ individually.
  std::vector<std::unique_ptr<Node>>
      nodes_;  // dl-lint: ignore(guarded-by-coverage)
  std::vector<std::vector<int>> groups_;      // Immutable after ctor.

  mutable Mutex mu_{LockRank::kMintCoord, "MintCoordinator::mu_"};
  CondVar cv_{&mu_};  // Detector sleep.
  bool stopping_ GUARDED_BY(mu_) = false;
  std::thread detector_;
  bool started_ = false;

  std::atomic<uint64_t> writes_acked_{0};
  std::atomic<uint64_t> write_quorum_failures_{0};
  std::atomic<uint64_t> replica_write_failures_{0};
  std::atomic<uint64_t> hedged_reads_{0};
  std::atomic<uint64_t> hedge_wins_{0};
  std::atomic<uint64_t> read_failovers_{0};
  std::atomic<uint64_t> heartbeat_misses_{0};
  std::atomic<uint64_t> repair_pairs_copied_{0};
};

}  // namespace directload::mint

#endif  // DIRECTLOAD_MINT_COORDINATOR_H_
