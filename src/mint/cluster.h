#ifndef DIRECTLOAD_MINT_CLUSTER_H_
#define DIRECTLOAD_MINT_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <atomic>

#include "common/result.h"
#include "common/sim_clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "qindb/qindb.h"
#include "rpc/protocol.h"
#include "ssd/env.h"

namespace directload::mint {

/// Fixed network round trip added to every remote read (intra-DC).
inline constexpr double kReadRttMicros = 200;

struct MintOptions {
  int num_groups = 2;
  int nodes_per_group = 3;
  int replicas = 3;  // <= nodes_per_group; the paper replicates 3x.

  ssd::Geometry node_geometry;  // One simulated SSD per storage node.
  qindb::QinDbOptions engine;

  /// Fan reads out to the group's replicas on real threads (one per live
  /// replica); false falls back to a sequential loop over the replicas.
  /// Either way the winner is the fastest live replica by simulated
  /// latency, so results are deterministic.
  bool parallel_reads = true;
};

/// One storage node: its own simulated SSD (devices run in parallel, so
/// each node has a private clock) and a QinDB engine on top.
///
/// Lifecycle discipline: Fail() destroys the engine and Recover() rebuilds
/// it, and either may race with request threads inside MintCluster. Every
/// path that dereferences db() therefore holds lifecycle_mu() shared for
/// the duration of the engine call (rank kMintNode, just above the engine
/// locks), and Fail()/Recover() take it exclusively — a crash waits for
/// in-flight requests to drain off the node instead of freeing the engine
/// under them. up() is a lock-free hint for replica pre-selection; the
/// authoritative check is up() re-read under the shared lock.
class StorageNode {
 public:
  StorageNode(int id, const MintOptions& options);

  Status Start();

  int id() const { return id_; }
  bool up() const { return up_.load(std::memory_order_acquire); }
  qindb::QinDb* db() { return db_.get(); }
  SimClock* clock() { return &clock_; }
  ssd::SsdEnv* env() { return env_.get(); }
  SharedMutex* lifecycle_mu() const { return &lifecycle_mu_; }

  /// Simulates a crash: the engine's memory (memtable, GC table) is lost;
  /// the AOFs on the simulated SSD survive. Blocks until in-flight requests
  /// against this node's engine have drained.
  void Fail();

  /// Rebuilds the engine from the AOFs (checkpoint-accelerated when one is
  /// valid). Returns the simulated recovery time in seconds.
  Result<double> Recover();

 private:
  int id_;
  MintOptions options_;
  SimClock clock_;
  // env_/db_ are rebuilt under an exclusive lifecycle_mu_ hold
  // (Fail/Recover), but read through the *unlocked* accessors env()/db():
  // the documented protocol (see the class comment) is that callers hold
  // lifecycle_mu_ shared across the whole engine call, which clang's TSA
  // cannot see through an accessor without REQUIRES on every caller.
  std::unique_ptr<ssd::SsdEnv> env_;  // dl-lint: ignore(guarded-by-coverage)
  std::unique_ptr<qindb::QinDb> db_;  // dl-lint: ignore(guarded-by-coverage)
  std::atomic<bool> up_{false};
  mutable SharedMutex lifecycle_mu_{LockRank::kMintNode,
                                    "StorageNode::lifecycle_mu_"};
};

/// Mint: the regional distributed key-value store (Section 2.3). Keys are
/// dispatched to node *groups* via H(k) — never directly to nodes, so
/// group membership can change without redistributing stored pairs — and
/// each pair is written to `replicas` nodes of its group, chosen by
/// rendezvous hashing. Reads are sent to the group's nodes in parallel —
/// one std::thread per live replica, every thread joined before the call
/// returns — and the fastest live replica answers (first-result-wins by
/// simulated latency), which hides slow or recovering nodes. Each node owns
/// a private clock, env, and engine, so replica threads share no mutable
/// state and the cluster holds no lock of its own beyond each node's
/// lifecycle lock (see StorageNode); the engines themselves are internally
/// thread-safe (see LockRank in common/lock_rank.h for the per-engine lock
/// order the replica threads run under). Requests may race freely with
/// FailNode/RecoverNode, and with AddNode too: the node/group tables are
/// guarded by a cluster-level shared lock (rank kMintCluster) that every
/// operation holds shared and AddNode holds exclusive, so membership growth
/// waits out in-flight traffic instead of racing it undetected.
class MintCluster {
 public:
  explicit MintCluster(const MintOptions& options);

  Status Start();

  int GroupOf(const Slice& key) const;
  /// Replica node ids (within the key's group) for new writes.
  std::vector<int> ReplicasOf(const Slice& key) const;

  /// One-op WriteMany calls.
  Status Put(const Slice& key, uint64_t version, const Slice& value,
             bool dedup = false);
  Status Del(const Slice& key, uint64_t version);

  /// Executes `ops` in order with one engine Write per involved node: ops
  /// are bucketed by replica target into per-node qindb::WriteBatch objects
  /// and each node commits its share in a single group-commit pass (one AOF
  /// append per node instead of one per op). Puts go to the key's replicas,
  /// Dels to its whole group. `statuses` receives one status per op: OK if
  /// any live target applied it; otherwise the first refusal, NotFound for a
  /// Del no replica held, or Unavailable when no target was live. Ops to the
  /// same key always target the same node set, so per-key ordering is
  /// preserved. Returns the first non-OK per-op status.
  Status WriteMany(const std::vector<rpc::BatchOp>& ops,
                   std::vector<Status>* statuses);
  /// Flags `version` deleted on every live node (the oldest-version
  /// pruning), past any failing one; returns the lowest-id failure.
  Status DropVersion(uint64_t version);

  // -- Bulk-ingest fan-out (Bifrost over the wire) --------------------------
  //
  // A bulk session stages one index version across the cluster through the
  // engines' IngestRun fast path: staged pairs are durable but invisible
  // until BulkCommit, and BulkAbort (or a crash) leaves no trace. Nodes that
  // are down miss the session exactly as they miss a Put — re-replication
  // heals them afterwards — and a node that recovers mid-session simply has
  // no session to commit (its engine answers InvalidArgument, which the
  // fan-out tolerates).

  /// Opens the session on every live node. A refusal aborts the version on
  /// every node, so a failed begin leaves no session open anywhere.
  Status BulkBegin(uint64_t version);

  /// Lands one run of pre-decoded pairs: puts go to each key's rendezvous
  /// replicas, tombstones to the key's whole group (mirroring Put/Del).
  /// `ops` slices alias the caller's buffer for the duration of the call.
  /// A non-OK return means the run must be re-sent whole; replicas that
  /// already staged it tolerate the duplicate (the later copy supersedes at
  /// commit, like a re-PUT).
  Status BulkIngest(uint64_t version, const qindb::IngestOp* ops,
                    size_t count);

  /// Commits the session on every live node holding it.
  Status BulkCommit(uint64_t version);

  /// Rolls the session back on every live node holding it; idempotent.
  Status BulkAbort(uint64_t version);

  struct ReadResult {
    std::string value;
    double latency_micros = 0;  // Fastest replica's device time + RTT.
    int served_by = -1;
  };
  Result<ReadResult> Get(const Slice& key, uint64_t version);
  Result<ReadResult> GetLatest(const Slice& key);

  /// Crash / recover a node. Reads keep working off the other replicas.
  Status FailNode(int node_id);
  Result<double> RecoverNode(int node_id);

  /// Adds an empty node to `group`. Existing pairs stay where they are
  /// (reads query the whole group, so nothing needs to move); the new node
  /// participates in replica selection for subsequent writes. Safe
  /// concurrently with serving traffic: the exclusive cluster_mu_ hold
  /// waits out in-flight operations before growing the node table.
  Result<int> AddNode(int group);

  int num_nodes() const;
  /// The node object outlives the cluster-table lookup this performs (nodes
  /// are never removed), so the returned pointer stays valid; engine access
  /// through it still follows the StorageNode lifecycle protocol.
  StorageNode* node(int id);
  const MintOptions& options() const { return options_; }

  /// Sum of user bytes ingested across nodes (3x-replicated writes).
  uint64_t TotalUserBytesIngested() const;
  uint64_t TotalDiskBytes() const;

 private:
  // The *Locked helpers are what the serving operations call internally:
  // each public entry point takes cluster_mu_ (shared) exactly once, so a
  // public method calling another public method would trip the rank
  // checker's same-rank rule — by design, since that is a real
  // shared-after-shared deadlock behind a queued AddNode writer.
  int GroupOfLocked(const Slice& key) const REQUIRES_SHARED(cluster_mu_);
  std::vector<int> ReplicasOfLocked(const Slice& key) const
      REQUIRES_SHARED(cluster_mu_);
  const std::vector<int>& GroupNodesLocked(int group) const
      REQUIRES_SHARED(cluster_mu_) {
    return groups_[group];
  }

  /// The one write router, shared by WriteMany and BulkIngest: calls
  /// `emit(node_id, i)` for every target node of op i, in op order. Puts go
  /// to the key's rendezvous replicas, deletes to its whole group;
  /// `target(i)` returns op i's key and whether it is a delete. The
  /// ranking buffers are reused across ops, so routing allocates nothing
  /// per op.
  template <typename TargetFn, typename EmitFn>
  void RouteWritesLocked(size_t count, const TargetFn& target,
                         const EmitFn& emit) const
      REQUIRES_SHARED(cluster_mu_);

  template <typename Fn>
  Result<ReadResult> ParallelRead(const Slice& key, const Fn& fn)
      REQUIRES_SHARED(cluster_mu_);

  Status BulkAbortLocked(uint64_t version) REQUIRES_SHARED(cluster_mu_);

  MintOptions options_;
  /// Guards the node/group membership tables: shared across every serving
  /// operation, exclusive for AddNode. The replica threads ParallelRead
  /// spawns read the table while their parent holds the shared lock across
  /// their whole lifetime (spawn → join), which is why the fields carry no
  /// GUARDED_BY — clang's analysis cannot see a parent's hold from inside
  /// a lambda running on a child thread.
  mutable SharedMutex cluster_mu_{LockRank::kMintCluster,
                                  "MintCluster::cluster_mu_"};
  // Both tables follow cluster_mu_'s documented protocol (see its comment
  // for why GUARDED_BY cannot express it).
  std::vector<std::unique_ptr<StorageNode>>
      nodes_;  // dl-lint: ignore(guarded-by-coverage)
  std::vector<std::vector<int>>
      groups_;  // dl-lint: ignore(guarded-by-coverage)
};

}  // namespace directload::mint

#endif  // DIRECTLOAD_MINT_CLUSTER_H_
