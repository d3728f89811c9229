#ifndef DIRECTLOAD_COMMON_LOCK_RANK_H_
#define DIRECTLOAD_COMMON_LOCK_RANK_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace directload {

/// The engine-wide lock acquisition order, one rank per lock. A thread may
/// only acquire a lock whose rank is strictly greater than every rank it
/// already holds, so any cycle in the would-be waits-for graph is caught at
/// the first out-of-order acquisition — deterministically, on every code
/// path, not just the interleavings a stress test happens to hit.
///
/// The numbering mirrors docs/qindb_internals.md ("Lock ranks"): ranks grow
/// downward through the storage stack, and gaps leave room for new layers.
///
/// Each enumerator's doc comment is structured — tools/dl_lint parses it
/// and generates the docs table from it, so the two can never drift:
///
///   /// Lock: `<lock expression>` — <what it protects, one sentence>.
///   /// Sibling instances: <why several locks share this rank>.   (opt.)
///   ///
///   /// <free prose, separated from the tags by a blank /// line>
///
/// The `Sibling instances:` tag is mandatory (dl-lint enforces it) when a
/// rank has more than one static construction site or runtime-named
/// instances: equal-rank nesting aborts at runtime, so sharing a rank is a
/// design statement that must be visibly intentional.
enum class LockRank : int {
  /// Lock: `MintCoordinator::mu_` — the coordinator's node table: health
  /// states, miss counters and the per-node RPC client pools.
  ///
  /// The distributed coordinator sits above everything: it is pure client
  /// code, and the lock is only taken standalone (never across an RPC or
  /// any other ranked lock), so it ranks below the serving layer.
  kMintCoord = 1,
  /// Lock: `KvServer::mu_` — server lifecycle flag and the connection
  /// registry.
  ///
  /// The serving layer sits above the engine, so its ranks are smaller
  /// than every engine rank: a worker may take an engine lock while the
  /// server is mid-drain, never the reverse.
  kServerState = 2,
  /// Lock: `RpcClient::call_mu_` — one call at a time on a client, so a
  /// call never takes another call's response off the connection.
  ///
  /// Held across the whole call; the call takes kRpcClient beneath it for
  /// each send and receive.
  kRpcCall = 3,
  /// Lock: `Connection::read_mu` — a connection's frame decoder, used by
  /// the worker that owns its read side.
  ///
  /// EPOLLONESHOT already hands the read side to one worker at a time, so
  /// the lock is never contended; it makes that hand-over visible to the
  /// race detector. Held only across recv and decode — an error frame may
  /// be written under it (kServerConnWrite ranks above) — never across an
  /// engine call.
  kServerConnRead = 4,
  /// Lock: `RpcClient::mu_` — the client-side socket, frame decoder and
  /// reconnect backoff state.
  ///
  /// Taken under kRpcCall by a call and standalone by the pipelined
  /// surface; no other ranked lock is ever held across a client call. It
  /// sits with the other client-side ranks, below the per-connection
  /// server locks.
  kRpcClient = 5,
  /// Lock: `Connection::write_mu` — response frame serialization on one
  /// client socket, so pipelined replies cannot interleave bytes.
  kServerConnWrite = 6,
  /// Lock: `Connection::bulk_mu` / `BulkIngestSession::mu_` — a
  /// connection's bulk-ingest session pointer, and the session's slice
  /// bookkeeping (landed / in-flight ids, commit/abort state).
  /// Sibling instances: the per-connection pointer lock and the per-session
  /// bookkeeping lock share the rank because a thread never nests them —
  /// the pointer lock is released before any session method runs.
  ///
  /// Slice ingest releases the session lock across its engine call so
  /// slices land in parallel; commit and abort hold it across theirs
  /// (legal — the rank sits above the engine ranks), which is what makes a
  /// commit racing a connection-teardown abort resolve to exactly one
  /// winner instead of a torn half-commit.
  kServerBulk = 7,
  /// Lock: `MintCluster::cluster_mu_` — the cluster's node/group
  /// membership tables: shared across every serving operation, exclusive
  /// for `AddNode`, so membership growth cannot race traffic undetected.
  ///
  /// Sits between the server locks (a bulk commit holds kServerBulk across
  /// its cluster call) and the per-node lifecycle rank it acquires next.
  kMintCluster = 8,
  /// Lock: `StorageNode::lifecycle_mu_` — per-node engine lifetime: shared
  /// across every request's engine call, exclusive for Fail/Recover.
  ///
  /// Sits just above the engine ranks: a request holds it (shared) across
  /// its engine call, so a concurrent crash cannot destroy the engine
  /// mid-operation.
  kMintNode = 9,
  /// Lock: `Shard::write_mutex_` — serializes the shard's mutators:
  /// Put/Del/DropVersion/GC/Checkpoint.
  /// Sibling instances: one per shard, named `qindb-write/sNN`.
  ///
  /// Always the first engine lock a mutator takes. Since the checker
  /// rejects equal-rank nesting, a thread can hold at most ONE shard's
  /// write lock — the cross-shard batch splitter must visit shards one at
  /// a time, and the rank checker enforces that mechanically.
  kQinDbWrite = 10,
  /// Lock: `Shard::batch_mu_` — the shard's group-commit pending-write
  /// queue.
  /// Sibling instances: one per shard, named `qindb-batch-queue/sNN`.
  ///
  /// Writers take it standalone to enqueue a batch (before contending on
  /// kQinDbWrite); the leader takes it under kQinDbWrite to drain the
  /// queue and publish results. Nothing is ever acquired while holding it.
  kQinDbBatchQueue = 12,
  /// Lock: `Shard::read_gc_mu_` — the shard's live `mem_` pointer, and the
  /// records its entries address: shared for one read, exclusive for GC.
  /// Sibling instances: one per shard, named `qindb-read-gc/sNN`.
  ///
  /// A read holds it shared from the index lookup to the record bytes; GC
  /// holds it exclusively (under kQinDbWrite) while it relocates, purges
  /// and erases one victim segment, and while it swaps in a rebuilt index.
  /// So a read never sees its record move. The AOF, env and cache locks
  /// rank above it; writers take it only for the pointer copy.
  kQinDbReadGc = 15,
  /// Lock: `AofManager::mu_` — segment map, active writer, occupancy
  /// (shared for record reads).
  ///
  /// Exclusive for appends/seals/collection. Taken under kQinDbWrite by
  /// mutators and under kQinDbReadGc by record reads and GC.
  kAofManager = 20,
  /// Lock: `AofManager::readers_mu_` — the lazy per-segment reader cache,
  /// taken with kAofManager held (at least shared).
  kAofReaders = 30,
  /// Lock: `SsdEnv` command-queue mutex — the simulated device's single
  /// command queue.
  /// Sibling instances: one per env, named `ssd-env(ftl)` /
  /// `ssd-env(native)`.
  kSsdEnv = 40,
  /// Lock: per-stripe `BlockCache` mutex — one stripe's LRU lists, hash
  /// map, admission sketch and byte accounting.
  /// Sibling instances: one per cache stripe per shard, named
  /// `qindb-cache/sNN/K`; a thread touches exactly one stripe per cache
  /// operation (the stripe is chosen by the record address), so two stripe
  /// locks are never nested.
  ///
  /// Ranked above kAofManager and kSsdEnv because GC relocation callbacks
  /// re-key cache entries while holding the AOF lock, and read-path inserts
  /// run right after a device read.
  kQinDbBlockCache = 44,
  /// Lock: `LatencyEstimator::mu_` — one estimator's rolling sample window
  /// and its cached quantile.
  /// Sibling instances: one per estimator (per remote replica), all leaves;
  /// recording a sample acquires nothing further.
  ///
  /// High rank so a sample can be recorded while serving-path locks (and
  /// the cluster membership lock) are held.
  kLatencyEstimator = 55,
  /// Lock: `failpoint::Registry::mu_` — the name → failpoint map.
  ///
  /// Only taken from registration/activation paths (static init, test
  /// drivers), never while an engine lock is held; ranked below kFailPoint
  /// because activating a point locks the registry and then the point.
  kFailPointRegistry = 58,
  /// Lock: per-`FailPoint` mutex — trigger bookkeeping; ranks above
  /// everything because failpoints fire while arbitrary engine locks are
  /// held, and acquire nothing.
  /// Sibling instances: one per registered failpoint, all leaves.
  kFailPoint = 60,
};

/// The checker is active in debug builds and whenever a build force-enables
/// it (the ThreadSanitizer CI job does, via -DDIRECTLOAD_LOCK_RANK=ON →
/// DIRECTLOAD_LOCK_RANK_FORCE). In plain NDEBUG builds everything below
/// compiles away and the mutex wrappers in thread_annotations.h carry no
/// extra state. The macro must be consistent across a whole binary: it
/// changes the layout of those wrappers.
#if !defined(NDEBUG) || defined(DIRECTLOAD_LOCK_RANK_FORCE)
#define DIRECTLOAD_LOCK_RANK_CHECKS 1
#else
#define DIRECTLOAD_LOCK_RANK_CHECKS 0
#endif

#if DIRECTLOAD_LOCK_RANK_CHECKS

namespace lock_rank_internal {

/// Per-thread stack of held locks. Fixed capacity: the deepest legal chain
/// is one lock per LockRank value, and overflow means the discipline is
/// already broken.
struct HeldStack {
  static constexpr int kCapacity = 16;
  struct Entry {
    int rank;
    const char* name;
  };
  Entry entries[kCapacity];
  int depth = 0;
};

inline thread_local HeldStack tls_held;

[[noreturn]] inline void DieOnRankViolation(int acquiring_rank,
                                            const char* acquiring_name,
                                            int held_rank,
                                            const char* held_name) {
  if (acquiring_rank == held_rank && acquiring_name == held_name) {
    std::fprintf(stderr,
                 "lock-rank violation: recursive acquisition of \"%s\" "
                 "(rank %d) — this thread already holds \"%s\" and would "
                 "self-deadlock\n",
                 acquiring_name, acquiring_rank, held_name);
  } else {
    std::fprintf(stderr,
                 "lock-rank violation: acquiring \"%s\" (rank %d) while "
                 "holding \"%s\" (rank %d) inverts the documented order\n",
                 acquiring_name, acquiring_rank, held_name, held_rank);
  }
  std::abort();
}

/// Validates `rank` against every lock the thread holds, then records it.
/// Equal ranks are rejected too: a same-rank pair is either the same lock
/// (self-deadlock) or two sibling instances — two shards' write locks, two
/// engines' locks — which the architecture forbids a thread to nest
/// precisely so that sibling acquisition order can never form a cycle.
inline void NoteAcquire(LockRank rank, const char* name) {
  HeldStack& held = tls_held;
  const int r = static_cast<int>(rank);
  for (int i = 0; i < held.depth; ++i) {
    if (held.entries[i].rank >= r) {
      DieOnRankViolation(r, name, held.entries[i].rank,
                         held.entries[i].name);
    }
  }
  if (held.depth >= HeldStack::kCapacity) {
    std::fprintf(stderr,
                 "lock-rank violation: thread holds %d locks acquiring "
                 "\"%s\" — stack overflow\n",
                 held.depth, name);
    std::abort();
  }
  held.entries[held.depth].rank = r;
  held.entries[held.depth].name = name;
  ++held.depth;
}

/// Removes the most recent record of `rank`. Searching from the top keeps
/// release order free (guards are LIFO but manual unlock need not be).
inline void NoteRelease(LockRank rank, const char* name) {
  HeldStack& held = tls_held;
  const int r = static_cast<int>(rank);
  for (int i = held.depth; i-- > 0;) {
    if (held.entries[i].rank == r) {
      for (int j = i; j + 1 < held.depth; ++j) {
        held.entries[j] = held.entries[j + 1];
      }
      --held.depth;
      return;
    }
  }
  std::fprintf(stderr,
               "lock-rank violation: releasing \"%s\" (rank %d) which this "
               "thread does not hold\n",
               name, r);
  std::abort();
}

}  // namespace lock_rank_internal

#endif  // DIRECTLOAD_LOCK_RANK_CHECKS

}  // namespace directload

#endif  // DIRECTLOAD_COMMON_LOCK_RANK_H_
