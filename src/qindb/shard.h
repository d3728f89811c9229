#ifndef DIRECTLOAD_QINDB_SHARD_H_
#define DIRECTLOAD_QINDB_SHARD_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "aof/aof_manager.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "memtable/mem_index.h"
#include "qindb/block_cache.h"
#include "qindb/options.h"
#include "qindb/write_batch.h"
#include "ssd/env.h"

namespace directload::qindb {

/// One pair of a bulk-ingest run (QinDb::IngestRun — the Bifrost delivery
/// fast path). Slices reference the caller's buffers, which must stay alive
/// for the duration of the call.
struct IngestOp {
  Slice key;
  /// Puts must carry the session's version; tombstones may target any
  /// version (the paper's `d` flag: deletes of older versions ride the
  /// delivery of a new one).
  uint64_t version = 0;
  Slice value;
  bool dedup = false;      // The `r` flag: value removed by Bifrost's dedup.
  bool tombstone = false;  // The `d` flag: flag (key, version) deleted.
};

/// One shard of QinDB: a complete single-stream engine — memtable skip list,
/// AOF segment set with occupancy/GC, group-commit queue, checkpoint — over
/// a hash-assigned subset of the key space. This class IS the pre-sharding
/// engine; the QinDb facade routes keys to shards, splits WriteBatches into
/// per-shard sub-batches, and stitches results back together.
///
/// Thread model (unchanged from the unsharded engine): mutations are
/// serialized on write_mutex_ (rank LockRank::kQinDbWrite); reads take no
/// engine lock — they pin the current memtable index via the leaf pin_mu_
/// (rank LockRank::kQinDbPin), traverse the skip list lock-free, and read
/// sealed AOF bytes under the AOF manager's shared lock. Every shard's locks
/// carry the same ranks with per-shard names; the rank checker rejects
/// equal-rank nesting, so it machine-enforces the sharding discipline that
/// no thread ever holds one shard's lock while acquiring another shard's.
/// Cross-shard operations (facade Write, Checkpoint, GC, Scrub) visit shards
/// strictly one at a time. See docs/qindb_internals.md.
class Shard {
 public:
  /// Opens (or recovers) one shard over `env`. `options.aof.file_prefix`
  /// namespaces this shard's files; `options.aof.shared_gc_stats`, `stats`
  /// and `reads_in_flight` point at facade-owned aggregates shared by all
  /// shards (they must outlive the shard).
  static Result<std::unique_ptr<Shard>> Open(ssd::SsdEnv* env,
                                             const QinDbOptions& options,
                                             uint32_t shard_id,
                                             QinDbStats* stats,
                                             std::atomic<int>* reads_in_flight);

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  /// One writer's batch waiting in the group-commit queue. Lives on the
  /// waiting thread's stack; the leader publishes `overall` and `done`
  /// under batch_mu_, and the owner cannot return before observing done.
  struct PendingWrite {
    explicit PendingWrite(WriteBatch* b) : batch(b) {}
    WriteBatch* batch;
    bool done = false;
    Status overall;
    /// Record bytes for the batch's valid Put ops, encoded (checksums and
    /// all) by the OWNING thread before it enqueued — the dominant per-op
    /// cost runs in parallel across writers instead of on the leader.
    /// `spans[i]` is (offset, length) into `encoded` for op i; length 0
    /// means not pre-encoded (non-Put or invalid — the leader decides).
    std::string encoded;
    std::vector<std::pair<size_t, size_t>> spans;
  };

  /// Applies the batch's ops strictly in order through this shard's
  /// committer. The facade calls this directly when every op of a Write
  /// landed on one shard (the hot path — no sub-batch copies).
  Status Write(WriteBatch& batch) EXCLUDES(write_mutex_);

  /// Split write protocol for cross-shard batches: the facade enqueues one
  /// PendingWrite per involved shard (ascending shard order), then completes
  /// them in the same order, so sub-batches commit in parallel under the
  /// shards' independent leaders. EnqueueWrite pre-encodes the sub-batch's
  /// Put records on the calling thread and parks nothing; CompleteWrite runs
  /// the park-or-lead loop and returns the sub-batch's overall status.
  /// `pending->batch` must stay alive until CompleteWrite returns.
  void EnqueueWrite(PendingWrite* pending) EXCLUDES(write_mutex_, batch_mu_);
  Status CompleteWrite(PendingWrite* pending) EXCLUDES(write_mutex_);

  // --- Bulk ingest (Bifrost over the wire) ------------------------------
  //
  // A session stages pre-encoded record runs for one version: records are
  // appended (durable) with kFlagIngestPending but NOT indexed, so reads
  // cannot see the version. IngestCommit appends a durable commit marker
  // and then indexes the staged pairs — the version appears atomically for
  // this shard. IngestAbort (or a crash before the marker) leaves no trace:
  // the staged records are marked dead and recovery never indexes a pending
  // record without its own session's marker. While any session is active,
  // checkpoints and GC are deferred (pending records are invisible to both).

  /// Opens (idempotently) the session for `version`.
  Status IngestBegin(uint64_t version) EXCLUDES(write_mutex_);

  /// Validates + pre-encodes the run off-lock, then lands it with ONE
  /// vectored AofManager::AppendMany — no group-commit queue, no per-op
  /// planning, no memtable work until commit. A failed run fails whole
  /// (AppendMany rolls back its occupancy accounting); the session
  /// survives for a retry or abort.
  Status IngestRun(uint64_t version, const IngestOp* ops, size_t count)
      EXCLUDES(write_mutex_);

  /// Appends the commit marker, then applies the staged records to the
  /// memtable in run order by the rule recovery replays them with: puts
  /// supersede like re-PUTs, tombstones flag their target deleted (a
  /// missing target is a no-op).
  Status IngestCommit(uint64_t version) EXCLUDES(write_mutex_);

  /// Drops the session: every staged record is marked dead in the
  /// occupancy table (the PR 5 vectored rollback) and never indexed.
  Status IngestAbort(uint64_t version) EXCLUDES(write_mutex_);

  /// Like IngestCommit, a marker op beside the group-commit queue: appends
  /// the version's drop marker, then flags every indexed pair of it deleted.
  /// Busy while a session of the version is open. Returns the pairs flagged.
  Result<uint64_t> DropVersion(uint64_t version) EXCLUDES(write_mutex_);

  /// GET(k/t): the value of `key` at exactly `version`, tracing back through
  /// older versions when the pair was deduplicated.
  Result<std::string> Get(const Slice& key, uint64_t version);

  /// The value of the newest non-deleted version of `key`.
  Result<std::string> GetLatest(const Slice& key);

  /// Live (non-deleted) pair counts per version within this shard.
  std::map<uint64_t, uint64_t> VersionCounts() const;

  /// Runs the lazy GC policy: collects victim segments (occupancy <=
  /// threshold) unless deferred by ongoing reads with free space remaining.
  Status MaybeGc() EXCLUDES(write_mutex_);

  /// Collects all victims regardless of the deferral policy.
  Status ForceGc() EXCLUDES(write_mutex_);

  /// Seals the active segment and persists this shard's checkpoint.
  Status Checkpoint() EXCLUDES(write_mutex_);

  /// Integrity scrub of this shard's entries (see qindb/options.h).
  Result<ScrubReport> Scrub();

  /// Ordered range scan over the live pairs of one version within this
  /// shard. The facade's scanner merges the per-shard scanners into one
  /// globally ordered stream.
  class Scanner {
   public:
    bool Valid() const { return valid_; }
    /// Positions at the first key >= `start`.
    void Seek(const Slice& start);
    void SeekToFirst() { Seek(Slice()); }
    void Next();
    Slice key() const { return current_->user_key(); }
    uint64_t version() const { return current_->version; }
    /// Reads the value (possibly via traceback). Device I/O happens here.
    Result<std::string> value() const;

   private:
    friend class Shard;
    Scanner(Shard* shard, uint64_t version);
    /// Walks key runs until one has a visible entry at `version_`.
    void FindVisibleEntry();

    Shard* shard_;
    uint64_t version_;
    std::shared_ptr<const MemIndex> index_;  // Keeps entries alive across GC.
    MemIndex::Iterator it_;
    MemEntry* current_ = nullptr;
    bool valid_ = false;
  };

  /// Scanner over the state at `version` (UINT64_MAX = newest of each key).
  Scanner NewScanner(uint64_t version = UINT64_MAX);

  /// True once a write-path failure has forced this shard into read-only
  /// degraded mode (see QinDb::degraded()).
  bool degraded() const { return degraded_.load(std::memory_order_acquire); }

  aof::AofManager& aof() { return *aof_; }
  uint32_t shard_id() const { return shard_id_; }

  ShardStatsSnapshot StatsSnapshot() const;

 private:
  Shard(ssd::SsdEnv* env, const QinDbOptions& options, uint32_t shard_id,
        QinDbStats* stats, std::atomic<int>* reads_in_flight);

  Status RecoverFromScan(uint32_t min_segment) REQUIRES(write_mutex_);
  Status LoadCheckpoint(const std::string& name, bool* loaded,
                        std::map<uint32_t, aof::SegmentMeta>* metas,
                        uint32_t* next_segment) REQUIRES(write_mutex_);
  Status ApplyCheckpointEntries() REQUIRES(write_mutex_);
  Status InvalidateCheckpoint() REQUIRES(write_mutex_);

  /// Takes a refcount on the current index so its entries (and arena) stay
  /// alive even if GC swaps in a rebuilt index meanwhile.
  std::shared_ptr<const MemIndex> PinIndex() const EXCLUDES(pin_mu_);

  /// The raw current-index pointer, for mutators running under
  /// write_mutex_: takes pin_mu_ only for the pointer copy, and the index
  /// stays alive because only CollectVictimsLocked — itself serialized on
  /// write_mutex_ — retires indices.
  MemIndex* CurrentIndex() const EXCLUDES(pin_mu_);

  /// Reads the value bytes of a memtable entry's record, retrying when the
  /// record was relocated by GC or superseded by a re-PUT mid-read.
  Result<std::string> ReadEntryValue(const MemEntry* entry);
  /// The value of a pair in `index`: a deduplicated pair's comes from the
  /// older version it traces back to.
  Result<std::string> ReadPairValue(const MemIndex& index,
                                    const MemEntry* entry);

  /// Routes a mutation-path status: failures that can leave the log or its
  /// accounting torn (kIOError/kCorruption/kInternal) trip degraded mode.
  /// Environmental rejections (kNoSpace, kInvalidArgument, kNotFound, an
  /// injected transient) pass through untouched. Returns `s` either way.
  Status NoteWriteError(Status s);
  /// The degraded-mode gate every mutation entry point runs first.
  Status CheckWritable() const;

  // *Locked variants require write_mutex_ held by the caller.
  Status MaybeGcLocked() REQUIRES(write_mutex_);
  Status CollectVictimsLocked() REQUIRES(write_mutex_);
  Status CheckpointLocked() REQUIRES(write_mutex_);

  /// The leader's commit: plans every op in order, appends all records with
  /// one AofManager::AppendMany, applies the memtable mutations in op order,
  /// and stamps per-op statuses + per-batch overall results into the group.
  void CommitGroupLocked(const std::vector<PendingWrite*>& group)
      REQUIRES(write_mutex_) EXCLUDES(batch_mu_);

  /// Appends a commit or drop marker (empty key) and returns its packed
  /// address; a failed append trips degraded mode.
  Result<uint64_t> AppendMarkerLocked(uint64_t version, uint8_t flag,
                                      const Slice& value)
      REQUIRES(write_mutex_);

  /// What one group, bulk or drop commit applied (defined in shard.cc).
  struct CommitTally;
  /// The tail of every live commit: adds its counters, lands its occupancy
  /// updates, then runs the interval checkpoint and the lazy GC. A failure
  /// leaves the commit's data committed.
  Status FinishCommitLocked(const CommitTally& tally, uint32_t segment_before)
      REQUIRES(write_mutex_);

  friend class QinDb;

  ssd::SsdEnv* env_;
  QinDbOptions options_;
  const uint32_t shard_id_;

  /// Prefixed file names of this shard's checkpoint pair.
  const std::string checkpoint_name_;
  const std::string checkpoint_temp_;

  /// Stable storage for the per-shard lock names below ("qindb-write/s03").
  /// Declared before the mutexes so the pointers are valid at their
  /// construction.
  const std::string write_name_;
  const std::string queue_name_;
  const std::string pin_name_;

  /// Serializes all mutations on THIS shard. Same rank as every other
  /// shard's write mutex (LockRank::kQinDbWrite): the rank checker's
  /// equal-rank rejection turns any cross-shard lock nesting into an
  /// immediate abort, which is the sharding discipline — shards are visited
  /// one at a time, never nested.
  Mutex write_mutex_;

  /// The group-commit pending queue. Writers enqueue under it *before*
  /// contending on write_mutex_, so batches pile up while a leader commits;
  /// the queue FRONT is the only thread that ever touches write_mutex_ —
  /// everyone else parks on batch_cv_ and returns as soon as a leader marks
  /// its batch done, without a write_mutex_ handoff per follower. Taken
  /// either standalone (enqueue/park) or under write_mutex_ (drain/publish)
  /// — never the other way around — and nothing is acquired while holding
  /// it.
  Mutex batch_mu_;
  CondVar batch_cv_{&batch_mu_};
  std::deque<PendingWrite*> write_queue_ GUARDED_BY(batch_mu_);

  /// Guards the mem_ pointer itself (not the index contents). Readers take
  /// it briefly to copy the shared_ptr; GC takes it to swap in a rebuild.
  /// Leaf lock (LockRank::kQinDbPin): taken under write_mutex_, under the
  /// AOF manager's lock (GC classify callbacks), or standalone by readers.
  mutable Mutex pin_mu_;
  std::shared_ptr<MemIndex> mem_ GUARDED_BY(pin_mu_);
  /// Indices retired by GC rebuilds that pinned readers may still traverse.
  /// Relocations patch these too so stale snapshots keep resolving reads.
  std::vector<std::weak_ptr<MemIndex>> retired_ GUARDED_BY(pin_mu_);

  // Mutators reach it under write_mutex_, but readers (Get traceback,
  // scans) call it with no shard lock at all — the manager is internally
  // synchronized (LockRank::kAofManager), so a GUARDED_BY here would be
  // wrong, not just noisy.
  std::unique_ptr<aof::AofManager> aof_;  // dl-lint: ignore(guarded-by-coverage)

  /// AOF record cache (null when Options::cache_bytes is 0). Internally
  /// synchronized (LockRank::kQinDbBlockCache); reached from the lock-free
  /// read path and from invalidation sites under write_mutex_ / the AOF
  /// lock alike.
  std::unique_ptr<BlockCache> cache_;  // dl-lint: ignore(guarded-by-coverage)

  /// Facade-owned aggregates shared by all shards.
  QinDbStats* const stats_;
  std::atomic<int>* const reads_in_flight_;

  /// Per-shard counters behind StatsSnapshot (the aggregate lives in
  /// *stats_).
  std::atomic<uint64_t> shard_puts_{0};
  std::atomic<uint64_t> shard_dels_{0};
  std::atomic<uint64_t> shard_bytes_ingested_{0};

  /// Set by NoteWriteError, never cleared in-process; see degraded().
  std::atomic<bool> degraded_{false};
  /// Bumped whenever GC relocates records; readers use it to detect that a
  /// failed record read raced a collection and should be retried.
  std::atomic<uint64_t> gc_epoch_{0};
  uint64_t bytes_at_last_checkpoint_ GUARDED_BY(write_mutex_) = 0;
  bool checkpoint_valid_ GUARDED_BY(write_mutex_) = false;
  /// Deserialized entries awaiting apply.
  std::string pending_checkpoint_ GUARDED_BY(write_mutex_);

  /// One open bulk-ingest session: its appended records, in run order. The
  /// commit applies them to the memtable; an abort marks them dead.
  struct IngestSession {
    struct Staged {
      std::string key;
      uint64_t version = 0;
      uint64_t address = 0;  // Packed RecordAddress.
      uint32_t value_size = 0;  // Of the record as appended.
      uint8_t flags = 0;        // As appended.
    };
    std::vector<Staged> staged;
  };
  /// Open sessions keyed by version. Non-empty defers checkpoints and GC:
  /// pending records are durable but unindexed, so a checkpoint taken now
  /// would let recovery skip their segments, and GC's classify pass would
  /// drop them as garbage.
  std::map<uint64_t, IngestSession> ingest_sessions_
      GUARDED_BY(write_mutex_);
  /// Versions whose commit marker landed — in this process or found by
  /// recovery. Makes IngestCommit idempotent: a cross-shard commit torn
  /// between shards retries against every shard, and the ones that already
  /// committed must answer OK rather than "no session".
  std::set<uint64_t> ingest_committed_ GUARDED_BY(write_mutex_);
};

}  // namespace directload::qindb

#endif  // DIRECTLOAD_QINDB_SHARD_H_
