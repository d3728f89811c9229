#ifndef DIRECTLOAD_QINDB_QINDB_H_
#define DIRECTLOAD_QINDB_QINDB_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aof/aof_manager.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "memtable/mem_index.h"
#include "qindb/options.h"
#include "qindb/shard.h"
#include "qindb/write_batch.h"
#include "ssd/env.h"

namespace directload::qindb {

/// QinDB: the paper's per-node key-value storage engine (Section 2.3).
/// Keys are versioned; the memory-resident skip list maps (key, version) to
/// record offsets in append-only files; the regular operations are mutated
/// to cope with deduplicated (value-less) pairs:
///
///   * Put appends the record — value or NULL — and inserts a memtable item
///     carrying the `r` (dedup) flag.
///   * Get reads the value through the memtable offset; for deduplicated
///     items it *tracebacks* to the newest older version that still carries
///     a value.
///   * Del only sets the `d` flag and updates the GC occupancy table; space
///     is reclaimed by the lazy AOF GC, which preserves deleted records that
///     are still referenced by later deduplicated versions (referents).
///
/// Sharding: the engine is partitioned into `num_shards` independent shards
/// (see Shard), each a complete single-stream engine — memtable, AOF segment
/// set with its own occupancy/GC, group-commit queue, checkpoint — over a
/// hash-assigned slice of the key space (shard = Hash64(key, seed) %
/// num_shards). The layout is persisted in a shard manifest at first open;
/// every reopen validates against it, so a count or seed mismatch fails the
/// open with a clear error instead of silently misrouting keys. This facade
/// routes point ops to their shard, splits a WriteBatch into per-shard
/// sub-batches committed in PARALLEL through the shards' independent
/// group-commit leaders, merges scans, and aggregates stats. Every shard's
/// files carry its `sNN_` prefix; at num_shards=1 the read path skips the
/// routing hash.
///
/// Thread model: each shard serializes its mutations on its own write mutex
/// (all at rank LockRank::kQinDbWrite — the rank checker's equal-rank
/// rejection machine-enforces that no thread ever nests two shards' locks);
/// reads take no engine lock. Cross-shard operations visit shards strictly
/// one at a time, in ascending shard order. See docs/qindb_internals.md.
class QinDb {
 public:
  /// Opens (or recovers) an engine over `env`. The first open writes the
  /// shard manifest (resolving `options.num_shards`: 0 means
  /// hardware_concurrency); a reopen adopts the manifest's layout and fails
  /// with kInvalidArgument when the options demand a different one or the
  /// manifest records another routing seed. Shards recover in parallel —
  /// each from its checkpoint plus the post-checkpoint segment suffix when a
  /// valid checkpoint is present, otherwise by scanning its entire AOF space
  /// (the paper's recovery story, per shard).
  static Result<std::unique_ptr<QinDb>> Open(ssd::SsdEnv* env,
                                             const QinDbOptions& options);

  QinDb(const QinDb&) = delete;
  QinDb& operator=(const QinDb&) = delete;

  /// PUT(<k/t, v>). `dedup` marks a pair whose value Bifrost removed; the
  /// record is appended with a NULL value and the `r` flag set.
  Status Put(const Slice& key, uint64_t version, const Slice& value,
             bool dedup = false);

  /// Applies the batch's ops through the owning shards' committers. Fills
  /// batch.statuses() with one status per op in submission order — an
  /// invalid op (empty key, oversized record, Del of a missing pair) fails
  /// alone, exactly as the equivalent single-op call would. Returns the
  /// first non-OK per-op status in submission order.
  ///
  /// A batch whose ops all route to ONE shard keeps the unsharded contract:
  /// ops apply strictly in order, concurrent readers may observe a prefix
  /// but never a key's version chain out of order. A cross-shard batch is
  /// split into per-shard sub-batches committed in parallel (enqueued on
  /// every involved shard, then completed in ascending shard order); ops on
  /// the SAME shard — in particular every op on one key — still apply in
  /// submission order, but cross-shard inter-op order is unspecified and
  /// the batch is not atomic across shards: if one shard's append fails,
  /// only that shard's ops fail (their statuses say why), and a crash can
  /// persist one shard's sub-batch without another's.
  Status Write(WriteBatch& batch);

  // --- Bulk ingest (Bifrost over the wire) ------------------------------

  /// Opens a bulk-ingest session for `version` on every shard. Records
  /// streamed through IngestRun become durable immediately but stay
  /// INVISIBLE to reads (nothing is indexed) until IngestCommit;
  /// IngestAbort — or a crash — rolls the version back without a trace.
  /// Idempotent. Checkpoints and GC are deferred while sessions are open.
  Status IngestBegin(uint64_t version);

  /// Lands one run of pairs through the shards' vectored-append fast path:
  /// ops route per shard, pre-encode off-lock, and append with one
  /// AofManager::AppendMany per shard — no group-commit queue, no per-op
  /// planning, no memtable work until commit. Dedup (`r`-flag) ops stage
  /// value-less records that traceback at read time; tombstone (`d`-flag)
  /// ops flag (key, op.version) deleted at commit and may target older
  /// versions. Put ops must carry the session version. A failed run fails
  /// whole; the session survives for a retry or abort.
  Status IngestRun(uint64_t version, const IngestOp* ops, size_t count);

  /// Commits `version`: each shard appends a durable commit marker and
  /// then indexes its staged pairs — the version becomes readable
  /// atomically per shard. Shard 0 commits first, then the others in
  /// parallel. A crash mid-commit leaves markers on shard 0 plus any subset
  /// of the others; only those shards' pairs survive recovery (the
  /// cross-shard WriteBatch durability rule), and a retry completes.
  Status IngestCommit(uint64_t version);

  /// Abandons `version` on every shard holding a session: staged records
  /// are marked dead (occupancy rolled back) and never become visible.
  Status IngestAbort(uint64_t version);

  /// GET(k/t): the value of `key` at exactly `version`, tracing back through
  /// older versions when the pair was deduplicated.
  Result<std::string> Get(const Slice& key, uint64_t version);

  /// The value of the newest non-deleted version of `key`.
  Result<std::string> GetLatest(const Slice& key);

  /// DEL(k/t): flags the pair deleted and logs a tombstone, so the delete
  /// survives a restart; physical reclamation is lazy.
  Status Del(const Slice& key, uint64_t version);

  /// Flags every pair of `version` deleted (the paper's deletion thread
  /// dropping the oldest of the four retained versions). The shards drop
  /// one after another, each under its write lock and outside any write
  /// batch, and each logs one drop marker, so after a crash a shard
  /// recovers all of the drop or none of it. Returns the number of pairs
  /// flagged, summed over the shards, or the lowest failing shard's
  /// status. Busy while a bulk-ingest session for `version` is open on a
  /// shard (shards without one still drop; a retry after the session ends
  /// is safe).
  Result<uint64_t> DropVersion(uint64_t version);

  /// Inventory of live (non-deleted) pairs per version — what the deletion
  /// thread consults to decide which version to retire ("at most four
  /// versions of index data persist", Section 1.1.2). Merged over shards.
  std::map<uint64_t, uint64_t> VersionCounts() const;

  /// Runs the lazy GC policy on every shard, one at a time: each collects
  /// its victim segments (occupancy <= threshold) unless deferred by
  /// ongoing reads with free space remaining.
  Status MaybeGc();

  /// Collects all victims on all shards regardless of the deferral policy.
  Status ForceGc();

  /// Seals each shard's active segment and persists per-shard checkpoints,
  /// so a subsequent Open avoids the full AOF scans. Shards checkpoint one
  /// at a time; each checkpoint is consistent for that shard (writes racing
  /// a later shard's checkpoint simply recover from that shard's AOF tail).
  Status Checkpoint();

  /// Scrub outcome type, aliased for source compatibility with the
  /// pre-sharding API (`QinDb::ScrubReport`). Defined in qindb/options.h.
  using ScrubReport = qindb::ScrubReport;

  /// Integrity scrub: verifies that every live memtable item points at a
  /// checksum-valid record carrying the right key/version, and that every
  /// live deduplicated item can resolve a value. The online analogue of the
  /// transmission-side checksum verification (Section 3) for data at rest.
  /// Meaningful when the engine is quiescent; while writers race it, entries
  /// mutated mid-scrub can be reported damaged spuriously. Sums the
  /// per-shard reports.
  Result<ScrubReport> Scrub();

  /// Ordered range scan over the live pairs of one version — the "advanced
  /// feature" hash-based flash stores give up (Section 6.1) and QinDB's
  /// sorted memtable provides for free. A k-way merge over the per-shard
  /// scanners (shard key sets are disjoint, so the merge never ties): the
  /// stream is globally key-ordered exactly as the unsharded scanner was.
  /// Each per-shard cursor pins the index that was current at construction;
  /// keys inserted afterwards may not be visible, and values of pairs
  /// deleted+collected concurrently may fail to read.
  class Scanner {
   public:
    bool Valid() const { return current_ != SIZE_MAX; }
    /// Positions at the first key >= `start`.
    void Seek(const Slice& start);
    void SeekToFirst() { Seek(Slice()); }
    void Next();
    Slice key() const { return parts_[current_].key(); }
    uint64_t version() const { return parts_[current_].version(); }
    /// Reads the value (possibly via traceback). Device I/O happens here.
    Result<std::string> value() const {
      if (current_ == SIZE_MAX) {
        return Status::InvalidArgument("scanner not positioned");
      }
      return parts_[current_].value();
    }

   private:
    friend class QinDb;
    explicit Scanner(std::vector<Shard::Scanner> parts)
        : parts_(std::move(parts)) {}
    /// Repositions current_ at the valid part with the smallest key.
    void FindMin();

    std::vector<Shard::Scanner> parts_;
    size_t current_ = SIZE_MAX;  // SIZE_MAX = not positioned / exhausted.
  };

  /// Scanner over the state at `version` (UINT64_MAX = newest of each key).
  Scanner NewScanner(uint64_t version = UINT64_MAX);

  /// RAII guard marking a logical read stream in flight (GC deferral).
  /// Guards may be taken from any thread and may nest. The counter is
  /// engine-wide: any in-flight read defers every shard's GC.
  class ReadGuard {
   public:
    explicit ReadGuard(QinDb* db) : db_(db) {
      db_->reads_in_flight_.fetch_add(1, std::memory_order_relaxed);
    }
    ~ReadGuard() {
      db_->reads_in_flight_.fetch_sub(1, std::memory_order_relaxed);
    }
    ReadGuard(const ReadGuard&) = delete;
    ReadGuard& operator=(const ReadGuard&) = delete;

   private:
    QinDb* db_;
  };

  /// Number of read streams currently in flight (GC deferral input).
  int reads_in_flight() const {
    return reads_in_flight_.load(std::memory_order_relaxed);
  }

  /// True once a write-path failure (I/O error, corruption, or invariant
  /// violation while appending, checkpointing, or collecting) has forced
  /// ANY shard into read-only degraded mode. A degraded shard fails every
  /// mutation routed to it with kIOError immediately — it fail-stops rather
  /// than risk acking writes onto a log in an unknown state — while reads
  /// keep serving the index built so far; other shards keep writing.
  /// Reopening the engine (a fresh Open over the same env) runs recovery
  /// and clears the condition.
  bool degraded() const;

  // --- Sharding surface -----------------------------------------------

  /// The resolved shard count (>= 1; fixed for the lifetime of the layout).
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  /// The shard `key` routes to: Hash64(key, seed) % num_shards.
  /// Stable across reopens — the seed and count live in the manifest.
  uint32_t ShardOf(const Slice& key) const;

  /// Point-in-time counters of one shard (tests, the stats endpoint).
  ShardStatsSnapshot shard_stats(uint32_t shard) const {
    return shards_[shard]->StatsSnapshot();
  }

  /// Engine-wide cache counters: the per-shard snapshots summed (the stats
  /// endpoint's one-line view of the read path).
  EngineCacheTotals CacheTotals() const;

  const QinDbStats& stats() const { return stats_; }
  const aof::GcStats& gc_stats() const { return gc_stats_; }

  /// Pins one shard's current memtable index (default: shard 0 — THE
  /// memtable at num_shards=1). The pin keeps the index and its entries
  /// alive across a concurrent GC rebuild, so live engines may walk it.
  std::shared_ptr<const MemIndex> memtable(size_t shard = 0) const {
    return shards_[shard]->PinIndex();
  }
  /// One shard's AOF manager (default: shard 0).
  aof::AofManager& aof(size_t shard = 0) { return shards_[shard]->aof(); }
  ssd::SsdEnv* env() { return env_; }

  /// Indexed (non-purged) memtable entries, summed over shards. Matches
  /// MemIndex::live_count semantics: deleted-flagged entries count until GC
  /// purges them.
  uint64_t LiveEntryCount() const;
  /// Live AOF bytes per the GC occupancy tables, summed over shards.
  uint64_t LiveBytes() const;
  /// Seals every shard's active segment (testing hook: makes all appended
  /// records durable-on-crash in one call).
  Status SealActive();

  /// On-device footprint (Figure 7's storage occupation).
  uint64_t DiskBytes() const { return env_->TotalFileBytes(); }

 private:
  QinDb(ssd::SsdEnv* env, const QinDbOptions& options);

  ssd::SsdEnv* env_;
  QinDbOptions options_;  // num_shards resolved against the manifest.

  /// Facade-owned aggregates every shard updates through pointers.
  QinDbStats stats_;
  aof::GcStats gc_stats_;
  std::atomic<int> reads_in_flight_{0};

  /// The shards, indexed by routing id. Immutable after Open.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace directload::qindb

#endif  // DIRECTLOAD_QINDB_QINDB_H_
