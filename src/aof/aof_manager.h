#ifndef DIRECTLOAD_AOF_AOF_MANAGER_H_
#define DIRECTLOAD_AOF_AOF_MANAGER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aof/record.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "ssd/env.h"

namespace directload::aof {

struct GcStats;

struct AofOptions {
  /// Fixed segment capacity; the paper uses 64 MB AOFs (Section 2.3).
  uint64_t segment_bytes = 64ull << 20;

  /// A sealed segment becomes a GC victim once live bytes / capacity falls
  /// to this ratio (the paper recycles at 25 %, Section 4.1.2).
  double gc_occupancy_threshold = 0.25;

  /// Prepended to every file this manager creates ("s03_" gives segments
  /// named s03_aof_00000000.dat). A sharded engine gives each shard's
  /// manager a distinct prefix so N managers share one flat-namespace env
  /// without colliding; empty (the default) adds no prefix.
  std::string file_prefix;

  /// When set, collection counters are accumulated into this externally
  /// owned struct instead of the manager's own — the sharded engine points
  /// every shard's manager at one aggregate so gc_stats() stays a single
  /// cheap read. The target must outlive the manager.
  GcStats* shared_gc_stats = nullptr;
};

/// Collection counters; atomics so the engine can read them from any thread
/// while a collection is in progress.
struct GcStats {
  std::atomic<uint64_t> segments_reclaimed{0};
  std::atomic<uint64_t> records_rewritten{0};
  std::atomic<uint64_t> bytes_rewritten{0};
  std::atomic<uint64_t> records_dropped{0};
  std::atomic<uint64_t> bytes_dropped{0};
};

/// Manages the append-only files of one QinDB instance: record appends with
/// automatic segment rollover, positional reads (including the unpersisted
/// tail of the active segment), per-segment occupancy accounting, victim
/// selection, and segment collection (the re-append + offset-patch + erase
/// cycle of Figure 2, steps 4-6).
///
/// Occupancy bookkeeping for one segment, as persisted by engine
/// checkpoints so recovery can skip re-scanning old segments.
struct SegmentMeta {
  uint64_t total_bytes = 0;
  uint64_t live_bytes = 0;
};

/// The manager is policy-free about liveness: the engine supplies a
/// classifier when collecting, because only the engine knows about delete
/// flags and referents.
///
/// Thread model: mutations (AppendRecord, SealActive, MarkDead,
/// CollectSegment) take mu_ (rank LockRank::kAofManager) exclusively and are
/// therefore serialized; reads (ReadRecord, Scan, Occupancy, GcVictims, the
/// stats accessors) take it shared and run concurrently with each other.
/// Sealed segments are immutable on device, so shared-mode readers only
/// contend on the lock word, never on data. Lazy per-segment reader creation
/// is guarded by the leaf readers_mu_ (rank LockRank::kAofReaders) so two
/// threads faulting in the same reader do not race. The annotations below
/// make the split machine-checked under clang -Wthread-safety.
class AofManager {
 public:
  /// Opens over `env`, adopting any existing aof_*.dat segments (crash
  /// recovery). Newly appended records go to a fresh segment. Segments
  /// listed in `known` (from a checkpoint) adopt the recorded accounting
  /// without being re-scanned.
  static Result<std::unique_ptr<AofManager>> Open(
      ssd::SsdEnv* env, const AofOptions& options,
      const std::map<uint32_t, SegmentMeta>* known = nullptr);

  ~AofManager();

  AofManager(const AofManager&) = delete;
  AofManager& operator=(const AofManager&) = delete;

  /// Appends one record, rolling to a new segment when the active one is
  /// full. Returns the record's address.
  Result<RecordAddress> AppendRecord(const Slice& key, uint64_t version,
                                     uint8_t flags, const Slice& value)
      EXCLUDES(mu_);

  /// One entry of a vectored append. Slices must stay valid for the call.
  /// `preencoded`, when non-empty, is the op's complete record bytes
  /// (header + checksum + key + value, exactly what EncodeRecord(key,
  /// version, flags, value) produces) prepared by the caller off the write
  /// lock; the append uses those bytes verbatim instead of re-encoding.
  /// key/value stay authoritative for extent accounting, so they must
  /// describe the same record.
  struct AppendOp {
    Slice key;
    uint64_t version = 0;
    uint8_t flags = 0;
    Slice value;
    Slice preencoded;
  };

  /// Appends `n` records in order under one lock acquisition: records that
  /// fit the active segment are encoded into a single contiguous buffer
  /// (per-record headers and checksums preserved — the segment bytes are
  /// identical to n single appends) and written with one writer append and
  /// one occupancy update per segment run, rolling between runs exactly as
  /// AppendRecord would. `addresses` receives one address per record, in op
  /// order. On failure nothing is reported: a prefix of the records may
  /// nevertheless be durable (the same shapes a crash can produce), and the
  /// caller must treat the whole call as failed.
  Status AppendMany(const AppendOp* ops, size_t n,
                    std::vector<RecordAddress>* addresses) EXCLUDES(mu_);

  /// Marks a set of records dead with one lock acquisition (the group-commit
  /// analogue of N MarkDead calls). Pairs are (address, extent).
  void MarkDeadMany(
      const std::vector<std::pair<RecordAddress, uint64_t>>& dead)
      EXCLUDES(mu_);

  /// Reads and verifies the record at `addr`. Its length comes from its
  /// own header; `extent_hint` is only how many bytes to read first (the
  /// engine computes it from the memtable item). A hint that is short costs
  /// one more read for the rest, and one that is long is cut at the end of
  /// the segment's records, so a stale hint never fails a read.
  Status ReadRecord(const RecordAddress& addr, uint64_t extent_hint,
                    RecordView* out) const EXCLUDES(mu_);

  /// Tells the occupancy accounting that the record at `addr` (with the
  /// given extent) no longer holds live data.
  void MarkDead(const RecordAddress& addr, uint64_t extent) EXCLUDES(mu_);

  /// Live-bytes / capacity of a segment. Returns 1.0 for unknown segments.
  double Occupancy(uint32_t segment_id) const EXCLUDES(mu_);

  /// Sealed segments at or below the GC occupancy threshold, lowest
  /// occupancy first.
  std::vector<uint32_t> GcVictims() const EXCLUDES(mu_);

  /// Decides a record's fate during collection: true keeps it (valid, or an
  /// invalid record still referenced by a later deduplicated version). A
  /// kept record's copy carries its own flags, kFlagRelocated, and any bits
  /// the classifier sets in `*copy_flags` (the engine's kFlagDeleted).
  using Classifier = std::function<bool(
      const RecordAddress&, const RecordView&, uint8_t* copy_flags)>;
  /// Invoked for each kept record after it is re-appended.
  using RelocateFn = std::function<void(const RecordAddress& old_addr,
                                        const RecordAddress& new_addr,
                                        const RecordView& record)>;
  /// Invoked for each dropped record.
  using DropFn =
      std::function<void(const RecordAddress& old_addr, const RecordView&)>;

  /// Collects one sealed segment: live records are re-appended to the
  /// current end of the AOFs, the caller patches memtable offsets in
  /// `relocate`, and the segment file is erased. A marker's first copy
  /// appends the marker's original address to its value (see
  /// RecordView::MarkerPosition). Runs under the exclusive lock, so
  /// concurrent readers observe either the victim file intact or the fully
  /// patched state, never a half-erased segment. The callbacks run
  /// with mu_ held exclusively and must not re-enter the manager.
  Status CollectSegment(uint32_t segment_id, const Classifier& classify,
                        const RelocateFn& relocate, const DropFn& drop)
      EXCLUDES(mu_);

  /// Sequentially scans every record in every segment with id >=
  /// `min_segment` (recovery path). Stops early if `fn` returns false.
  /// Holds mu_ shared for the duration, so callbacks must not re-enter the
  /// manager — recovery buffers its occupancy updates and applies them
  /// after the scan returns.
  using ScanFn =
      std::function<bool(const RecordAddress&, const RecordView&)>;
  Status Scan(const ScanFn& fn, uint32_t min_segment = 0) const EXCLUDES(mu_);

  /// Flushes and seals the active segment (e.g., before checkpointing).
  Status SealActive() EXCLUDES(mu_);

  uint32_t active_segment() const EXCLUDES(mu_);
  size_t segment_count() const EXCLUDES(mu_);

  /// Current accounting of every segment (for checkpoints).
  std::map<uint32_t, SegmentMeta> SegmentMetas() const EXCLUDES(mu_);
  const GcStats& gc_stats() const {
    return options_.shared_gc_stats != nullptr ? *options_.shared_gc_stats
                                               : gc_stats_;
  }
  const AofOptions& options() const { return options_; }

  /// On-device footprint of all segments.
  uint64_t DiskBytes() const { return env_->TotalFileBytes(); }

  /// Sum of live bytes across segments.
  uint64_t LiveBytes() const EXCLUDES(mu_);

 private:
  struct SegmentInfo {
    uint64_t total_bytes = 0;  // Record bytes appended.
    uint64_t live_bytes = 0;
    bool sealed = false;
    mutable std::unique_ptr<ssd::RandomAccessFile> reader;  // Lazy; see
                                                            // ReaderFor.
  };

  /// Positional cursor over one segment's records. The manager's lock is
  /// passed to every call (rather than captured) so the thread-safety
  /// analysis can tie the capability to the caller's: `cur.Next(this)`
  /// requires this->mu_ at the call site.
  ///
  /// Decode failures are classified, not uniformly tolerated. Appends are
  /// prefix-persistent: the readable limit never ends inside bytes that were
  /// not appended, so a record whose full claimed extent lies within the
  /// limit yet fails its checksum is damaged media — Decode surfaces it as
  /// kCorruption. Only the shapes a crash can legitimately produce end the
  /// iteration cleanly (Valid() goes false): a header that no longer fits,
  /// a header that fails to decode (torn header or page padding), or a
  /// claimed extent running past the limit (torn body). When the segment's
  /// logical extent is known (recorded at seal/adoption time rather than
  /// inferred from file size), a clean stop before that extent is also
  /// damage; callers check StoppedShortOfExtent() after the loop.
  struct SegmentCursor {
    Status Init(const AofManager* mgr, uint32_t segment_id)
        REQUIRES_SHARED(mgr->mu_);
    Status Next(const AofManager* mgr) REQUIRES_SHARED(mgr->mu_);
    bool Valid() const { return valid_; }
    const RecordAddress& address() const { return address_; }
    const RecordView& record() const { return view_; }
    uint64_t offset() const { return offset_; }
    uint64_t limit() const { return limit_; }
    /// True when iteration ended before the segment's known record extent:
    /// decodable data ran out where the accounting says records exist. The
    /// undecodable gap may hold live records, so treating it as a clean end
    /// (and, in GC, erasing the segment) would destroy data.
    bool StoppedShortOfExtent() const {
      return !valid_ && extent_known_ && offset_ < limit_;
    }

   private:
    Status Ensure(const AofManager* mgr, uint64_t need)
        REQUIRES_SHARED(mgr->mu_);
    Status Decode(const AofManager* mgr) REQUIRES_SHARED(mgr->mu_);

    uint32_t segment_id_ = 0;
    uint64_t limit_ = 0;
    uint64_t offset_ = 0;
    bool extent_known_ = false;
    std::string buf_;
    uint64_t buf_start_ = 0;
    RecordAddress address_;
    RecordView view_;
    bool valid_ = false;
  };

  AofManager(ssd::SsdEnv* env, const AofOptions& options);

  std::string SegmentName(uint32_t id) const;

  /// The mutable counter sink for collections (shared or owned).
  GcStats& gc() {
    return options_.shared_gc_stats != nullptr ? *options_.shared_gc_stats
                                               : gc_stats_;
  }

  // *Locked methods require mu_ held by the caller: exclusively for the
  // mutating ones, at least shared for the reading ones.
  Status OpenNewSegmentLocked() REQUIRES(mu_);
  Result<RecordAddress> AppendRecordLocked(const Slice& key, uint64_t version,
                                           uint8_t flags, const Slice& value)
      REQUIRES(mu_);
  Status AppendManyLocked(const AppendOp* ops, size_t n,
                          std::vector<RecordAddress>* addresses)
      REQUIRES(mu_);
  void MarkDeadLocked(const RecordAddress& addr, uint64_t extent)
      REQUIRES(mu_);
  Status SealActiveLocked() REQUIRES(mu_);
  double OccupancyLocked(uint32_t segment_id) const REQUIRES_SHARED(mu_);
  Status AdoptExistingSegments(const std::map<uint32_t, SegmentMeta>* known)
      EXCLUDES(mu_);
  /// Raw byte read covering [offset, offset+n) of a segment, merging the
  /// device contents with the active segment's in-memory tail.
  Status ReadBytesLocked(uint32_t segment_id, uint64_t offset, uint64_t n,
                         std::string* out) const REQUIRES_SHARED(mu_);
  Status ScanSegmentLocked(uint32_t segment_id, const ScanFn& fn) const
      REQUIRES_SHARED(mu_);
  /// Takes readers_mu_ internally for the lazy creation.
  ssd::RandomAccessFile* ReaderFor(uint32_t segment_id) const
      REQUIRES_SHARED(mu_) EXCLUDES(readers_mu_);

  ssd::SsdEnv* env_;
  AofOptions options_;

  /// Exclusive: appends, seals, occupancy mutation, collection. Shared:
  /// record reads, scans, accounting queries.
  mutable SharedMutex mu_{LockRank::kAofManager, "aof-mu"};
  /// Leaf lock for lazy SegmentInfo::reader creation under shared mu_.
  mutable Mutex readers_mu_{LockRank::kAofReaders, "aof-readers"};

  std::map<uint32_t, SegmentInfo> segments_ GUARDED_BY(mu_);
  uint32_t active_id_ GUARDED_BY(mu_) = 0;
  std::unique_ptr<ssd::WritableFile> active_writer_ GUARDED_BY(mu_);
  // Mirror of the active segment's bytes that the env has not yet persisted
  // (at most one page), so just-PUT values are immediately readable.
  std::string active_mirror_ GUARDED_BY(mu_);

  /// Scratch buffer for AppendManyLocked's per-run record encoding. A member
  /// so a large batch's buffer (hundreds of KB crosses the allocator's mmap
  /// threshold) is allocated once and reused, not malloc'd/freed per append.
  std::string append_buf_ GUARDED_BY(mu_);
  uint64_t mirror_offset_ GUARDED_BY(mu_) = 0;
  GcStats gc_stats_;
};

}  // namespace directload::aof

#endif  // DIRECTLOAD_AOF_AOF_MANAGER_H_
