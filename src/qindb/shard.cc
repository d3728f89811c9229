#include "qindb/shard.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace directload::qindb {

namespace {

// Shard-internal failpoints: the startup scan and the checkpoint writer,
// the two paths whose failures matter most for recovery testing. They fire
// once per SHARD (recovery and checkpointing are per-shard operations);
// the API-level qindb_put/get/del points live in the facade (qindb.cc) and
// fire once per call. Deeper faults come from the aof_*/ssd_* points.
DIRECTLOAD_FAILPOINT_DEFINE(fp_qindb_recovery_scan, "qindb_recovery_scan");
DIRECTLOAD_FAILPOINT_DEFINE(fp_qindb_checkpoint, "qindb_checkpoint");
// Fires at the top of a bulk IngestRun, before the vectored append: the
// injection point for "the slice landed on the server but the engine could
// not persist it" (the loader retries or aborts; the session survives).
DIRECTLOAD_FAILPOINT_DEFINE(fp_qindb_ingest_append, "qindb_ingest_append");
// Read-path cache points. `cache_lookup` fires before the cache is
// consulted (a failure fails the read like a device error would);
// `cache_insert` fires after a successful device read and suppresses only
// the cache fill — the read itself still succeeds, modelling a cache too
// contended or too broken to accept the entry.
DIRECTLOAD_FAILPOINT_DEFINE(fp_cache_lookup, "cache_lookup");
DIRECTLOAD_FAILPOINT_DEFINE(fp_cache_insert, "cache_insert");

constexpr char kCheckpointName[] = "checkpoint.dat";
constexpr char kCheckpointTemp[] = "checkpoint.tmp";
constexpr uint64_t kCheckpointMagic = 0x51494e4443484b50ull;  // "QINDCHKP"

// Budget caps for one commit group. The leader always takes at least one
// batch, even an oversized one, so a single huge batch cannot wedge.
constexpr size_t kGroupMaxOps = 256;
constexpr uint64_t kGroupMaxBytes = 1ull << 20;

// Per-entry flag bits in the checkpoint serialization.
constexpr uint8_t kCkptDedup = 1u << 0;
constexpr uint8_t kCkptDeleted = 1u << 1;

// Lookups per Get/GetLatest. A version dropped while a read of it runs can
// lose its record, or its referent's, to GC, and a lookup that a commit and
// a drop overtake can miss every live version; so a failed lookup or read
// looks the pair up again in the current index, which finds it gone or the
// version that replaced it.
constexpr int kMaxLookups = 3;

std::string ShardLockName(const char* base, uint32_t shard_id) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s/s%02u", base, shard_id);
  return buf;
}

/// RAII bump of the engine-wide reads-in-flight counter (GC deferral).
/// Shard-internal readers (Get, Scrub, Scanner::value) count like facade
/// ReadGuards so a shard's GC defers for reads against any shard.
struct FlightGuard {
  explicit FlightGuard(std::atomic<int>* counter) : counter_(counter) {
    counter_->fetch_add(1, std::memory_order_relaxed);
  }
  ~FlightGuard() { counter_->fetch_sub(1, std::memory_order_relaxed); }
  FlightGuard(const FlightGuard&) = delete;
  FlightGuard& operator=(const FlightGuard&) = delete;

  std::atomic<int>* counter_;
};

uint64_t EntryExtent(const MemEntry* e) {
  return aof::RecordExtent(e->key_size,
                           e->value_size.load(std::memory_order_acquire));
}

/// Destination for occupancy updates, buffered into `deferred` and applied
/// by the caller with one AofManager::MarkDeadMany. Recovery must buffer:
/// it runs inside AofManager::Scan — which holds the manager's lock shared
/// — so marking a record dead there would self-deadlock. Commits buffer so
/// a whole group's updates take the manager's lock once.
struct DeadSink {
  std::vector<std::pair<aof::RecordAddress, uint64_t>>* deferred;
  /// When set, a record marked dead is also evicted from the read cache:
  /// every dead-marking site (supersede, delete, drop) is exactly a site
  /// where cached bytes for the address become unreachable garbage.
  BlockCache* cache = nullptr;

  void MarkDead(const aof::RecordAddress& addr, uint64_t extent) const {
    if (cache != nullptr) cache->Erase(addr.Pack());
    deferred->emplace_back(addr, extent);
  }
};

/// True if the record of (key, version) is still referenced by a newer,
/// live, deduplicated version (Figure 2's "invalid key-value pairs that
/// are referred by later version keys"). Free functions over an explicit
/// index (rather than Shard members) so the GC callbacks — which execute
/// with the AOF manager's lock held — can call them against a pre-captured
/// index pointer without touching the shard's guarded state.
bool IsReferentIn(const MemIndex& idx, const Slice& key, uint64_t version) {
  // Walk the versions strictly newer than `version`, nearest first. The
  // record stays needed while the contiguous run of deduplicated versions
  // above it contains at least one live one; the walk ends with that run.
  for (MemEntry* e = idx.FindNextNewer(key, version); e != nullptr;
       e = idx.FindNextNewer(key, e->version)) {
    if (!e->dedup) return false;  // Carries its own value: chain broken.
    if (!e->deleted) return true;
  }
  return false;
}

/// Marks the record behind `entry` dead in the occupancy table unless it is
/// still a referent.
void MarkDeadUnlessReferent(const MemIndex& idx, const DeadSink& sink,
                            MemEntry* entry) {
  if (!IsReferentIn(idx, entry->user_key(), entry->version)) {
    sink.MarkDead(aof::RecordAddress::Unpack(entry->address),
                  EntryExtent(entry));
  }
}

void ApplyDeleteAccounting(const MemIndex& idx, const DeadSink& sink,
                           MemEntry* entry) {
  const Slice key = entry->user_key();
  if (entry->dedup) {
    // The NULL record itself is dead the moment the pair is deleted.
    sink.MarkDead(aof::RecordAddress::Unpack(entry->address),
                  EntryExtent(entry));
    // The value it resolved to may have just lost its last referent.
    MemEntry* target = idx.TracebackValue(key, entry->version);
    if (target != nullptr && target->deleted) {
      MarkDeadUnlessReferent(idx, sink, target);
    }
  } else {
    // A value-bearing record stays live while newer deduplicated versions
    // reference it.
    MarkDeadUnlessReferent(idx, sink, entry);
  }
}

/// Flags a pair deleted; false if it already was.
bool FlagDeleted(const MemIndex& idx, const DeadSink& sink, MemEntry* entry) {
  if (entry->deleted.exchange(true, std::memory_order_acq_rel)) return false;
  ApplyDeleteAccounting(idx, sink, entry);
  return true;
}

/// What applying one record did to the index.
enum class Applied { kPut, kDeleted, kAlreadyDeleted, kNoPair };

/// The one rule by which a record changes the index. Group commit, bulk
/// commit and recovery replay all apply records through it, in log order.
/// A put supersedes its pair, whose old record is dead; a copy GC relocated
/// with kFlagDeleted arrives deleted. A tombstone is dead on arrival and
/// flags its pair deleted.
Applied ApplyRecord(MemIndex& idx, const DeadSink& sink, const Slice& key,
                    uint64_t version, uint64_t packed, uint32_t value_size,
                    uint8_t flags) {
  if ((flags & aof::kFlagTombstone) != 0) {
    sink.MarkDead(aof::RecordAddress::Unpack(packed),
                  aof::RecordExtent(key.size(), value_size));
    MemEntry* entry = idx.FindExact(key, version);
    if (entry == nullptr) return Applied::kNoPair;
    return FlagDeleted(idx, sink, entry) ? Applied::kDeleted
                                         : Applied::kAlreadyDeleted;
  }
  // One seek places the entry and reports the record it supersedes.
  MemIndex::Replaced old;
  MemEntry* entry = idx.Insert(key, version, packed, value_size,
                               (flags & aof::kFlagDedup) != 0, &old);
  if (old.found) {
    sink.MarkDead(aof::RecordAddress::Unpack(old.address),
                  aof::RecordExtent(key.size(), old.value_size));
  }
  if ((flags & aof::kFlagDeleted) != 0) FlagDeleted(idx, sink, entry);
  return Applied::kPut;
}

/// The drop rule: a pair of a dropped version is dropped iff its current
/// record precedes the version's drop marker, whose position `dropped_at`
/// maps the version to. A re-PUT after the drop follows the marker, and so
/// does a copy GC moved after the drop — one that was deleted then says so
/// in its own flags. Returns the number of pairs flagged.
uint64_t ApplyDrops(const MemIndex& idx, const DeadSink& sink,
                    const std::map<uint64_t, uint64_t>& dropped_at) {
  uint64_t flagged = 0;
  if (dropped_at.empty()) return flagged;
  for (MemIndex::Iterator it = idx.NewIterator(); it.Valid(); it.Next()) {
    MemEntry* entry = it.entry();
    auto drop = dropped_at.find(entry->version);
    if (drop != dropped_at.end() &&
        entry->address.load(std::memory_order_relaxed) < drop->second &&
        FlagDeleted(idx, sink, entry)) {
      ++flagged;
    }
  }
  return flagged;
}

}  // namespace

/// What one live commit applied: the occupancy updates for its one
/// MarkDeadMany and the counters FinishCommitLocked adds.
struct Shard::CommitTally {
  std::vector<std::pair<aof::RecordAddress, uint64_t>> dead;
  uint64_t puts = 0;
  uint64_t dedup_puts = 0;
  uint64_t dels = 0;
  uint64_t ingested = 0;  // User bytes of the applied puts.

  Applied Count(Applied applied, const Slice& key, uint32_t value_size,
                uint8_t flags) {
    if (applied == Applied::kPut) {
      ++puts;
      if ((flags & aof::kFlagDedup) != 0) ++dedup_puts;
      ingested += key.size() + value_size;
    } else if (applied == Applied::kDeleted) {
      ++dels;
    }
    return applied;
  }
};

Shard::Shard(ssd::SsdEnv* env, const QinDbOptions& options, uint32_t shard_id,
             QinDbStats* stats, std::atomic<int>* reads_in_flight)
    : env_(env),
      options_(options),
      shard_id_(shard_id),
      checkpoint_name_(options.aof.file_prefix + kCheckpointName),
      checkpoint_temp_(options.aof.file_prefix + kCheckpointTemp),
      write_name_(ShardLockName("qindb-write", shard_id)),
      queue_name_(ShardLockName("qindb-batch-queue", shard_id)),
      pin_name_(ShardLockName("qindb-pin", shard_id)),
      write_mutex_(LockRank::kQinDbWrite, write_name_.c_str()),
      batch_mu_(LockRank::kQinDbBatchQueue, queue_name_.c_str()),
      pin_mu_(LockRank::kQinDbPin, pin_name_.c_str()),
      cache_(options.cache_bytes > 0
                 ? std::make_unique<BlockCache>(options.cache_bytes, shard_id)
                 : nullptr),
      stats_(stats),
      reads_in_flight_(reads_in_flight) {}

Result<std::unique_ptr<Shard>> Shard::Open(ssd::SsdEnv* env,
                                           const QinDbOptions& options,
                                           uint32_t shard_id,
                                           QinDbStats* stats,
                                           std::atomic<int>* reads_in_flight) {
  std::unique_ptr<Shard> shard(
      new Shard(env, options, shard_id, stats, reads_in_flight));
  // Nothing else can reach the shard yet; hold the write mutex anyway so
  // the recovery helpers see their capability held.
  MutexLock lock(&shard->write_mutex_);
  {
    MutexLock pin(&shard->pin_mu_);
    shard->mem_ = std::make_shared<MemIndex>();
  }

  std::map<uint32_t, aof::SegmentMeta> metas;
  uint32_t next_segment = 0;
  bool checkpoint_loaded = false;
  if (env->FileExists(shard->checkpoint_name_)) {
    Status s = shard->LoadCheckpoint(shard->checkpoint_name_,
                                     &checkpoint_loaded, &metas,
                                     &next_segment);
    if (!s.ok() && !s.IsCorruption()) return s;
    // A corrupt checkpoint is ignored; recovery falls back to the full scan.
  }

  Result<std::unique_ptr<aof::AofManager>> mgr = aof::AofManager::Open(
      env, options.aof, checkpoint_loaded ? &metas : nullptr);
  if (!mgr.ok()) return mgr.status();
  shard->aof_ = std::move(mgr).value();

  if (checkpoint_loaded) {
    Status s = shard->ApplyCheckpointEntries();
    if (!s.ok()) return s;
    s = shard->RecoverFromScan(next_segment);
    if (!s.ok()) return s;
    shard->checkpoint_valid_ = true;
  } else if (shard->aof_->segment_count() > 0) {
    Status s = shard->RecoverFromScan(0);
    if (!s.ok()) return s;
  }
  return shard;
}

std::shared_ptr<const MemIndex> Shard::PinIndex() const {
  MutexLock lock(&pin_mu_);
  return mem_;
}

MemIndex* Shard::CurrentIndex() const {
  MutexLock lock(&pin_mu_);
  return mem_.get();
}

Status Shard::CheckWritable() const {
  if (degraded_.load(std::memory_order_acquire)) {
    return Status::IOError(
        "QinDB is read-only: a write-path failure forced degraded mode; "
        "reopen the engine to recover");
  }
  return Status::OK();
}

Status Shard::NoteWriteError(Status s) {
  // kNoSpace stays transient: the device rejected the write whole, nothing
  // is torn, and callers legitimately free space (Del + GC) and continue.
  if (s.IsIOError() || s.IsCorruption() || s.IsInternal()) {
    degraded_.store(true, std::memory_order_release);
  }
  return s;
}

Result<ScrubReport> Shard::Scrub() {
  ScrubReport report;
  FlightGuard guard(reads_in_flight_);  // Scrubbing is an ongoing read.
  const std::shared_ptr<const MemIndex> index = PinIndex();
  for (MemIndex::Iterator it = index->NewIterator(); it.Valid(); it.Next()) {
    MemEntry* entry = it.entry();
    ++report.entries_checked;
    aof::RecordView view;
    Status s = aof_->ReadRecord(aof::RecordAddress::Unpack(entry->address),
                                EntryExtent(entry), &view);
    if (!s.ok() || view.key != entry->user_key() ||
        view.header.version != entry->version ||
        view.is_dedup() != entry->dedup) {
      ++report.damaged_entries;
      continue;
    }
    report.bytes_verified += EntryExtent(entry);
    if (entry->dedup && !entry->deleted &&
        index->TracebackValue(entry->user_key(), entry->version) == nullptr) {
      ++report.unresolvable_dedups;
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Scanner
// ---------------------------------------------------------------------------

Shard::Scanner::Scanner(Shard* shard, uint64_t version)
    : shard_(shard),
      version_(version),
      index_(shard->PinIndex()),
      it_(index_->NewIterator()) {}

Shard::Scanner Shard::NewScanner(uint64_t version) {
  return Scanner(this, version);
}

void Shard::Scanner::Seek(const Slice& start) {
  if (start.empty()) {
    it_.SeekToFirst();
  } else {
    it_.Seek(start);
  }
  FindVisibleEntry();
}

void Shard::Scanner::Next() {
  // FindVisibleEntry left the underlying iterator at the next key run.
  FindVisibleEntry();
}

void Shard::Scanner::FindVisibleEntry() {
  valid_ = false;
  current_ = nullptr;
  while (it_.Valid()) {
    // Versions of a key are adjacent, newest first: take the first entry at
    // or below the scan version, then consume the rest of the run.
    MemEntry* candidate = nullptr;
    const MemEntry* run_head = it_.entry();
    const Slice run_key = run_head->user_key();  // Arena-backed, stable.
    while (it_.Valid() && it_.entry()->user_key() == run_key) {
      MemEntry* entry = it_.entry();
      if (candidate == nullptr && entry->version <= version_) {
        candidate = entry;
      }
      it_.Next();
    }
    if (candidate != nullptr && !candidate->deleted) {
      current_ = candidate;
      valid_ = true;
      return;
    }
  }
}

Result<std::string> Shard::Scanner::value() const {
  if (!valid_) return Status::InvalidArgument("scanner not positioned");
  FlightGuard guard(shard_->reads_in_flight_);
  return shard_->ReadPairValue(*index_, current_);
}

Result<std::string> Shard::ReadPairValue(const MemIndex& index,
                                         const MemEntry* entry) {
  if (entry->dedup) {
    // The value field was removed by Bifrost: traceback to the newest
    // older version that still carries one (Figure 2, bottom right).
    entry = index.TracebackValue(entry->user_key(), entry->version);
    if (entry == nullptr) {
      return Status::Corruption(
          "deduplicated pair with no value-bearing older version");
    }
  }
  return ReadEntryValue(entry);
}

Result<std::string> Shard::ReadEntryValue(const MemEntry* entry) {
  constexpr int kMaxAttempts = 8;
  Status last = Status::Aborted("record kept moving during read");
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const uint64_t epoch = gc_epoch_.load(std::memory_order_acquire);
    const uint64_t address = entry->address.load(std::memory_order_acquire);
    const uint32_t value_size =
        entry->value_size.load(std::memory_order_acquire);
    if (cache_ != nullptr) {
      DIRECTLOAD_FAILPOINT(fp_cache_lookup);
      std::string cached;
      if (cache_->Lookup(address, entry->user_key(), entry->version,
                         &cached)) {
        return cached;
      }
    }
    aof::RecordView view;
    Status s = aof_->ReadRecord(aof::RecordAddress::Unpack(address),
                                aof::RecordExtent(entry->key_size, value_size),
                                &view);
    if (s.ok()) {
      if (view.key == entry->user_key() &&
          view.header.version == entry->version) {
        if (cache_ != nullptr) {
          bool fill = true;
#if DIRECTLOAD_FAILPOINTS_COMPILED
          if (fp_cache_insert->armed() &&
              !fp_cache_insert->MaybeFail().ok()) {
            fill = false;  // Injected: serve the value, skip the fill.
          }
#endif
          if (fill) {
            cache_->Insert(address, view.key, entry->version, view.value);
          }
        }
        return view.value.ToString();
      }
      s = Status::Internal("memtable offset points at the wrong record");
    }
    // A failed read may have raced a GC relocation of the record or a re-PUT
    // superseding it (address/value_size observed torn). Retry when either
    // signal moved; otherwise the failure is real.
    if (entry->address.load(std::memory_order_acquire) == address &&
        gc_epoch_.load(std::memory_order_acquire) == epoch) {
      return s;
    }
    last = s;
  }
  return last;
}

Result<std::string> Shard::Get(const Slice& key, uint64_t version) {
  ++stats_->gets;
  FlightGuard guard(reads_in_flight_);
  Result<std::string> value = Status::NotFound("no such key/version");
  for (int lookup = 0; lookup < kMaxLookups; ++lookup) {
    const std::shared_ptr<const MemIndex> index = PinIndex();
    MemEntry* entry = index->FindExact(key, version);
    if (entry == nullptr || entry->deleted) {
      return Status::NotFound("no such key/version");
    }
    if (entry->dedup) ++stats_->traceback_gets;
    value = ReadPairValue(*index, entry);
    if (value.ok()) break;
  }
  return value;
}

Result<std::string> Shard::GetLatest(const Slice& key) {
  ++stats_->gets;
  FlightGuard guard(reads_in_flight_);
  Result<std::string> value = Status::NotFound("no live version");
  for (int lookup = 0; lookup < kMaxLookups; ++lookup) {
    const std::shared_ptr<const MemIndex> index = PinIndex();
    MemEntry* entry = index->FindLatestLive(key);
    if (entry == nullptr) {
      value = Status::NotFound("no live version");
      continue;
    }
    if (entry->dedup) ++stats_->traceback_gets;
    value = ReadPairValue(*index, entry);
    if (value.ok()) break;
  }
  return value;
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

Status Shard::Write(WriteBatch& batch) {
  batch.statuses_.clear();
  if (batch.ops_.empty()) return Status::OK();
  if (Status w = CheckWritable(); !w.ok()) {
    batch.statuses_.assign(batch.ops_.size(), w);
    return w;
  }
  PendingWrite self(&batch);
  EnqueueWrite(&self);
  return CompleteWrite(&self);
}

void Shard::EnqueueWrite(PendingWrite* pending) {
  WriteBatch& batch = *pending->batch;
  // Pre-encode this batch's Put records — checksum included — on the
  // calling thread, before taking any lock. Encoding is the dominant
  // per-op cost of a write (the CRC over the value), so under group commit
  // it runs in parallel across the enqueueing writers while the leader's
  // critical section shrinks to concatenate-append-apply. Ops that fail
  // the appender's own limits are left unencoded; the plan phase rejects
  // them per-op with a precise status.
  pending->spans.assign(batch.ops_.size(), {0, 0});
  for (size_t oi = 0; oi < batch.ops_.size(); ++oi) {
    const WriteOp& op = batch.ops_[oi];
    if (op.kind != WriteOpKind::kPut) continue;
    if (op.key.empty() || op.key.size() > UINT16_MAX ||
        aof::RecordExtent(op.key.size(), op.value.size()) >
            options_.aof.segment_bytes) {
      continue;
    }
    const size_t at = pending->encoded.size();
    aof::EncodeRecord(op.key, op.version,
                      op.dedup ? aof::kFlagDedup : aof::kFlagNone, op.value,
                      &pending->encoded);
    pending->spans[oi] = {at, pending->encoded.size() - at};
  }

  // Enqueue before contending on write_mutex_: while the current leader
  // commits (holding write_mutex_), later writers still reach the queue, so
  // the next leader finds a group, not a single batch.
  MutexLock queue_lock(&batch_mu_);
  write_queue_.push_back(pending);
}

Status Shard::CompleteWrite(PendingWrite* pending) {
  PendingWrite& self = *pending;
  // Only the queue FRONT proceeds to write_mutex_; every other writer parks
  // on batch_cv_ and is released by the leader that commits its batch.
  // Followers therefore never touch write_mutex_ at all — without the gate,
  // each committed follower still had to win one write_mutex_ handoff just
  // to observe done, which serialized a futex wake per op and erased the
  // win from batching.
  {
    MutexLock queue_lock(&batch_mu_);
    // An empty queue while !done means a looping leader drained this batch
    // into its in-flight group; done is forthcoming, so keep waiting.
    while (!self.done &&
           (write_queue_.empty() || write_queue_.front() != &self)) {
      batch_cv_.Wait();
    }
    if (self.done) return self.overall;
  }

  MutexLock lock(&write_mutex_);
  while (true) {
    std::vector<PendingWrite*> group;
    {
      MutexLock queue_lock(&batch_mu_);
      // A previous leader may have committed this batch between the park
      // above and this thread acquiring write_mutex_.
      if (self.done) return self.overall;
      size_t group_ops = 0;
      uint64_t group_bytes = 0;
      while (!write_queue_.empty()) {
        PendingWrite* candidate = write_queue_.front();
        if (!group.empty() &&
            (group_ops + candidate->batch->size() > kGroupMaxOps ||
             group_bytes + candidate->batch->ApproximateBytes() >
                 kGroupMaxBytes)) {
          break;
        }
        group.push_back(candidate);
        group_ops += candidate->batch->size();
        group_bytes += candidate->batch->ApproximateBytes();
        write_queue_.pop_front();
      }
    }
    // The queue still held this thread's own batch, so group is non-empty.
    CommitGroupLocked(group);
    bool self_done = false;
    {
      MutexLock queue_lock(&batch_mu_);
      for (PendingWrite* member : group) member->done = true;
      self_done = self.done;
      // Wakes the committed followers (they return) and the new queue
      // front (it becomes the next leader).
      batch_cv_.SignalAll();
    }
    if (self_done) return self.overall;
    // The budget cut the drain before reaching this thread's batch (older
    // batches filled the group): lead another round.
  }
}

void Shard::CommitGroupLocked(const std::vector<PendingWrite*>& group) {
  // A previous group may have tripped degraded mode while this batch
  // waited; fail every drained batch the way a lone op would fail.
  if (Status w = CheckWritable(); !w.ok()) {
    for (PendingWrite* member : group) {
      member->batch->statuses_.assign(member->batch->ops_.size(), w);
      member->overall = w;
    }
    return;
  }

  MemIndex* idx = CurrentIndex();
  const uint32_t segment_before = aof_->active_segment();

  // --- Plan: walk every op of every batch in order, rejecting invalid ops
  // and collecting the one record each valid op appends: a Put's record or
  // a Del's tombstone. Whether a Del finds its pair is decided at apply
  // time, in op order, so nothing here needs to see the effect of earlier
  // ops of the group.
  std::vector<aof::AofManager::AppendOp> slots;
  // slot_of[b][oi]: the op's record in `slots`, or SIZE_MAX when its
  // per-op status is already final.
  std::vector<std::vector<size_t>> slot_of(group.size());
  size_t total_ops = 0;
  for (const PendingWrite* member : group) {
    total_ops += member->batch->ops_.size();
  }
  slots.reserve(total_ops);

  for (size_t b = 0; b < group.size(); ++b) {
    WriteBatch& batch = *group[b]->batch;
    batch.statuses_.assign(batch.ops_.size(), Status::OK());
    slot_of[b].assign(batch.ops_.size(), SIZE_MAX);
    for (size_t oi = 0; oi < batch.ops_.size(); ++oi) {
      const WriteOp& op = batch.ops_[oi];
      Status& status = batch.statuses_[oi];
      aof::AofManager::AppendOp slot{Slice(op.key), op.version, aof::kFlagNone,
                                     Slice(), Slice()};
      if (op.kind == WriteOpKind::kDel) {
        // No pair is stored under such a key, and a key too long would fail
        // the group's append.
        if (op.key.empty() || op.key.size() > UINT16_MAX) {
          status = Status::NotFound("no such key/version");
        }
        slot.flags = aof::kFlagTombstone;
      } else {
        // Pre-screen with the appender's own limits so one oversized op
        // fails alone instead of failing the group's vectored append.
        if (op.key.empty()) {
          status = Status::InvalidArgument("empty key");
        } else if (op.key.size() > UINT16_MAX) {
          status = Status::InvalidArgument("key too long");
        } else if (aof::RecordExtent(op.key.size(), op.value.size()) >
                   options_.aof.segment_bytes) {
          status = Status::InvalidArgument("record exceeds segment capacity");
        }
        if (op.dedup) slot.flags = aof::kFlagDedup;
        slot.value = Slice(op.value);
        const auto& span = group[b]->spans[oi];
        if (span.second != 0) {
          slot.preencoded =
              Slice(group[b]->encoded.data() + span.first, span.second);
        }
      }
      if (!status.ok()) continue;
      slot_of[b][oi] = slots.size();
      slots.push_back(slot);
    }
  }

  // --- Append: every record of the group, one vectored call. One segment
  // append + one roll check + one occupancy update per run instead of N.
  std::vector<aof::RecordAddress> addresses;
  if (!slots.empty()) {
    Status s = aof_->AppendMany(slots.data(), slots.size(), &addresses);
    if (!s.ok()) {
      s = NoteWriteError(std::move(s));
      // The group commits or fails as one append, like a lone Put whose
      // AppendRecord failed. Ops already rejected during planning keep
      // their more specific statuses.
      for (size_t b = 0; b < group.size(); ++b) {
        WriteBatch& batch = *group[b]->batch;
        for (size_t oi = 0; oi < batch.ops_.size(); ++oi) {
          if (slot_of[b][oi] != SIZE_MAX) batch.statuses_[oi] = s;
        }
        group[b]->overall = s;
      }
      return;
    }
  }

  // --- Apply: memtable mutations strictly in op order, so a concurrent
  // lock-free reader can observe a prefix of the group but never a key's
  // version chain with an op applied out of order (a dedup entry always
  // lands after the base value it tracebacks to). Occupancy updates are
  // deferred into one MarkDeadMany.
  CommitTally tally;
  const DeadSink sink{&tally.dead, cache_.get()};
  for (size_t b = 0; b < group.size(); ++b) {
    WriteBatch& batch = *group[b]->batch;
    for (size_t oi = 0; oi < batch.ops_.size(); ++oi) {
      const size_t slot = slot_of[b][oi];
      if (slot == SIZE_MAX) continue;
      const aof::AofManager::AppendOp& rec = slots[slot];
      // A Del of a missing pair fails; of a deleted one, it is a no-op.
      const auto value_size = static_cast<uint32_t>(rec.value.size());
      if (tally.Count(ApplyRecord(*idx, sink, rec.key, rec.version,
                                  addresses[slot].Pack(), value_size,
                                  rec.flags),
                      rec.key, value_size, rec.flags) == Applied::kNoPair) {
        batch.statuses_[oi] = Status::NotFound("no such key/version");
      }
    }
  }

  // A failure of the commit's maintenance leaves the group's data committed
  // but surfaces as every batch's overall status — exactly how a lone Put
  // reports a failed interval checkpoint. Otherwise a batch's overall
  // status is its first failing per-op status, like the return of the
  // equivalent single-op call sequence.
  const Status maintenance = FinishCommitLocked(tally, segment_before);
  for (PendingWrite* member : group) {
    member->overall = maintenance;
    if (!maintenance.ok()) continue;
    for (const Status& s : member->batch->statuses_) {
      if (!s.ok()) {
        member->overall = s;
        break;
      }
    }
  }
}

Status Shard::FinishCommitLocked(const CommitTally& tally,
                                 uint32_t segment_before) {
  // The shards commit in parallel: the engine-wide counters take one add
  // each per commit, not one per pair.
  stats_->puts += tally.puts;
  stats_->dedup_puts += tally.dedup_puts;
  stats_->dels += tally.dels;
  stats_->user_bytes_ingested += tally.ingested;
  shard_puts_ += tally.puts;
  shard_dels_ += tally.dels;
  shard_bytes_ingested_.fetch_add(tally.ingested, std::memory_order_relaxed);
  aof_->MarkDeadMany(tally.dead);

  // Maintenance at the commit's boundary: the interval checkpoint on
  // ingested bytes, then the lazy GC when a segment sealed or a delete
  // freed space.
  if (options_.checkpoint_interval_bytes > 0 &&
      shard_bytes_ingested_.load(std::memory_order_relaxed) -
              bytes_at_last_checkpoint_ >=
          options_.checkpoint_interval_bytes) {
    if (Status s = NoteWriteError(CheckpointLocked()); !s.ok()) return s;
    bytes_at_last_checkpoint_ =
        shard_bytes_ingested_.load(std::memory_order_relaxed);
  }
  if (options_.auto_gc &&
      (tally.dels > 0 || aof_->active_segment() != segment_before)) {
    return MaybeGcLocked();  // Applies NoteWriteError internally.
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Bulk ingest (Bifrost over the wire)
// ---------------------------------------------------------------------------

Status Shard::IngestBegin(uint64_t version) {
  if (Status w = CheckWritable(); !w.ok()) return w;
  MutexLock lock(&write_mutex_);
  // Idempotent: a repaired connection may re-open the session it already
  // holds; the staged state is keyed by version and survives.
  ingest_sessions_.try_emplace(version);
  return Status::OK();
}

Status Shard::IngestRun(uint64_t version, const IngestOp* ops, size_t count) {
  if (Status w = CheckWritable(); !w.ok()) return w;
  if (count == 0) return Status::OK();

  // Validate and pre-encode the whole run OUTSIDE the shard lock — like the
  // group-commit enqueue path, the CRC over the values is the dominant cost
  // and must not serialize behind the committer. Unlike a WriteBatch, a run
  // fails whole on an invalid op: a slice is re-sent, never patched per-op.
  // A pending tombstone's header names the pair it deletes, so its value
  // carries the session's version (aof::kFlagIngestPending).
  char session[8];
  EncodeFixed64(session, version);
  std::vector<aof::AofManager::AppendOp> slots(count);
  size_t total = 0;
  for (size_t i = 0; i < count; ++i) {
    const IngestOp& op = ops[i];
    if (op.key.empty()) {
      return Status::InvalidArgument("empty key in ingest run");
    }
    if (op.key.size() > UINT16_MAX) {
      return Status::InvalidArgument("key too long in ingest run");
    }
    if (!op.tombstone && op.version != version) {
      return Status::InvalidArgument(
          "ingest put version differs from the session version");
    }
    aof::AofManager::AppendOp& slot = slots[i];
    slot.key = op.key;
    slot.version = op.version;
    slot.flags = aof::kFlagIngestPending;
    if (op.dedup) slot.flags |= aof::kFlagDedup;
    if (op.tombstone) {
      slot.flags |= aof::kFlagTombstone;
      slot.value = Slice(session, sizeof(session));
    } else if (!op.dedup) {
      slot.value = op.value;
    }
    const uint64_t extent = aof::RecordExtent(op.key.size(), slot.value.size());
    if (extent > options_.aof.segment_bytes) {
      return Status::InvalidArgument("record exceeds segment capacity");
    }
    total += extent;
  }
  // One allocation for the whole run, so the spans taken below stay valid:
  // growth reallocs would also re-copy the already-encoded prefix.
  std::string encoded;
  encoded.reserve(total);
  for (aof::AofManager::AppendOp& slot : slots) {
    const size_t at = encoded.size();
    aof::EncodeRecord(slot.key, slot.version, slot.flags, slot.value,
                      &encoded);
    slot.preencoded = Slice(encoded.data() + at, encoded.size() - at);
  }

  MutexLock lock(&write_mutex_);
  if (Status w = CheckWritable(); !w.ok()) return w;
  auto session_it = ingest_sessions_.find(version);
  if (session_it == ingest_sessions_.end()) {
    return Status::InvalidArgument("no bulk-ingest session for this version");
  }
  DIRECTLOAD_FAILPOINT(fp_qindb_ingest_append);

  std::vector<aof::RecordAddress> addresses;
  if (Status s = aof_->AppendMany(slots.data(), slots.size(), &addresses);
      !s.ok()) {
    // AppendMany already rolled back the occupancy accounting of any
    // durable prefix; the run fails whole and the session stays open for
    // the caller to retry or abort.
    return NoteWriteError(std::move(s));
  }

  std::vector<IngestSession::Staged>& staged = session_it->second.staged;
  // Grow geometrically: an exact-size reserve per run would reallocate (and
  // copy every staged entry) on EVERY run — quadratic over a multi-run load.
  if (staged.capacity() < staged.size() + count) {
    staged.reserve(std::max(staged.size() + count, staged.capacity() * 2));
  }
  for (size_t i = 0; i < count; ++i) {
    const aof::AofManager::AppendOp& slot = slots[i];
    staged.push_back({slot.key.ToString(), slot.version, addresses[i].Pack(),
                      static_cast<uint32_t>(slot.value.size()), slot.flags});
  }
  return Status::OK();
}

Status Shard::IngestCommit(uint64_t version) {
  if (Status w = CheckWritable(); !w.ok()) return w;
  MutexLock lock(&write_mutex_);
  if (Status w = CheckWritable(); !w.ok()) return w;
  auto it = ingest_sessions_.find(version);
  if (it == ingest_sessions_.end()) {
    // Idempotent retry: a cross-shard commit torn between shards re-runs
    // against every shard, and a shard whose marker already landed must
    // answer OK — "no session" here would wedge the retry forever.
    if (ingest_committed_.count(version) != 0) return Status::OK();
    return Status::InvalidArgument("no bulk-ingest session for this version");
  }

  const uint32_t segment_before = aof_->active_segment();
  const std::vector<IngestSession::Staged>& staged = it->second.staged;
  // The marker IS the commit point: once durable, recovery indexes the
  // pending records of this session — those of its version from the
  // session's start (its value) to the marker; before it, the session
  // leaves no trace. GC keeps markers forever (the classify rule).
  char start[8];
  EncodeFixed64(start, staged.empty() ? UINT64_MAX : staged.front().address);
  Result<uint64_t> marker = AppendMarkerLocked(
      version, aof::kFlagIngestCommit, Slice(start, sizeof(start)));
  if (!marker.ok()) return marker.status();

  // Apply the staged records in run order, as recovery replays them.
  MemIndex* idx = CurrentIndex();
  CommitTally tally;
  const DeadSink sink{&tally.dead, cache_.get()};
  for (const IngestSession::Staged& op : staged) {
    tally.Count(ApplyRecord(*idx, sink, op.key, op.version, op.address,
                            op.value_size, op.flags),
                op.key, op.value_size, op.flags);
  }
  ingest_sessions_.erase(it);
  ingest_committed_.insert(version);
  // Maintenance is legal again now that the session is gone (unless a
  // concurrent load still holds one).
  return FinishCommitLocked(tally, segment_before);
}

Status Shard::IngestAbort(uint64_t version) {
  // No CheckWritable gate: abort is cleanup and must work (and release the
  // checkpoint/GC deferral) even after a write fault degraded the shard.
  MutexLock lock(&write_mutex_);
  auto it = ingest_sessions_.find(version);
  if (it == ingest_sessions_.end()) {
    return Status::InvalidArgument("no bulk-ingest session for this version");
  }
  // Roll back occupancy: every staged record becomes garbage in one
  // vectored MarkDeadMany. The bytes stay on disk until GC, but recovery
  // never indexes them — no marker of this session vouches for them.
  // Staged records were never indexed, hence never read, hence never
  // cached; the sink's cache purge is belt-and-braces against any future
  // path that reads staged bytes before commit.
  std::vector<std::pair<aof::RecordAddress, uint64_t>> dead;
  const DeadSink sink{&dead, cache_.get()};
  for (const IngestSession::Staged& op : it->second.staged) {
    sink.MarkDead(aof::RecordAddress::Unpack(op.address),
                  aof::RecordExtent(op.key.size(), op.value_size));
  }
  aof_->MarkDeadMany(dead);
  ingest_sessions_.erase(it);
  if (!degraded() && options_.auto_gc) return MaybeGcLocked();
  return Status::OK();
}

Result<uint64_t> Shard::DropVersion(uint64_t version) {
  MutexLock lock(&write_mutex_);
  if (Status w = CheckWritable(); !w.ok()) return w;
  // The session's records are durable but unindexed: the drop could not
  // flag them now, yet recovery would (they precede the marker). Retry
  // once the session commits or aborts.
  if (ingest_sessions_.count(version) != 0) {
    return Status::Busy("bulk-ingest session open for the version");
  }
  const uint32_t segment_before = aof_->active_segment();
  // Every pair of the version indexed by now precedes the marker.
  Result<uint64_t> marker =
      AppendMarkerLocked(version, aof::kFlagDropVersion, Slice());
  if (!marker.ok()) return marker.status();
  CommitTally tally;
  tally.dels = ApplyDrops(*CurrentIndex(), DeadSink{&tally.dead, cache_.get()},
                          {{version, *marker}});
  if (Status s = FinishCommitLocked(tally, segment_before); !s.ok()) return s;
  return tally.dels;
}

Result<uint64_t> Shard::AppendMarkerLocked(uint64_t version, uint8_t flag,
                                           const Slice& value) {
  Result<aof::RecordAddress> marker =
      aof_->AppendRecord(Slice(), version, flag, value);
  if (!marker.ok()) return NoteWriteError(marker.status());
  return marker->Pack();
}

std::map<uint64_t, uint64_t> Shard::VersionCounts() const {
  std::map<uint64_t, uint64_t> counts;
  const std::shared_ptr<const MemIndex> index = PinIndex();
  for (MemIndex::Iterator it = index->NewIterator(); it.Valid(); it.Next()) {
    const MemEntry* entry = it.entry();
    if (!entry->deleted) ++counts[entry->version];
  }
  return counts;
}

ShardStatsSnapshot Shard::StatsSnapshot() const {
  ShardStatsSnapshot snap;
  snap.shard_id = shard_id_;
  snap.puts = shard_puts_.load(std::memory_order_relaxed);
  snap.dels = shard_dels_.load(std::memory_order_relaxed);
  snap.user_bytes_ingested =
      shard_bytes_ingested_.load(std::memory_order_relaxed);
  snap.live_entries = PinIndex()->live_count();
  snap.segments = aof_->segment_count();
  snap.degraded = degraded();
  if (cache_ != nullptr) {
    const BlockCache::Stats cs = cache_->stats();
    snap.cache_hits = cs.hits;
    snap.cache_misses = cs.misses;
    snap.cache_inserts = cs.inserts;
    snap.cache_admission_rejects = cs.admission_rejects;
    snap.cache_evicted_bytes = cs.evicted_bytes;
    snap.cache_charged_bytes = cs.charged_bytes;
  }
  return snap;
}

Status Shard::MaybeGc() {
  if (Status w = CheckWritable(); !w.ok()) return w;
  MutexLock lock(&write_mutex_);
  return MaybeGcLocked();
}

Status Shard::MaybeGcLocked() {
  if (!ingest_sessions_.empty()) {
    // Pending bulk-ingest records are not in the memtable yet, so the
    // classify pass would drop them as superseded garbage. Defer until
    // every session commits or aborts.
    ++stats_->gc_deferrals;
    return Status::OK();
  }
  if (aof_->GcVictims().empty()) return Status::OK();
  if (reads_in_flight_->load(std::memory_order_relaxed) > 0) {
    const double usage = static_cast<double>(env_->TotalFileBytes()) /
                         static_cast<double>(env_->CapacityBytes());
    if (usage < options_.gc_space_pressure) {
      ++stats_->gc_deferrals;
      return Status::OK();
    }
  }
  // GC rewrites live records; a failure partway through can leave a victim
  // half-relocated, so it degrades the engine like any other write fault.
  return NoteWriteError(CollectVictimsLocked());
}

Status Shard::ForceGc() {
  if (Status w = CheckWritable(); !w.ok()) return w;
  MutexLock lock(&write_mutex_);
  if (!ingest_sessions_.empty()) {
    // Unlike the lazy policy's silent deferral, a forced collection that
    // cannot run (it would drop unindexed pending records) says so.
    return Status::Busy("bulk-ingest session active; GC deferred");
  }
  if (aof_->GcVictims().empty()) return Status::OK();
  return NoteWriteError(CollectVictimsLocked());
}

Status Shard::CollectVictimsLocked() {
  const std::vector<uint32_t> victims = aof_->GcVictims();
  if (victims.empty()) return Status::OK();

  // Relocations make any existing checkpoint's addresses stale, so drop it
  // BEFORE touching a single record. If the checkpoint outlived any part of
  // a collection — a crash after a victim segment is erased but before the
  // invalidation — recovery would trust checkpoint addresses that point
  // into segments that no longer exist. Invalidating first means a crash
  // anywhere inside GC recovers by full scan, which reconciles original
  // and relocated copies from the on-disk records alone. (The crash-point
  // sweep in tests/chaos_test.cc exercises exactly these windows.)
  if (Status s = InvalidateCheckpoint(); !s.ok()) return s;

  // The callbacks below run with the AOF manager's lock held exclusively,
  // so they must not re-enter the manager and must not take pin_mu_ (the
  // rank order allows it, but the analysis cannot see into lambdas): the
  // live index is captured up front. It cannot be retired mid-collection
  // because only this function retires indices, under write_mutex_.
  MemIndex* live = CurrentIndex();
  BlockCache* cache = cache_.get();
  const uint32_t oldest = aof_->SegmentMetas().begin()->first;

  // Snapshot the retired indices still pinned by readers: relocations must
  // patch their entries too, or a pinned snapshot would keep chasing
  // addresses inside segments that no longer exist.
  std::vector<std::shared_ptr<MemIndex>> retired;
  {
    MutexLock pin_lock(&pin_mu_);
    retired.reserve(retired_.size());
    for (auto it = retired_.begin(); it != retired_.end();) {
      if (std::shared_ptr<MemIndex> idx = it->lock()) {
        retired.push_back(std::move(idx));
        ++it;
      } else {
        it = retired_.erase(it);  // No pinned reader left.
      }
    }
  }

  for (uint32_t id : victims) {
    Status s = aof_->CollectSegment(
        id,
        /*classify=*/
        [live, oldest](const aof::RecordAddress& addr,
                       const aof::RecordView& rec, uint8_t* copy_flags) {
          if (rec.is_marker()) {
            // Markers are kept forever: a commit marker vouches for its
            // session's pending records still in older segments, and a
            // drop marker covers every record of its version before it, in
            // segments not yet collected. One small record per shard per
            // load or drop.
            return true;
          }
          MemEntry* entry = live->FindExact(rec.key, rec.header.version);
          if (rec.is_tombstone()) {
            // Keep the tombstone while the pair is not live again and an
            // older segment may hold one of its earlier records, which a
            // recovery scan without the tombstone would resurrect. Records
            // in this segment go with it, and copies elsewhere carry their
            // own deleted state.
            return addr.segment_id > oldest &&
                   (entry == nullptr || entry->deleted);
          }
          if (entry == nullptr ||
              aof::RecordAddress::Unpack(entry->address) != addr) {
            return false;  // Superseded copy or already purged.
          }
          if (!entry->deleted) return true;  // Live data.
          // Deleted but possibly still referenced by a newer deduplicated
          // version (Figure 2, top right). The copy lands after the
          // tombstone or drop marker that deleted it, so it carries the
          // deleted state itself.
          *copy_flags = aof::kFlagDeleted;
          return IsReferentIn(*live, rec.key, rec.header.version);
        },
        /*relocate=*/
        [live, &retired, cache](const aof::RecordAddress& old_addr,
                                const aof::RecordAddress& new_addr,
                                const aof::RecordView& rec) {
          // Tombstones and markers have no memtable item to patch.
          if (rec.is_tombstone() || rec.is_marker()) return;
          const uint64_t old_packed = old_addr.Pack();
          const uint64_t new_packed = new_addr.Pack();
          if (cache != nullptr) {
            // The bytes are identical at the new address: move the cached
            // copy instead of losing it (stale-address entries would miss
            // forever — addresses are never reused).
            cache->Rekey(old_packed, new_packed);
          }
          MemEntry* entry = live->FindExact(rec.key, rec.header.version);
          if (entry != nullptr) {
            entry->address.store(new_packed, std::memory_order_release);
          }
          for (const auto& idx : retired) {
            MemEntry* ghost = idx->FindExact(rec.key, rec.header.version);
            if (ghost != nullptr &&
                ghost->address.load(std::memory_order_acquire) == old_packed) {
              ghost->address.store(new_packed, std::memory_order_release);
            }
          }
        },
        /*drop=*/
        [live, cache](const aof::RecordAddress& old_addr,
                      const aof::RecordView& rec) {
          if (cache != nullptr) {
            // The record is about to be erased with its segment; cached
            // bytes for its address must never be served again.
            cache->Erase(old_addr.Pack());
          }
          if (rec.is_tombstone()) return;
          MemEntry* entry = live->FindExact(rec.key, rec.header.version);
          if (entry != nullptr &&
              aof::RecordAddress::Unpack(entry->address) == old_addr &&
              entry->deleted) {
            // Deleted with no referent: remove the item from the skip list.
            live->Purge(entry);
          }
        });
    if (!s.ok()) return s;
    // Readers whose record read failed mid-collection use the epoch bump as
    // the signal to retry against the patched addresses.
    gc_epoch_.fetch_add(1, std::memory_order_release);
  }
  ++stats_->gc_invocations;

  // The skip list never physically unlinks nodes; once purged ghosts
  // dominate, rebuild a dense index so memory stays proportional to live
  // entries (Section 2.1's "sufficient memory space" invariant). Pinned
  // readers keep the retired index alive via their refcount; it is freed
  // when the last of them drops its pin.
  if (live->total_count() > 4096 &&
      live->live_count() * 2 < live->total_count()) {
    auto fresh = std::make_shared<MemIndex>();
    live->CompactInto(fresh.get());
    MutexLock pin_lock(&pin_mu_);
    retired_.push_back(mem_);
    mem_ = std::move(fresh);
  }

  return Status::OK();
}

Status Shard::InvalidateCheckpoint() {
  checkpoint_valid_ = false;
  if (env_->FileExists(checkpoint_name_)) {
    return env_->DeleteFile(checkpoint_name_);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Recovery and checkpointing
// ---------------------------------------------------------------------------

Status Shard::RecoverFromScan(uint32_t min_segment) {
  DIRECTLOAD_FAILPOINT(fp_qindb_recovery_scan);
  MemIndex* idx = CurrentIndex();
  // Scan holds the AOF manager's lock shared, so the callback must not
  // re-enter the manager: dead marks are buffered through `sink` and
  // applied after the scan returns. Decisions are still made inline against
  // the memtable — nothing during the scan reads occupancy, so the deferral
  // is invisible.
  std::vector<std::pair<aof::RecordAddress, uint64_t>> deferred;
  const DeadSink sink{&deferred};

  // Bulk-ingest replay state. A session's pending records are buffered
  // (copied — the scan's views do not outlive the callback) under the
  // session's version, in log order, until a commit marker of that version
  // vouches for them: the marker replays the ones between its session's
  // start and its own position, where the pre-crash commit made them
  // visible. Pending records no marker vouches for — their session aborted
  // or crashed before its marker — are dead on arrival, even when a later
  // session of the same version commits. A relocated pending copy replays
  // in place like any relocated record: GC keeps only a pending put its
  // commit indexed, or a tombstone whose pair is not live.
  struct PendingRecord {
    std::string key;
    uint64_t version = 0;
    uint64_t address = 0;
    uint32_t value_len = 0;
    uint8_t flags = 0;
  };
  std::map<uint64_t, std::vector<PendingRecord>> pending;
  std::vector<uint64_t> committed_versions;
  // Drop markers: the latest log position at which each version was
  // dropped, applied after the scan in one walk of the index.
  std::map<uint64_t, uint64_t> dropped_at;
  // The latest delete of each pair, kept while pending records wait: a
  // marker GC moved past later records replays its session late, and a
  // pair deleted after the commit must stay deleted.
  std::map<std::pair<std::string, uint64_t>, uint64_t> deleted_at;

  // Records replay in log order through the one apply rule, so a tombstone
  // deletes the pair's records before it and a put supersedes them. `at` is
  // the record's place in that order: its own, or its commit marker's.
  auto replay = [idx, &sink, &pending, &deleted_at](
                    const Slice& key, uint64_t version, uint64_t packed,
                    uint32_t value_len, uint8_t flags, uint64_t at) {
    ApplyRecord(*idx, sink, key, version, packed, value_len, flags);
    if ((flags & aof::kFlagTombstone) != 0 && !pending.empty()) {
      deleted_at[{key.ToString(), version}] = at;
    }
  };
  Status s = aof_->Scan(
      [idx, &sink, &replay, &pending, &committed_versions, &dropped_at,
       &deleted_at](const aof::RecordAddress& addr,
                    const aof::RecordView& rec) {
        if (rec.is_drop_version()) {
          uint64_t& at = dropped_at[rec.header.version];
          at = std::max(at, rec.MarkerPosition(addr));
          return true;  // Markers stay live and never index anything.
        }
        if (rec.is_ingest_commit()) {
          committed_versions.push_back(rec.header.version);
          auto session = pending.find(rec.header.version);
          if (session == pending.end()) return true;
          std::vector<PendingRecord>& records = session->second;
          const uint64_t position = rec.MarkerPosition(addr);
          const auto before = [](const PendingRecord& p, uint64_t at) {
            return p.address < at;
          };
          auto first = std::lower_bound(records.begin(), records.end(),
                                        rec.SessionStart(), before);
          auto last = std::lower_bound(first, records.end(), position, before);
          for (auto p = first; p != last; ++p) {
            const Slice key(p->key);
            // Replayed late, behind a moved marker: a later record of the
            // pair supersedes this one, and a later delete still applies.
            MemEntry* later =
                rec.is_relocated() ? idx->FindExact(key, p->version) : nullptr;
            if (later != nullptr && later->address > position) {
              sink.MarkDead(aof::RecordAddress::Unpack(p->address),
                            aof::RecordExtent(key.size(), p->value_len));
              continue;
            }
            replay(key, p->version, p->address, p->value_len, p->flags,
                   position);
            auto del = deleted_at.find({p->key, p->version});
            if ((p->flags & aof::kFlagTombstone) == 0 &&
                del != deleted_at.end() && del->second > position) {
              FlagDeleted(*idx, sink, idx->FindExact(key, p->version));
            }
          }
          records.erase(first, last);
          if (records.empty()) pending.erase(session);
          return true;
        }
        if (rec.is_ingest_pending() && !rec.is_relocated()) {
          pending[rec.SessionVersion()].push_back(
              {rec.key.ToString(), rec.header.version, addr.Pack(),
               rec.header.value_len, rec.header.flags});
          return true;
        }
        replay(rec.key, rec.header.version, addr.Pack(),
               rec.header.value_len, rec.header.flags, addr.Pack());
        return true;
      },
      min_segment);
  if (!s.ok()) return s;
  // Markers found on disk re-seed the idempotency set: a commit retry
  // arriving after a reopen still answers OK for these versions.
  ingest_committed_.insert(committed_versions.begin(),
                           committed_versions.end());
  // Unvouched pending records: never indexed, and accounted garbage so GC
  // reclaims the bytes.
  for (const auto& [version, records] : pending) {
    for (const PendingRecord& p : records) {
      sink.MarkDead(aof::RecordAddress::Unpack(p.address),
                    aof::RecordExtent(p.key.size(), p.value_len));
    }
  }
  ApplyDrops(*idx, sink, dropped_at);
  aof_->MarkDeadMany(deferred);
  return Status::OK();
}

Status Shard::Checkpoint() {
  if (Status w = CheckWritable(); !w.ok()) return w;
  MutexLock lock(&write_mutex_);
  return NoteWriteError(CheckpointLocked());
}

Status Shard::CheckpointLocked() {
  if (!ingest_sessions_.empty()) {
    // Pending bulk-ingest records are durable but unindexed; a checkpoint
    // taken now would let a later recovery skip the sealed segments that
    // hold them, and a commit after this checkpoint would then lose the
    // version on the next crash. Skip — the next checkpoint after the
    // sessions resolve covers everything.
    return Status::OK();
  }
  DIRECTLOAD_FAILPOINT(fp_qindb_checkpoint);
  Status s = aof_->SealActive();
  if (!s.ok()) return s;

  MemIndex* idx = CurrentIndex();
  std::string blob;
  PutFixed64(&blob, kCheckpointMagic);
  PutFixed32(&blob, aof_->active_segment());
  const std::map<uint32_t, aof::SegmentMeta> metas = aof_->SegmentMetas();
  PutVarint64(&blob, metas.size());
  for (const auto& [id, meta] : metas) {
    PutFixed32(&blob, id);
    PutVarint64(&blob, meta.total_bytes);
    PutVarint64(&blob, meta.live_bytes);
  }
  PutVarint64(&blob, idx->live_count());
  for (MemIndex::Iterator it = idx->NewIterator(); it.Valid(); it.Next()) {
    const MemEntry* e = it.entry();
    PutLengthPrefixedSlice(&blob, e->user_key());
    PutVarint64(&blob, e->version);
    PutFixed64(&blob, e->address);
    PutVarint32(&blob, e->value_size);
    uint8_t flags = 0;
    if (e->dedup) flags |= kCkptDedup;
    if (e->deleted) flags |= kCkptDeleted;
    blob.push_back(static_cast<char>(flags));
  }
  // Committed bulk-load versions, appended after the entries (absent in
  // older checkpoints; ApplyCheckpointEntries treats it as optional).
  // Persisting the set keeps IngestCommit idempotency across a reopen
  // whose recovery scan no longer covers the markers' segments.
  PutVarint64(&blob, ingest_committed_.size());
  for (uint64_t v : ingest_committed_) PutVarint64(&blob, v);
  PutFixed32(&blob, crc32c::Mask(crc32c::Value(blob.data(), blob.size())));

  if (env_->FileExists(checkpoint_temp_)) {
    s = env_->DeleteFile(checkpoint_temp_);
    if (!s.ok()) return s;
  }
  Result<std::unique_ptr<ssd::WritableFile>> file =
      env_->NewWritableFile(checkpoint_temp_);
  if (!file.ok()) return file.status();
  s = (*file)->Append(blob);
  if (!s.ok()) return s;
  s = (*file)->Close();
  if (!s.ok()) return s;
  s = env_->RenameFile(checkpoint_temp_, checkpoint_name_);
  if (!s.ok()) return s;
  checkpoint_valid_ = true;
  return Status::OK();
}

Status Shard::LoadCheckpoint(const std::string& name, bool* loaded,
                             std::map<uint32_t, aof::SegmentMeta>* metas,
                             uint32_t* next_segment) {
  *loaded = false;
  Result<uint64_t> size = env_->GetFileSize(name);
  if (!size.ok()) return size.status();
  Result<std::unique_ptr<ssd::RandomAccessFile>> file =
      env_->NewRandomAccessFile(name);
  if (!file.ok()) return file.status();
  std::string blob;
  Status s = (*file)->Read(0, *size, &blob);
  if (!s.ok()) return s;

  if (blob.size() < 16) return Status::Corruption("checkpoint too small");
  const uint32_t stored_crc =
      crc32c::Unmask(DecodeFixed32(blob.data() + blob.size() - 4));
  const uint32_t actual_crc = crc32c::Value(blob.data(), blob.size() - 4);
  if (stored_crc != actual_crc) {
    return Status::Corruption("checkpoint checksum mismatch");
  }

  Slice in(blob.data(), blob.size() - 4);
  if (DecodeFixed64(in.data()) != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  in.remove_prefix(8);
  *next_segment = DecodeFixed32(in.data());
  in.remove_prefix(4);

  uint64_t meta_count = 0;
  if (!GetVarint64(&in, &meta_count)) return Status::Corruption("metas");
  for (uint64_t i = 0; i < meta_count; ++i) {
    if (in.size() < 4) return Status::Corruption("meta id");
    const uint32_t id = DecodeFixed32(in.data());
    in.remove_prefix(4);
    aof::SegmentMeta meta;
    if (!GetVarint64(&in, &meta.total_bytes) ||
        !GetVarint64(&in, &meta.live_bytes)) {
      return Status::Corruption("meta bytes");
    }
    (*metas)[id] = meta;
  }

  // Entries are stashed raw and applied after the AOF manager opens.
  pending_checkpoint_.assign(in.data(), in.size());
  *loaded = true;
  return Status::OK();
}

Status Shard::ApplyCheckpointEntries() {
  MemIndex* idx = CurrentIndex();
  Slice in(pending_checkpoint_);
  uint64_t count = 0;
  if (!GetVarint64(&in, &count)) return Status::Corruption("entry count");
  for (uint64_t i = 0; i < count; ++i) {
    Slice key;
    uint64_t version = 0;
    uint32_t value_size = 0;
    if (!GetLengthPrefixedSlice(&in, &key) || !GetVarint64(&in, &version)) {
      return Status::Corruption("entry key/version");
    }
    if (in.size() < 8) return Status::Corruption("entry address");
    const uint64_t address = DecodeFixed64(in.data());
    in.remove_prefix(8);
    if (!GetVarint32(&in, &value_size) || in.empty()) {
      return Status::Corruption("entry value size");
    }
    const auto flags = static_cast<uint8_t>(in[0]);
    in.remove_prefix(1);
    MemEntry* entry = idx->Insert(key, version, address, value_size,
                                  (flags & kCkptDedup) != 0);
    entry->deleted = (flags & kCkptDeleted) != 0;
  }
  // Optional trailer (newer checkpoints only): the committed bulk-load
  // versions. Its absence is legal; a present-but-torn set is corruption
  // like any other truncated field.
  if (!in.empty()) {
    uint64_t committed_count = 0;
    if (!GetVarint64(&in, &committed_count)) {
      return Status::Corruption("committed-version count");
    }
    for (uint64_t i = 0; i < committed_count; ++i) {
      uint64_t v = 0;
      if (!GetVarint64(&in, &v)) {
        return Status::Corruption("committed version");
      }
      ingest_committed_.insert(v);
    }
  }
  pending_checkpoint_.clear();
  return Status::OK();
}

}  // namespace directload::qindb
