#include "qindb/qindb.h"

#include <cstdio>
#include <thread>
#include <utility>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"

namespace directload::qindb {

namespace {

// API-level failpoints: fire once per call at the facade, before any shard
// is touched — the position the pre-sharding engine fired them from. The
// per-shard qindb_recovery_scan / qindb_checkpoint points live in shard.cc.
DIRECTLOAD_FAILPOINT_DEFINE(fp_qindb_put, "qindb_put");
DIRECTLOAD_FAILPOINT_DEFINE(fp_qindb_get, "qindb_get");
DIRECTLOAD_FAILPOINT_DEFINE(fp_qindb_del, "qindb_del");
// Fires after shard 0's bulk-ingest commit, before the other shards commit
// in parallel: an abort action here models the paper's worst delivery
// crash — a torn cross-shard commit where only shard 0 has a durable marker
// (a crash during the parallel commits leaves shard 0 plus any subset).
DIRECTLOAD_FAILPOINT_DEFINE(fp_qindb_ingest_commit, "qindb_ingest_commit");

// Seed of the routing hash (shard = Hash64(key, seed) % num_shards).
constexpr uint64_t kShardHashSeed = 0x51494e44u;  // "QIND"

// The shard manifest pins the routing layout (count + hash seed) to the
// device: Hash64(key, seed) % num_shards must evaluate identically on every
// open, or keys silently land on shards that never saw their records. The
// manifest is written once, before the first shard's first byte, and every
// reopen validates against it.
constexpr char kManifestName[] = "shard_manifest.dat";
constexpr char kManifestTemp[] = "shard_manifest.tmp";
constexpr uint64_t kManifestMagic = 0x51494e4453484152ull;  // "QINDSHAR"
constexpr uint32_t kManifestVersion = 1;

// "s%02u_" supports two-digit ids; far above any sane core count, and the
// cap keeps a typo'd num_shards from fabricating thousands of files.
constexpr uint32_t kMaxShards = 64;

std::string ShardFilePrefix(uint32_t shard_id) {
  char buf[8];
  std::snprintf(buf, sizeof(buf), "s%02u_", shard_id);
  return buf;
}

Status WriteManifest(ssd::SsdEnv* env, uint32_t num_shards, uint64_t seed) {
  std::string blob;
  PutFixed64(&blob, kManifestMagic);
  PutFixed32(&blob, kManifestVersion);
  PutFixed32(&blob, num_shards);
  PutFixed64(&blob, seed);
  PutFixed32(&blob, crc32c::Mask(crc32c::Value(blob.data(), blob.size())));

  if (env->FileExists(kManifestTemp)) {
    if (Status s = env->DeleteFile(kManifestTemp); !s.ok()) return s;
  }
  Result<std::unique_ptr<ssd::WritableFile>> file =
      env->NewWritableFile(kManifestTemp);
  if (!file.ok()) return file.status();
  if (Status s = (*file)->Append(blob); !s.ok()) return s;
  if (Status s = (*file)->Sync(); !s.ok()) return s;
  if (Status s = (*file)->Close(); !s.ok()) return s;
  return env->RenameFile(kManifestTemp, kManifestName);
}

Status ReadManifest(ssd::SsdEnv* env, uint32_t* num_shards, uint64_t* seed) {
  Result<uint64_t> size = env->GetFileSize(kManifestName);
  if (!size.ok()) return size.status();
  Result<std::unique_ptr<ssd::RandomAccessFile>> file =
      env->NewRandomAccessFile(kManifestName);
  if (!file.ok()) return file.status();
  std::string blob;
  if (Status s = (*file)->Read(0, *size, &blob); !s.ok()) return s;

  // 8 magic + 4 version + 4 count + 8 seed + 4 crc.
  if (blob.size() != 28) {
    return Status::Corruption("shard manifest has the wrong size");
  }
  const uint32_t stored_crc =
      crc32c::Unmask(DecodeFixed32(blob.data() + blob.size() - 4));
  if (stored_crc != crc32c::Value(blob.data(), blob.size() - 4)) {
    return Status::Corruption("shard manifest checksum mismatch");
  }
  if (DecodeFixed64(blob.data()) != kManifestMagic) {
    return Status::Corruption("bad shard manifest magic");
  }
  const uint32_t version = DecodeFixed32(blob.data() + 8);
  if (version != kManifestVersion) {
    return Status::Corruption("unknown shard manifest version");
  }
  *num_shards = DecodeFixed32(blob.data() + 12);
  *seed = DecodeFixed64(blob.data() + 16);
  if (*num_shards == 0 || *num_shards > kMaxShards) {
    return Status::Corruption("shard manifest count out of range");
  }
  return Status::OK();
}

}  // namespace

QinDb::QinDb(ssd::SsdEnv* env, const QinDbOptions& options)
    : env_(env), options_(options) {}

Result<std::unique_ptr<QinDb>> QinDb::Open(ssd::SsdEnv* env,
                                           const QinDbOptions& options) {
  if (options.num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards exceeds the supported maximum");
  }

  // Resolve the layout BEFORE any shard exists.
  uint32_t num_shards = 0;
  if (env->FileExists(kManifestName)) {
    uint64_t manifest_seed = 0;
    Status s = ReadManifest(env, &num_shards, &manifest_seed);
    if (!s.ok()) return s;
    if (manifest_seed != kShardHashSeed) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "shard manifest was written with hash seed %llu, not "
                    "this engine's %llu; keys would be misrouted",
                    static_cast<unsigned long long>(manifest_seed),
                    static_cast<unsigned long long>(kShardHashSeed));
      return Status::InvalidArgument(msg);
    }
    if (options.num_shards != 0 && options.num_shards != num_shards) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "shard manifest records num_shards=%u but the options "
                    "request %u; reopen with num_shards=%u or 0 (adopt)",
                    num_shards, options.num_shards, num_shards);
      return Status::InvalidArgument(msg);
    }
  } else {
    num_shards = options.num_shards != 0
                     ? options.num_shards
                     : std::max(1u, std::thread::hardware_concurrency());
    if (num_shards > kMaxShards) num_shards = kMaxShards;
    if (Status s = WriteManifest(env, num_shards, kShardHashSeed); !s.ok()) {
      return s;
    }
  }

  std::unique_ptr<QinDb> db(new QinDb(env, options));
  db->options_.num_shards = num_shards;
  db->shards_.resize(num_shards);

  std::vector<Status> statuses(num_shards);
  auto open_one = [&](uint32_t shard_id) {
    QinDbOptions shard_options = db->options_;
    shard_options.aof.file_prefix = ShardFilePrefix(shard_id);
    shard_options.aof.shared_gc_stats = &db->gc_stats_;
    // The cache budget is engine-wide; each shard governs its slice.
    shard_options.cache_bytes = db->options_.cache_bytes / num_shards;
    Result<std::unique_ptr<Shard>> shard = Shard::Open(
        env, shard_options, shard_id, &db->stats_, &db->reads_in_flight_);
    if (shard.ok()) {
      db->shards_[shard_id] = std::move(shard).value();
    } else {
      statuses[shard_id] = shard.status();
    }
  };

  if (num_shards == 1) {
    open_one(0);
  } else {
    // Shards own disjoint file sets, so their recovery scans only share the
    // env lock: replay them in parallel, one thread per shard.
    std::vector<std::thread> recovery;
    recovery.reserve(num_shards);
    for (uint32_t i = 0; i < num_shards; ++i) {
      recovery.emplace_back(open_one, i);
    }
    for (std::thread& t : recovery) t.join();
  }
  for (const Status& s : statuses) {
    if (!s.ok()) return s;
  }
  return db;
}

uint32_t QinDb::ShardOf(const Slice& key) const {
  if (shards_.size() == 1) return 0;
  return static_cast<uint32_t>(Hash64(key, kShardHashSeed) % shards_.size());
}

bool QinDb::degraded() const {
  for (const auto& shard : shards_) {
    if (shard->degraded()) return true;
  }
  return false;
}

EngineCacheTotals QinDb::CacheTotals() const {
  EngineCacheTotals out;
  for (const auto& shard : shards_) {
    const ShardStatsSnapshot s = shard->StatsSnapshot();
    out.cache_hits += s.cache_hits;
    out.cache_misses += s.cache_misses;
    out.cache_inserts += s.cache_inserts;
    out.cache_admission_rejects += s.cache_admission_rejects;
    out.cache_evicted_bytes += s.cache_evicted_bytes;
    out.cache_charged_bytes += s.cache_charged_bytes;
  }
  return out;
}

Status QinDb::Put(const Slice& key, uint64_t version, const Slice& value,
                  bool dedup) {
  if (key.empty()) return Status::InvalidArgument("empty key");
  // Single ops are one-op batches: under group commit they ride the owning
  // shard's pending queue, so concurrent Put callers routed to the same
  // shard coalesce into one leader-driven AOF append.
  WriteBatch batch;
  batch.Put(key, version, value, dedup);
  return Write(batch);
}

Status QinDb::Del(const Slice& key, uint64_t version) {
  WriteBatch batch;
  batch.Del(key, version);
  return Write(batch);
}

Result<uint64_t> QinDb::DropVersion(uint64_t version) {
  // Every shard drops, even past a failing one: a shard that refused keeps
  // the version, and a retry re-drops the others harmlessly.
  uint64_t dropped = 0;
  Status first_error;
  for (const auto& shard : shards_) {
    Result<uint64_t> n = shard->DropVersion(version);
    if (n.ok()) dropped += *n;
    if (!n.ok() && first_error.ok()) first_error = n.status();
  }
  if (!first_error.ok()) return first_error;
  return dropped;
}

Status QinDb::Write(WriteBatch& batch) {
  batch.statuses_.clear();
  if (batch.ops_.empty()) return Status::OK();

#if DIRECTLOAD_FAILPOINTS_COMPILED
  {
    // API-level injection fires once per batch per op kind, before any
    // state changes — the position the single-op entry points fired from.
    bool has_put = false;
    bool has_del = false;
    for (const WriteOp& op : batch.ops_) {
      has_put |= op.kind == WriteOpKind::kPut;
      has_del |= op.kind == WriteOpKind::kDel;
    }
    if (has_put && fp_qindb_put->armed()) {
      if (Status s = fp_qindb_put->MaybeFail(); !s.ok()) {
        batch.statuses_.assign(batch.ops_.size(), s);
        return s;
      }
    }
    if (has_del && fp_qindb_del->armed()) {
      if (Status s = fp_qindb_del->MaybeFail(); !s.ok()) {
        batch.statuses_.assign(batch.ops_.size(), s);
        return s;
      }
    }
  }
#endif

  // Route every op. At num_shards=1, or when every op lands on one shard,
  // the batch passes through to that shard untouched (no sub-batch copies
  // on the hot path).
  const uint32_t n = num_shards();
  std::vector<uint32_t> routes(batch.ops_.size());
  bool single_shard = true;
  for (size_t oi = 0; oi < batch.ops_.size(); ++oi) {
    const std::string& key = batch.ops_[oi].key;
    routes[oi] = n == 1 || key.empty() ? 0 : ShardOf(key);
    single_shard &= routes[oi] == routes[0];
  }
  if (single_shard) return shards_[routes[0]]->Write(batch);

  // Split into per-shard sub-batches, remembering for each sub-op the
  // submission-order index it came from.
  std::vector<WriteBatch> subs(n);
  std::vector<std::vector<size_t>> origin(n);
  for (size_t oi = 0; oi < batch.ops_.size(); ++oi) {
    const WriteOp& op = batch.ops_[oi];
    WriteBatch& sub = subs[routes[oi]];
    if (op.kind == WriteOpKind::kDel) {
      sub.Del(op.key, op.version);
    } else {
      sub.Put(op.key, op.version, op.value, op.dedup);
    }
    origin[routes[oi]].push_back(oi);
  }

  std::vector<uint32_t> involved;
  for (uint32_t s = 0; s < n; ++s) {
    if (!subs[s].ops_.empty()) involved.push_back(s);
  }

  // Parallel commit: enqueue the sub-batch on EVERY involved shard first,
  // then complete them in ascending shard order. All facade writers use
  // this order, so any wait chain between writers runs strictly from
  // higher to lower shard index and cannot cycle; meanwhile sub-batches
  // enqueued on shards this thread has not reached yet are committed by
  // those shards' own leaders — that is where the parallelism comes from.
  std::vector<Shard::PendingWrite> pending;
  pending.reserve(involved.size());
  for (uint32_t s : involved) {
    subs[s].statuses_.clear();
    pending.emplace_back(&subs[s]);
    shards_[s]->EnqueueWrite(&pending.back());
  }
  for (size_t i = 0; i < involved.size(); ++i) {
    DL_DISCARD_STATUS("first failing per-op status; re-derived from the "
                      "stitched per-op statuses below",
                      shards_[involved[i]]->CompleteWrite(&pending[i]));
  }

  // Stitch per-op statuses back into submission order.
  batch.statuses_.resize(batch.ops_.size());
  for (uint32_t s : involved) {
    for (size_t j = 0; j < origin[s].size(); ++j) {
      batch.statuses_[origin[s][j]] = subs[s].statuses_[j];
    }
  }
  for (const Status& s : batch.statuses_) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status QinDb::IngestBegin(uint64_t version) {
  // Every shard gets a session, even ones no pair will route to: commit
  // then writes a marker on every shard, which keeps the commit protocol
  // independent of the key distribution.
  for (const auto& shard : shards_) {
    if (Status s = shard->IngestBegin(version); !s.ok()) {
      // A refused begin leaves no session behind: an orphan would defer GC
      // and checkpoints, and make ForceGc and DropVersion Busy, for good.
      DL_DISCARD_STATUS("best-effort rollback; the begin already failed",
                        IngestAbort(version));
      return s;
    }
  }
  return Status::OK();
}

Status QinDb::IngestRun(uint64_t version, const IngestOp* ops, size_t count) {
  if (count == 0) return Status::OK();
  if (shards_.size() == 1) return shards_[0]->IngestRun(version, ops, count);
  // Runs are slice-sized (thousands of pairs), so the routing pass is
  // cheap next to the per-shard encode+append.
  std::vector<std::vector<IngestOp>> routed(shards_.size());
  for (size_t i = 0; i < count; ++i) {
    routed[ops[i].key.empty() ? 0 : ShardOf(ops[i].key)].push_back(ops[i]);
  }
  for (uint32_t s = 0; s < shards_.size(); ++s) {
    if (routed[s].empty()) continue;
    if (Status st =
            shards_[s]->IngestRun(version, routed[s].data(), routed[s].size());
        !st.ok()) {
      return st;
    }
  }
  return Status::OK();
}

Status QinDb::IngestCommit(uint64_t version) {
  if (Status st = shards_[0]->IngestCommit(version); !st.ok()) return st;
  if (shards_.size() == 1) return Status::OK();
  DIRECTLOAD_FAILPOINT(fp_qindb_ingest_commit);
  // Shards own disjoint logs and indexes, so the rest commit in parallel,
  // one thread per shard (as recovery opens them). The lowest failing
  // shard's error wins; a retry re-runs every shard and the committed ones
  // answer OK.
  std::vector<Status> statuses(shards_.size());
  std::vector<std::thread> commits;
  commits.reserve(shards_.size() - 1);
  for (size_t s = 1; s < shards_.size(); ++s) {
    commits.emplace_back(
        [&, s] { statuses[s] = shards_[s]->IngestCommit(version); });
  }
  for (std::thread& t : commits) t.join();
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

Status QinDb::IngestAbort(uint64_t version) {
  Status first_error;
  for (const auto& shard : shards_) {
    Status s = shard->IngestAbort(version);
    // A shard without a session is fine (Begin may not have reached it);
    // real rollback failures surface.
    if (!s.ok() && !s.IsInvalidArgument() && first_error.ok()) {
      first_error = s;
    }
  }
  return first_error;
}

Result<std::string> QinDb::Get(const Slice& key, uint64_t version) {
  DIRECTLOAD_FAILPOINT(fp_qindb_get);
  return shards_[ShardOf(key)]->Get(key, version);
}

Result<std::string> QinDb::GetLatest(const Slice& key) {
  DIRECTLOAD_FAILPOINT(fp_qindb_get);
  return shards_[ShardOf(key)]->GetLatest(key);
}

std::map<uint64_t, uint64_t> QinDb::VersionCounts() const {
  std::map<uint64_t, uint64_t> merged;
  for (const auto& shard : shards_) {
    for (const auto& [version, count] : shard->VersionCounts()) {
      merged[version] += count;
    }
  }
  return merged;
}

Status QinDb::MaybeGc() {
  for (const auto& shard : shards_) {
    if (Status s = shard->MaybeGc(); !s.ok()) return s;
  }
  return Status::OK();
}

Status QinDb::ForceGc() {
  for (const auto& shard : shards_) {
    if (Status s = shard->ForceGc(); !s.ok()) return s;
  }
  return Status::OK();
}

Status QinDb::Checkpoint() {
  for (const auto& shard : shards_) {
    if (Status s = shard->Checkpoint(); !s.ok()) return s;
  }
  return Status::OK();
}

Result<QinDb::ScrubReport> QinDb::Scrub() {
  ScrubReport total;
  for (const auto& shard : shards_) {
    Result<ScrubReport> report = shard->Scrub();
    if (!report.ok()) return report.status();
    total.entries_checked += report->entries_checked;
    total.bytes_verified += report->bytes_verified;
    total.damaged_entries += report->damaged_entries;
    total.unresolvable_dedups += report->unresolvable_dedups;
  }
  return total;
}

QinDb::Scanner QinDb::NewScanner(uint64_t version) {
  std::vector<Shard::Scanner> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    parts.push_back(shard->NewScanner(version));
  }
  return Scanner(std::move(parts));
}

void QinDb::Scanner::Seek(const Slice& start) {
  for (Shard::Scanner& part : parts_) part.Seek(start);
  FindMin();
}

void QinDb::Scanner::Next() {
  parts_[current_].Next();
  FindMin();
}

void QinDb::Scanner::FindMin() {
  current_ = SIZE_MAX;
  for (size_t i = 0; i < parts_.size(); ++i) {
    if (!parts_[i].Valid()) continue;
    // Shard key sets are disjoint (hash-partitioned), so two valid parts
    // never tie: strict < picks a unique minimum.
    if (current_ == SIZE_MAX ||
        parts_[i].key().compare(parts_[current_].key()) < 0) {
      current_ = i;
    }
  }
}

uint64_t QinDb::LiveEntryCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->PinIndex()->live_count();
  return total;
}

uint64_t QinDb::LiveBytes() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->aof_->LiveBytes();
  return total;
}

Status QinDb::SealActive() {
  for (const auto& shard : shards_) {
    if (Status s = shard->aof_->SealActive(); !s.ok()) return s;
  }
  return Status::OK();
}

}  // namespace directload::qindb
