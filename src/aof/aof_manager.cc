#include "aof/aof_manager.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/coding.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace directload::aof {

namespace {
constexpr char kSegmentPrefix[] = "aof_";
constexpr uint64_t kScanChunkBytes = 64 << 10;

// Log-layer failpoints. The aof_seal_* and aof_gc_* points are the
// crash-point set: tests/chaos_test.cc sweeps every registered point with
// those prefixes, fail-stops at each, and verifies recovery from the
// resulting on-disk state (docs/fault_injection.md lists the guarantees).
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_append, "aof_append");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_roll_segment, "aof_roll_segment");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_seal_before_close, "aof_seal_before_close");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_seal_after_close, "aof_seal_after_close");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_gc_before_rewrite, "aof_gc_before_rewrite");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_gc_rewrite_record, "aof_gc_rewrite_record");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_gc_after_rewrite, "aof_gc_after_rewrite");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_gc_before_erase, "aof_gc_before_erase");
DIRECTLOAD_FAILPOINT_DEFINE(fp_aof_gc_after_erase, "aof_gc_after_erase");
}  // namespace

AofManager::AofManager(ssd::SsdEnv* env, const AofOptions& options)
    : env_(env), options_(options) {}

AofManager::~AofManager() {
  if (active_writer_ != nullptr) {
    DL_LOG_IF_ERROR("aof active-segment close on shutdown",
                    active_writer_->Close());
  }
}

std::string AofManager::SegmentName(uint32_t id) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08u.dat", kSegmentPrefix, id);
  return options_.file_prefix + buf;
}

Result<std::unique_ptr<AofManager>> AofManager::Open(
    ssd::SsdEnv* env, const AofOptions& options,
    const std::map<uint32_t, SegmentMeta>* known) {
  if (options.segment_bytes < RecordHeader::kSize) {
    return Status::InvalidArgument("segment_bytes too small");
  }
  std::unique_ptr<AofManager> mgr(new AofManager(env, options));
  Status s = mgr->AdoptExistingSegments(known);
  if (!s.ok()) return s;
  return mgr;
}

Status AofManager::AdoptExistingSegments(
    const std::map<uint32_t, SegmentMeta>* known) {
  // Runs before the manager is published; take the lock anyway so the
  // *Locked helpers see their capability held.
  WriterLock lock(&mu_);
  uint32_t max_id = 0;
  bool any = false;
  const std::string full_prefix = options_.file_prefix + kSegmentPrefix;
  for (const std::string& name : env_->ListFiles()) {
    if (name.rfind(full_prefix, 0) != 0) continue;
    const uint32_t id = static_cast<uint32_t>(
        std::strtoul(name.c_str() + full_prefix.size(), nullptr, 10));
    any = true;
    max_id = std::max(max_id, id);
    SegmentInfo info;
    info.sealed = true;
    segments_[id] = std::move(info);
    if (known != nullptr) {
      auto it = known->find(id);
      if (it != known->end()) {
        // Checkpointed accounting: no scan needed.
        segments_[id].total_bytes = it->second.total_bytes;
        segments_[id].live_bytes = it->second.live_bytes;
        continue;
      }
    }
    // Determine the record extent of the segment by scanning headers; the
    // file itself may be longer due to block/page padding.
    uint64_t end = 0;
    Status s = ScanSegmentLocked(id, [&end](const RecordAddress& addr,
                                            const RecordView& rec) {
      end = addr.offset + RecordExtent(rec.header.key_len, rec.header.value_len);
      return true;
    });
    if (!s.ok()) return s;
    segments_[id].total_bytes = end;
    // Everything is presumed live until the engine's recovery pass marks
    // superseded records dead.
    segments_[id].live_bytes = end;
  }
  active_id_ = any ? max_id + 1 : 0;
  return Status::OK();
}

Status AofManager::OpenNewSegmentLocked() {
  DIRECTLOAD_FAILPOINT(fp_aof_roll_segment);
  const std::string name = SegmentName(active_id_);
  Result<std::unique_ptr<ssd::WritableFile>> file = env_->NewWritableFile(name);
  if (!file.ok()) return file.status();
  active_writer_ = std::move(file).value();
  segments_[active_id_] = SegmentInfo{};
  active_mirror_.clear();
  mirror_offset_ = 0;
  return Status::OK();
}

Result<RecordAddress> AofManager::AppendRecord(const Slice& key,
                                               uint64_t version, uint8_t flags,
                                               const Slice& value) {
  WriterLock lock(&mu_);
  return AppendRecordLocked(key, version, flags, value);
}

Result<RecordAddress> AofManager::AppendRecordLocked(const Slice& key,
                                                     uint64_t version,
                                                     uint8_t flags,
                                                     const Slice& value) {
  const AppendOp op{key, version, flags, value, Slice()};
  std::vector<RecordAddress> addresses;
  Status s = AppendManyLocked(&op, 1, &addresses);
  if (!s.ok()) return s;
  return addresses[0];
}

Status AofManager::AppendMany(const AppendOp* ops, size_t n,
                              std::vector<RecordAddress>* addresses) {
  WriterLock lock(&mu_);
  return AppendManyLocked(ops, n, addresses);
}

Status AofManager::AppendManyLocked(const AppendOp* ops, size_t n,
                                    std::vector<RecordAddress>* addresses) {
  // One evaluation of the append failpoint per vectored call: an injected
  // fault fails the whole batch up front, before any byte is written.
  DIRECTLOAD_FAILPOINT(fp_aof_append);
  addresses->clear();
  if (n == 0) return Status::OK();
  addresses->reserve(n);
  // Validate everything before touching the log, so a malformed record
  // cannot strand its batch-mates' bytes behind a mid-batch failure.
  for (size_t i = 0; i < n; ++i) {
    if (RecordExtent(ops[i].key.size(), ops[i].value.size()) >
        options_.segment_bytes) {
      return Status::InvalidArgument("record exceeds segment capacity");
    }
    if (ops[i].key.size() > UINT16_MAX) {
      return Status::InvalidArgument("key too long");
    }
  }

  // On a mid-batch failure, completed runs are durable on device but the
  // caller indexes nothing from a failed call: un-count their live bytes so
  // occupancy reflects only records the engine actually applied (otherwise
  // those extents stay "live" forever and skew occupancy/GC). `completed`
  // is how many leading addresses belong to fully accounted runs.
  auto roll_back_completed = [&](size_t completed) {
    for (size_t j = 0; j < completed; ++j) {
      MarkDeadLocked((*addresses)[j],
                     RecordExtent(ops[j].key.size(), ops[j].value.size()));
    }
    addresses->clear();
  };

  std::string& buf = append_buf_;
  size_t i = 0;
  while (i < n) {
    const uint64_t next_extent =
        RecordExtent(ops[i].key.size(), ops[i].value.size());
    if (active_writer_ != nullptr &&
        active_writer_->Size() + next_extent > options_.segment_bytes) {
      Status s = SealActiveLocked();
      if (!s.ok()) {
        roll_back_completed(addresses->size());
        return s;
      }
    }
    if (active_writer_ == nullptr) {
      Status s = OpenNewSegmentLocked();
      if (!s.ok()) {
        roll_back_completed(addresses->size());
        return s;
      }
    }

    // Encode the run of records that fits the active segment into one
    // contiguous buffer. Each record keeps its own header and checksum, so
    // the segment bytes are indistinguishable from per-record appends.
    buf.clear();
    const size_t run_first = addresses->size();
    const uint64_t run_start = active_writer_->Size();
    uint64_t off = run_start;
    while (i < n) {
      const uint64_t extent =
          RecordExtent(ops[i].key.size(), ops[i].value.size());
      if (off + extent > options_.segment_bytes) break;
      if (!ops[i].preencoded.empty()) {
        buf.append(ops[i].preencoded.data(), ops[i].preencoded.size());
      } else {
        EncodeRecord(ops[i].key, ops[i].version, ops[i].flags, ops[i].value,
                     &buf);
      }
      addresses->push_back(
          RecordAddress{active_id_, static_cast<uint32_t>(off)});
      off += extent;
      ++i;
    }

    Status s = active_writer_->Append(buf);
    if (!s.ok()) {
      // Earlier runs (and an undetectable prefix of this one) may be
      // durable; the addresses are meaningless to the caller on failure.
      // This run's records never reached the occupancy counters, so only
      // the completed runs before it are rolled back.
      roll_back_completed(run_first);
      return s;
    }

    // Maintain the unpersisted-tail mirror: [mirror_offset_, Size).
    active_mirror_.append(buf);
    const uint64_t persisted = active_writer_->PersistedSize();
    if (persisted > mirror_offset_) {
      active_mirror_.erase(0, persisted - mirror_offset_);
      mirror_offset_ = persisted;
    }

    SegmentInfo& seg = segments_[active_id_];
    seg.total_bytes += off - run_start;
    seg.live_bytes += off - run_start;
  }
  return Status::OK();
}

Status AofManager::SealActive() {
  WriterLock lock(&mu_);
  return SealActiveLocked();
}

Status AofManager::SealActiveLocked() {
  if (active_writer_ == nullptr) return Status::OK();
  // Crash point: nothing closed yet — the active segment keeps its writer
  // and its unpersisted tail.
  DIRECTLOAD_FAILPOINT(fp_aof_seal_before_close);
  Status s = active_writer_->Close();
  if (!s.ok()) return s;
  // Crash point: the file is closed (tail padded out and persisted) but the
  // manager's bookkeeping still names it active — recovery must adopt it as
  // sealed from the on-disk state alone.
  DIRECTLOAD_FAILPOINT(fp_aof_seal_after_close);
  active_writer_.reset();
  segments_[active_id_].sealed = true;
  active_mirror_.clear();
  mirror_offset_ = 0;
  ++active_id_;
  return Status::OK();
}

uint32_t AofManager::active_segment() const {
  ReaderLock lock(&mu_);
  return active_id_;
}

size_t AofManager::segment_count() const {
  ReaderLock lock(&mu_);
  return segments_.size();
}

ssd::RandomAccessFile* AofManager::ReaderFor(uint32_t segment_id) const {
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return nullptr;
  // mu_ (held at least shared) keeps the map node alive; readers_mu_ makes
  // the lazy creation single-shot when two readers fault in the same reader.
  MutexLock lock(&readers_mu_);
  if (it->second.reader == nullptr) {
    auto file = env_->NewRandomAccessFile(SegmentName(segment_id));
    if (!file.ok()) return nullptr;
    it->second.reader = std::move(file).value();
  }
  return it->second.reader.get();
}

Status AofManager::ReadBytesLocked(uint32_t segment_id, uint64_t offset,
                                   uint64_t n, std::string* out) const {
  out->clear();
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) {
    return Status::NotFound("unknown segment");
  }
  const uint64_t end = offset + n;
  const bool is_active =
      segment_id == active_id_ && active_writer_ != nullptr;
  const uint64_t persisted =
      is_active ? active_writer_->PersistedSize() : UINT64_MAX;

  if (offset < persisted) {
    ssd::RandomAccessFile* reader = ReaderFor(segment_id);
    if (reader == nullptr) return Status::IOError("cannot open segment");
    const uint64_t device_end = std::min(end, persisted);
    Status s = reader->Read(offset, device_end - offset, out);
    if (!s.ok()) return s;
  }
  if (is_active && end > persisted) {
    // Serve the rest from the in-memory tail mirror.
    const uint64_t lo = std::max(offset, mirror_offset_);
    if (lo < mirror_offset_ || lo - mirror_offset_ > active_mirror_.size()) {
      return Status::Internal("mirror does not cover requested range");
    }
    const uint64_t avail = mirror_offset_ + active_mirror_.size();
    const uint64_t hi = std::min(end, avail);
    if (hi > lo) {
      out->append(active_mirror_.data() + (lo - mirror_offset_), hi - lo);
    }
  }
  if (out->size() < n) {
    return Status::InvalidArgument("read past end of segment");
  }
  return Status::OK();
}

Status AofManager::ReadRecord(const RecordAddress& addr, uint64_t extent_hint,
                              RecordView* out) const {
  ReaderLock lock(&mu_);
  auto it = segments_.find(addr.segment_id);
  if (it == segments_.end()) return Status::NotFound("unknown segment");
  uint64_t n = std::max<uint64_t>(extent_hint, RecordHeader::kSize);
  if (addr.offset < it->second.total_bytes) {
    n = std::min(n, it->second.total_bytes - addr.offset);
  }
  std::string body;
  Status s = ReadBytesLocked(addr.segment_id, addr.offset, n, &body);
  if (!s.ok()) return s;
  RecordHeader header;
  s = DecodeHeader(body, &header);
  if (!s.ok()) return s;
  const uint64_t extent = RecordExtent(header.key_len, header.value_len);
  if (body.size() < extent) {
    std::string rest;
    s = ReadBytesLocked(addr.segment_id, addr.offset + body.size(),
                        extent - body.size(), &rest);
    if (!s.ok()) return s;
    body += rest;
  }
  return DecodeRecord(body, out);
}

void AofManager::MarkDead(const RecordAddress& addr, uint64_t extent) {
  WriterLock lock(&mu_);
  MarkDeadLocked(addr, extent);
}

void AofManager::MarkDeadMany(
    const std::vector<std::pair<RecordAddress, uint64_t>>& dead) {
  if (dead.empty()) return;
  WriterLock lock(&mu_);
  for (const auto& [addr, extent] : dead) {
    MarkDeadLocked(addr, extent);
  }
}

void AofManager::MarkDeadLocked(const RecordAddress& addr, uint64_t extent) {
  auto it = segments_.find(addr.segment_id);
  if (it == segments_.end()) return;
  it->second.live_bytes =
      extent > it->second.live_bytes ? 0 : it->second.live_bytes - extent;
}

double AofManager::Occupancy(uint32_t segment_id) const {
  ReaderLock lock(&mu_);
  return OccupancyLocked(segment_id);
}

double AofManager::OccupancyLocked(uint32_t segment_id) const {
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return 1.0;
  return static_cast<double>(it->second.live_bytes) /
         static_cast<double>(options_.segment_bytes);
}

std::vector<uint32_t> AofManager::GcVictims() const {
  ReaderLock lock(&mu_);
  // Rank by occupancy up front: sorting on precomputed pairs keeps the
  // comparator trivial (no locked lookups inside the sort lambda).
  std::vector<std::pair<double, uint32_t>> ranked;
  for (const auto& [id, seg] : segments_) {
    if (!seg.sealed) continue;
    const double occupancy = OccupancyLocked(id);
    if (occupancy <= options_.gc_occupancy_threshold) {
      ranked.emplace_back(occupancy, id);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<uint32_t> victims;
  victims.reserve(ranked.size());
  for (const auto& [occupancy, id] : ranked) victims.push_back(id);
  return victims;
}

// ---------------------------------------------------------------------------
// SegmentCursor
// ---------------------------------------------------------------------------

Status AofManager::SegmentCursor::Init(const AofManager* mgr,
                                       uint32_t segment_id) {
  segment_id_ = segment_id;
  auto it = mgr->segments_.find(segment_id);
  if (it == mgr->segments_.end()) return Status::NotFound("unknown segment");
  const bool adopted = it->second.total_bytes == 0 && it->second.sealed;
  // For adopted (recovery) segments the logical extent is unknown; fall back
  // to the persisted file size and stop at the first undecodable record.
  limit_ = it->second.total_bytes;
  extent_known_ = !adopted && limit_ > 0;
  if (adopted || limit_ == 0) {
    Result<uint64_t> size = mgr->env_->GetFileSize(mgr->SegmentName(segment_id));
    if (!size.ok()) return size.status();
    limit_ = *size;
    extent_known_ = false;
    // A crashed writer may have lost its unflushed tail: only the persisted
    // prefix is readable (record checksums cover torn records inside it).
    ssd::RandomAccessFile* reader = mgr->ReaderFor(segment_id);
    if (reader != nullptr) limit_ = std::min(limit_, reader->Size());
  }
  if (segment_id == mgr->active_id_ && mgr->active_writer_ != nullptr) {
    // Every byte up to total_bytes was appended by this process: the extent
    // is exact, and the mirror backs whatever the device has not persisted.
    limit_ = it->second.total_bytes;
    extent_known_ = true;
  }
  offset_ = 0;
  buf_.clear();
  buf_start_ = 0;
  return Decode(mgr);
}

Status AofManager::SegmentCursor::Ensure(const AofManager* mgr,
                                         uint64_t need) {
  const uint64_t have = buf_start_ + buf_.size();
  if (offset_ + need <= have && offset_ >= buf_start_) return Status::OK();
  const uint64_t want =
      std::min(std::max(need, kScanChunkBytes), limit_ - offset_);
  buf_start_ = offset_;
  return mgr->ReadBytesLocked(segment_id_, offset_, want, &buf_);
}

Status AofManager::SegmentCursor::Decode(const AofManager* mgr) {
  valid_ = false;
  if (offset_ + RecordHeader::kSize > limit_) return Status::OK();
  Status s = Ensure(mgr, RecordHeader::kSize);
  if (!s.ok()) return s;
  RecordHeader header;
  s = DecodeHeader(Slice(buf_.data() + (offset_ - buf_start_),
                         buf_.size() - (offset_ - buf_start_)),
                   &header);
  if (!s.ok()) return Status::OK();  // End of decodable data.
  const uint64_t extent = RecordExtent(header.key_len, header.value_len);
  if (offset_ + extent > limit_) return Status::OK();  // Torn tail / padding.
  s = Ensure(mgr, extent);
  if (!s.ok()) return s;
  s = DecodeRecord(Slice(buf_.data() + (offset_ - buf_start_),
                         buf_.size() - (offset_ - buf_start_)),
                   &view_);
  if (!s.ok()) {
    // The header decoded and the full claimed extent is readable, so every
    // byte of this record was appended and persisted — a crash cannot have
    // torn it. A body checksum failure here is damaged media, and the
    // records behind it are unreachable; tolerating it would let a scan
    // (or worse, a GC rewrite) silently drop them.
    return Status::Corruption("segment " + std::to_string(segment_id_) +
                              ": record at offset " +
                              std::to_string(offset_) +
                              " inside the persisted extent fails its "
                              "checksum: " +
                              s.ToString());
  }
  address_ = RecordAddress{segment_id_, static_cast<uint32_t>(offset_)};
  valid_ = true;
  return Status::OK();
}

Status AofManager::SegmentCursor::Next(const AofManager* mgr) {
  offset_ += RecordExtent(view_.header.key_len, view_.header.value_len);
  return Decode(mgr);
}

Status AofManager::ScanSegmentLocked(uint32_t segment_id,
                                     const ScanFn& fn) const {
  SegmentCursor cur;
  for (Status s = cur.Init(this, segment_id);; s = cur.Next(this)) {
    if (!s.ok()) return s;
    if (!cur.Valid()) break;
    if (!fn(cur.address(), cur.record())) return Status::OK();
  }
  if (cur.StoppedShortOfExtent()) {
    // The accounting says records continue past the stop point. Surfacing
    // this (instead of treating it as a clean end) keeps a damaged header
    // from silently truncating recovery: the caller fails, the bytes stay
    // on the device, and a later repair can still reach them.
    return Status::Corruption(
        "segment " + std::to_string(segment_id) + ": decodable records end at "
        "offset " + std::to_string(cur.offset()) + " but the segment extent "
        "is " + std::to_string(cur.limit()) + " bytes");
  }
  return Status::OK();
}

Status AofManager::Scan(const ScanFn& fn, uint32_t min_segment) const {
  // Shared lock: scanning only reads; concurrent record reads stay possible.
  // Callbacks must not re-enter the manager (the engine's recovery pass
  // buffers its MarkDead updates and applies them after Scan returns).
  ReaderLock lock(&mu_);
  for (const auto& [id, seg] : segments_) {
    if (id < min_segment) continue;
    Status s = ScanSegmentLocked(id, fn);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status AofManager::CollectSegment(uint32_t segment_id,
                                  const Classifier& classify,
                                  const RelocateFn& relocate,
                                  const DropFn& drop) {
  WriterLock lock(&mu_);
  auto it = segments_.find(segment_id);
  if (it == segments_.end()) return Status::NotFound("unknown segment");
  if (!it->second.sealed) {
    return Status::InvalidArgument("cannot collect the active segment");
  }
  // Crash point: collection chosen but nothing moved yet.
  DIRECTLOAD_FAILPOINT(fp_aof_gc_before_rewrite);

  SegmentCursor cur;
  for (Status s = cur.Init(this, segment_id);; s = cur.Next(this)) {
    if (!s.ok()) return s;
    if (!cur.Valid()) break;
    const RecordAddress addr = cur.address();
    const RecordView& rec = cur.record();
    uint8_t copy_flags = 0;
    if (classify(addr, rec, &copy_flags)) {
      // Crash point: mid-rewrite — some records already hold relocated
      // copies and the victim still exists; recovery lets each copy
      // supersede its original.
      DIRECTLOAD_FAILPOINT(fp_aof_gc_rewrite_record);
      std::string position;
      Slice value = rec.value;
      if (rec.is_marker() && !rec.is_relocated()) {
        position.assign(value.data(), value.size());
        PutFixed64(&position, addr.Pack());
        value = position;
      }
      Result<RecordAddress> new_addr = AppendRecordLocked(
          rec.key, rec.header.version,
          static_cast<uint8_t>(rec.header.flags | kFlagRelocated | copy_flags),
          value);
      if (!new_addr.ok()) return new_addr.status();
      if (rec.is_tombstone()) {
        // Tombstones never hold live data; keep the relocated copy's
        // occupancy accounting dead like the original's.
        segments_[new_addr->segment_id].live_bytes -=
            RecordExtent(rec.key.size(), rec.value.size());
      }
      ++gc().records_rewritten;
      gc().bytes_rewritten += RecordExtent(rec.key.size(), value.size());
      relocate(addr, *new_addr, rec);
    } else {
      ++gc().records_dropped;
      gc().bytes_dropped +=
          RecordExtent(rec.key.size(), rec.value.size());
      drop(addr, rec);
    }
  }
  if (cur.StoppedShortOfExtent()) {
    // The rewrite did not reach the end of the victim's records: whatever
    // sits beyond the undecodable gap may be live, and erasing the segment
    // now would destroy it. Abandon the collection — the survivors already
    // re-appended supersede their originals at recovery — and let the
    // caller fail the GC pass.
    return Status::Corruption(
        "GC of segment " + std::to_string(segment_id) + " stopped at offset " +
        std::to_string(cur.offset()) + " of " + std::to_string(cur.limit()) +
        " extent bytes; refusing to erase a partially-read victim");
  }

  // Crash point: every survivor rewritten, victim not yet erased.
  DIRECTLOAD_FAILPOINT(fp_aof_gc_after_rewrite);

  // Erasing the victim destroys information whose justification may still
  // be volatile: the re-appended copies themselves (native-mode Sync cannot
  // persist a sub-page tail), but also the newer records that made this
  // segment's dropped records dead — a superseding re-PUT or a tombstone
  // sitting in the active tail. Seal the active segment first so that a
  // crash after the erase recovers a state at least as new as the erase.
  if (active_writer_ != nullptr &&
      active_writer_->PersistedSize() < active_writer_->Size()) {
    Status s = SealActiveLocked();
    if (!s.ok()) return s;
  }

  // Crash point: the durability barrier (seal) is in place; the erase is
  // the next irreversible step.
  DIRECTLOAD_FAILPOINT(fp_aof_gc_before_erase);

  // Destroy the cached reader before the file disappears. Re-find the
  // segment: the re-appends above may have rebalanced the map (iterators
  // stay valid for std::map, but be explicit anyway).
  it = segments_.find(segment_id);
  if (it != segments_.end()) {
    {
      MutexLock rlock(&readers_mu_);
      it->second.reader.reset();
    }
    segments_.erase(it);
  }
  Status s = env_->DeleteFile(SegmentName(segment_id));
  if (!s.ok()) return s;
  ++gc().segments_reclaimed;
  // Crash point: victim gone; only in-memory accounting follows.
  DIRECTLOAD_FAILPOINT(fp_aof_gc_after_erase);
  return Status::OK();
}

std::map<uint32_t, SegmentMeta> AofManager::SegmentMetas() const {
  ReaderLock lock(&mu_);
  std::map<uint32_t, SegmentMeta> out;
  for (const auto& [id, seg] : segments_) {
    out[id] = SegmentMeta{seg.total_bytes, seg.live_bytes};
  }
  return out;
}

uint64_t AofManager::LiveBytes() const {
  ReaderLock lock(&mu_);
  uint64_t total = 0;
  for (const auto& [id, seg] : segments_) total += seg.live_bytes;
  return total;
}

}  // namespace directload::aof
