#ifndef DIRECTLOAD_AOF_RECORD_H_
#define DIRECTLOAD_AOF_RECORD_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace directload::aof {

/// Address of a record inside the AOF space: which segment file and the byte
/// offset of the record header within it. Packs into the uint64 the memtable
/// stores as `MemEntry::address`.
struct RecordAddress {
  uint32_t segment_id = 0;
  uint32_t offset = 0;

  uint64_t Pack() const {
    return (static_cast<uint64_t>(segment_id) << 32) | offset;
  }
  static RecordAddress Unpack(uint64_t packed) {
    return RecordAddress{static_cast<uint32_t>(packed >> 32),
                         static_cast<uint32_t>(packed & 0xFFFFFFFFu)};
  }

  friend bool operator==(const RecordAddress& a, const RecordAddress& b) {
    return a.segment_id == b.segment_id && a.offset == b.offset;
  }
};

/// Record flags (the paper's Figure 2 datum: "a key carrying a value or
/// NULL", plus the durable forms of the `d` flag: tombstones, drop markers
/// and the deleted state of GC-relocated copies).
enum RecordFlags : uint8_t {
  kFlagNone = 0,
  /// Value field removed by Bifrost's dedup; GETs traceback to resolve it.
  kFlagDedup = 1u << 0,
  /// Delete record (empty value): (key, version) is deleted as of this point
  /// of the log. Every DEL appends one.
  kFlagTombstone = 1u << 1,
  /// Copy re-appended by segment collection. Relocation preserves a record's
  /// bytes but not its position in the log; the copy's deleted state rides
  /// in kFlagDeleted, and a marker's position at the end of its value
  /// (MarkerPosition).
  kFlagRelocated = 1u << 2,
  /// Staged by a bulk-ingest session (QinDb::IngestRun) and not yet
  /// committed. A put's header carries the session's version; a tombstone's
  /// header names the pair it deletes, and its 8-byte value the session's
  /// version (SessionVersion). Recovery indexes such a record only when the
  /// commit marker of its own session vouches for it; otherwise the record
  /// is dead on arrival — an aborted or crashed load leaves no trace, even
  /// when a later session of the same version commits.
  kFlagIngestPending = 1u << 3,
  /// Commit marker for a bulk-ingest session (zero-length key; `version`
  /// names the committed ingest version; the 8-byte value is the session's
  /// start, the packed address of its first pending record, or ~0 for a
  /// session that staged nothing). Written once per shard at IngestCommit,
  /// after every pending record of the session is durable. It vouches for
  /// exactly the pending records of its version from its start
  /// (SessionStart) up to its own MarkerPosition. GC never collects markers.
  kFlagIngestCommit = 1u << 4,
  /// Drop marker for a version (zero-length key; `version` names the dropped
  /// version). Written once per shard by DropVersion: every pair of that
  /// version whose record precedes the marker's position is dropped, and a
  /// later re-PUT is not. Kept by GC like commit markers.
  kFlagDropVersion = 1u << 5,
  /// Set only on a relocated copy: the pair was deleted when GC moved it
  /// (a deleted record survives collection only as a dedup referent).
  /// Recovery takes the copy's deleted state from this bit, because the
  /// copy's new position says nothing about the deletes and drops it
  /// outlived.
  kFlagDeleted = 1u << 6,
};

/// Fixed-size record header. A fixed layout (vs varints) lets the engine
/// compute a record's extent purely from the memtable item (key size +
/// value size), which the GC and traceback paths rely on.
///
///   crc32c(4, masked; covers bytes 4..end) |
///   key_len(2) | flags(1) | reserved(1) | version(8) | value_len(4) |
///   key bytes | value bytes
struct RecordHeader {
  static constexpr size_t kSize = 20;

  uint32_t crc = 0;
  uint16_t key_len = 0;
  uint8_t flags = 0;
  uint64_t version = 0;
  uint32_t value_len = 0;
};

/// Total on-file extent of a record with the given key/value sizes.
inline uint64_t RecordExtent(size_t key_len, size_t value_len) {
  return RecordHeader::kSize + key_len + value_len;
}

/// A decoded record. `key` and `value` alias `backing`.
struct RecordView {
  RecordHeader header;
  Slice key;
  Slice value;
  std::string backing;

  bool is_dedup() const { return (header.flags & kFlagDedup) != 0; }
  bool is_tombstone() const { return (header.flags & kFlagTombstone) != 0; }
  bool is_relocated() const { return (header.flags & kFlagRelocated) != 0; }
  bool is_ingest_pending() const {
    return (header.flags & kFlagIngestPending) != 0;
  }
  bool is_ingest_commit() const {
    return (header.flags & kFlagIngestCommit) != 0;
  }
  bool is_drop_version() const {
    return (header.flags & kFlagDropVersion) != 0;
  }
  /// Commit and drop markers: never indexed, kept by GC.
  bool is_marker() const {
    return (header.flags & (kFlagIngestCommit | kFlagDropVersion)) != 0;
  }

  /// Log position of the marker read at `at`: the packed address it was
  /// first appended at. GC's first copy of a marker appends that address to
  /// its value (AofManager::CollectSegment), so a moved marker still orders
  /// the records around its original place.
  uint64_t MarkerPosition(const RecordAddress& at) const;
  /// Commit marker: the packed address of its session's first record.
  uint64_t SessionStart() const;
  /// Pending record: the version of the bulk-ingest session that wrote it.
  uint64_t SessionVersion() const;
};

/// Serializes a record (header + key + value) into `dst` (appended).
void EncodeRecord(const Slice& key, uint64_t version, uint8_t flags,
                  const Slice& value, std::string* dst);

/// Decodes and checksum-verifies a record from `data` (which must start at a
/// record header and contain the full extent). On success fills `out`
/// (copying bytes into out->backing).
Status DecodeRecord(const Slice& data, RecordView* out);

/// Decodes only the header (no checksum verification possible without the
/// body). Used by sequential scans to learn the record extent.
Status DecodeHeader(const Slice& data, RecordHeader* out);

}  // namespace directload::aof

#endif  // DIRECTLOAD_AOF_RECORD_H_
