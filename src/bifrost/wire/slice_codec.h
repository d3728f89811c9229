#ifndef DIRECTLOAD_BIFROST_WIRE_SLICE_CODEC_H_
#define DIRECTLOAD_BIFROST_WIRE_SLICE_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bifrost/dedup.h"
#include "common/slice.h"
#include "common/status.h"
#include "index/builders.h"
#include "qindb/qindb.h"

namespace directload::bifrost::wire {

/// On-the-wire encoding of a Bifrost slice, carried in the value field of a
/// kBulkSlice RPC frame. The slice has its own checksum — independent of
/// the RPC frame trailer — so every hop (sender, relay, ingest server) can
/// re-verify the payload end to end (the paper's "Failures in
/// Transmission"):
///
///   offset  size  field
///   0       8     slice id (fixed64; dense, 0-based within the session)
///   8       8     index version (fixed64; must match the session version)
///   16      1     index type (webindex::IndexType)
///   17      4     pair count (fixed32)
///   21      N     pair payload
///   21+N    4     masked CRC32C of bytes [0, 21+N) (crc32c::Mask)
///
///   one pair:
///   0       1     flags (kPairFlagDedup | kPairFlagTombstone)
///   1       ...   varint64 pair version
///   ...     ...   varint32 key length, key bytes
///   ...     ...   varint32 value length, value bytes (empty when the pair
///                 is deduplicated or a tombstone)
///
/// Decoders never trust a declared count or length enough to allocate for
/// bytes that are not actually present — the same discipline as
/// rpc::DecodeBatchOps.

inline constexpr size_t kSliceHeaderBytes = 21;
inline constexpr size_t kSliceTrailerBytes = 4;

/// Smallest possible encoded pair: flags + 1-byte version varint + empty-key
/// length prefix + empty-value length prefix. Used to bound a declared pair
/// count against the payload actually on hand.
inline constexpr size_t kMinPairWireBytes = 4;

/// Pair flag bits (wire values; independent of aof::RecordFlags).
inline constexpr uint8_t kPairFlagDedup = 1u << 0;
inline constexpr uint8_t kPairFlagTombstone = 1u << 1;

/// Parsed slice header fields.
struct SliceHeader {
  uint64_t slice_id = 0;
  uint64_t version = 0;
  webindex::IndexType type = webindex::IndexType::kInverted;
  uint32_t pair_count = 0;
};

/// Appends one encoded pair to `payload`. Deduplicated pairs and tombstones
/// ship value-less regardless of `value`.
void AppendWirePair(std::string* payload, const Slice& key, uint64_t version,
                    const Slice& value, bool dedup, bool tombstone);

/// Bytes AppendWirePair appends for a pair with these fields — lets a
/// sender cut slices and declare their sizes before encoding any of them.
size_t WirePairBytes(size_t key_size, uint64_t version, size_t value_size,
                     bool dedup, bool tombstone);

/// Wraps a pair payload into a complete slice frame (header + payload +
/// checksum trailer), appended to `dst`.
void EncodeSlicePacket(const SliceHeader& header, const Slice& payload,
                       std::string* dst);

/// EncodeSlicePacket in place, without a separate payload buffer: append
/// the header, then the pairs with AppendWirePair, then the trailer, which
/// checksums every byte of `dst` from `start` (where the header began).
void AppendSliceHeader(const SliceHeader& header, std::string* dst);
void AppendSliceTrailer(size_t start, std::string* dst);

/// Verifies framing and the checksum trailer and fills `header`, WITHOUT
/// decoding pairs — the cheap per-hop integrity check. kCorruption means
/// damaged in flight (re-send the slice); kProtocol means the frame could
/// never have been well-formed.
Status CheckSliceFrame(const Slice& frame, SliceHeader* header);

/// Full decode: CheckSliceFrame plus pair extraction, straight into the
/// ops MintCluster::BulkIngest lands. The ops' key and value slices alias
/// `frame`'s bytes — the caller keeps that buffer alive while using them.
/// The payload must parse to exactly `pair_count` pairs with no trailing
/// bytes.
Status DecodeSlicePacket(const Slice& frame, SliceHeader* header,
                         std::vector<qindb::IngestOp>* pairs);

// -- Cutting a version into slices ------------------------------------------

/// An explicit delete shipped with a bulk load (the paper's `d`-flagged
/// pairs): at commit the named key's newest live version is marked deleted.
struct BulkDelete {
  std::string key;
  uint64_t version = 0;  // The version being deleted (informational).
};

/// One pair stream of a version: `pairs` (Deduplicator output — `dedup`
/// pairs travel value-less), then `deletes` as tombstones. Points into the
/// caller's vectors.
struct SliceStream {
  webindex::IndexType type = webindex::IndexType::kInverted;
  const std::vector<ShippedPair>* pairs = nullptr;
  const std::vector<BulkDelete>* deletes = nullptr;

  size_t size() const { return pairs->size() + deletes->size(); }
};

/// One slice of a stream, cut before anything is encoded.
struct SliceCut {
  webindex::IndexType type = webindex::IndexType::kInverted;  // Stream.
  size_t first = 0;  // Stream index of the slice's first pair.
  uint32_t pair_count = 0;
  size_t frame_bytes = 0;  // Exact encoded size (header..trailer).
};

/// The sizing pass: cuts `stream` (shipped as `version`) into slices
/// appended to `cuts` — a slice is sealed as soon as its pair payload
/// reaches `slice_bytes` — with exact encoded sizes computed from the
/// pairs' lengths, without encoding anything. Returns the stream's encoded
/// bytes.
uint64_t CutSlices(const SliceStream& stream, uint64_t version,
                   uint64_t slice_bytes, std::vector<SliceCut>* cuts);

/// Appends slice `cut` of `stream`, encoded as frame `slice_id` of
/// `version` (header, pairs, checksum), to `dst`.
void EncodeSlice(const SliceStream& stream, const SliceCut& cut,
                 uint64_t version, uint64_t slice_id, std::string* dst);

// -- kBulkBegin payload -----------------------------------------------------

/// What the sender declares when opening a session. Byte totals feed the
/// server's bandwidth accounting; `total_slices` is advisory at begin time
/// (the commit frame carries the authoritative count).
struct BulkBeginInfo {
  uint64_t version = 0;
  uint64_t total_slices = 0;
  uint64_t summary_bytes = 0;
  uint64_t inverted_bytes = 0;
};

void EncodeBulkBegin(const BulkBeginInfo& info, std::string* dst);
Status DecodeBulkBegin(const Slice& data, BulkBeginInfo* out);

// -- kBulkCommit payload ----------------------------------------------------

/// The commit request's value field: the total number of slices the session
/// must have landed (ids 0 .. expected_slices-1).
void EncodeBulkCommit(uint64_t expected_slices, std::string* dst);
Status DecodeBulkCommit(const Slice& data, uint64_t* expected_slices);

// -- Missing-slice list (kBulkCommit kUnavailable response) -----------------

/// varint64 count, then one fixed64 slice id each.
void EncodeMissingSlices(const std::vector<uint64_t>& slice_ids,
                         std::string* dst);
Status DecodeMissingSlices(const Slice& data,
                           std::vector<uint64_t>* slice_ids);

}  // namespace directload::bifrost::wire

#endif  // DIRECTLOAD_BIFROST_WIRE_SLICE_CODEC_H_
