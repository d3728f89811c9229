#ifndef DIRECTLOAD_RPC_PROTOCOL_H_
#define DIRECTLOAD_RPC_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"

namespace directload::rpc {

/// The DirectLoad serving wire protocol: length-prefixed binary frames with
/// a CRC32C trailer, carried over a plain byte stream (TCP). One frame is
/// one request or one response; requests carry a caller-chosen id that the
/// matching response echoes, so responses to pipelined requests may complete
/// out of order.
///
///   offset  size  field
///   0       4     magic "DLP1" (kFrameMagic, little-endian fixed32)
///   4       4     body length N (fixed32; excludes magic/length/trailer)
///   8       N     body
///   8+N     4     masked CRC32C of the body (crc32c::Mask, as the AOF does)
///
///   body:
///   0       1     opcode (Opcode)
///   1       1     flags (kFlagResponse | kFlagDedup | kFlagLatest)
///   2       1     status code (StatusCode; meaningful in responses, 0 in
///                 requests)
///   3       1     reserved, must be 0
///   4       8     request id (fixed64)
///   12      8     version (fixed64)
///   20      ...   varint32 key length, key bytes
///   ...     ...   varint32 value length, value bytes (GET/STATS responses
///                 carry the value or stats text here; error responses carry
///                 the error message)
///
/// The body must parse to exactly its declared length. Decode errors are
/// split by cause: kProtocol for frames the peer should never have sent
/// (bad magic, oversized or short body, trailing garbage, unknown opcode or
/// status) and kCorruption for frames damaged in flight (CRC mismatch).
/// Either way the stream is unrecoverable — framing is lost — and the
/// connection must be torn down.

enum class Opcode : uint8_t {
  kGet = 1,    // key + version (or kFlagLatest) -> value.
  kPut = 2,    // key + version + value (kFlagDedup for value-less pairs).
  kDel = 3,    // key + version.
  kStats = 4,  // server + cluster counters as text.
  kPing = 5,   // liveness probe; echoes the value payload.
  /// Multiple write ops (PUT/DEL) in one round trip. The frame's value
  /// field carries the ops (EncodeBatchOps); key/version are unused. The
  /// response's value field carries one status per op, in op order
  /// (EncodeBatchStatuses), and the frame-level status is the first
  /// non-OK per-op status (kOk when every op succeeded).
  kWriteBatch = 6,
  /// Bulk-load session open (Bifrost-over-the-wire). The frame's version
  /// field names the index version being streamed; the value field carries
  /// the begin payload (bifrost::wire::EncodeBulkBegin: expected slice
  /// count + per-type byte totals). A successful response *negotiates* the
  /// connection's frame limit up to kMaxBulkBodyBytes — the client must not
  /// send a kBulkSlice larger than kMaxBodyBytes before the begin ack.
  kBulkBegin = 7,
  /// One slice of a bulk session. The value field carries one wire slice
  /// frame (bifrost/wire/slice_codec.h) whose checksum is re-verified on
  /// this hop; version echoes the session version. A checksum failure
  /// answers kCorruption for that slice only — the session (and the
  /// connection) survives, and the client re-sends.
  kBulkSlice = 8,
  /// Commits the session's version: every landed record becomes readable
  /// atomically, per shard. The value field carries the expected total
  /// slice count; if slices are missing the response lists their ids
  /// (bifrost::wire::EncodeMissingSlices) with status kUnavailable so the
  /// client can repair by re-sending, then commit again.
  kBulkCommit = 9,
  /// Abandons the session: staged records are rolled back (occupancy
  /// accounting reversed) and the version is never visible.
  kBulkAbort = 10,
  /// Failure-detector probe (distributed Mint). No request payload; the
  /// response's value field carries an encoded HeartbeatInfo — whether the
  /// node is serving, whether it is degraded, and its live entry count, so
  /// the coordinator's detector doubles as a cheap progress gauge during
  /// repair. Unlike kPing this consults the node's engine state, not just
  /// the TCP stack.
  kHeartbeat = 11,
  /// One page of a repair scan (distributed Mint re-replication). The
  /// request's value field carries an encoded RepairScanRequest (resume
  /// cursor + page limits); the response's value field carries a RepairPage
  /// — resolved pairs plus the cursor to resume from. The coordinator
  /// drives the whole scan over RPC: nodes know nothing about placement,
  /// so the coordinator filters the page by rendezvous ownership and
  /// re-ingests the target's share via ordinary kPut/kWriteBatch frames.
  kRepairScan = 12,
};

inline constexpr uint32_t kFrameMagic = 0x31504C44u;  // "DLP1" on the wire.
inline constexpr uint8_t kFlagResponse = 1u << 0;
inline constexpr uint8_t kFlagDedup = 1u << 1;   // PUT of a value-less pair.
inline constexpr uint8_t kFlagLatest = 1u << 2;  // GET newest live version.

/// Frames above this body size are rejected as kProtocol before any
/// allocation happens — the decoder never trusts the length field enough to
/// reserve memory for a frame it would not accept.
inline constexpr size_t kMaxBodyBytes = 4u << 20;

/// The negotiated ceiling for bulk-load connections. A connection starts at
/// kMaxBodyBytes; only after the server acks a kBulkBegin does either side
/// raise its decoder to this bound (FrameDecoder::set_max_body_bytes), so a
/// peer that never opens a bulk session keeps the tight remote-OOM bound.
inline constexpr size_t kMaxBulkBodyBytes = 8u << 20;

/// Bytes of fixed header (magic + length) and trailer (masked CRC).
inline constexpr size_t kHeaderBytes = 8;
inline constexpr size_t kTrailerBytes = 4;
inline constexpr size_t kBodyFixedBytes = 20;  // Through the version field.

/// One decoded request or response.
struct Frame {
  Opcode op = Opcode::kPing;
  bool response = false;
  bool dedup = false;
  bool latest = false;
  StatusCode status = StatusCode::kOk;  // Responses only.
  uint64_t request_id = 0;
  uint64_t version = 0;
  std::string key;
  std::string value;
};

/// Appends the encoded frame to `*out` (which may already hold bytes — the
/// writer batches pipelined frames into one buffer).
void EncodeFrame(const Frame& frame, std::string* out);

// -- kWriteBatch payloads ---------------------------------------------------
//
// A batch frame packs its ops into the frame's value field:
//
//   varint32 op count, then per op:
//     1 byte   kind (0 = put, 1 = del)
//     1 byte   flags (kFlagDedup only; must otherwise be 0)
//     8 bytes  version (fixed64)
//     varint32 key length, key bytes
//     varint32 value length, value bytes (empty for del)
//
// The response's value field answers with per-op statuses:
//
//   varint32 status count, then per status:
//     1 byte   status code (StatusCode)
//     varint32 message length, message bytes (empty on success)
//
// Both decoders demand the payload parse to exactly its declared length and
// return kProtocol otherwise, mirroring the frame decoder's strictness.

/// One op of a kWriteBatch frame.
struct BatchOp {
  bool is_del = false;
  bool dedup = false;  // Put only.
  uint64_t version = 0;
  std::string key;
  std::string value;  // Put only.
};

/// Serializes `ops` into a kWriteBatch payload, appended to `*out`.
void EncodeBatchOps(const std::vector<BatchOp>& ops, std::string* out);

/// Parses a kWriteBatch payload. kProtocol on malformed input.
Status DecodeBatchOps(const Slice& payload, std::vector<BatchOp>* ops);

/// Serializes per-op statuses into a kWriteBatch response payload.
void EncodeBatchStatuses(const std::vector<Status>& statuses,
                         std::string* out);

/// Parses a kWriteBatch response payload into per-op statuses.
Status DecodeBatchStatuses(const Slice& payload,
                           std::vector<Status>* statuses);

// -- kHeartbeat payloads ------------------------------------------------------
//
// A heartbeat response packs its info into the frame's value field:
//
//   1 byte   flags (bit 0: serving, bit 1: degraded; others must be 0)
//   8 bytes  live entry count (fixed64)
//
// The payload must be exactly 9 bytes; kProtocol otherwise.

/// What a node reports to the failure detector.
struct HeartbeatInfo {
  bool serving = false;   // The engine is up and answering operations.
  bool degraded = false;  // Read-only / degraded mode.
  uint64_t live_entries = 0;
};

/// Serializes `info` into a kHeartbeat response payload, appended to `*out`.
void EncodeHeartbeatInfo(const HeartbeatInfo& info, std::string* out);

/// Parses a kHeartbeat response payload. kProtocol on malformed input.
Status DecodeHeartbeatInfo(const Slice& payload, HeartbeatInfo* out);

// -- kRepairScan payloads -----------------------------------------------------
//
// The request's value field carries the scan parameters:
//
//   1 byte   flags (bit 0: keys_only, bit 1: resume — cursor names the last
//            pair already returned; others must be 0)
//   varint32 cursor shard
//   8 bytes  cursor version (fixed64)
//   varint32 cursor key length, key bytes
//   varint32 max pairs for this page
//
// The response's value field carries one page:
//
//   1 byte   flags (bit 0: done — no further pages; others must be 0)
//   varint32 pair count, then per pair:
//     8 bytes  version (fixed64)
//     varint32 key length, key bytes
//     varint32 value length, value bytes (empty under keys_only)
//   when not done: varint32 next shard, fixed64 next version,
//                  varint32 next key length, key bytes
//
// Both decoders demand the payload parse to exactly its declared length and
// return kProtocol otherwise, and the page decoder bounds the pair count
// against the remaining payload before reserving (see DecodeBatchOps).

/// Resume position of a repair scan: the last pair the previous page
/// returned, scoped to the engine shard it came from (keys are
/// hash-partitioned across shards, so a key alone does not locate the
/// cursor). `resume` false means "start from the beginning".
struct RepairCursor {
  uint32_t shard = 0;
  uint64_t version = 0;
  std::string key;
  bool resume = false;
};

/// One kRepairScan request.
struct RepairScanRequest {
  RepairCursor cursor;
  uint32_t max_pairs = 512;
  /// Values omitted — used to inventory what a node holds (the coordinator
  /// diffs inventories to verify replication factor) without moving data.
  bool keys_only = false;
};

/// One scanned pair, value resolved by the serving node (traceback included,
/// so the receiver need not share the sender's dedup chain).
struct RepairPair {
  std::string key;
  uint64_t version = 0;
  std::string value;
};

/// One kRepairScan response page.
struct RepairPage {
  std::vector<RepairPair> pairs;
  bool done = false;
  RepairCursor next;  // Meaningful only when !done (next.resume is set).
};

/// Soft cap on the encoded bytes of one repair page: the server stops
/// filling a page past this even under max_pairs, keeping every page
/// comfortably inside kMaxBodyBytes.
inline constexpr size_t kRepairPageBudgetBytes = 1u << 20;

/// Serializes `req` into a kRepairScan request payload, appended to `*out`.
void EncodeRepairScanRequest(const RepairScanRequest& req, std::string* out);

/// Parses a kRepairScan request payload. kProtocol on malformed input.
Status DecodeRepairScanRequest(const Slice& payload, RepairScanRequest* out);

/// Serializes `page` into a kRepairScan response payload, appended to
/// `*out`.
void EncodeRepairPage(const RepairPage& page, std::string* out);

/// Parses a kRepairScan response payload. kProtocol on malformed input.
Status DecodeRepairPage(const Slice& payload, RepairPage* out);

/// Rebuilds a Status from a wire status code plus the response's message
/// payload. Unknown codes (a newer peer) map to kProtocol.
Status StatusFromWire(StatusCode code, std::string_view message);

/// Builds the conventional response to `request`: same opcode and request
/// id, kFlagResponse set, `status` recorded, and `value` as the payload
/// (result value on success, error message otherwise).
Frame MakeResponse(const Frame& request, const Status& status,
                   std::string value = {});

/// Incremental frame decoder. Feed it whatever the socket produced —
/// fragments, multiple frames, a frame split anywhere — and poll Next():
///
///   Frame frame;
///   decoder.Append(buf, n);
///   while (true) {
///     Result<bool> got = decoder.Next(&frame);
///     if (!got.ok()) { /* kProtocol or kCorruption: close the stream */ }
///     if (!*got) break;  // Need more bytes.
///     Handle(frame);
///   }
///
/// Decode errors are sticky: once the stream is unframeable every later
/// Next() reports the same error.
class FrameDecoder {
 public:
  explicit FrameDecoder(size_t max_body_bytes = kMaxBodyBytes)
      : max_body_bytes_(max_body_bytes) {}

  void Append(const char* data, size_t n) { buffer_.append(data, n); }
  void Append(const Slice& data) { buffer_.append(data.data(), data.size()); }

  /// Extracts the next complete frame into `*out`. Returns true on a frame,
  /// false when the buffer holds only a prefix (feed more bytes), or a
  /// kProtocol / kCorruption status when the stream is broken.
  Result<bool> Next(Frame* out);

  /// True when Next would answer without more bytes: a whole frame, or a
  /// broken stream, is buffered.
  bool frame_ready() const;

  /// Bytes buffered but not yet consumed by a decoded frame.
  size_t buffered_bytes() const { return buffer_.size() - consumed_; }

  /// Renegotiates the body-size bound mid-stream (bulk sessions raise it to
  /// kMaxBulkBodyBytes after the server acks kBulkBegin). Applies from the
  /// next frame; bytes already buffered are unaffected.
  void set_max_body_bytes(size_t n) { max_body_bytes_ = n; }
  size_t max_body_bytes() const { return max_body_bytes_; }

 private:
  Status DecodeBody(const char* body, size_t n, Frame* out) const;

  size_t max_body_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;  // Prefix of buffer_ already handed out as frames.
  Status error_;         // Sticky decode error.
};

}  // namespace directload::rpc

#endif  // DIRECTLOAD_RPC_PROTOCOL_H_
