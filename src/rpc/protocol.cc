#include "rpc/protocol.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace directload::rpc {

namespace {

bool ValidOpcode(uint8_t op) {
  return op >= static_cast<uint8_t>(Opcode::kGet) &&
         op <= static_cast<uint8_t>(Opcode::kRepairScan);
}

constexpr uint8_t kHeartbeatServing = 1u << 0;
constexpr uint8_t kHeartbeatDegraded = 1u << 1;
constexpr uint8_t kRepairReqKeysOnly = 1u << 0;
constexpr uint8_t kRepairReqResume = 1u << 1;
constexpr uint8_t kRepairPageDone = 1u << 0;

bool ValidStatusCode(uint8_t code) {
  return code <= static_cast<uint8_t>(StatusCode::kProtocol);
}

}  // namespace

Status StatusFromWire(StatusCode code, std::string_view message) {
  switch (code) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kNotFound:
      return Status::NotFound(message);
    case StatusCode::kCorruption:
      return Status::Corruption(message);
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(message);
    case StatusCode::kIOError:
      return Status::IOError(message);
    case StatusCode::kNoSpace:
      return Status::NoSpace(message);
    case StatusCode::kBusy:
      return Status::Busy(message);
    case StatusCode::kUnavailable:
      return Status::Unavailable(message);
    case StatusCode::kTimedOut:
      return Status::TimedOut(message);
    case StatusCode::kAborted:
      return Status::Aborted(message);
    case StatusCode::kDeduplicated:
      return Status::Deduplicated(message);
    case StatusCode::kInternal:
      return Status::Internal(message);
    case StatusCode::kProtocol:
      return Status::Protocol(message);
  }
  return Status::Protocol("unknown wire status code");
}

void EncodeBatchOps(const std::vector<BatchOp>& ops, std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(ops.size()));
  for (const BatchOp& op : ops) {
    out->push_back(op.is_del ? '\1' : '\0');
    out->push_back(static_cast<char>(op.dedup ? kFlagDedup : 0));
    PutFixed64(out, op.version);
    PutLengthPrefixedSlice(out, op.key);
    PutLengthPrefixedSlice(out, op.is_del ? Slice() : Slice(op.value));
  }
}

Status DecodeBatchOps(const Slice& payload, std::vector<BatchOp>* ops) {
  ops->clear();
  Slice rest = payload;
  uint32_t count = 0;
  if (!GetVarint32(&rest, &count)) {
    return Status::Protocol("truncated batch op count");
  }
  // Each op occupies >= 12 payload bytes (kind + flags + version + two
  // length prefixes), so a larger count cannot be satisfied; reject it
  // before reserve() turns an attacker-chosen count into a huge allocation.
  if (count > rest.size() / 12) {
    return Status::Protocol("batch op count exceeds payload");
  }
  ops->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (rest.size() < 10) return Status::Protocol("truncated batch op");
    const uint8_t kind = static_cast<uint8_t>(rest[0]);
    const uint8_t flags = static_cast<uint8_t>(rest[1]);
    if (kind > 1) return Status::Protocol("unknown batch op kind");
    if ((flags & ~kFlagDedup) != 0) {
      return Status::Protocol("unknown batch op flag bits");
    }
    const uint64_t version = DecodeFixed64(rest.data() + 2);
    rest.remove_prefix(10);
    Slice key, value;
    if (!GetLengthPrefixedSlice(&rest, &key) ||
        !GetLengthPrefixedSlice(&rest, &value)) {
      return Status::Protocol("truncated batch op key/value");
    }
    BatchOp op;
    op.is_del = kind == 1;
    op.dedup = (flags & kFlagDedup) != 0;
    op.version = version;
    op.key.assign(key.data(), key.size());
    op.value.assign(value.data(), value.size());
    ops->push_back(std::move(op));
  }
  if (!rest.empty()) {
    return Status::Protocol("trailing bytes in batch payload");
  }
  return Status::OK();
}

void EncodeBatchStatuses(const std::vector<Status>& statuses,
                         std::string* out) {
  PutVarint32(out, static_cast<uint32_t>(statuses.size()));
  for (const Status& s : statuses) {
    out->push_back(static_cast<char>(s.code()));
    PutLengthPrefixedSlice(out, s.ok() ? Slice() : Slice(s.message()));
  }
}

Status DecodeBatchStatuses(const Slice& payload,
                           std::vector<Status>* statuses) {
  statuses->clear();
  Slice rest = payload;
  uint32_t count = 0;
  if (!GetVarint32(&rest, &count)) {
    return Status::Protocol("truncated batch status count");
  }
  // Each status occupies >= 2 payload bytes (code + message length prefix);
  // bound the count before reserving (see DecodeBatchOps).
  if (count > rest.size() / 2) {
    return Status::Protocol("batch status count exceeds payload");
  }
  statuses->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (rest.empty()) return Status::Protocol("truncated batch status");
    const uint8_t code = static_cast<uint8_t>(rest[0]);
    if (!ValidStatusCode(code)) {
      return Status::Protocol("unknown batch status code");
    }
    rest.remove_prefix(1);
    Slice message;
    if (!GetLengthPrefixedSlice(&rest, &message)) {
      return Status::Protocol("truncated batch status message");
    }
    statuses->push_back(
        StatusFromWire(static_cast<StatusCode>(code),
                       std::string_view(message.data(), message.size())));
  }
  if (!rest.empty()) {
    return Status::Protocol("trailing bytes in batch status payload");
  }
  return Status::OK();
}

void EncodeHeartbeatInfo(const HeartbeatInfo& info, std::string* out) {
  uint8_t flags = 0;
  if (info.serving) flags |= kHeartbeatServing;
  if (info.degraded) flags |= kHeartbeatDegraded;
  out->push_back(static_cast<char>(flags));
  PutFixed64(out, info.live_entries);
}

Status DecodeHeartbeatInfo(const Slice& payload, HeartbeatInfo* out) {
  if (payload.size() != 9) {
    return Status::Protocol("heartbeat payload is not 9 bytes");
  }
  const uint8_t flags = static_cast<uint8_t>(payload[0]);
  if ((flags & ~(kHeartbeatServing | kHeartbeatDegraded)) != 0) {
    return Status::Protocol("unknown heartbeat flag bits");
  }
  out->serving = (flags & kHeartbeatServing) != 0;
  out->degraded = (flags & kHeartbeatDegraded) != 0;
  out->live_entries = DecodeFixed64(payload.data() + 1);
  return Status::OK();
}

void EncodeRepairScanRequest(const RepairScanRequest& req, std::string* out) {
  uint8_t flags = 0;
  if (req.keys_only) flags |= kRepairReqKeysOnly;
  if (req.cursor.resume) flags |= kRepairReqResume;
  out->push_back(static_cast<char>(flags));
  PutVarint32(out, req.cursor.shard);
  PutFixed64(out, req.cursor.version);
  PutLengthPrefixedSlice(out, req.cursor.key);
  PutVarint32(out, req.max_pairs);
}

Status DecodeRepairScanRequest(const Slice& payload, RepairScanRequest* out) {
  Slice rest = payload;
  if (rest.empty()) return Status::Protocol("empty repair scan request");
  const uint8_t flags = static_cast<uint8_t>(rest[0]);
  if ((flags & ~(kRepairReqKeysOnly | kRepairReqResume)) != 0) {
    return Status::Protocol("unknown repair scan flag bits");
  }
  rest.remove_prefix(1);
  out->keys_only = (flags & kRepairReqKeysOnly) != 0;
  out->cursor.resume = (flags & kRepairReqResume) != 0;
  if (!GetVarint32(&rest, &out->cursor.shard)) {
    return Status::Protocol("truncated repair scan cursor shard");
  }
  if (rest.size() < 8) {
    return Status::Protocol("truncated repair scan cursor version");
  }
  out->cursor.version = DecodeFixed64(rest.data());
  rest.remove_prefix(8);
  Slice key;
  if (!GetLengthPrefixedSlice(&rest, &key)) {
    return Status::Protocol("truncated repair scan cursor key");
  }
  out->cursor.key.assign(key.data(), key.size());
  if (!GetVarint32(&rest, &out->max_pairs)) {
    return Status::Protocol("truncated repair scan max pairs");
  }
  if (!rest.empty()) {
    return Status::Protocol("trailing bytes in repair scan request");
  }
  return Status::OK();
}

void EncodeRepairPage(const RepairPage& page, std::string* out) {
  out->push_back(static_cast<char>(page.done ? kRepairPageDone : 0));
  PutVarint32(out, static_cast<uint32_t>(page.pairs.size()));
  for (const RepairPair& pair : page.pairs) {
    PutFixed64(out, pair.version);
    PutLengthPrefixedSlice(out, pair.key);
    PutLengthPrefixedSlice(out, pair.value);
  }
  if (!page.done) {
    PutVarint32(out, page.next.shard);
    PutFixed64(out, page.next.version);
    PutLengthPrefixedSlice(out, page.next.key);
  }
}

Status DecodeRepairPage(const Slice& payload, RepairPage* out) {
  out->pairs.clear();
  Slice rest = payload;
  if (rest.empty()) return Status::Protocol("empty repair page");
  const uint8_t flags = static_cast<uint8_t>(rest[0]);
  if ((flags & ~kRepairPageDone) != 0) {
    return Status::Protocol("unknown repair page flag bits");
  }
  rest.remove_prefix(1);
  out->done = (flags & kRepairPageDone) != 0;
  uint32_t count = 0;
  if (!GetVarint32(&rest, &count)) {
    return Status::Protocol("truncated repair page pair count");
  }
  // Each pair occupies >= 10 payload bytes (version + two length prefixes),
  // so a larger count cannot be satisfied; reject it before reserve() turns
  // an attacker-chosen count into a huge allocation.
  if (count > rest.size() / 10) {
    return Status::Protocol("repair page pair count exceeds payload");
  }
  out->pairs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (rest.size() < 8) return Status::Protocol("truncated repair pair");
    RepairPair pair;
    pair.version = DecodeFixed64(rest.data());
    rest.remove_prefix(8);
    Slice key, value;
    if (!GetLengthPrefixedSlice(&rest, &key) ||
        !GetLengthPrefixedSlice(&rest, &value)) {
      return Status::Protocol("truncated repair pair key/value");
    }
    pair.key.assign(key.data(), key.size());
    pair.value.assign(value.data(), value.size());
    out->pairs.push_back(std::move(pair));
  }
  out->next = RepairCursor{};
  if (!out->done) {
    if (!GetVarint32(&rest, &out->next.shard)) {
      return Status::Protocol("truncated repair page next shard");
    }
    if (rest.size() < 8) {
      return Status::Protocol("truncated repair page next version");
    }
    out->next.version = DecodeFixed64(rest.data());
    rest.remove_prefix(8);
    Slice key;
    if (!GetLengthPrefixedSlice(&rest, &key)) {
      return Status::Protocol("truncated repair page next key");
    }
    out->next.key.assign(key.data(), key.size());
    out->next.resume = true;
  }
  if (!rest.empty()) {
    return Status::Protocol("trailing bytes in repair page");
  }
  return Status::OK();
}

void EncodeFrame(const Frame& frame, std::string* out) {
  // Header, body and trailer go straight into `out`; the body length is
  // patched in once the body is written.
  const size_t start = out->size();
  out->reserve(start + kHeaderBytes + kBodyFixedBytes +
               VarintLength(frame.key.size()) + frame.key.size() +
               VarintLength(frame.value.size()) + frame.value.size() +
               kTrailerBytes);
  PutFixed32(out, kFrameMagic);
  PutFixed32(out, 0);  // Body length, patched below.
  const size_t body_start = out->size();
  out->push_back(static_cast<char>(frame.op));
  uint8_t flags = 0;
  if (frame.response) flags |= kFlagResponse;
  if (frame.dedup) flags |= kFlagDedup;
  if (frame.latest) flags |= kFlagLatest;
  out->push_back(static_cast<char>(flags));
  out->push_back(static_cast<char>(frame.status));
  out->push_back('\0');  // Reserved.
  PutFixed64(out, frame.request_id);
  PutFixed64(out, frame.version);
  PutLengthPrefixedSlice(out, frame.key);
  PutLengthPrefixedSlice(out, frame.value);
  const size_t body_len = out->size() - body_start;
  EncodeFixed32(out->data() + start + 4, static_cast<uint32_t>(body_len));
  PutFixed32(out, crc32c::Mask(
                      crc32c::Value(out->data() + body_start, body_len)));
}

Frame MakeResponse(const Frame& request, const Status& status,
                   std::string value) {
  Frame response;
  response.op = request.op;
  response.response = true;
  response.status = status.code();
  response.request_id = request.request_id;
  response.version = request.version;
  if (status.ok()) {
    response.value = std::move(value);
  } else {
    response.value = status.message();
  }
  return response;
}

Status FrameDecoder::DecodeBody(const char* body, size_t n, Frame* out) const {
  if (n < kBodyFixedBytes) {
    return Status::Protocol("frame body shorter than fixed fields");
  }
  const uint8_t op = static_cast<uint8_t>(body[0]);
  const uint8_t flags = static_cast<uint8_t>(body[1]);
  const uint8_t status = static_cast<uint8_t>(body[2]);
  const uint8_t reserved = static_cast<uint8_t>(body[3]);
  if (!ValidOpcode(op)) return Status::Protocol("unknown opcode");
  if ((flags & ~(kFlagResponse | kFlagDedup | kFlagLatest)) != 0) {
    return Status::Protocol("unknown flag bits");
  }
  if (!ValidStatusCode(status)) return Status::Protocol("unknown status code");
  if (reserved != 0) return Status::Protocol("reserved byte not zero");

  out->op = static_cast<Opcode>(op);
  out->response = (flags & kFlagResponse) != 0;
  out->dedup = (flags & kFlagDedup) != 0;
  out->latest = (flags & kFlagLatest) != 0;
  out->status = static_cast<StatusCode>(status);
  out->request_id = DecodeFixed64(body + 4);
  out->version = DecodeFixed64(body + 12);

  Slice rest(body + kBodyFixedBytes, n - kBodyFixedBytes);
  Slice key, value;
  if (!GetLengthPrefixedSlice(&rest, &key) ||
      !GetLengthPrefixedSlice(&rest, &value)) {
    return Status::Protocol("truncated key/value field");
  }
  if (!rest.empty()) return Status::Protocol("trailing bytes in frame body");
  out->key.assign(key.data(), key.size());
  out->value.assign(value.data(), value.size());
  return Status::OK();
}

bool FrameDecoder::frame_ready() const {
  if (!error_.ok()) return true;
  const char* base = buffer_.data() + consumed_;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return false;
  if (DecodeFixed32(base) != kFrameMagic) return true;
  const uint32_t body_len = DecodeFixed32(base + 4);
  return body_len > max_body_bytes_ ||
         avail >= kHeaderBytes + body_len + kTrailerBytes;
}

Result<bool> FrameDecoder::Next(Frame* out) {
  if (!error_.ok()) return error_;
  // Drop consumed bytes lazily, once they dominate the buffer, so a burst of
  // pipelined frames does not memmove the tail after every frame.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  const char* base = buffer_.data() + consumed_;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kHeaderBytes) return false;

  const uint32_t magic = DecodeFixed32(base);
  if (magic != kFrameMagic) {
    error_ = Status::Protocol("bad frame magic");
    return error_;
  }
  const uint32_t body_len = DecodeFixed32(base + 4);
  if (body_len > max_body_bytes_) {
    error_ = Status::Protocol("frame body exceeds maximum size");
    return error_;
  }
  const size_t total = kHeaderBytes + body_len + kTrailerBytes;
  if (avail < total) return false;

  const char* body = base + kHeaderBytes;
  const uint32_t expected =
      crc32c::Unmask(DecodeFixed32(body + body_len));
  const uint32_t actual = crc32c::Value(body, body_len);
  if (expected != actual) {
    error_ = Status::Corruption("frame checksum mismatch");
    return error_;
  }
  Status s = DecodeBody(body, body_len, out);
  if (!s.ok()) {
    error_ = s;
    return error_;
  }
  consumed_ += total;
  return true;
}

}  // namespace directload::rpc
