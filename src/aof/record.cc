#include "aof/record.h"

#include "common/coding.h"
#include "common/crc32c.h"

namespace directload::aof {

void EncodeRecord(const Slice& key, uint64_t version, uint8_t flags,
                  const Slice& value, std::string* dst) {
  const size_t start = dst->size();
  dst->resize(start + RecordHeader::kSize);
  char* h = dst->data() + start;
  // crc filled below.
  EncodeFixed32(h + 0, 0);
  h[4] = static_cast<char>(key.size() & 0xFF);
  h[5] = static_cast<char>((key.size() >> 8) & 0xFF);
  h[6] = static_cast<char>(flags);
  h[7] = 0;  // reserved
  EncodeFixed64(h + 8, version);
  EncodeFixed32(h + 16, static_cast<uint32_t>(value.size()));
  dst->append(key.data(), key.size());
  dst->append(value.data(), value.size());
  // Checksum covers everything after the crc field.
  h = dst->data() + start;  // Re-fetch: append may have reallocated.
  const uint32_t crc = crc32c::Value(h + 4, RecordHeader::kSize - 4 +
                                                key.size() + value.size());
  EncodeFixed32(h, crc32c::Mask(crc));
}

uint64_t RecordView::MarkerPosition(const RecordAddress& at) const {
  return is_relocated() && value.size() >= 8
             ? DecodeFixed64(value.data() + value.size() - 8)
             : at.Pack();
}

uint64_t RecordView::SessionStart() const {
  return value.size() >= 8 ? DecodeFixed64(value.data()) : 0;
}

uint64_t RecordView::SessionVersion() const {
  return is_tombstone() && value.size() == 8 ? DecodeFixed64(value.data())
                                             : header.version;
}

Status DecodeHeader(const Slice& data, RecordHeader* out) {
  if (data.size() < RecordHeader::kSize) {
    return Status::Corruption("truncated record header");
  }
  const char* h = data.data();
  out->crc = DecodeFixed32(h);
  out->key_len = static_cast<uint16_t>(static_cast<unsigned char>(h[4]) |
                                       (static_cast<unsigned char>(h[5]) << 8));
  out->flags = static_cast<uint8_t>(h[6]);
  out->version = DecodeFixed64(h + 8);
  out->value_len = DecodeFixed32(h + 16);
  return Status::OK();
}

Status DecodeRecord(const Slice& data, RecordView* out) {
  Status s = DecodeHeader(data, &out->header);
  if (!s.ok()) return s;
  const uint64_t extent =
      RecordExtent(out->header.key_len, out->header.value_len);
  if (data.size() < extent) {
    return Status::Corruption("truncated record body");
  }
  const uint32_t expected = crc32c::Unmask(out->header.crc);
  const uint32_t actual =
      crc32c::Value(data.data() + 4, static_cast<size_t>(extent) - 4);
  if (expected != actual) {
    return Status::Corruption("record checksum mismatch");
  }
  out->backing.assign(data.data(), static_cast<size_t>(extent));
  out->key = Slice(out->backing.data() + RecordHeader::kSize,
                   out->header.key_len);
  out->value =
      Slice(out->backing.data() + RecordHeader::kSize + out->header.key_len,
            out->header.value_len);
  return Status::OK();
}

}  // namespace directload::aof
