#include "bifrost/wire/slice_codec.h"

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/logging.h"

namespace directload::bifrost::wire {

void AppendWirePair(std::string* payload, const Slice& key, uint64_t version,
                    const Slice& value, bool dedup, bool tombstone) {
  uint8_t flags = 0;
  if (dedup) flags |= kPairFlagDedup;
  if (tombstone) flags |= kPairFlagTombstone;
  payload->push_back(static_cast<char>(flags));
  PutVarint64(payload, version);
  PutLengthPrefixedSlice(payload, key);
  PutLengthPrefixedSlice(payload, (dedup || tombstone) ? Slice() : value);
}

size_t WirePairBytes(size_t key_size, uint64_t version, size_t value_size,
                     bool dedup, bool tombstone) {
  if (dedup || tombstone) value_size = 0;
  return 1 + VarintLength(version) + VarintLength(key_size) + key_size +
         VarintLength(value_size) + value_size;
}

void EncodeSlicePacket(const SliceHeader& header, const Slice& payload,
                       std::string* dst) {
  const size_t start = dst->size();
  AppendSliceHeader(header, dst);
  dst->append(payload.data(), payload.size());
  AppendSliceTrailer(start, dst);
}

void AppendSliceHeader(const SliceHeader& header, std::string* dst) {
  PutFixed64(dst, header.slice_id);
  PutFixed64(dst, header.version);
  dst->push_back(static_cast<char>(header.type));
  PutFixed32(dst, header.pair_count);
}

void AppendSliceTrailer(size_t start, std::string* dst) {
  const uint32_t crc =
      crc32c::Value(dst->data() + start, dst->size() - start);
  PutFixed32(dst, crc32c::Mask(crc));
}

Status CheckSliceFrame(const Slice& frame, SliceHeader* header) {
  if (frame.size() < kSliceHeaderBytes + kSliceTrailerBytes) {
    return Status::Protocol("short slice frame");
  }
  const size_t body_len = frame.size() - kSliceTrailerBytes;
  const uint32_t expected =
      crc32c::Unmask(DecodeFixed32(frame.data() + body_len));
  const uint32_t actual = crc32c::Value(frame.data(), body_len);
  if (expected != actual) {
    return Status::Corruption("slice checksum mismatch");
  }
  header->slice_id = DecodeFixed64(frame.data());
  header->version = DecodeFixed64(frame.data() + 8);
  const uint8_t type = static_cast<uint8_t>(frame[16]);
  if (type > static_cast<uint8_t>(webindex::IndexType::kSummary)) {
    return Status::Protocol("bad slice index type");
  }
  header->type = static_cast<webindex::IndexType>(type);
  header->pair_count = DecodeFixed32(frame.data() + 17);
  return Status::OK();
}

Status DecodeSlicePacket(const Slice& frame, SliceHeader* header,
                         std::vector<qindb::IngestOp>* pairs) {
  pairs->clear();
  if (Status s = CheckSliceFrame(frame, header); !s.ok()) return s;
  Slice rest(frame.data() + kSliceHeaderBytes,
             frame.size() - kSliceHeaderBytes - kSliceTrailerBytes);
  if (header->pair_count > rest.size() / kMinPairWireBytes) {
    return Status::Protocol("slice pair count exceeds payload");
  }
  pairs->reserve(header->pair_count);
  for (uint32_t i = 0; i < header->pair_count; ++i) {
    if (rest.empty()) {
      return Status::Protocol("slice payload short of pair count");
    }
    qindb::IngestOp pair;
    const uint8_t flags = static_cast<uint8_t>(rest[0]);
    if ((flags & ~(kPairFlagDedup | kPairFlagTombstone)) != 0) {
      return Status::Protocol("bad slice pair flags");
    }
    pair.dedup = (flags & kPairFlagDedup) != 0;
    pair.tombstone = (flags & kPairFlagTombstone) != 0;
    rest.remove_prefix(1);
    if (!GetVarint64(&rest, &pair.version)) {
      return Status::Protocol("bad slice pair version");
    }
    if (!GetLengthPrefixedSlice(&rest, &pair.key)) {
      return Status::Protocol("bad slice pair key");
    }
    if (!GetLengthPrefixedSlice(&rest, &pair.value)) {
      return Status::Protocol("bad slice pair value");
    }
    if ((pair.dedup || pair.tombstone) && !pair.value.empty()) {
      return Status::Protocol("value on a value-less slice pair");
    }
    pairs->push_back(pair);
  }
  if (!rest.empty()) {
    return Status::Protocol("trailing bytes after slice pairs");
  }
  return Status::OK();
}

uint64_t CutSlices(const SliceStream& stream, uint64_t version,
                   uint64_t slice_bytes, std::vector<SliceCut>* cuts) {
  SliceCut cut;
  cut.type = stream.type;
  size_t payload = 0;
  uint64_t stream_bytes = 0;
  auto seal = [&](size_t next) {
    cut.frame_bytes = kSliceHeaderBytes + payload + kSliceTrailerBytes;
    stream_bytes += cut.frame_bytes;
    cuts->push_back(cut);
    cut.first = next;
    cut.pair_count = 0;
    payload = 0;
  };
  for (size_t i = 0; i < stream.pairs->size(); ++i) {
    const ShippedPair& pair = (*stream.pairs)[i];
    payload += WirePairBytes(pair.key.size(), version, pair.value.size(),
                             pair.dedup, /*tombstone=*/false);
    ++cut.pair_count;
    if (payload >= slice_bytes) seal(i + 1);
  }
  for (size_t d = 0; d < stream.deletes->size(); ++d) {
    payload += WirePairBytes((*stream.deletes)[d].key.size(),
                             (*stream.deletes)[d].version, 0,
                             /*dedup=*/false, /*tombstone=*/true);
    ++cut.pair_count;
    if (payload >= slice_bytes) seal(stream.pairs->size() + d + 1);
  }
  if (cut.pair_count > 0) seal(stream.size());
  return stream_bytes;
}

void EncodeSlice(const SliceStream& stream, const SliceCut& cut,
                 uint64_t version, uint64_t slice_id, std::string* dst) {
  SliceHeader header;
  header.slice_id = slice_id;
  header.version = version;
  header.type = cut.type;
  header.pair_count = cut.pair_count;
  const size_t start = dst->size();
  dst->reserve(start + cut.frame_bytes);
  AppendSliceHeader(header, dst);
  const size_t end = cut.first + cut.pair_count;
  for (size_t i = cut.first; i < end; ++i) {
    if (i < stream.pairs->size()) {
      const ShippedPair& pair = (*stream.pairs)[i];
      AppendWirePair(dst, pair.key, version, pair.value, pair.dedup,
                     /*tombstone=*/false);
    } else {
      const BulkDelete& del = (*stream.deletes)[i - stream.pairs->size()];
      AppendWirePair(dst, del.key, del.version, Slice(), /*dedup=*/false,
                     /*tombstone=*/true);
    }
  }
  AppendSliceTrailer(start, dst);
  DL_CHECK(dst->size() - start == cut.frame_bytes);
}

void EncodeBulkBegin(const BulkBeginInfo& info, std::string* dst) {
  PutFixed64(dst, info.version);
  PutFixed64(dst, info.total_slices);
  PutFixed64(dst, info.summary_bytes);
  PutFixed64(dst, info.inverted_bytes);
}

Status DecodeBulkBegin(const Slice& data, BulkBeginInfo* out) {
  if (data.size() != 32) {
    return Status::Protocol("bad bulk-begin payload size");
  }
  out->version = DecodeFixed64(data.data());
  out->total_slices = DecodeFixed64(data.data() + 8);
  out->summary_bytes = DecodeFixed64(data.data() + 16);
  out->inverted_bytes = DecodeFixed64(data.data() + 24);
  return Status::OK();
}

void EncodeBulkCommit(uint64_t expected_slices, std::string* dst) {
  PutFixed64(dst, expected_slices);
}

Status DecodeBulkCommit(const Slice& data, uint64_t* expected_slices) {
  if (data.size() != 8) {
    return Status::Protocol("bad bulk-commit payload size");
  }
  *expected_slices = DecodeFixed64(data.data());
  return Status::OK();
}

void EncodeMissingSlices(const std::vector<uint64_t>& slice_ids,
                         std::string* dst) {
  PutVarint64(dst, slice_ids.size());
  for (uint64_t id : slice_ids) PutFixed64(dst, id);
}

Status DecodeMissingSlices(const Slice& data,
                           std::vector<uint64_t>* slice_ids) {
  slice_ids->clear();
  Slice rest = data;
  uint64_t count = 0;
  if (!GetVarint64(&rest, &count)) {
    return Status::Protocol("bad missing-slice count");
  }
  if (count > rest.size() / 8) {
    return Status::Protocol("missing-slice count exceeds payload");
  }
  slice_ids->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    slice_ids->push_back(DecodeFixed64(rest.data()));
    rest.remove_prefix(8);
  }
  if (!rest.empty()) {
    return Status::Protocol("trailing bytes after missing-slice ids");
  }
  return Status::OK();
}

}  // namespace directload::bifrost::wire
