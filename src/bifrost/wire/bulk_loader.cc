#include "bifrost/wire/bulk_loader.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "bifrost/slicer.h"
#include "common/failpoint.h"
#include "common/logging.h"

namespace directload::bifrost::wire {

/// Flips one bit in an outgoing slice frame (corrupt action) — models
/// damage in transit between the sender and the ingest server. The server's
/// per-hop slice checksum catches it and answers kCorruption; the loader
/// repairs by re-sending pristine bytes.
DIRECTLOAD_FAILPOINT_DEFINE(fp_bulk_slice_corrupt, "bulk_slice_corrupt");

namespace {

/// A slice answered kCorruption (damaged in flight) or a transient
/// rejection is re-sent up to this many times before the load fails.
constexpr int kMaxResendsPerSlice = 8;

/// Commit attempts: each round re-sends the slices the server reports
/// missing and tries again.
constexpr int kMaxCommitRounds = 4;

/// The summary stream carries no explicit deletes.
const std::vector<BulkDelete> kNoDeletes;

}  // namespace

BulkLoader::BulkLoader(rpc::RpcClient* client, BulkLoadOptions options)
    : client_(client), options_(std::move(options)) {}

uint64_t BulkLoader::SizeStream(const Stream& stream) {
  // Same cut as packing pairs one by one: a slice is sealed as soon as its
  // payload reaches slice_bytes.
  PendingSlice slice;
  slice.type = stream.type;
  size_t payload = 0;
  uint64_t stream_bytes = 0;
  auto seal = [&](size_t next) {
    slice.frame_bytes = kSliceHeaderBytes + payload + kSliceTrailerBytes;
    stream_bytes += slice.frame_bytes;
    slices_.push_back(slice);
    slice.first = next;
    slice.pair_count = 0;
    payload = 0;
  };
  for (size_t i = 0; i < stream.pairs->size(); ++i) {
    const ShippedPair& pair = (*stream.pairs)[i];
    payload += WirePairBytes(pair.key.size(), version_, pair.value.size(),
                             pair.dedup, /*tombstone=*/false);
    ++slice.pair_count;
    if (payload >= options_.slice_bytes) seal(i + 1);
  }
  for (size_t d = 0; d < stream.deletes->size(); ++d) {
    payload += WirePairBytes((*stream.deletes)[d].key.size(),
                             (*stream.deletes)[d].version, 0,
                             /*dedup=*/false, /*tombstone=*/true);
    ++slice.pair_count;
    if (payload >= options_.slice_bytes) seal(stream.pairs->size() + d + 1);
  }
  if (slice.pair_count > 0) seal(stream.size());
  report_.pairs_total += stream.size();
  return stream_bytes;
}

void BulkLoader::EncodeSlice(uint64_t id, std::string* dst) const {
  const PendingSlice& slice = slices_[id];
  const Stream& stream =
      slice.type == webindex::IndexType::kSummary ? summary_ : inverted_;
  SliceHeader header;
  header.slice_id = id;
  header.version = version_;
  header.type = slice.type;
  header.pair_count = slice.pair_count;
  const size_t start = dst->size();
  dst->reserve(start + slice.frame_bytes);
  AppendSliceHeader(header, dst);
  const size_t end = slice.first + slice.pair_count;
  for (size_t i = slice.first; i < end; ++i) {
    if (i < stream.pairs->size()) {
      const ShippedPair& pair = (*stream.pairs)[i];
      AppendWirePair(dst, pair.key, version_, pair.value, pair.dedup,
                     /*tombstone=*/false);
    } else {
      const BulkDelete& del = (*stream.deletes)[i - stream.pairs->size()];
      AppendWirePair(dst, del.key, del.version, Slice(), /*dedup=*/false,
                     /*tombstone=*/true);
    }
  }
  AppendSliceTrailer(start, dst);
  DL_CHECK(dst->size() - start == slice.frame_bytes);
}

Result<uint64_t> BulkLoader::SendSlice(uint64_t id) {
  PendingSlice& slice = slices_[id];
  if (slice.frame_value.empty()) EncodeSlice(id, &slice.frame_value);
  WallRateLimiter* limiter = slice.type == webindex::IndexType::kSummary
                                 ? summary_limiter_.get()
                                 : inverted_limiter_.get();
  if (limiter != nullptr) {
    limiter->Throttle(static_cast<double>(slice.frame_bytes));
  }
  rpc::Frame frame;
  frame.op = rpc::Opcode::kBulkSlice;
  frame.request_id = client_->NextRequestId();
  frame.version = version_;
  // The frame borrows the pristine bytes for the send and hands them back.
  frame.value.swap(slice.frame_value);
#if DIRECTLOAD_FAILPOINTS_COMPILED
  if (fp_bulk_slice_corrupt->armed()) {
    slice.frame_value = frame.value;  // Damage only the outgoing copy.
    DL_DISCARD_STATUS(
        "corrupt-only site; damage surfaces as the server's checksum NACK",
        fp_bulk_slice_corrupt->MaybeFailIo(&frame.value, nullptr));
  }
#endif
  ++slice.sends;
  if (slice.sends > 1) ++report_.slices_resent;
  report_.bytes_shipped += frame.value.size();
  const Status sent = client_->Send(frame);
  if (slice.frame_value.empty()) slice.frame_value.swap(frame.value);
  if (!sent.ok()) return sent;
  return frame.request_id;
}

Status BulkLoader::ReceiveOne(
    std::vector<std::pair<uint64_t, uint64_t>>* outstanding) {
  Result<rpc::Frame> resp = client_->Receive();
  if (!resp.ok()) return resp.status();
  const rpc::Frame& frame = resp.value();
  auto it = std::find_if(
      outstanding->begin(), outstanding->end(),
      [&](const auto& entry) { return entry.first == frame.request_id; });
  if (it == outstanding->end()) {
    return Status::Protocol("bulk ack for an unknown request id");
  }
  const uint64_t id = it->second;
  outstanding->erase(it);
  if (frame.status == StatusCode::kOk) {
    // Landed: drop the bytes. A commit round that still reports the slice
    // missing re-encodes it.
    std::string().swap(slices_[id].frame_value);
    return Status::OK();
  }
  const bool checksum_nack = frame.status == StatusCode::kCorruption;
  // Transient rejections — admission control, a momentarily unreachable
  // replica, an injected ingest-append failure — are repaired exactly like
  // wire damage: re-send the slice, bounded by the same budget. Anything
  // else (protocol, version mismatch, lost session) is systematic and
  // fails the load.
  const bool transient = frame.status == StatusCode::kBusy ||
                         frame.status == StatusCode::kUnavailable ||
                         frame.status == StatusCode::kTimedOut ||
                         frame.status == StatusCode::kIOError;
  if (checksum_nack || transient) {
    if (checksum_nack) ++report_.checksum_nacks;
    if (slices_[id].sends > kMaxResendsPerSlice) {
      return rpc::StatusFromWire(frame.status, frame.value);
    }
    Result<uint64_t> rid = SendSlice(id);
    if (!rid.ok()) return rid.status();
    outstanding->emplace_back(rid.value(), id);
    return Status::OK();
  }
  return rpc::StatusFromWire(frame.status, frame.value);
}

Status BulkLoader::ShipAll(const std::vector<uint64_t>& ids) {
  std::vector<std::pair<uint64_t, uint64_t>> outstanding;
  for (uint64_t id : ids) {
    while (outstanding.size() >= options_.send_window) {
      if (Status s = ReceiveOne(&outstanding); !s.ok()) return s;
    }
    Result<uint64_t> rid = SendSlice(id);
    if (!rid.ok()) return rid.status();
    outstanding.emplace_back(rid.value(), id);
  }
  while (!outstanding.empty()) {
    if (Status s = ReceiveOne(&outstanding); !s.ok()) return s;
  }
  return Status::OK();
}

Result<rpc::Frame> BulkLoader::Exchange(rpc::Frame request) {
  // A kBusy answer is admission control shedding load, not a verdict on
  // the session — back off briefly and re-ask, bounded.
  for (int attempt = 0;; ++attempt) {
    request.request_id = client_->NextRequestId();
    if (Status s = client_->Send(request); !s.ok()) return s;
    Result<rpc::Frame> resp = client_->Receive();
    if (!resp.ok()) return resp;
    if (resp.value().request_id != request.request_id) {
      return Status::Protocol("bulk response out of order");
    }
    if (resp.value().status != StatusCode::kBusy || attempt >= 16) {
      return resp;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void BulkLoader::Abort(uint64_t version) {
  rpc::Frame abort;
  abort.op = rpc::Opcode::kBulkAbort;
  abort.version = version;
  DL_DISCARD_STATUS("best-effort session abort; the load already failed",
                    Exchange(std::move(abort)).status());
}

Status BulkLoader::Load(uint64_t version,
                        const std::vector<ShippedPair>& summary,
                        const std::vector<ShippedPair>& inverted,
                        const std::vector<BulkDelete>& deletes,
                        BulkLoadReport* report) {
  slices_.clear();
  report_ = BulkLoadReport();
  // A sealed slice holds at most slice_bytes plus one pair; leave generous
  // headroom under the negotiated frame bound for the header/trailer and
  // that final pair.
  if (options_.slice_bytes == 0 ||
      options_.slice_bytes > rpc::kMaxBulkBodyBytes / 2) {
    return Status::InvalidArgument(
        "slice_bytes must fit the negotiated bulk frame bound");
  }

  version_ = version;
  summary_ = Stream{webindex::IndexType::kSummary, &summary, &kNoDeletes};
  inverted_ = Stream{webindex::IndexType::kInverted, &inverted, &deletes};
  const uint64_t summary_bytes = SizeStream(summary_);
  const uint64_t inverted_bytes = SizeStream(inverted_);
  report_.slices_total = slices_.size();

  // The empirical 40/60 reservation: one bucket per stream, split from the
  // total budget.
  summary_limiter_.reset();
  inverted_limiter_.reset();
  if (options_.bandwidth_bytes_per_sec > 0) {
    const double burst = static_cast<double>(options_.slice_bytes) * 2;
    summary_limiter_ = std::make_unique<WallRateLimiter>(
        options_.bandwidth_bytes_per_sec * kSummaryBandwidthShare, burst);
    inverted_limiter_ = std::make_unique<WallRateLimiter>(
        options_.bandwidth_bytes_per_sec * (1.0 - kSummaryBandwidthShare),
        burst);
  }

  // Open the session; a successful ack also negotiates the frame bound up
  // to kMaxBulkBodyBytes on the server side.
  BulkBeginInfo info;
  info.version = version;
  info.total_slices = slices_.size();
  info.summary_bytes = summary_bytes;
  info.inverted_bytes = inverted_bytes;
  rpc::Frame begin;
  begin.op = rpc::Opcode::kBulkBegin;
  begin.version = version;
  EncodeBulkBegin(info, &begin.value);
  Result<rpc::Frame> begin_resp = Exchange(std::move(begin));
  if (!begin_resp.ok()) return begin_resp.status();
  if (begin_resp.value().status != StatusCode::kOk) {
    return rpc::StatusFromWire(begin_resp.value().status,
                               begin_resp.value().value);
  }

  std::vector<uint64_t> ids(slices_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  if (Status s = ShipAll(ids); !s.ok()) {
    Abort(version);
    return s;
  }

  // Commit; each extra round repairs the slices the server reports missing.
  for (int round = 0; round < kMaxCommitRounds; ++round) {
    rpc::Frame commit;
    commit.op = rpc::Opcode::kBulkCommit;
    commit.version = version;
    EncodeBulkCommit(slices_.size(), &commit.value);
    Result<rpc::Frame> resp = Exchange(std::move(commit));
    if (!resp.ok()) {
      Abort(version);
      return resp.status();
    }
    if (resp.value().status == StatusCode::kOk) {
      if (report != nullptr) *report = report_;
      return Status::OK();
    }
    if (resp.value().status != StatusCode::kUnavailable) {
      Abort(version);
      return rpc::StatusFromWire(resp.value().status, resp.value().value);
    }
    std::vector<uint64_t> missing;
    if (Status s = DecodeMissingSlices(resp.value().value, &missing);
        !s.ok()) {
      Abort(version);
      return s;
    }
    for (uint64_t id : missing) {
      if (id >= slices_.size()) {
        Abort(version);
        return Status::Protocol("server reported a slice id never sent");
      }
    }
    ++report_.repair_rounds;
    if (Status s = ShipAll(missing); !s.ok()) {
      Abort(version);
      return s;
    }
  }
  Abort(version);
  return Status::Unavailable(
      "bulk commit still missing slices after repair rounds");
}

}  // namespace directload::bifrost::wire
