#include "bifrost/wire/bulk_loader.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "bifrost/delivery.h"
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

Result<uint64_t> BulkLoader::SendSlice(uint64_t id) {
  PendingSlice& slice = slices_[id];
  if (slice.frame_value.empty()) {
    const SliceStream& stream =
        slice.cut.type == webindex::IndexType::kSummary ? summary_ : inverted_;
    EncodeSlice(stream, slice.cut, version_, id, &slice.frame_value);
  }
  WallRateLimiter* limiter = slice.cut.type == webindex::IndexType::kSummary
                                 ? summary_limiter_.get()
                                 : inverted_limiter_.get();
  if (limiter != nullptr) {
    limiter->Throttle(static_cast<double>(slice.cut.frame_bytes));
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
  summary_ = SliceStream{webindex::IndexType::kSummary, &summary, &kNoDeletes};
  inverted_ =
      SliceStream{webindex::IndexType::kInverted, &inverted, &deletes};
  std::vector<SliceCut> cuts;
  const uint64_t summary_bytes =
      CutSlices(summary_, version, options_.slice_bytes, &cuts);
  const uint64_t inverted_bytes =
      CutSlices(inverted_, version, options_.slice_bytes, &cuts);
  slices_.resize(cuts.size());
  for (size_t i = 0; i < cuts.size(); ++i) slices_[i].cut = cuts[i];
  report_.slices_total = slices_.size();
  report_.pairs_total = summary_.size() + inverted_.size();

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
