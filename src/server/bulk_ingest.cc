#include "server/bulk_ingest.h"

#include <vector>

#include "bifrost/wire/slice_codec.h"
#include "common/logging.h"

namespace directload::server {

namespace {

/// Cap on the ids a commit response enumerates: 64Ki ids encode to 512 KiB,
/// comfortably inside the non-bulk frame bound, and one repair round later
/// the next commit names whatever is still missing.
constexpr size_t kMaxMissingReported = 64 * 1024;

}  // namespace

Status BulkIngestSession::HandleSlice(uint64_t frame_version,
                                      const Slice& frame_value) {
  if (frame_version != version_) {
    return Status::InvalidArgument(
        "slice version differs from the session version");
  }
  bifrost::wire::SliceHeader header;
  std::vector<qindb::IngestOp> ops;
  if (Status s = bifrost::wire::DecodeSlicePacket(frame_value, &header, &ops);
      !s.ok()) {
    return s;
  }
  if (header.version != version_) {
    return Status::InvalidArgument(
        "slice header version differs from the session version");
  }
  {
    MutexLock lock(&mu_);
    if (committed_ || aborted_) {
      return Status::InvalidArgument("bulk session is closed");
    }
    if (landed_.count(header.slice_id) != 0) {
      return Status::OK();  // Duplicate of a landed slice: cheap ack.
    }
    if (!inflight_.insert(header.slice_id).second) {
      return Status::Busy("slice is already being ingested");
    }
  }
  // Engine call off the session lock: slices from different workers land in
  // parallel. The ops alias the request frame, which outlives this call.
  Status landed = cluster_->BulkIngest(version_, ops.data(), ops.size());
  MutexLock lock(&mu_);
  inflight_.erase(header.slice_id);
  if (landed.ok()) landed_.insert(header.slice_id);
  return landed;
}

Status BulkIngestSession::Commit(uint64_t expected_slices,
                                 std::string* missing_payload) {
  MutexLock lock(&mu_);
  if (aborted_) return Status::InvalidArgument("bulk session was aborted");
  if (committed_) return Status::OK();  // Repair-round re-commit.
  if (!inflight_.empty()) {
    return Status::Busy("slices are still being ingested");
  }
  std::vector<uint64_t> missing;
  for (uint64_t id = 0; id < expected_slices; ++id) {
    if (landed_.count(id) == 0) {
      missing.push_back(id);
      if (missing.size() >= kMaxMissingReported) break;
    }
  }
  if (!missing.empty()) {
    bifrost::wire::EncodeMissingSlices(missing, missing_payload);
    return Status::Unavailable("bulk session is missing slices");
  }
  Status s = cluster_->BulkCommit(version_);
  if (s.ok()) committed_ = true;
  return s;
}

void BulkIngestSession::Abort() {
  MutexLock lock(&mu_);
  if (committed_ || aborted_) return;
  aborted_ = true;
  DL_DISCARD_STATUS("best-effort rollback; the session is closed either way",
                    cluster_->BulkAbort(version_));
}

}  // namespace directload::server
