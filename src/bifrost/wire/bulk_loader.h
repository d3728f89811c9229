#ifndef DIRECTLOAD_BIFROST_WIRE_BULK_LOADER_H_
#define DIRECTLOAD_BIFROST_WIRE_BULK_LOADER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bifrost/dedup.h"
#include "bifrost/wire/slice_codec.h"
#include "common/rate_limiter.h"
#include "common/result.h"
#include "common/status.h"
#include "index/builders.h"
#include "rpc/client.h"

namespace directload::bifrost::wire {

struct BulkLoadOptions {
  /// Target pair-payload bytes per slice. Encoded slices must fit the
  /// negotiated frame bound — the loader refuses values that could not.
  uint64_t slice_bytes = 1u << 20;
  /// Maximum unacknowledged slices in flight (pipelined over one
  /// connection).
  size_t send_window = 8;
  /// Total shipping budget in bytes/sec across both streams; <= 0 means
  /// unpaced. Split kSummaryBandwidthShare : (1 - kSummaryBandwidthShare)
  /// between summary and inverted slices — the paper's empirical 40/60
  /// reservation.
  double bandwidth_bytes_per_sec = 0;
};

struct BulkLoadReport {
  uint64_t slices_total = 0;
  uint64_t pairs_total = 0;
  uint64_t bytes_shipped = 0;  // Encoded slice bytes, including re-sends.
  uint64_t slices_resent = 0;
  uint64_t checksum_nacks = 0;  // kCorruption answers (repaired by re-send).
  uint64_t repair_rounds = 0;   // Commit rounds that found missing slices.
};

/// Streams one index version into a serving node as a bulk-ingest session:
/// kBulkBegin, pipelined kBulkSlice frames under a send window, then
/// kBulkCommit — repairing checksum-failed or missing slices by re-sending.
/// On any unrecoverable error the loader best-effort aborts the session so
/// the server rolls the staged records back.
///
/// Not thread-safe; one loader drives one client connection.
class BulkLoader {
 public:
  BulkLoader(rpc::RpcClient* client, BulkLoadOptions options);

  /// Ships `summary` and `inverted` pairs (Deduplicator output — `dedup`
  /// pairs travel value-less) plus explicit `deletes` as version `version`,
  /// commits, and returns once the version is live on the server. `report`
  /// (optional) receives shipping counters.
  Status Load(uint64_t version, const std::vector<ShippedPair>& summary,
              const std::vector<ShippedPair>& inverted,
              const std::vector<BulkDelete>& deletes,
              BulkLoadReport* report = nullptr);

 private:
  struct PendingSlice {
    SliceCut cut;
    std::string frame_value;  // Pristine encoded slice while in flight.
    int sends = 0;
  };

  /// Ships slice `id` and returns the request id used (fresh each send),
  /// pacing against the stream's rate limiter. A slice is encoded when it
  /// is first sent, so encoding overlaps the server's ingest of the slices
  /// already in the window; its pristine bytes are kept for re-sends until
  /// it is acked, and re-encoded if a commit round reports it missing. The
  /// failpoint "bulk_slice_corrupt" flips a bit in the outgoing copy —
  /// never in the pristine bytes — so the server's per-hop checksum
  /// catches it and the re-send repairs it.
  Result<uint64_t> SendSlice(uint64_t id);

  /// Receives one response and applies it: ack, bounded re-send on
  /// kCorruption, or hard failure. `outstanding` tracks in-flight ids by
  /// request id.
  Status ReceiveOne(std::vector<std::pair<uint64_t, uint64_t>>* outstanding);

  /// Sends the ids in `ids` under the send window and drains every ack.
  Status ShipAll(const std::vector<uint64_t>& ids);

  /// One blocking request/response exchange (no other frames in flight).
  /// kBusy answers (admission shedding) are retried a bounded number of
  /// times with a short backoff.
  Result<rpc::Frame> Exchange(rpc::Frame request);

  void Abort(uint64_t version);

  rpc::RpcClient* const client_;
  const BulkLoadOptions options_;
  uint64_t version_ = 0;
  SliceStream summary_;
  SliceStream inverted_;
  std::vector<PendingSlice> slices_;
  BulkLoadReport report_;
  std::unique_ptr<WallRateLimiter> summary_limiter_;
  std::unique_ptr<WallRateLimiter> inverted_limiter_;
};

}  // namespace directload::bifrost::wire

#endif  // DIRECTLOAD_BIFROST_WIRE_BULK_LOADER_H_
