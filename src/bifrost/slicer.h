#ifndef DIRECTLOAD_BIFROST_SLICER_H_
#define DIRECTLOAD_BIFROST_SLICER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bifrost/dedup.h"
#include "common/random.h"
#include "common/status.h"
#include "index/builders.h"

namespace directload::bifrost {

/// Bifrost's empirical bandwidth reservation (Section 2.2): summary slices
/// get this share of a link, inverted slices the rest (40/60).
constexpr double kSummaryBandwidthShare = 0.4;

/// A transmission unit: a checksummed bundle of shipped pairs. Every
/// intermediate relay recomputes and verifies the checksum (Section 3,
/// "Failures in Transmission").
struct SlicePacket {
  uint64_t slice_id = 0;
  webindex::IndexType type = webindex::IndexType::kInverted;
  uint64_t version = 0;
  std::string payload;    // Serialized pairs.
  uint32_t checksum = 0;  // Masked CRC32C of payload.

  uint64_t bytes() const { return payload.size() + 64; }  // + header estimate.
};

/// Packs shipped pairs into slices of roughly `slice_bytes` payload.
std::vector<SlicePacket> PackSlices(const std::vector<ShippedPair>& pairs,
                                    webindex::IndexType type, uint64_t version,
                                    uint64_t slice_bytes,
                                    uint64_t first_slice_id = 0);

/// Recomputes the payload checksum; false means corruption in transit.
bool VerifySlice(const SlicePacket& slice);

/// Decodes a verified slice back into pairs.
Status UnpackSlice(const SlicePacket& slice, std::vector<ShippedPair>* pairs);

/// Fault injection: flips one payload byte.
void CorruptSlice(SlicePacket* slice, Random* rng);

}  // namespace directload::bifrost

#endif  // DIRECTLOAD_BIFROST_SLICER_H_
