#ifndef DIRECTLOAD_SSD_DEVICE_H_
#define DIRECTLOAD_SSD_DEVICE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "common/slice.h"
#include "common/status.h"
#include "ssd/geometry.h"

namespace directload::ssd {

enum class PageState : uint8_t {
  kErased = 0,  // Programmable.
  kValid,       // Holds live data.
  kInvalid,     // Holds stale data; freed only by erasing the whole block.
};

/// The physical flash array: pages with erase/program/read semantics and a
/// single-server latency model that advances a shared SimClock. Policy
/// (mapping, GC) lives in FtlDevice / NativeSsd, which own an SsdDevice.
///
/// Flash rules enforced here (Figure 3 of the paper):
///   * a page can only be programmed when in the erased state;
///   * invalidating a page does not reclaim it;
///   * reclamation happens only via EraseBlock, which erases all 64 pages.
class SsdDevice {
 public:
  SsdDevice(const Geometry& geometry, const LatencyModel& latency,
            SimClock* clock);

  SsdDevice(const SsdDevice&) = delete;
  SsdDevice& operator=(const SsdDevice&) = delete;

  const Geometry& geometry() const { return geometry_; }
  const SsdStats& stats() const { return stats_; }
  SimClock* clock() { return clock_; }

  /// Programs page `ppa` with one page worth of data (shorter data is
  /// zero-padded). Fails if the page is not erased.
  /// `is_gc` distinguishes device-GC migration writes from host writes in
  /// the stats.
  Status ProgramPage(uint64_t ppa, const Slice& data, bool is_gc = false);

  /// Reads page `ppa` into `out` (resized to page_size). Reading an erased
  /// page yields zeros; reading an invalid page returns its stale bytes
  /// (flash semantics), so mapping layers must never do that by accident.
  Status ReadPage(uint64_t ppa, std::string* out, bool is_gc = false);

  /// Marks a valid page invalid (host overwrite/trim). No media op, no time.
  Status InvalidatePage(uint64_t ppa);

  /// Erases every page in `block`. Fails if any page is still valid, to
  /// catch mapping-layer bugs (callers migrate or invalidate first).
  Status EraseBlock(uint32_t block);

  PageState page_state(uint64_t ppa) const { return states_[ppa]; }

  /// Number of valid pages in `block`.
  uint32_t ValidPagesInBlock(uint32_t block) const {
    return valid_in_block_[block];
  }

  /// Wear tracking: flash blocks endure a limited number of erase cycles
  /// (the paper's "life span based on limited write cycles", Section 2.1).
  uint32_t BlockEraseCount(uint32_t block) const {
    return erase_counts_[block];
  }
  uint32_t MaxEraseCount() const;
  double MeanEraseCount() const;

  /// Fault injection: flips one bit of a programmed page in place (models
  /// silent media corruption / transmission damage). No time cost, no
  /// state change — checksumming layers above must catch it.
  Status FlipByteForTesting(uint64_t ppa, uint32_t offset_in_page);

 private:
  void Occupy(uint64_t service_micros);

  Geometry geometry_;
  LatencyModel latency_;
  SimClock* clock_;
  SsdStats stats_;
  // Completion time of the latest media operation; Occupy queues behind it.
  uint64_t busy_until_micros_ = 0;

  std::vector<PageState> states_;
  std::vector<uint32_t> valid_in_block_;
  std::vector<uint32_t> erase_counts_;
  // Page payloads, allocated lazily per block to bound memory.
  std::vector<std::unique_ptr<char[]>> block_data_;
};

}  // namespace directload::ssd

#endif  // DIRECTLOAD_SSD_DEVICE_H_
