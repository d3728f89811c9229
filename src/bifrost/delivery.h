#ifndef DIRECTLOAD_BIFROST_DELIVERY_H_
#define DIRECTLOAD_BIFROST_DELIVERY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bifrost/wire/slice_codec.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "index/builders.h"
#include "net/fluid_network.h"

namespace directload::bifrost {

/// Shape of the paper's deployment (Section 1.1.2): one index-building
/// center, three regional relay groups (North/East/South China), two data
/// centers per region. Inverted indices go to all six data centers; summary
/// indices to one data center per region (three total), reflecting their
/// higher storage cost.
constexpr int kNumRegions = 3;
constexpr int kDcsPerRegion = 2;
constexpr int kNumDataCenters = kNumRegions * kDcsPerRegion;

/// Bifrost's empirical bandwidth reservation (Section 2.2): summary slices
/// get this share of a link, inverted slices the rest (40/60).
constexpr double kSummaryBandwidthShare = 0.4;

/// Relay nodes pooled per group ("20~30 relay nodes caching and relaying the
/// data", Section 2.2). Failing nodes shrinks the group's pooled bandwidth
/// proportionally.
constexpr int kRelayNodesPerGroup = 24;

/// Concurrent slices in flight per destination; completions trigger
/// rescheduling with fresh bandwidth predictions.
constexpr int kWindowPerDestination = 4;

/// A transmission unit: one encoded wire slice frame
/// (bifrost/wire/slice_codec.h), whose own checksum every relay re-verifies
/// (Section 3, "Failures in Transmission"), plus the two header fields the
/// scheduler routes by.
struct SliceFrame {
  uint64_t slice_id = 0;
  webindex::IndexType type = webindex::IndexType::kInverted;
  std::string bytes;
};

/// Cuts `stream` into slices of about `slice_bytes` and encodes each as a
/// wire frame of `version` — the bytes BulkLoader ships — appended to
/// `frames` with ids counting up from `*next_slice_id`.
void EncodeSliceFrames(const wire::SliceStream& stream, uint64_t version,
                       uint64_t slice_bytes, uint64_t* next_slice_id,
                       std::vector<SliceFrame>* frames);

struct DeliveryOptions {
  /// Aggregate capacities in bytes/sec (a relay group is modeled as one
  /// aggregate node; the paper's 20-30 relay nodes pool their bandwidth).
  double backbone_bytes_per_sec = 12e6;     // Build center -> relay group.
  double interregion_bytes_per_sec = 8e6;   // Relay group <-> relay group.
  double regional_bytes_per_sec = 30e6;     // Relay group -> data center.

  /// Probability that a slice is corrupted on one hop (checksum catches it;
  /// the slice is retransmitted from the source). Drawn once per hop the
  /// slice crossed: two on the direct path, three on a detour.
  double corruption_prob = 0.0;

  double tick_seconds = 0.25;
  double monitor_interval_seconds = 1.0;

  /// Index data are generated continuously and sent "in GBs every hour"
  /// (Section 1.1.2): slices become available spread evenly over this
  /// window rather than all at once. Zero releases everything immediately.
  double generation_window_seconds = 0.0;

  /// A slice arriving later than this after its generation counts as a miss
  /// ("takes more than one hour to arrive", Section 4.2.2).
  double miss_deadline_seconds = 3600.0;

  /// Repair process (Section 3: an out-of-date slice "may lead to a repair
  /// process"): a transfer still in flight after this long is aborted and
  /// re-requested, with a fresh path chosen from current predictions.
  /// Zero disables repair.
  double repair_timeout_seconds = 0.0;

  /// Give up after this much simulated time.
  double max_seconds = 24 * 3600.0;

  uint64_t seed = 7;
};

struct DeliveryReport {
  double update_time_seconds = 0;  // All slices ready at all destinations.
  double miss_ratio = 0;           // Late (slice,dest) arrivals / total.
  uint64_t deliveries_total = 0;   // (slice, destination) pairs.
  uint64_t retransmissions = 0;
  uint64_t repairs = 0;            // Stuck transfers aborted + re-requested.
  uint64_t bytes_transmitted = 0;  // Frame bytes summed over every hop.
  bool completed = false;          // False if max_seconds elapsed first.
};

/// Simulates Bifrost's cross-region transmission: slices flow from the
/// build center through relay groups to the data centers, sharing channel
/// bandwidth 40/60 between summary and inverted traffic, optionally
/// detouring through another region's relay group when the monitor predicts
/// more spare capacity there (Section 2.2), and retransmitting slices whose
/// per-hop checksum verification fails (Section 3).
class DeliveryService {
 public:
  DeliveryService(SimClock* clock, const DeliveryOptions& options);

  /// Invoked for every verified slice arrival: (data_center, slice).
  using SinkFn = std::function<void(int, const SliceFrame&)>;

  /// Delivers one version's slices to their destinations and returns when
  /// everything has arrived (or max_seconds passed).
  DeliveryReport DeliverVersion(const std::vector<SliceFrame>& summary,
                                const std::vector<SliceFrame>& inverted,
                                const SinkFn& sink = nullptr);

  /// Fault injection: background load on the build-center -> relay backbone
  /// of `region`.
  void SetBackboneBackground(int region, double fraction);

  /// Fails `count` additional relay nodes of a region's group; every
  /// channel touching the group loses a proportional share of its pooled
  /// capacity. The monitor sees the loss and may detour around the group.
  Status FailRelayNodes(int region, int count);
  Status RestoreRelayNodes(int region, int count);
  int relay_nodes_up(int region) const { return relay_up_[region]; }

  net::FluidNetwork& network() { return *net_; }
  const DeliveryOptions& options() const { return options_; }

  /// Number of deliveries that took a detour path (monitor-driven routing).
  uint64_t detours() const { return detours_; }

 private:
  struct Pending {
    const SliceFrame* slice = nullptr;
    int dest = 0;  // Data center index [0, 6).
    int attempts = 0;
    double release_seconds = 0;  // Generation time within the cycle.
  };

  /// Best path (link ids) from the source to data center `dest`, by
  /// predicted bottleneck spare bandwidth. `avoid_direct` excludes the
  /// direct path — used when re-requesting a slice whose direct transfer
  /// stalled (the repair process assumes that channel is sick regardless of
  /// what the possibly-stale predictions say).
  std::vector<int> PickPath(int dest, bool* detoured,
                            bool avoid_direct = false) const;

  double UpFraction(int region) const;
  /// Recomputes every link's effective background from the user-set load
  /// and the relay-node derating.
  void ReapplyBackgrounds();

  SimClock* clock_;
  DeliveryOptions options_;
  std::unique_ptr<net::FluidNetwork> net_;
  std::unique_ptr<net::BandwidthMonitor> monitor_;
  Random rng_;

  int class_summary_ = 0;
  int class_inverted_ = 0;
  // Topology handles.
  int backbone_link_[kNumRegions] = {};
  int interregion_link_[kNumRegions][kNumRegions] = {};
  int regional_link_[kNumRegions][kDcsPerRegion] = {};
  int relay_up_[kNumRegions] = {};
  std::vector<double> user_background_;  // Per link, explicit load.
  uint64_t detours_ = 0;
};

/// The data centers that store an index type: all six for inverted/forward,
/// the first data center of each region for summary.
std::vector<int> DestinationsFor(webindex::IndexType type);

}  // namespace directload::bifrost

#endif  // DIRECTLOAD_BIFROST_DELIVERY_H_
