#include "bifrost/delivery.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

namespace directload::bifrost {

std::vector<int> DestinationsFor(webindex::IndexType type) {
  std::vector<int> dests;
  for (int region = 0; region < kNumRegions; ++region) {
    for (int i = 0; i < kDcsPerRegion; ++i) {
      if (type == webindex::IndexType::kSummary && i != 0) continue;
      dests.push_back(region * kDcsPerRegion + i);
    }
  }
  return dests;
}

void EncodeSliceFrames(const wire::SliceStream& stream, uint64_t version,
                       uint64_t slice_bytes, uint64_t* next_slice_id,
                       std::vector<SliceFrame>* frames) {
  std::vector<wire::SliceCut> cuts;
  wire::CutSlices(stream, version, slice_bytes, &cuts);
  for (const wire::SliceCut& cut : cuts) {
    SliceFrame frame;
    frame.slice_id = (*next_slice_id)++;
    frame.type = stream.type;
    wire::EncodeSlice(stream, cut, version, frame.slice_id, &frame.bytes);
    frames->push_back(std::move(frame));
  }
}

DeliveryService::DeliveryService(SimClock* clock,
                                 const DeliveryOptions& options)
    : clock_(clock),
      options_(options),
      net_(std::make_unique<net::FluidNetwork>(clock)),
      rng_(options.seed) {
  const int source = net_->AddNode("build-center");
  int relay[kNumRegions];
  for (int r = 0; r < kNumRegions; ++r) {
    relay[r] = net_->AddNode("relay-group-" + std::to_string(r));
  }
  for (int r = 0; r < kNumRegions; ++r) {
    backbone_link_[r] =
        net_->AddLink(source, relay[r], options.backbone_bytes_per_sec);
    for (int i = 0; i < kDcsPerRegion; ++i) {
      const int dc = net_->AddNode("dc-" + std::to_string(r) + "." +
                                   std::to_string(i));
      regional_link_[r][i] =
          net_->AddLink(relay[r], dc, options.regional_bytes_per_sec);
    }
  }
  for (int a = 0; a < kNumRegions; ++a) {
    for (int b = 0; b < kNumRegions; ++b) {
      if (a == b) continue;
      interregion_link_[a][b] =
          net_->AddLink(relay[a], relay[b], options.interregion_bytes_per_sec);
    }
  }
  class_summary_ = net_->AddTrafficClass("summary", kSummaryBandwidthShare);
  class_inverted_ =
      net_->AddTrafficClass("inverted", 1.0 - kSummaryBandwidthShare);
  monitor_ = std::make_unique<net::BandwidthMonitor>(net_.get());
  for (int r = 0; r < kNumRegions; ++r) {
    relay_up_[r] = kRelayNodesPerGroup;
  }
  user_background_.assign(net_->num_links(), 0.0);
}

void DeliveryService::SetBackboneBackground(int region, double fraction) {
  user_background_[backbone_link_[region]] = fraction;
  ReapplyBackgrounds();
}

Status DeliveryService::FailRelayNodes(int region, int count) {
  if (region < 0 || region >= kNumRegions || count < 0) {
    return Status::InvalidArgument("bad region/count");
  }
  if (count >= relay_up_[region]) {
    return Status::InvalidArgument("cannot fail the whole relay group");
  }
  relay_up_[region] -= count;
  ReapplyBackgrounds();
  return Status::OK();
}

Status DeliveryService::RestoreRelayNodes(int region, int count) {
  if (region < 0 || region >= kNumRegions || count < 0 ||
      relay_up_[region] + count > kRelayNodesPerGroup) {
    return Status::InvalidArgument("bad region/count");
  }
  relay_up_[region] += count;
  ReapplyBackgrounds();
  return Status::OK();
}

double DeliveryService::UpFraction(int region) const {
  return static_cast<double>(relay_up_[region]) /
         static_cast<double>(kRelayNodesPerGroup);
}

void DeliveryService::ReapplyBackgrounds() {
  auto apply = [&](int link, double up_fraction) {
    const double effective =
        1.0 - (1.0 - user_background_[link]) * up_fraction;
    net_->SetBackground(link, effective);
  };
  for (int r = 0; r < kNumRegions; ++r) {
    apply(backbone_link_[r], UpFraction(r));
    for (int i = 0; i < kDcsPerRegion; ++i) {
      apply(regional_link_[r][i], UpFraction(r));
    }
    for (int q = 0; q < kNumRegions; ++q) {
      if (q == r) continue;
      apply(interregion_link_[r][q], std::min(UpFraction(r), UpFraction(q)));
    }
  }
}

std::vector<int> DeliveryService::PickPath(int dest, bool* detoured,
                                           bool avoid_direct) const {
  const int region = dest / kDcsPerRegion;
  const int dc_slot = dest % kDcsPerRegion;
  const int last_hop = regional_link_[region][dc_slot];

  auto bottleneck = [&](const std::vector<int>& path) {
    double spare = std::numeric_limits<double>::max();
    for (int link : path) spare = std::min(spare, monitor_->PredictSpare(link));
    return spare;
  };

  std::vector<int> best;
  double best_spare = -1.0;
  bool best_is_detour = false;
  if (!avoid_direct) {
    best = {backbone_link_[region], last_hop};
    best_spare = bottleneck(best);
  }
  for (int via = 0; via < kNumRegions; ++via) {
    if (via == region) continue;
    std::vector<int> candidate = {backbone_link_[via],
                                  interregion_link_[via][region], last_hop};
    const double spare = bottleneck(candidate);
    // A detour must be clearly better to beat the direct path (hysteresis
    // avoids detour flapping on noise); among detours, best spare wins.
    const double threshold = best_is_detour || best.empty()
                                 ? best_spare
                                 : best_spare * 1.25;
    if (spare > threshold) {
      best = candidate;
      best_spare = spare;
      best_is_detour = true;
    }
  }
  if (detoured != nullptr) *detoured = best_is_detour;
  return best;
}

DeliveryReport DeliveryService::DeliverVersion(
    const std::vector<SliceFrame>& summary,
    const std::vector<SliceFrame>& inverted, const SinkFn& sink) {
  DeliveryReport report;
  const uint64_t start_micros = clock_->NowMicros();

  // Build the work list: one Pending per (slice, destination).
  std::vector<Pending> pendings;
  auto enqueue_dataset = [&](const std::vector<SliceFrame>& slices) {
    for (const SliceFrame& slice : slices) {
      for (int dest : DestinationsFor(slice.type)) {
        pendings.push_back(Pending{&slice, dest, 0});
      }
    }
  };
  enqueue_dataset(summary);
  enqueue_dataset(inverted);
  report.deliveries_total = pendings.size();
  if (pendings.empty()) {
    report.completed = true;
    return report;
  }

  // Slices are generated across the window in slice-id order, all copies of
  // a slice at once.
  if (options_.generation_window_seconds > 0) {
    uint64_t min_slice = UINT64_MAX, max_slice = 0;
    for (const Pending& p : pendings) {
      min_slice = std::min(min_slice, p.slice->slice_id);
      max_slice = std::max(max_slice, p.slice->slice_id);
    }
    const double span = static_cast<double>(
        max_slice > min_slice ? max_slice - min_slice : 1);
    for (Pending& p : pendings) {
      p.release_seconds =
          static_cast<double>(p.slice->slice_id - min_slice) / span *
          options_.generation_window_seconds;
    }
  }

  std::vector<std::deque<size_t>> queues(kNumDataCenters);
  for (size_t i = 0; i < pendings.size(); ++i) {
    queues[pendings[i].dest].push_back(i);
  }
  std::vector<int> inflight(kNumDataCenters, 0);
  struct Inflight {
    size_t pending_idx;
    uint64_t start_micros;
    size_t hops;  // Links on the flow's path: 2 direct, 3 via a detour.
  };
  std::map<uint64_t, Inflight> flow_to_pending;
  size_t outstanding = pendings.size();
  double last_arrival_s = 0;
  uint64_t misses = 0;
  double since_monitor = options_.monitor_interval_seconds;  // Sample at t0.

  auto refill = [&]() {
    const double now_s =
        static_cast<double>(clock_->NowMicros() - start_micros) * 1e-6;
    for (int dest = 0; dest < kNumDataCenters; ++dest) {
      while (inflight[dest] < kWindowPerDestination &&
             !queues[dest].empty()) {
        const size_t idx = queues[dest].front();
        if (pendings[idx].release_seconds > now_s) break;  // Not built yet.
        queues[dest].pop_front();
        Pending& p = pendings[idx];
        bool detoured = false;
        // A repaired (previously stuck) transfer avoids the direct channel.
        const bool avoid_direct =
            options_.repair_timeout_seconds > 0 && p.attempts > 0;
        const std::vector<int> path = PickPath(dest, &detoured, avoid_direct);
        if (detoured) ++detours_;
        const int klass = p.slice->type == webindex::IndexType::kSummary
                              ? class_summary_
                              : class_inverted_;
        const uint64_t bytes = p.slice->bytes.size();
        const uint64_t flow = net_->StartFlow(
            path, static_cast<double>(bytes), klass, idx);
        flow_to_pending[flow] = Inflight{idx, clock_->NowMicros(), path.size()};
        ++inflight[dest];
        ++p.attempts;
        report.bytes_transmitted += bytes * path.size();
      }
    }
  };

  double elapsed = 0;
  while (outstanding > 0 && elapsed < options_.max_seconds) {
    if (since_monitor >= options_.monitor_interval_seconds) {
      monitor_->Sample();
      since_monitor = 0;
    }
    refill();
    std::vector<uint64_t> completed;
    net_->Advance(options_.tick_seconds, [&](const net::Flow& flow) {
      completed.push_back(flow.id);
    });
    elapsed += options_.tick_seconds;
    since_monitor += options_.tick_seconds;

    // Repair: abort transfers that have been stuck beyond the timeout and
    // re-request them (a fresh path is picked from current predictions).
    if (options_.repair_timeout_seconds > 0) {
      std::vector<uint64_t> stuck;
      for (const auto& [flow_id, info] : flow_to_pending) {
        const double age =
            static_cast<double>(clock_->NowMicros() - info.start_micros) *
            1e-6;
        if (age > options_.repair_timeout_seconds &&
            net_->FlowBytesLeft(flow_id) > 0) {
          stuck.push_back(flow_id);
        }
      }
      for (uint64_t flow_id : stuck) {
        const Inflight info = flow_to_pending[flow_id];
        if (!net_->CancelFlow(flow_id)) continue;
        flow_to_pending.erase(flow_id);
        Pending& p = pendings[info.pending_idx];
        --inflight[p.dest];
        queues[p.dest].push_front(info.pending_idx);
        ++report.repairs;
      }
    }

    for (uint64_t flow_id : completed) {
      auto it = flow_to_pending.find(flow_id);
      if (it == flow_to_pending.end()) continue;
      const size_t idx = it->second.pending_idx;
      const size_t hops = it->second.hops;
      flow_to_pending.erase(it);
      Pending& p = pendings[idx];
      --inflight[p.dest];

      // Per-hop corruption check: every relay verifies the checksum, so a
      // slice corrupted on any hop it crossed is re-requested from the
      // source.
      bool corrupted = false;
      for (size_t h = 0; h < hops && !corrupted; ++h) {
        corrupted = rng_.Bernoulli(options_.corruption_prob);
      }
      if (corrupted) {
        ++report.retransmissions;
        queues[p.dest].push_front(idx);
        continue;
      }

      const double arrival_s =
          static_cast<double>(clock_->NowMicros() - start_micros) * 1e-6;
      last_arrival_s = std::max(last_arrival_s, arrival_s);
      if (arrival_s - p.release_seconds > options_.miss_deadline_seconds) {
        ++misses;
      }
      if (sink != nullptr) sink(p.dest, *p.slice);
      --outstanding;
    }
  }

  report.completed = outstanding == 0;
  report.update_time_seconds = last_arrival_s;
  report.miss_ratio = report.deliveries_total == 0
                          ? 0.0
                          : static_cast<double>(misses) /
                                static_cast<double>(report.deliveries_total);
  return report;
}

}  // namespace directload::bifrost
