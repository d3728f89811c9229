#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "bifrost/dedup.h"
#include "bifrost/delivery.h"
#include "bifrost/wire/slice_codec.h"
#include "common/hash.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "index/builders.h"
#include "index/corpus.h"
#include "net/fluid_network.h"

namespace directload::bifrost {
namespace {

webindex::CorpusOptions SmallCorpus() {
  webindex::CorpusOptions o;
  o.num_docs = 100;
  o.vocab_size = 1000;
  o.terms_per_doc = 10;
  o.abstract_bytes = 1024;
  o.seed = 3;
  return o;
}

// ---------------------------------------------------------------------------
// Deduplication
// ---------------------------------------------------------------------------

TEST(DedupTest, FirstVersionShipsEverything) {
  webindex::Corpus corpus(SmallCorpus());
  Deduplicator dedup;
  DedupStats stats;
  std::vector<ShippedPair> shipped =
      dedup.Process(webindex::BuildSummaryIndex(corpus), &stats);
  EXPECT_EQ(stats.pairs_deduped, 0u);
  EXPECT_EQ(stats.bytes_shipped, stats.bytes_total);
  EXPECT_DOUBLE_EQ(stats.dedup_ratio(), 0.0);
  for (const ShippedPair& pair : shipped) EXPECT_FALSE(pair.dedup);
}

TEST(DedupTest, UnchangedValuesAreStripped) {
  webindex::Corpus corpus(SmallCorpus());
  Deduplicator dedup;
  dedup.Process(webindex::BuildSummaryIndex(corpus), nullptr);
  corpus.AdvanceVersionWithChangeRate(0.0);  // Nothing changed.
  DedupStats stats;
  std::vector<ShippedPair> shipped =
      dedup.Process(webindex::BuildSummaryIndex(corpus), &stats);
  EXPECT_EQ(stats.pairs_deduped, stats.pairs_total);
  for (const ShippedPair& pair : shipped) {
    EXPECT_TRUE(pair.dedup);
    EXPECT_TRUE(pair.value.empty());
  }
  // Only keys ship: the bytes saved are nearly everything.
  EXPECT_GT(stats.dedup_ratio(), 0.9);
}

TEST(DedupTest, RatioTracksChangeRate) {
  webindex::Corpus corpus(SmallCorpus());
  Deduplicator dedup;
  dedup.Process(webindex::BuildSummaryIndex(corpus), nullptr);
  corpus.AdvanceVersionWithChangeRate(0.3);  // Paper's ~70% unchanged.
  DedupStats stats;
  dedup.Process(webindex::BuildSummaryIndex(corpus), &stats);
  const double deduped_fraction =
      static_cast<double>(stats.pairs_deduped) /
      static_cast<double>(stats.pairs_total);
  EXPECT_NEAR(deduped_fraction, 0.7, 0.12);
  EXPECT_GT(stats.dedup_ratio(), 0.4);
}

TEST(DedupTest, DisabledPassesThrough) {
  webindex::Corpus corpus(SmallCorpus());
  Deduplicator dedup(/*enabled=*/false);
  dedup.Process(webindex::BuildSummaryIndex(corpus), nullptr);
  corpus.AdvanceVersionWithChangeRate(0.0);
  DedupStats stats;
  dedup.Process(webindex::BuildSummaryIndex(corpus), &stats);
  EXPECT_EQ(stats.pairs_deduped, 0u);
  EXPECT_EQ(stats.bytes_shipped, stats.bytes_total);
}

TEST(DedupTest, ChangedValueShipsAgainAfterDedup) {
  webindex::IndexDataset v1;
  v1.version = 1;
  v1.pairs.push_back(webindex::KvPair{"k", "value-a"});
  webindex::IndexDataset v2 = v1;
  v2.version = 2;
  webindex::IndexDataset v3;
  v3.version = 3;
  v3.pairs.push_back(webindex::KvPair{"k", "value-b"});

  Deduplicator dedup;
  dedup.Process(v1, nullptr);
  std::vector<ShippedPair> s2 = dedup.Process(v2, nullptr);
  ASSERT_EQ(s2.size(), 1u);
  EXPECT_TRUE(s2[0].dedup);
  std::vector<ShippedPair> s3 = dedup.Process(v3, nullptr);
  ASSERT_EQ(s3.size(), 1u);
  EXPECT_FALSE(s3[0].dedup);
  EXPECT_EQ(s3[0].value, "value-b");
}

// Pins the dedup decisions and stats over a version sequence that covers new,
// changed, unchanged and changed-back values, an empty value, a value that
// only grows a trailing NUL, and the disabled baseline. The expected figures
// are those of the byte-at-a-time FNV signature the pass used before.
TEST(DedupTest, VersionSequenceDecisionsAndStatsArePinned) {
  auto dataset = [](uint64_t version,
                    std::vector<std::pair<std::string, std::string>> kvs) {
    webindex::IndexDataset d;
    d.version = version;
    for (auto& [k, v] : kvs) d.pairs.push_back(webindex::KvPair{k, v});
    return d;
  };
  const std::string nul("x\0", 2);
  const webindex::IndexDataset v1 = dataset(
      1, {{"k:a", "alpha"}, {"k:b", "bravo-1"}, {"k:c", std::string(100, 'c')},
          {"k:d", "delta"}, {"k:empty", ""}, {"k:nul", "x"}});
  const webindex::IndexDataset v2 = dataset(
      2, {{"k:a", "alpha"}, {"k:b", "bravo-2"}, {"k:c", std::string(100, 'c')},
          {"k:d", "delta-2"}, {"k:e", "echo"}, {"k:empty", ""},
          {"k:nul", nul}});
  const webindex::IndexDataset v3 = dataset(
      3, {{"k:a", "alpha"}, {"k:b", "bravo-1"},  // b changed back to v1's.
          {"k:c", std::string(99, 'c') + "C"}, {"k:d", "delta-2"},
          {"k:e", "echo"}, {"k:empty", ""}, {"k:nul", nul}});

  struct Expected {
    std::vector<bool> dedup;
    uint64_t pairs_deduped, bytes_total, bytes_shipped;
  };
  auto check = [](const std::vector<ShippedPair>& shipped,
                  const webindex::IndexDataset& in, const DedupStats& stats,
                  const Expected& want) {
    ASSERT_EQ(shipped.size(), want.dedup.size());
    for (size_t i = 0; i < shipped.size(); ++i) {
      EXPECT_EQ(shipped[i].dedup, want.dedup[i]) << in.pairs[i].key;
      EXPECT_EQ(shipped[i].key, in.pairs[i].key);
      EXPECT_EQ(shipped[i].value,
                want.dedup[i] ? std::string() : in.pairs[i].value);
    }
    EXPECT_EQ(stats.pairs_total, want.dedup.size());
    EXPECT_EQ(stats.pairs_deduped, want.pairs_deduped);
    EXPECT_EQ(stats.bytes_total, want.bytes_total);
    EXPECT_EQ(stats.bytes_shipped, want.bytes_shipped);
  };

  Deduplicator dedup;
  DedupStats s1, s2, s3, off_stats;
  check(dedup.Process(v1, &s1), v1, s1, {{0, 0, 0, 0, 0, 0}, 0, 142, 142});
  check(dedup.Process(v2, &s2), v2, s2, {{1, 0, 1, 0, 0, 1, 0}, 3, 152, 47});
  check(dedup.Process(v3, &s3), v3, s3,
        {{1, 0, 0, 1, 1, 1, 1}, 5, 152, 134});
  EXPECT_EQ(dedup.tracked_keys(), 7u);

  Deduplicator off(/*enabled=*/false);
  off.Process(v1, nullptr);
  check(off.Process(v3, &off_stats), v3, off_stats,
        {{0, 0, 0, 0, 0, 0, 0}, 0, 152, 152});
  EXPECT_EQ(off.tracked_keys(), 0u);

  // Stats accumulate across calls.
  DedupStats total;
  Deduplicator again;
  again.Process(v1, &total);
  again.Process(v2, &total);
  EXPECT_EQ(total.pairs_total, 13u);
  EXPECT_EQ(total.pairs_deduped, 3u);
  EXPECT_EQ(total.bytes_total, 294u);
  EXPECT_EQ(total.bytes_shipped, 189u);
}

TEST(ValueSignatureTest, EverySingleBitFlipChangesTheSignature) {
  Random rnd(11);
  for (size_t n = 0; n <= 80; ++n) {
    std::string value = rnd.NextString(n);
    const uint64_t base = ValueSignature(value);
    for (size_t offset = 0; offset < n; ++offset) {
      for (int bit = 0; bit < 8; ++bit) {
        value[offset] ^= static_cast<char>(1 << bit);
        EXPECT_NE(ValueSignature(value), base)
            << "length " << n << " offset " << offset << " bit " << bit;
        value[offset] ^= static_cast<char>(1 << bit);
      }
    }
  }
}

TEST(ValueSignatureTest, LengthIsPartOfTheSignature) {
  EXPECT_NE(ValueSignature(Slice("a", 1)), ValueSignature(Slice("a\0", 2)));
  EXPECT_NE(ValueSignature(Slice("", 0)), ValueSignature(Slice("\0", 1)));
  const std::string zeros(16, '\0');
  EXPECT_NE(ValueSignature(Slice(zeros.data(), 8)),
            ValueSignature(Slice(zeros.data(), 16)));
}

TEST(ValueSignatureTest, SameBytesAtAnyAlignmentSignTheSame) {
  Random rnd(12);
  for (size_t n : {0, 1, 7, 8, 9, 63, 400}) {
    const std::string value = rnd.NextString(n);
    const uint64_t expected = ValueSignature(value);
    for (size_t shift = 1; shift < 8; ++shift) {
      std::string buffer(shift, '#');
      buffer += value;
      EXPECT_EQ(ValueSignature(Slice(buffer.data() + shift, n)), expected)
          << "length " << n << " shift " << shift;
    }
  }
}

// ---------------------------------------------------------------------------
// Slicing
// ---------------------------------------------------------------------------

std::vector<ShippedPair> SamplePairs(int n) {
  std::vector<ShippedPair> pairs;
  for (int i = 0; i < n; ++i) {
    ShippedPair p;
    p.key = "key" + std::to_string(i);
    p.dedup = i % 3 == 0;
    if (!p.dedup) p.value = std::string(500, static_cast<char>('a' + i % 26));
    pairs.push_back(std::move(p));
  }
  return pairs;
}

/// Cuts and encodes `pairs` into wire slice frames of `version`, ids from
/// `first_slice_id`.
std::vector<SliceFrame> Frames(const std::vector<ShippedPair>& pairs,
                               webindex::IndexType type, uint64_t version,
                               uint64_t slice_bytes,
                               uint64_t first_slice_id = 0) {
  const std::vector<wire::BulkDelete> no_deletes;
  std::vector<SliceFrame> frames;
  EncodeSliceFrames({type, &pairs, &no_deletes}, version, slice_bytes,
                    &first_slice_id, &frames);
  return frames;
}

TEST(SlicerTest, PackUnpackRoundTrip) {
  const std::vector<ShippedPair> pairs = SamplePairs(50);
  const std::vector<SliceFrame> slices =
      Frames(pairs, webindex::IndexType::kSummary, 7, /*slice_bytes=*/4096);
  EXPECT_GT(slices.size(), 1u);
  std::vector<qindb::IngestOp> unpacked;
  std::vector<ShippedPair> all;
  for (const SliceFrame& slice : slices) {
    wire::SliceHeader header;
    ASSERT_TRUE(wire::DecodeSlicePacket(slice.bytes, &header, &unpacked).ok());
    EXPECT_EQ(header.slice_id, slice.slice_id);
    EXPECT_EQ(header.version, 7u);
    EXPECT_EQ(header.type, webindex::IndexType::kSummary);
    EXPECT_EQ(slice.type, webindex::IndexType::kSummary);
    for (const qindb::IngestOp& op : unpacked) {
      EXPECT_EQ(op.version, 7u);
      EXPECT_FALSE(op.tombstone);
      all.push_back(ShippedPair{op.key.ToString(), op.value.ToString(),
                                op.dedup});
    }
  }
  ASSERT_EQ(all.size(), pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(all[i].key, pairs[i].key);
    EXPECT_EQ(all[i].value, pairs[i].value);
    EXPECT_EQ(all[i].dedup, pairs[i].dedup);
  }
}

TEST(SlicerTest, SliceIdsAreSequential) {
  const std::vector<SliceFrame> slices =
      Frames(SamplePairs(50), webindex::IndexType::kInverted, 1, 4096,
             /*first_slice_id=*/100);
  ASSERT_GT(slices.size(), 1u);
  for (size_t i = 0; i < slices.size(); ++i) {
    EXPECT_EQ(slices[i].slice_id, 100 + i);
    wire::SliceHeader header;
    ASSERT_TRUE(wire::CheckSliceFrame(slices[i].bytes, &header).ok());
    EXPECT_EQ(header.slice_id, 100 + i);
  }
}

TEST(SlicerTest, CorruptionDetectedByChecksum) {
  std::vector<SliceFrame> slices =
      Frames(SamplePairs(10), webindex::IndexType::kSummary, 1, 1 << 20);
  ASSERT_EQ(slices.size(), 1u);
  Random rng(1);
  std::string& bytes = slices[0].bytes;
  const size_t pos = rng.Uniform(bytes.size());
  bytes[pos] = static_cast<char>(bytes[pos] ^ 0x20);
  wire::SliceHeader header;
  EXPECT_TRUE(wire::CheckSliceFrame(bytes, &header).IsCorruption());
  std::vector<qindb::IngestOp> pairs;
  EXPECT_TRUE(wire::DecodeSlicePacket(bytes, &header, &pairs).IsCorruption());
}

TEST(SlicerTest, EmptyInputYieldsNoSlices) {
  EXPECT_TRUE(Frames({}, webindex::IndexType::kSummary, 1, 4096).empty());
}

// ---------------------------------------------------------------------------
// Delivery
// ---------------------------------------------------------------------------

TEST(DeliveryTest, DestinationsMatchPaperLayout) {
  // Inverted: all six data centers. Summary: one per region (three).
  EXPECT_EQ(DestinationsFor(webindex::IndexType::kInverted).size(), 6u);
  EXPECT_EQ(DestinationsFor(webindex::IndexType::kSummary),
            (std::vector<int>{0, 2, 4}));
}

DeliveryOptions FastDelivery() {
  DeliveryOptions o;
  o.backbone_bytes_per_sec = 50e6;
  o.interregion_bytes_per_sec = 30e6;
  o.regional_bytes_per_sec = 100e6;
  o.tick_seconds = 0.1;
  return o;
}

TEST(DeliveryTest, DeliversEverySliceToEveryDestination) {
  SimClock clock;
  DeliveryService service(&clock, FastDelivery());
  const std::vector<SliceFrame> summary =
      Frames(SamplePairs(40), webindex::IndexType::kSummary, 1, 8192);
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(40), webindex::IndexType::kInverted, 1, 8192);

  std::map<int, int> arrivals;  // dc -> count
  DeliveryReport report = service.DeliverVersion(
      summary, inverted,
      [&](int dc, const SliceFrame& slice) {
        wire::SliceHeader header;
        EXPECT_TRUE(wire::CheckSliceFrame(slice.bytes, &header).ok());
        ++arrivals[dc];
      });
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(report.deliveries_total,
            summary.size() * 3 + inverted.size() * 6);
  EXPECT_EQ(report.retransmissions, 0u);
  EXPECT_GT(report.update_time_seconds, 0.0);
  EXPECT_EQ(report.miss_ratio, 0.0);
  // All six DCs got inverted slices; summary only at DCs 0, 2, 4.
  for (int dc = 0; dc < kNumDataCenters; ++dc) {
    const int expected = static_cast<int>(inverted.size()) +
                         (dc % 2 == 0 ? static_cast<int>(summary.size()) : 0);
    EXPECT_EQ(arrivals[dc], expected) << "dc " << dc;
  }
}

TEST(DeliveryTest, CorruptionCausesRetransmissionButStillCompletes) {
  SimClock clock;
  DeliveryOptions options = FastDelivery();
  options.corruption_prob = 0.1;
  DeliveryService service(&clock, options);
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(40), webindex::IndexType::kInverted, 1, 8192);
  DeliveryReport report = service.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.retransmissions, 0u);
  EXPECT_EQ(report.miss_ratio, 0.0);
}

TEST(DeliveryTest, CongestedBackboneTriggersDetours) {
  SimClock clock;
  DeliveryOptions options = FastDelivery();
  options.monitor_interval_seconds = 0.2;
  DeliveryService service(&clock, options);
  // Region 0's backbone is nearly saturated by other traffic; the monitor
  // should route region-0-bound slices through another relay group.
  service.SetBackboneBackground(0, 0.95);
  // Warm the monitor so predictions reflect the congestion.
  const std::vector<SliceFrame> warmup =
      Frames(SamplePairs(10), webindex::IndexType::kInverted, 1, 8192);
  service.DeliverVersion({}, warmup, nullptr);
  const uint64_t detours_before = service.detours();
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(60), webindex::IndexType::kInverted, 2, 8192);
  DeliveryReport report = service.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(service.detours(), detours_before);
}

// Every relay re-verifies the checksum, so a slice is exposed to corruption
// once per hop it crosses: two on the direct path, three on a detour. The
// topology cannot detour every slice — the region with the most spare
// backbone always goes direct — so region 0's backbone is congested and the
// monitor samples only once, before any flow starts: every transfer bound
// for region 0 detours and every other goes direct. The observed
// retransmissions are held against the per-hop expectation over the
// attempts actually made.
TEST(DeliveryTest, DetouredSlicesDrawCorruptionOnEveryHop) {
  constexpr double kCorruption = 0.5;
  SimClock clock;
  DeliveryOptions options = FastDelivery();
  options.monitor_interval_seconds = 1e9;
  options.corruption_prob = kCorruption;
  options.seed = 23;
  DeliveryService service(&clock, options);
  service.SetBackboneBackground(0, 0.95);
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(1000), webindex::IndexType::kInverted, 2, 1024);
  DeliveryReport report = service.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(report.completed);

  // Every attempt completes (no repair), so attempts = deliveries + resends.
  const double attempts =
      static_cast<double>(report.deliveries_total + report.retransmissions);
  const double detoured = static_cast<double>(service.detours());
  // Region 0 holds a third of the destinations, and its slices need more
  // attempts than the others.
  ASSERT_GT(detoured, attempts / 3);
  const double direct_loss = 1 - (1 - kCorruption) * (1 - kCorruption);
  const double detour_loss = 1 - std::pow(1 - kCorruption, 3);
  const double per_hop =
      detoured * detour_loss + (attempts - detoured) * direct_loss;
  const double two_hops_only = attempts * direct_loss;
  const double sd = std::sqrt(attempts * direct_loss * (1 - direct_loss));
  ASSERT_GT(per_hop - two_hops_only, 8 * sd);  // The check can tell them apart.
  EXPECT_NEAR(static_cast<double>(report.retransmissions), per_hop, 4 * sd);
}

TEST(DeliveryTest, MoreDataTakesLonger) {
  SimClock clock1, clock2;
  DeliveryService small_service(&clock1, FastDelivery());
  DeliveryService large_service(&clock2, FastDelivery());
  const std::vector<SliceFrame> small =
      Frames(SamplePairs(20), webindex::IndexType::kInverted, 1, 8192);
  const std::vector<SliceFrame> large =
      Frames(SamplePairs(200), webindex::IndexType::kInverted, 1, 8192);
  DeliveryReport rs = small_service.DeliverVersion({}, small, nullptr);
  DeliveryReport rl = large_service.DeliverVersion({}, large, nullptr);
  ASSERT_TRUE(rs.completed);
  ASSERT_TRUE(rl.completed);
  EXPECT_GT(rl.update_time_seconds, rs.update_time_seconds);
}

TEST(DeliveryTest, RelayNodeFailuresShrinkGroupBandwidth) {
  SimClock clock;
  DeliveryService service(&clock, FastDelivery());
  EXPECT_EQ(service.relay_nodes_up(0), 24);
  const double before = service.network().link(0).available();
  // Half of region 0's relay group dies.
  ASSERT_TRUE(service.FailRelayNodes(0, 12).ok());
  EXPECT_EQ(service.relay_nodes_up(0), 12);
  const double after = service.network().link(0).available();
  EXPECT_NEAR(after, before / 2, before * 0.01);
  // Restore them; capacity returns.
  ASSERT_TRUE(service.RestoreRelayNodes(0, 12).ok());
  EXPECT_NEAR(service.network().link(0).available(), before, before * 0.01);
  // Sanity on the guards.
  EXPECT_TRUE(service.FailRelayNodes(0, 24).IsInvalidArgument());
  EXPECT_TRUE(service.RestoreRelayNodes(0, 1).IsInvalidArgument());
  EXPECT_TRUE(service.FailRelayNodes(9, 1).IsInvalidArgument());
}

TEST(DeliveryTest, RelayFailuresComposeWithBackgroundLoad) {
  SimClock clock;
  DeliveryService service(&clock, FastDelivery());
  const double capacity = service.network().link(0).capacity_bytes_per_sec;
  ASSERT_TRUE(service.FailRelayNodes(0, 12).ok());  // 50% derating.
  service.SetBackboneBackground(0, 0.5);            // Plus 50% load.
  EXPECT_NEAR(service.network().link(0).available(), capacity * 0.25,
              capacity * 0.01);
}

TEST(DeliveryTest, RelayFailuresSlowDeliveryToThatRegion) {
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(200), webindex::IndexType::kInverted, 1, 8192);
  DeliveryOptions options = FastDelivery();
  // Slow enough that transfers span many ticks, so derating is measurable.
  options.backbone_bytes_per_sec = 200e3;
  options.interregion_bytes_per_sec = 120e3;
  options.regional_bytes_per_sec = 800e3;
  SimClock c1, c2;
  DeliveryService healthy(&c1, options);
  DeliveryService degraded(&c2, options);
  // Most of every relay group fails: no healthy detour exists.
  for (int r = 0; r < kNumRegions; ++r) {
    ASSERT_TRUE(degraded.FailRelayNodes(r, 18).ok());
  }
  DeliveryReport fast = healthy.DeliverVersion({}, inverted, nullptr);
  DeliveryReport slow = degraded.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(fast.completed);
  ASSERT_TRUE(slow.completed);
  EXPECT_GT(slow.update_time_seconds, 2 * fast.update_time_seconds);
}

TEST(DeliveryTest, GenerationWindowStaggersArrivals) {
  SimClock clock;
  DeliveryOptions options = FastDelivery();
  options.generation_window_seconds = 10.0;
  DeliveryService service(&clock, options);
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(40), webindex::IndexType::kInverted, 1, 8192);
  DeliveryReport report = service.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(report.completed);
  // Even on a fast network the last slice cannot arrive before it was
  // generated at the end of the window.
  EXPECT_GE(report.update_time_seconds, 9.0);
}

TEST(NetCancelTest, CancelledFlowNeverCompletes) {
  SimClock clock;
  net::FluidNetwork fluid(&clock);
  const int a = fluid.AddNode("a");
  const int b = fluid.AddNode("b");
  const int link = fluid.AddLink(a, b, 1000.0);
  const uint64_t id = fluid.StartFlow({link}, 5000.0, 0);
  fluid.Advance(1.0, nullptr);
  EXPECT_NEAR(fluid.FlowBytesLeft(id), 4000.0, 1.0);
  EXPECT_TRUE(fluid.CancelFlow(id));
  EXPECT_FALSE(fluid.CancelFlow(id));  // Not cancellable twice.
  int completions = 0;
  fluid.AdvanceUntilIdle(60.0, 1.0, [&](const net::Flow&) { ++completions; });
  EXPECT_EQ(completions, 0);
  EXPECT_EQ(fluid.active_flows(), 0u);
}

TEST(DeliveryTest, StuckTransfersAreRepairedAndStillComplete) {
  SimClock clock;
  DeliveryOptions options = FastDelivery();
  options.backbone_bytes_per_sec = 50e3;
  options.interregion_bytes_per_sec = 50e3;
  options.regional_bytes_per_sec = 200e3;
  // The monitor is stale (it never re-samples within the run), so the
  // scheduler keeps picking the direct path even though region 0's backbone
  // is almost dead — exactly the situation the repair timeout exists for.
  options.monitor_interval_seconds = 1e9;
  options.repair_timeout_seconds = 2.0;
  DeliveryService service(&clock, options);
  service.network().SetBackground(0, 0.0);  // Seed spare snapshots fresh...
  DeliveryReport warmup = service.DeliverVersion(
      {}, Frames(SamplePairs(2), webindex::IndexType::kInverted, 9, 16384),
      nullptr);
  ASSERT_TRUE(warmup.completed);  // ...so predictions now say "all healthy".
  // Region 0's backbone collapses: direct transfers to region 0 stall past
  // the repair timeout, get aborted, and the re-requests detour.
  service.network().SetBackground(0, 0.995);
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(40), webindex::IndexType::kInverted, 1, 16384);
  DeliveryReport report = service.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.repairs, 0u);
  EXPECT_EQ(report.deliveries_total, inverted.size() * 6);
}

TEST(DeliveryTest, EmptyVersionCompletesInstantly) {
  SimClock clock;
  DeliveryService service(&clock, FastDelivery());
  DeliveryReport report = service.DeliverVersion({}, {}, nullptr);
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.deliveries_total, 0u);
  EXPECT_EQ(report.update_time_seconds, 0.0);
}

TEST(DeliveryTest, BytesTransmittedScaleWithHopsAndDestinations) {
  SimClock clock;
  DeliveryService service(&clock, FastDelivery());
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(20), webindex::IndexType::kInverted, 1, 1 << 20);
  uint64_t slice_bytes = 0;
  for (const SliceFrame& s : inverted) slice_bytes += s.bytes.size();
  DeliveryReport report = service.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(report.completed);
  // 6 destinations x at least 2 hops each.
  EXPECT_GE(report.bytes_transmitted, slice_bytes * 6 * 2);
  EXPECT_LE(report.bytes_transmitted, slice_bytes * 6 * 3);
}

TEST(DeliveryTest, MissRatioReflectsDeadline) {
  SimClock clock;
  DeliveryOptions options = FastDelivery();
  options.miss_deadline_seconds = 0.05;  // Absurdly tight: everything late.
  DeliveryService service(&clock, options);
  const std::vector<SliceFrame> inverted =
      Frames(SamplePairs(40), webindex::IndexType::kInverted, 1, 8192);
  DeliveryReport report = service.DeliverVersion({}, inverted, nullptr);
  ASSERT_TRUE(report.completed);
  EXPECT_GT(report.miss_ratio, 0.5);
}

}  // namespace
}  // namespace directload::bifrost
