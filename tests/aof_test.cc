#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aof/aof_manager.h"
#include "aof/record.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "ssd/env.h"

namespace directload::aof {
namespace {

ssd::Geometry SmallGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 512;  // 16 MiB device.
  return g;
}

class AofTest : public ::testing::Test {
 protected:
  AofTest()
      : env_(NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock_)) {}

  std::unique_ptr<AofManager> OpenManager(uint64_t segment_bytes = 256 << 10) {
    AofOptions options;
    options.segment_bytes = segment_bytes;
    auto mgr = AofManager::Open(env_.get(), options);
    EXPECT_TRUE(mgr.ok()) << mgr.status().ToString();
    return std::move(mgr).value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

// ---------------------------------------------------------------------------
// Record format
// ---------------------------------------------------------------------------

TEST(RecordTest, EncodeDecodeRoundTrip) {
  std::string buf;
  EncodeRecord("the-key", 42, kFlagDedup, "the-value", &buf);
  EXPECT_EQ(buf.size(), RecordExtent(7, 9));
  RecordView view;
  ASSERT_TRUE(DecodeRecord(buf, &view).ok());
  EXPECT_EQ(view.key.ToString(), "the-key");
  EXPECT_EQ(view.value.ToString(), "the-value");
  EXPECT_EQ(view.header.version, 42u);
  EXPECT_TRUE(view.is_dedup());
  EXPECT_FALSE(view.is_tombstone());
}

TEST(RecordTest, EmptyValue) {
  std::string buf;
  EncodeRecord("k", 1, kFlagNone, Slice(), &buf);
  RecordView view;
  ASSERT_TRUE(DecodeRecord(buf, &view).ok());
  EXPECT_TRUE(view.value.empty());
}

TEST(RecordTest, CorruptionDetected) {
  std::string buf;
  EncodeRecord("key", 7, kFlagNone, "value", &buf);
  for (size_t i = 0; i < buf.size(); i += 3) {
    std::string mutated = buf;
    mutated[i] ^= 0x40;
    RecordView view;
    EXPECT_TRUE(DecodeRecord(mutated, &view).IsCorruption()) << "byte " << i;
  }
}

TEST(RecordTest, TruncationDetected) {
  std::string buf;
  EncodeRecord("key", 7, kFlagNone, "value", &buf);
  RecordView view;
  EXPECT_TRUE(DecodeRecord(Slice(buf.data(), buf.size() - 1), &view)
                  .IsCorruption());
  EXPECT_TRUE(DecodeRecord(Slice(buf.data(), 5), &view).IsCorruption());
}

TEST(RecordTest, AddressPacking) {
  RecordAddress a{123, 456789};
  EXPECT_EQ(RecordAddress::Unpack(a.Pack()), a);
  RecordAddress max{UINT32_MAX, UINT32_MAX};
  EXPECT_EQ(RecordAddress::Unpack(max.Pack()), max);
}

// ---------------------------------------------------------------------------
// Manager: append / read
// ---------------------------------------------------------------------------

TEST_F(AofTest, AppendAndReadBack) {
  auto mgr = OpenManager();
  Result<RecordAddress> addr = mgr->AppendRecord("k1", 1, kFlagNone, "v1");
  ASSERT_TRUE(addr.ok());
  RecordView view;
  // Immediately readable, even though the page has not flushed yet.
  ASSERT_TRUE(mgr->ReadRecord(*addr, 0, &view).ok());
  EXPECT_EQ(view.key.ToString(), "k1");
  EXPECT_EQ(view.value.ToString(), "v1");
  // With an extent hint as the engine uses it.
  ASSERT_TRUE(mgr->ReadRecord(*addr, RecordExtent(2, 2), &view).ok());
  EXPECT_EQ(view.value.ToString(), "v1");
}

TEST_F(AofTest, ReadStraddlesPersistedBoundary) {
  auto mgr = OpenManager();
  Random rnd(3);
  // First record flushes a few pages; second sits partially in the tail.
  const std::string v1 = rnd.NextString(4096 * 2 + 100);
  const std::string v2 = rnd.NextString(300);
  Result<RecordAddress> a1 = mgr->AppendRecord("a", 1, kFlagNone, v1);
  Result<RecordAddress> a2 = mgr->AppendRecord("b", 1, kFlagNone, v2);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  RecordView view;
  ASSERT_TRUE(mgr->ReadRecord(*a2, 0, &view).ok());
  EXPECT_EQ(view.value.ToString(), v2);
  ASSERT_TRUE(mgr->ReadRecord(*a1, 0, &view).ok());
  EXPECT_EQ(view.value.ToString(), v1);
}

TEST_F(AofTest, SegmentsRollAtCapacity) {
  auto mgr = OpenManager(/*segment_bytes=*/64 << 10);
  Random rnd(4);
  std::vector<std::pair<RecordAddress, std::string>> written;
  for (int i = 0; i < 40; ++i) {
    const std::string value = rnd.NextString(4000);
    Result<RecordAddress> addr =
        mgr->AppendRecord("key" + std::to_string(i), 1, kFlagNone, value);
    ASSERT_TRUE(addr.ok());
    written.emplace_back(*addr, value);
  }
  EXPECT_GT(mgr->segment_count(), 2u);
  for (const auto& [addr, value] : written) {
    RecordView view;
    ASSERT_TRUE(mgr->ReadRecord(addr, 0, &view).ok());
    EXPECT_EQ(view.value.ToString(), value);
  }
}

TEST_F(AofTest, OversizedRecordRejected) {
  auto mgr = OpenManager(/*segment_bytes=*/4096);
  const std::string big(8192, 'x');
  EXPECT_TRUE(
      mgr->AppendRecord("k", 1, kFlagNone, big).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Occupancy and GC victims
// ---------------------------------------------------------------------------

TEST_F(AofTest, OccupancyTracksDeadBytes) {
  auto mgr = OpenManager(/*segment_bytes=*/64 << 10);
  Result<RecordAddress> addr = mgr->AppendRecord("k", 1, kFlagNone,
                                                 std::string(1000, 'v'));
  ASSERT_TRUE(addr.ok());
  const double before = mgr->Occupancy(addr->segment_id);
  EXPECT_GT(before, 0.0);
  mgr->MarkDead(*addr, RecordExtent(1, 1000));
  EXPECT_LT(mgr->Occupancy(addr->segment_id), before);
  EXPECT_EQ(mgr->Occupancy(addr->segment_id), 0.0);
}

TEST_F(AofTest, AppendManyMidBatchFailureRollsBackOccupancy) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  // 8 KiB segments with ~3 KiB records: the first two ops fill segment 0 as
  // one run, then the roll to segment 1 hits an armed seal failure. The
  // first run is durably on device, but the caller applies nothing from a
  // failed AppendMany — its bytes must not stay counted live.
  auto mgr = OpenManager(/*segment_bytes=*/8 << 10);
  const std::string value(3 << 10, 'v');
  std::vector<std::string> keys;
  std::vector<AofManager::AppendOp> ops;
  for (int i = 0; i < 4; ++i) keys.push_back("key-" + std::to_string(i));
  for (int i = 0; i < 4; ++i) {
    AofManager::AppendOp op;
    op.key = keys[i];
    op.version = static_cast<uint64_t>(i + 1);
    op.value = value;
    ops.push_back(op);
  }
  auto& reg = failpoint::Registry::Instance();
  ASSERT_TRUE(reg.Activate("aof_seal_before_close", "1*return(io)").ok());
  std::vector<RecordAddress> addresses;
  Status s = mgr->AppendMany(ops.data(), ops.size(), &addresses);
  reg.DeactivateAll();
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(addresses.empty());

  // Segment 0 still accounts the durable record bytes, but none are live:
  // occupancy reflects only records the caller actually indexed.
  auto metas = mgr->SegmentMetas();
  ASSERT_EQ(metas.count(0), 1u);
  EXPECT_GT(metas[0].total_bytes, 0u);
  EXPECT_EQ(metas[0].live_bytes, 0u);
  EXPECT_EQ(mgr->LiveBytes(), 0u);
  EXPECT_EQ(mgr->Occupancy(0), 0.0);

  // The manager stays usable: a later append succeeds and counts live.
  ASSERT_TRUE(mgr->AppendRecord("after", 9, kFlagNone, "v").ok());
  EXPECT_GT(mgr->LiveBytes(), 0u);
}

TEST_F(AofTest, VictimsAreSealedLowOccupancySegments) {
  auto mgr = OpenManager(/*segment_bytes=*/32 << 10);
  std::vector<RecordAddress> addrs;
  for (int i = 0; i < 30; ++i) {
    Result<RecordAddress> addr = mgr->AppendRecord(
        "key" + std::to_string(i), 1, kFlagNone, std::string(3000, 'v'));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  EXPECT_TRUE(mgr->GcVictims().empty());
  // Kill everything in the first segment.
  const uint32_t victim = addrs.front().segment_id;
  for (const RecordAddress& addr : addrs) {
    if (addr.segment_id == victim) {
      mgr->MarkDead(addr, RecordExtent(5, 3000));
    }
  }
  const std::vector<uint32_t> victims = mgr->GcVictims();
  ASSERT_EQ(victims.size(), 1u);
  EXPECT_EQ(victims[0], victim);
  // The active segment is never a victim even when empty-ish.
  EXPECT_NE(victims[0], mgr->active_segment());
}

TEST_F(AofTest, CollectSegmentRelocatesAndErases) {
  auto mgr = OpenManager(/*segment_bytes=*/32 << 10);
  std::vector<RecordAddress> addrs;
  for (int i = 0; i < 20; ++i) {
    Result<RecordAddress> addr = mgr->AppendRecord(
        "key" + std::to_string(i), 1, kFlagNone, std::string(3000, 'a' + i % 26));
    ASSERT_TRUE(addr.ok());
    addrs.push_back(*addr);
  }
  const uint32_t victim = addrs.front().segment_id;

  std::map<uint32_t, RecordAddress> relocated;  // old offset -> new addr
  size_t dropped = 0;
  Status s = mgr->CollectSegment(
      victim,
      [](const RecordAddress&, const RecordView& rec, uint8_t*) {
        // Keep even-numbered keys.
        return (rec.key.ToString().back() - '0') % 2 == 0;
      },
      [&](const RecordAddress& old_addr, const RecordAddress& new_addr,
          const RecordView&) { relocated[old_addr.offset] = new_addr; },
      [&](const RecordAddress&, const RecordView&) { ++dropped; });
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_GT(relocated.size(), 0u);
  EXPECT_GT(dropped, 0u);
  EXPECT_FALSE(env_->FileExists("aof_00000000.dat"));  // Victim erased.
  // Relocated records are readable at their new addresses with intact data.
  for (const auto& [old_offset, new_addr] : relocated) {
    RecordView view;
    ASSERT_TRUE(mgr->ReadRecord(new_addr, 0, &view).ok());
    EXPECT_EQ((view.key.ToString().back() - '0') % 2, 0);
  }
  EXPECT_EQ(mgr->gc_stats().segments_reclaimed, 1u);
  EXPECT_EQ(mgr->gc_stats().records_dropped, dropped);
}

TEST_F(AofTest, CollectActiveSegmentRejected) {
  auto mgr = OpenManager();
  ASSERT_TRUE(mgr->AppendRecord("k", 1, kFlagNone, "v").ok());
  EXPECT_TRUE(mgr->CollectSegment(
                     mgr->active_segment(),
                     [](const RecordAddress&, const RecordView&, uint8_t*) {
                       return true;
                     },
                     [](const RecordAddress&, const RecordAddress&,
                        const RecordView&) {},
                     [](const RecordAddress&, const RecordView&) {})
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// Scan / recovery
// ---------------------------------------------------------------------------

TEST_F(AofTest, ScanYieldsAllRecordsInOrder) {
  auto mgr = OpenManager(/*segment_bytes=*/32 << 10);
  std::vector<std::string> keys;
  for (int i = 0; i < 25; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(
        mgr->AppendRecord(key, i, kFlagNone, std::string(2000, 'v')).ok());
    keys.push_back(key);
  }
  std::vector<std::string> seen;
  ASSERT_TRUE(mgr->Scan([&](const RecordAddress&, const RecordView& rec) {
                    seen.push_back(rec.key.ToString());
                    return true;
                  })
                  .ok());
  EXPECT_EQ(seen, keys);
}

TEST_F(AofTest, ScanMinSegmentSkipsPrefix) {
  auto mgr = OpenManager(/*segment_bytes=*/32 << 10);
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(mgr->AppendRecord("key" + std::to_string(i), 1, kFlagNone,
                                  std::string(2000, 'v'))
                    .ok());
  }
  size_t all = 0, suffix = 0;
  ASSERT_TRUE(mgr->Scan([&](const RecordAddress&, const RecordView&) {
                    ++all;
                    return true;
                  })
                  .ok());
  ASSERT_TRUE(mgr->Scan(
                     [&](const RecordAddress&, const RecordView&) {
                       ++suffix;
                       return true;
                     },
                     /*min_segment=*/1)
                  .ok());
  EXPECT_LT(suffix, all);
  EXPECT_GT(suffix, 0u);
}

TEST_F(AofTest, ReopenAdoptsSegmentsAndPreservesData) {
  std::vector<std::pair<RecordAddress, std::string>> written;
  {
    auto mgr = OpenManager(/*segment_bytes=*/32 << 10);
    Random rnd(9);
    for (int i = 0; i < 30; ++i) {
      const std::string value = rnd.NextString(1500);
      Result<RecordAddress> addr = mgr->AppendRecord(
          "key" + std::to_string(i), i, kFlagNone, value);
      ASSERT_TRUE(addr.ok());
      written.emplace_back(*addr, value);
    }
    // Manager destroyed: simulated crash (unsynced tail of the active
    // segment is padded out by Close in the destructor).
  }
  auto mgr = OpenManager(/*segment_bytes=*/32 << 10);
  EXPECT_GT(mgr->segment_count(), 0u);
  size_t recovered = 0;
  ASSERT_TRUE(mgr->Scan([&](const RecordAddress& addr, const RecordView& rec) {
                    EXPECT_EQ(written[recovered].first, addr);
                    EXPECT_EQ(written[recovered].second, rec.value.ToString());
                    ++recovered;
                    return true;
                  })
                  .ok());
  EXPECT_EQ(recovered, written.size());
  // New appends land in a fresh segment beyond the adopted ones.
  Result<RecordAddress> addr = mgr->AppendRecord("new", 1, kFlagNone, "v");
  ASSERT_TRUE(addr.ok());
  EXPECT_GT(addr->segment_id, written.back().first.segment_id);
}

TEST_F(AofTest, ReopenWithCheckpointMetadataSkipsScan) {
  std::map<uint32_t, SegmentMeta> metas;
  {
    auto mgr = OpenManager(/*segment_bytes=*/32 << 10);
    for (int i = 0; i < 30; ++i) {
      ASSERT_TRUE(mgr->AppendRecord("key" + std::to_string(i), 1, kFlagNone,
                                    std::string(2000, 'v'))
                      .ok());
    }
    ASSERT_TRUE(mgr->SealActive().ok());
    metas = mgr->SegmentMetas();
  }
  const uint64_t reads_before = env_->stats().host_pages_read;
  AofOptions options;
  options.segment_bytes = 32 << 10;
  auto mgr = AofManager::Open(env_.get(), options, &metas);
  ASSERT_TRUE(mgr.ok());
  // Adoption with metadata performs no scanning reads at all.
  EXPECT_EQ(env_->stats().host_pages_read, reads_before);
  // And the accounting matches what was checkpointed.
  for (const auto& [id, meta] : metas) {
    EXPECT_DOUBLE_EQ((*mgr)->Occupancy(id),
                     static_cast<double>(meta.live_bytes) / (32 << 10));
  }
}

TEST_F(AofTest, SealActiveMakesSegmentCollectable) {
  auto mgr = OpenManager();
  Result<RecordAddress> addr = mgr->AppendRecord("k", 1, kFlagNone, "v");
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(mgr->SealActive().ok());
  mgr->MarkDead(*addr, RecordExtent(1, 1));
  const std::vector<uint32_t> victims = mgr->GcVictims();
  ASSERT_EQ(victims.size(), 1u);
  size_t dropped = 0;
  ASSERT_TRUE(mgr->CollectSegment(
                     victims[0],
                     [](const RecordAddress&, const RecordView&, uint8_t*) {
                       return false;
                     },
                     [](const RecordAddress&, const RecordAddress&,
                        const RecordView&) {},
                     [&](const RecordAddress&, const RecordView&) { ++dropped; })
                  .ok());
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(mgr->segment_count(), 0u);
}

}  // namespace
}  // namespace directload::aof
