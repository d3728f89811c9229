#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "ssd/env.h"

namespace directload::qindb {
namespace {

ssd::Geometry SmallGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 2048;  // 64 MiB device.
  return g;
}

class QinDbTest : public ::testing::Test {
 protected:
  QinDbTest() { ResetEnv(); }

  void ResetEnv() {
    clock_.Reset();
    env_ = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                     ssd::LatencyModel(), &clock_);
  }

  std::unique_ptr<QinDb> OpenDb(QinDbOptions options = {}) {
    if (options.num_shards == 0) options.num_shards = 1;
    if (options.aof.segment_bytes == 64ull << 20) {
      options.aof.segment_bytes = 128 << 10;  // Small segments for tests.
    }
    auto db = QinDb::Open(env_.get(), options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

TEST_F(QinDbTest, PutGetExactVersion) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("url1", 1, "value-v1").ok());
  ASSERT_TRUE(db->Put("url1", 2, "value-v2").ok());
  EXPECT_EQ(*db->Get("url1", 1), "value-v1");
  EXPECT_EQ(*db->Get("url1", 2), "value-v2");
  EXPECT_TRUE(db->Get("url1", 3).status().IsNotFound());
  EXPECT_TRUE(db->Get("url2", 1).status().IsNotFound());
}

TEST_F(QinDbTest, EmptyKeyRejected) {
  auto db = OpenDb();
  EXPECT_TRUE(db->Put("", 1, "v").IsInvalidArgument());
}

TEST_F(QinDbTest, LargeValuesRoundTrip) {
  auto db = OpenDb();
  Random rnd(17);
  const std::string value = rnd.NextString(20 << 10);  // Paper's 20 KB values.
  ASSERT_TRUE(db->Put("url", 1, value).ok());
  EXPECT_EQ(*db->Get("url", 1), value);
}

TEST_F(QinDbTest, DedupGetTracebacksToOlderValue) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("url", 1, "original").ok());
  // Version 2 arrived deduplicated: the value was unchanged upstream.
  ASSERT_TRUE(db->Put("url", 2, Slice(), /*dedup=*/true).ok());
  EXPECT_EQ(*db->Get("url", 2), "original");
  EXPECT_EQ(db->stats().traceback_gets, 1u);
}

TEST_F(QinDbTest, DedupChainsTraceToNearestValue) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("url", 1, "v1").ok());
  ASSERT_TRUE(db->Put("url", 2, Slice(), true).ok());
  ASSERT_TRUE(db->Put("url", 3, "v3").ok());
  ASSERT_TRUE(db->Put("url", 4, Slice(), true).ok());
  ASSERT_TRUE(db->Put("url", 5, Slice(), true).ok());
  EXPECT_EQ(*db->Get("url", 2), "v1");
  EXPECT_EQ(*db->Get("url", 4), "v3");
  EXPECT_EQ(*db->Get("url", 5), "v3");
  EXPECT_EQ(*db->Get("url", 3), "v3");
}

TEST_F(QinDbTest, DanglingDedupReportsCorruption) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("url", 1, Slice(), true).ok());
  EXPECT_TRUE(db->Get("url", 1).status().IsCorruption());
}

// A reader that found a deduplicated pair before it was deleted must not
// trace back past its referent once GC has collected the referent's bytes:
// an older version's value is not the pair's value.
TEST_F(QinDbTest, StaleDedupReadNeverReturnsAnOlderVersionsBytes) {
  QinDbOptions options;
  options.auto_gc = false;
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Put("url", 1, "v1").ok());
  ASSERT_TRUE(db->Put("url", 2, "v2").ok());
  ASSERT_TRUE(db->Put("url", 3, Slice(), /*dedup=*/true).ok());
  QinDb::Scanner stale = db->NewScanner();
  stale.SeekToFirst();
  ASSERT_TRUE(stale.Valid());
  ASSERT_EQ(stale.version(), 3u);

  ASSERT_TRUE(db->Del("url", 3).ok());
  ASSERT_TRUE(db->Del("url", 2).ok());  // No referent left: collectable.
  ASSERT_TRUE(db->SealActive().ok());
  ASSERT_TRUE(db->ForceGc().ok());
  ASSERT_GT(db->gc_stats().segments_reclaimed, 0u);

  Result<std::string> value = stale.value();
  EXPECT_FALSE(value.ok()) << "read " << *value;
  EXPECT_EQ(*db->Get("url", 1), "v1");
  EXPECT_TRUE(db->GetLatest("url").ok());
}

TEST_F(QinDbTest, GetLatestSkipsDeletedVersions) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("url", 1, "v1").ok());
  ASSERT_TRUE(db->Put("url", 2, "v2").ok());
  EXPECT_EQ(*db->GetLatest("url"), "v2");
  ASSERT_TRUE(db->Del("url", 2).ok());
  EXPECT_EQ(*db->GetLatest("url"), "v1");
  ASSERT_TRUE(db->Del("url", 1).ok());
  EXPECT_TRUE(db->GetLatest("url").status().IsNotFound());
}

TEST_F(QinDbTest, DelHidesExactVersion) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("url", 1, "v1").ok());
  ASSERT_TRUE(db->Del("url", 1).ok());
  EXPECT_TRUE(db->Get("url", 1).status().IsNotFound());
  EXPECT_TRUE(db->Del("url", 9).IsNotFound());
  // Idempotent.
  EXPECT_TRUE(db->Del("url", 1).ok());
  EXPECT_EQ(db->stats().dels, 1u);
}

TEST_F(QinDbTest, RePutSupersedesAndKillsOldBytes) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("url", 1, std::string(5000, 'a')).ok());
  const uint64_t live_before = db->aof().LiveBytes();
  ASSERT_TRUE(db->Put("url", 1, std::string(5000, 'b')).ok());
  EXPECT_EQ(*db->Get("url", 1), std::string(5000, 'b'));
  // Live bytes unchanged (old record dead, new record live).
  EXPECT_EQ(db->aof().LiveBytes(), live_before);
}

// A bulk load that re-ships a committed (key, version) supersedes it like a
// re-PUT: the old record turns dead, by exactly its extent. A purged entry
// the load revives has no live record behind it, so nothing else turns dead.
TEST_F(QinDbTest, ReIngestSupersedesAndKillsOldBytes) {
  QinDbOptions options;
  options.num_shards = 1;
  auto ingest = [](QinDb* db, uint64_t version,
                   const std::vector<IngestOp>& ops) {
    ASSERT_TRUE(db->IngestBegin(version).ok());
    ASSERT_TRUE(db->IngestRun(version, ops.data(), ops.size()).ok());
    ASSERT_TRUE(db->IngestCommit(version).ok());
  };
  auto dead_bytes = [](QinDb* db) {
    uint64_t dead = 0;
    for (const auto& [id, meta] : db->aof().SegmentMetas()) {
      dead += meta.total_bytes - meta.live_bytes;
    }
    return dead;
  };
  const std::string old_value(3000, 'a');
  const std::string new_value(4000, 'b');
  {
    auto db = OpenDb(options);
    IngestOp put;
    put.key = "url";
    put.version = 1;
    put.value = old_value;
    // A tombstone with no target: a no-op at commit, but its record stays.
    IngestOp tombstone;
    tombstone.key = "ghost";
    tombstone.version = 1;
    tombstone.tombstone = true;
    ingest(db.get(), 1, {put, tombstone});
  }
  // A full-scan recovery replays the target-less tombstone as a no-op:
  // ("ghost", 1) has no entry, and the tombstone's record is dead.
  auto db = OpenDb(options);
  ASSERT_EQ(db->memtable()->FindExact("ghost", 1), nullptr);
  ASSERT_EQ(*db->GetLatest("url"), old_value);
  const uint64_t dead_before = dead_bytes(db.get());

  IngestOp put;
  put.key = "url";
  put.version = 1;
  put.value = new_value;
  IngestOp revive;
  revive.key = "ghost";
  revive.version = 1;
  revive.value = "back";
  ingest(db.get(), 1, {put, revive});
  EXPECT_EQ(*db->GetLatest("url"), new_value);
  EXPECT_EQ(*db->Get("ghost", 1), "back");
  EXPECT_EQ(dead_bytes(db.get()) - dead_before,
            aof::RecordExtent(3, old_value.size()));
  EXPECT_EQ(db->stats().puts, 2u);
}

TEST_F(QinDbTest, DropVersionFlagsEveryPair) {
  auto db = OpenDb();
  for (int i = 0; i < 10; ++i) {
    const std::string key = "url" + std::to_string(i);
    ASSERT_TRUE(db->Put(key, 1, "old").ok());
    ASSERT_TRUE(db->Put(key, 2, "new").ok());
  }
  Result<uint64_t> n = db->DropVersion(1);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 10u);
  for (int i = 0; i < 10; ++i) {
    const std::string key = "url" + std::to_string(i);
    EXPECT_TRUE(db->Get(key, 1).status().IsNotFound());
    EXPECT_EQ(*db->Get(key, 2), "new");
  }
}

TEST_F(QinDbTest, VersionCountsTrackLivePairs) {
  auto db = OpenDb();
  for (int i = 0; i < 10; ++i) {
    const std::string key = "url" + std::to_string(i);
    ASSERT_TRUE(db->Put(key, 1, "a").ok());
    if (i < 4) {
      ASSERT_TRUE(db->Put(key, 2, Slice(), true).ok());
    }
  }
  std::map<uint64_t, uint64_t> counts = db->VersionCounts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[1], 10u);
  EXPECT_EQ(counts[2], 4u);
  ASSERT_TRUE(db->DropVersion(1).ok());
  counts = db->VersionCounts();
  EXPECT_EQ(counts.count(1), 0u);
  EXPECT_EQ(counts[2], 4u);
}

// ---------------------------------------------------------------------------
// Lazy GC
// ---------------------------------------------------------------------------

TEST_F(QinDbTest, GcReclaimsSpaceAndPreservesLiveData) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 64 << 10;
  options.auto_gc = false;
  auto db = OpenDb(options);
  Random rnd(23);
  std::map<std::string, std::string> live;
  for (int i = 0; i < 200; ++i) {
    const std::string key = "url" + std::to_string(i);
    const std::string value = rnd.NextString(2000);
    ASSERT_TRUE(db->Put(key, 1, value).ok());
    live[key] = value;
  }
  // Delete three quarters of the keys: many segments fall under 25%.
  for (int i = 0; i < 200; ++i) {
    if (i % 4 == 0) continue;
    const std::string key = "url" + std::to_string(i);
    ASSERT_TRUE(db->Del(key, 1).ok());
    live.erase(key);
  }
  const uint64_t disk_before = db->DiskBytes();
  ASSERT_TRUE(db->ForceGc().ok());
  EXPECT_LT(db->DiskBytes(), disk_before);
  EXPECT_GT(db->gc_stats().segments_reclaimed, 0u);
  for (const auto& [key, value] : live) {
    EXPECT_EQ(*db->Get(key, 1), value) << key;
  }
  // Deleted keys stay deleted and their index items were purged.
  EXPECT_TRUE(db->Get("url1", 1).status().IsNotFound());
}

TEST_F(QinDbTest, GcPreservesDeletedReferents) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 32 << 10;
  options.auto_gc = false;
  auto db = OpenDb(options);
  // Version 1 carries the value; versions 2..3 are deduplicated.
  ASSERT_TRUE(db->Put("url", 1, std::string(3000, 'x')).ok());
  ASSERT_TRUE(db->Put("url", 2, Slice(), true).ok());
  ASSERT_TRUE(db->Put("url", 3, Slice(), true).ok());
  // Fill the segment with churn so it seals and becomes a victim.
  for (int i = 0; i < 50; ++i) {
    const std::string key = "filler" + std::to_string(i);
    ASSERT_TRUE(db->Put(key, 1, std::string(3000, 'f')).ok());
    ASSERT_TRUE(db->Del(key, 1).ok());
  }
  // Delete version 1: its record is dead-but-referenced (versions 2,3 trace
  // back to it).
  ASSERT_TRUE(db->Del("url", 1).ok());
  ASSERT_TRUE(db->ForceGc().ok());
  EXPECT_GT(db->gc_stats().segments_reclaimed, 0u);
  // The deleted version is gone, but the referents still resolve.
  EXPECT_TRUE(db->Get("url", 1).status().IsNotFound());
  EXPECT_EQ(*db->Get("url", 2), std::string(3000, 'x'));
  EXPECT_EQ(*db->Get("url", 3), std::string(3000, 'x'));
}

TEST_F(QinDbTest, GcDropsUnreferencedDeletedRecords) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 32 << 10;
  options.auto_gc = false;
  auto db = OpenDb(options);
  ASSERT_TRUE(db->Put("a", 1, std::string(3000, 'a')).ok());
  ASSERT_TRUE(db->Put("a", 2, std::string(3000, 'b')).ok());  // Own value.
  // Enough fillers to seal the segment holding (a,1).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        db->Put("filler" + std::to_string(i), 1, std::string(3000, 'f')).ok());
  }
  ASSERT_TRUE(db->Del("a", 1).ok());  // Not referenced: v2 has its own value.
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(db->Del("filler" + std::to_string(i), 1).ok());
  }
  const size_t live_entries_before = db->memtable()->live_count();
  ASSERT_TRUE(db->ForceGc().ok());
  EXPECT_GT(db->gc_stats().segments_reclaimed, 0u);
  // The (a,1) item was physically purged from the skip list (its segment was
  // sealed and collected), and live data survived relocation.
  EXPECT_EQ(db->memtable()->FindExact("a", 1), nullptr);
  EXPECT_LT(db->memtable()->live_count(), live_entries_before);
  EXPECT_TRUE(db->Get("a", 1).status().IsNotFound());
  EXPECT_EQ(*db->Get("a", 2), std::string(3000, 'b'));
}

TEST_F(QinDbTest, GcDeferredWhileReadsInFlight) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 32 << 10;
  auto db = OpenDb(options);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        db->Put("k" + std::to_string(i), 1, std::string(3000, 'v')).ok());
  }
  {
    QinDb::ReadGuard guard(db.get());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(db->Del("k" + std::to_string(i), 1).ok());
    }
    EXPECT_GT(db->stats().gc_deferrals, 0u);
    EXPECT_EQ(db->gc_stats().segments_reclaimed, 0u);
  }
  // Guard released: the next write boundary may collect.
  ASSERT_TRUE(db->MaybeGc().ok());
  EXPECT_GT(db->gc_stats().segments_reclaimed, 0u);
}

// LiveEntryCount serves live engines (the heartbeat), so it must pin the
// index it reads: a GC rebuild frees the old index as soon as no reader
// holds it.
TEST_F(QinDbTest, InspectionSurvivesConcurrentIndexRebuilds) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 64 << 10;
  options.auto_gc = false;
  auto db = OpenDb(options);
  const std::shared_ptr<const MemIndex> first = db->memtable();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> inspections{0};
  std::thread reader([&] {
    do {
      // The answer races the writer; only the index walk matters here.
      db->LiveEntryCount();
      inspections.fetch_add(1, std::memory_order_relaxed);
    } while (!stop.load(std::memory_order_acquire));
  });
  Status failed;
  for (uint64_t v = 1; v <= 6 && failed.ok(); ++v) {
    for (int i = 0; i < 5000 && failed.ok(); ++i) {
      failed = db->Put("k" + std::to_string(i), v, "value");
    }
    if (failed.ok()) failed = db->DropVersion(v).status();
    if (failed.ok()) failed = db->ForceGc();
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(failed.ok()) << failed.ToString();
  EXPECT_GT(inspections.load(), 0u);
  // The rounds' garbage did force at least one rebuild.
  EXPECT_NE(db->memtable(), first);
  EXPECT_LT(db->LiveEntryCount(), 5000u);
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

TEST_F(QinDbTest, RecoverFromFullScanRestoresData) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 64 << 10;
  std::map<std::string, std::string> expect;
  {
    auto db = OpenDb(options);
    Random rnd(31);
    for (int i = 0; i < 100; ++i) {
      const std::string key = "url" + std::to_string(i);
      const std::string value = rnd.NextString(1500);
      ASSERT_TRUE(db->Put(key, 1, value).ok());
      expect[key] = value;
    }
    for (int i = 0; i < 100; i += 3) {
      const std::string key = "url" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, 2, Slice(), true).ok());
    }
    // Graceful shutdown without a checkpoint: recovery must scan the AOFs.
  }
  auto db = OpenDb(options);
  for (const auto& [key, value] : expect) {
    EXPECT_EQ(*db->Get(key, 1), value) << key;
  }
  for (int i = 0; i < 100; i += 3) {
    const std::string key = "url" + std::to_string(i);
    EXPECT_EQ(*db->Get(key, 2), expect[key]) << key;
  }
  EXPECT_TRUE(db->Get("url1", 2).status().IsNotFound());
}

TEST_F(QinDbTest, RecoveryKeepsNewestDuplicate) {
  QinDbOptions options;
  options.num_shards = 1;
  {
    auto db = OpenDb(options);
    ASSERT_TRUE(db->Put("k", 1, "first").ok());
    ASSERT_TRUE(db->Put("k", 1, "second").ok());
  }
  auto db = OpenDb(options);
  EXPECT_EQ(*db->Get("k", 1), "second");
}

// Re-PUTs, deletes and a version drop turn records dead at write time; a
// recovery by full scan must reach the same occupancy, segment by segment.
TEST_F(QinDbTest, ScanRecoveryRebuildsPerSegmentLiveBytes) {
  QinDbOptions options;
  options.num_shards = 1;
  options.auto_gc = false;  // Keep every segment for the comparison.
  options.aof.segment_bytes = 64 << 10;
  std::map<uint32_t, aof::SegmentMeta> before;
  {
    auto db = OpenDb(options);
    Random rnd(41);
    for (int i = 0; i < 60; ++i) {
      ASSERT_TRUE(
          db->Put("url" + std::to_string(i), 1, rnd.NextString(1500)).ok());
    }
    // Re-put a third of the pairs with other sizes, some twice, and some
    // as deduplicated (value-less) records.
    for (int i = 0; i < 60; i += 3) {
      const std::string key = "url" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, 1, rnd.NextString(900 + i)).ok());
      if (i % 2 == 0) {
        ASSERT_TRUE(db->Put(key, 1, rnd.NextString(2100)).ok());
      }
      ASSERT_TRUE(db->Put(key, 2, rnd.NextString(700)).ok());
      ASSERT_TRUE(db->Put(key, 2, Slice(), /*dedup=*/true).ok());
    }
    // Drop version 1: where version 2 is deduplicated, the version-1 record
    // stays live as its referent — until the delete below takes url3's.
    ASSERT_TRUE(db->DropVersion(1).ok());
    ASSERT_TRUE(db->Del("url3", 2).ok());
    before = db->aof().SegmentMetas();
    ASSERT_GT(before.size(), 2u);
    // Crash: no checkpoint, so the reopen below scans every segment.
  }
  ASSERT_FALSE(env_->FileExists("s00_checkpoint.dat"));
  auto db = OpenDb(options);
  const std::map<uint32_t, aof::SegmentMeta> after = db->aof().SegmentMetas();
  ASSERT_EQ(after.size(), before.size());
  for (const auto& [id, meta] : before) {
    ASSERT_EQ(after.count(id), 1u) << "segment " << id;
    EXPECT_EQ(after.at(id).live_bytes, meta.live_bytes) << "segment " << id;
  }
}

TEST_F(QinDbTest, LoggedDeletesSurviveRestart) {
  QinDbOptions options;
  options.num_shards = 1;
  {
    auto db = OpenDb(options);
    ASSERT_TRUE(db->Put("k", 1, "v").ok());
    ASSERT_TRUE(db->Del("k", 1).ok());
  }
  auto db = OpenDb(options);
  EXPECT_TRUE(db->Get("k", 1).status().IsNotFound());
}

// A DEL survives a restart, and so does a later re-PUT of the pair: the
// re-PUT's record follows the tombstone in the log, and the copy GC makes
// of it is live by its own flags, wherever in the log it lands.
TEST_F(QinDbTest, RePutOfDeletedPairSurvivesRelocationAndReopen) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 32 << 10;
  options.auto_gc = false;
  {
    auto db = OpenDb(options);
    // Keeps the tombstone's segment above the GC threshold, so the
    // tombstone is still on disk at every reopen below.
    ASSERT_TRUE(db->Put("keeper", 1, std::string(12 << 10, 'k')).ok());
    ASSERT_TRUE(db->Put("k", 1, "a").ok());
    ASSERT_TRUE(db->Del("k", 1).ok());
  }
  {
    auto db = OpenDb(options);
    EXPECT_TRUE(db->Get("k", 1).status().IsNotFound());
    // The re-PUT opens this session's first segment; fillers that die fill
    // and seal it, so GC moves the re-PUT to the end of the log.
    ASSERT_TRUE(db->Put("k", 1, "b").ok());
    const uint32_t reput_segment = db->aof().active_segment();
    for (int i = 0; i < 20; ++i) {
      const std::string key = "filler" + std::to_string(i);
      ASSERT_TRUE(db->Put(key, 1, std::string(3000, 'f')).ok());
      ASSERT_TRUE(db->Del(key, 1).ok());
    }
    ASSERT_NE(db->aof().active_segment(), reput_segment);
    ASSERT_TRUE(db->ForceGc().ok());
    ASSERT_EQ(db->aof().SegmentMetas().count(reput_segment), 0u);
    Result<std::string> got = db->Get("k", 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "b");
  }
  auto db = OpenDb(options);
  Result<std::string> got = db->Get("k", 1);
  ASSERT_TRUE(got.ok()) << "acked re-PUT lost: " << got.status().ToString();
  EXPECT_EQ(*got, "b");
  EXPECT_TRUE(db->Get("filler0", 1).status().IsNotFound());
}

// A drop is one marker per shard, so it survives a restart at default
// options. A dropped record GC keeps as the referent of a newer
// deduplicated version moves past the marker, and its copy says it is
// deleted.
TEST_F(QinDbTest, DroppedVersionStaysDroppedAfterReopen) {
  for (const uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ResetEnv();
    QinDbOptions options;
    options.num_shards = shards;
    options.aof.segment_bytes = 32 << 10;
    options.auto_gc = false;
    constexpr int kRefs = 8;
    constexpr int kPairs = 100;
    auto referent = [](int i) { return "referent" + std::to_string(i); };
    {
      auto db = OpenDb(options);
      // The referents come first, so they sit in each shard's oldest
      // segment, which the drop leaves nearly empty.
      for (int i = 0; i < kRefs; ++i) {
        const std::string key = "ref" + std::to_string(i);
        ASSERT_TRUE(db->Put(key, 1, referent(i)).ok());
        ASSERT_TRUE(db->Put(key, 2, Slice(), /*dedup=*/true).ok());
      }
      for (int i = 0; i < kPairs; ++i) {
        ASSERT_TRUE(
            db->Put("url" + std::to_string(i), 1, std::string(3000, 'u'))
                .ok());
      }
      std::vector<uint32_t> oldest(shards);
      for (uint32_t s = 0; s < shards; ++s) {
        ASSERT_GT(db->aof(s).segment_count(), 1u) << "shard " << s;
        oldest[s] = db->aof(s).SegmentMetas().begin()->first;
      }
      Result<uint64_t> dropped = db->DropVersion(1);
      ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
      EXPECT_EQ(*dropped, static_cast<uint64_t>(kRefs + kPairs));
      ASSERT_TRUE(db->ForceGc().ok());
      for (uint32_t s = 0; s < shards; ++s) {
        EXPECT_EQ(db->aof(s).SegmentMetas().count(oldest[s]), 0u)
            << "shard " << s << " kept its oldest segment";
      }
      for (int i = 0; i < kRefs; ++i) {
        const std::string key = "ref" + std::to_string(i);
        EXPECT_TRUE(db->Get(key, 1).status().IsNotFound()) << key;
        Result<std::string> got = db->Get(key, 2);
        ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
        EXPECT_EQ(*got, referent(i));
      }
    }
    auto db = OpenDb(options);
    for (int i = 0; i < kPairs; ++i) {
      const std::string key = "url" + std::to_string(i);
      EXPECT_TRUE(db->Get(key, 1).status().IsNotFound()) << key;
    }
    for (int i = 0; i < kRefs; ++i) {
      const std::string key = "ref" + std::to_string(i);
      EXPECT_TRUE(db->Get(key, 1).status().IsNotFound()) << key;
      Result<std::string> got = db->Get(key, 2);
      ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
      EXPECT_EQ(*got, referent(i));
    }
    const std::map<uint64_t, uint64_t> counts = db->VersionCounts();
    EXPECT_EQ(counts.count(1), 0u);
    EXPECT_EQ(counts.at(2), static_cast<uint64_t>(kRefs));
  }
}

// Nothing of a session is indexed before its commit, so a drop of the
// session's version could not flag the staged pairs — yet recovery would,
// since they precede the marker. The drop is refused instead.
TEST_F(QinDbTest, DropVersionIsBusyWhileTheVersionIsBeingIngested) {
  QinDbOptions options;
  options.num_shards = 1;
  {
    auto db = OpenDb(options);
    ASSERT_TRUE(db->Put("old", 3, "x").ok());
    ASSERT_TRUE(db->Put("other", 2, "y").ok());
    IngestOp op;
    op.key = "bulk";
    op.version = 3;
    op.value = "z";
    ASSERT_TRUE(db->IngestBegin(3).ok());
    ASSERT_TRUE(db->IngestRun(3, &op, 1).ok());
    EXPECT_TRUE(db->DropVersion(3).status().IsBusy());
    EXPECT_EQ(*db->Get("old", 3), "x");
    // Other versions drop as usual.
    EXPECT_EQ(*db->DropVersion(2), 1u);
    ASSERT_TRUE(db->IngestCommit(3).ok());
    EXPECT_EQ(*db->Get("bulk", 3), "z");
    EXPECT_EQ(*db->DropVersion(3), 2u);
  }
  auto db = OpenDb(options);
  EXPECT_TRUE(db->Get("old", 3).status().IsNotFound());
  EXPECT_TRUE(db->Get("bulk", 3).status().IsNotFound());
  EXPECT_TRUE(db->Get("other", 2).status().IsNotFound());
}

// The ops alias `key` and `value`, which must outlive them.
IngestOp BulkPut(const Slice& key, uint64_t version, const Slice& value) {
  IngestOp op;
  op.key = key;
  op.version = version;
  op.value = value;
  return op;
}

IngestOp BulkTombstone(const Slice& key, uint64_t version) {
  IngestOp op;
  op.key = key;
  op.version = version;
  op.tombstone = true;
  return op;
}

// The value of (key, version), or the failed read's status.
std::string ReadOrStatus(QinDb* db, const Slice& key, uint64_t version) {
  Result<std::string> got = db->Get(key, version);
  return got.ok() ? *got : got.status().ToString();
}

// A bulk tombstone's header names the pair it deletes, not the session that
// staged it: recovery must still replay it with its own session's commit.
TEST_F(QinDbTest, CommittedBulkDeleteOfAPlainPairSurvivesReopen) {
  for (const uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ResetEnv();
    QinDbOptions options;
    options.num_shards = shards;
    {
      auto db = OpenDb(options);
      ASSERT_TRUE(db->Put("k", 1, "plain").ok());
      const IngestOp del = BulkTombstone("k", 1);
      ASSERT_TRUE(db->IngestBegin(2).ok());
      ASSERT_TRUE(db->IngestRun(2, &del, 1).ok());
      ASSERT_TRUE(db->IngestCommit(2).ok());
      EXPECT_TRUE(db->Get("k", 1).status().IsNotFound());
    }
    auto db = OpenDb(options);
    EXPECT_TRUE(db->Get("k", 1).status().IsNotFound());
  }
}

// ... and a session that never commits deletes nothing, even when the
// version its tombstone targets was committed by a bulk load.
TEST_F(QinDbTest, UncommittedBulkDeleteOfABulkPairLeavesNoTrace) {
  for (const uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ResetEnv();
    QinDbOptions options;
    options.num_shards = shards;
    {
      auto db = OpenDb(options);
      const IngestOp put = BulkPut("k", 1, "bulk");
      ASSERT_TRUE(db->IngestBegin(1).ok());
      ASSERT_TRUE(db->IngestRun(1, &put, 1).ok());
      ASSERT_TRUE(db->IngestCommit(1).ok());
      const IngestOp del = BulkTombstone("k", 1);
      ASSERT_TRUE(db->IngestBegin(2).ok());
      ASSERT_TRUE(db->IngestRun(2, &del, 1).ok());
      EXPECT_EQ(ReadOrStatus(db.get(), "k", 1), "bulk");
    }
    auto db = OpenDb(options);
    EXPECT_EQ(ReadOrStatus(db.get(), "k", 1), "bulk");
  }
}

// A commit marker vouches only for its own session's records: the pairs of
// an earlier session of the same version that aborted, or was cut by a
// crash, stay gone when a new session of that version commits.
TEST_F(QinDbTest, LaterCommitOfAVersionDoesNotReviveAnEndedSession) {
  for (const bool crash : {false, true}) {
    for (const uint32_t shards : {1u, 4u}) {
      SCOPED_TRACE(std::string(crash ? "crash" : "abort") + ", shards " +
                   std::to_string(shards));
      ResetEnv();
      QinDbOptions options;
      options.num_shards = shards;
      options.aof.segment_bytes = 4 << 10;  // The ghosts fill and seal
      options.auto_gc = false;              // segments, which GC keeps.
      std::vector<std::string> ghosts;
      for (int i = 0; i < 16; ++i) ghosts.push_back("ghost" + std::to_string(i));
      const std::string ghost_value(3000, 'g');
      std::vector<IngestOp> ops;
      for (const std::string& key : ghosts) {
        ops.push_back(BulkPut(key, 5, ghost_value));
      }
      std::unique_ptr<QinDb> db = OpenDb(options);
      ASSERT_TRUE(db->IngestBegin(5).ok());
      ASSERT_TRUE(db->IngestRun(5, ops.data(), ops.size()).ok());
      if (crash) {
        (void)db.release();  // No destructor seals anything.
        env_->SimulateCrashForTesting();
        db = OpenDb(options);
      } else {
        ASSERT_TRUE(db->IngestAbort(5).ok());
      }
      const IngestOp other = BulkPut("other", 5, "landed");
      ASSERT_TRUE(db->IngestBegin(5).ok());
      ASSERT_TRUE(db->IngestRun(5, &other, 1).ok());
      ASSERT_TRUE(db->IngestCommit(5).ok());
      for (const std::string& key : ghosts) {
        EXPECT_TRUE(db->Get(key, 5).status().IsNotFound()) << key;
      }
      db.reset();
      db = OpenDb(options);
      EXPECT_EQ(ReadOrStatus(db.get(), "other", 5), "landed");
      for (const std::string& key : ghosts) {
        EXPECT_TRUE(db->Get(key, 5).status().IsNotFound()) << key;
      }
    }
  }
}

// GC moves a commit marker to the log's end when it collects the marker's
// segment, past records written after the commit, while the session's own
// records stay behind in an older segment. Recovery must still replay the
// session as of its commit: a later delete, re-PUT or bulk delete of a
// loaded pair wins over the late replay.
TEST_F(QinDbTest, MovedCommitMarkerReplaysItsSessionAsOfTheCommit) {
  enum Later { kDel, kRePut, kBulkDel };
  for (const Later later : {kDel, kRePut, kBulkDel}) {
    SCOPED_TRACE("later op " + std::to_string(later));
    ResetEnv();
    QinDbOptions options;
    options.num_shards = 1;
    options.aof.segment_bytes = 4096;
    options.auto_gc = false;
    const std::string loaded(100, 'k');
    const std::string live(3940, 'l');
    {
      auto db = OpenDb(options);
      // The two records fill segment 0, so the marker opens segment 1.
      const std::vector<IngestOp> ops{BulkPut("k", 1, loaded),
                                      BulkPut("live", 1, live)};
      ASSERT_TRUE(db->IngestBegin(1).ok());
      ASSERT_TRUE(db->IngestRun(1, ops.data(), ops.size()).ok());
      ASSERT_TRUE(db->IngestCommit(1).ok());
      // Garbage fills the rest of segment 1, leaving the marker its only
      // live record; the later op lands in segment 2.
      ASSERT_TRUE(db->Put("junk", 1, std::string(3900, 'j')).ok());
      ASSERT_TRUE(db->Del("junk", 1).ok());
      ASSERT_TRUE(db->Put("pad", 1, std::string(3000, 'p')).ok());
      if (later == kDel) {
        ASSERT_TRUE(db->Del("k", 1).ok());
      } else if (later == kRePut) {
        ASSERT_TRUE(db->Put("k", 1, "again").ok());
      } else {
        const IngestOp del = BulkTombstone("k", 1);
        ASSERT_TRUE(db->IngestBegin(2).ok());
        ASSERT_TRUE(db->IngestRun(2, &del, 1).ok());
        ASSERT_TRUE(db->IngestCommit(2).ok());
      }
      const uint32_t marker_segment = 1;
      ASSERT_EQ(db->aof().GcVictims(), std::vector<uint32_t>{marker_segment});
      ASSERT_TRUE(db->ForceGc().ok());
      ASSERT_EQ(db->aof().SegmentMetas().count(0), 1u);
    }
    auto db = OpenDb(options);
    EXPECT_EQ(ReadOrStatus(db.get(), "k", 1),
              later == kRePut ? "again"
                              : Status::NotFound("no such key/version")
                                    .ToString());
    EXPECT_EQ(ReadOrStatus(db.get(), "live", 1), live);
  }
}

TEST_F(QinDbTest, CheckpointSpeedsUpRecoveryAndPreservesState) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 64 << 10;
  std::map<std::string, std::string> expect;
  {
    auto db = OpenDb(options);
    Random rnd(37);
    for (int i = 0; i < 150; ++i) {
      const std::string key = "url" + std::to_string(i);
      const std::string value = rnd.NextString(1500);
      ASSERT_TRUE(db->Put(key, 1, value).ok());
      expect[key] = value;
    }
    ASSERT_TRUE(db->Del("url0", 1).ok());
    expect.erase("url0");
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint writes land in newer segments and are re-scanned.
    ASSERT_TRUE(db->Put("late", 1, "late-value").ok());
    expect["late"] = "late-value";
  }
  const uint64_t reads_before_ckpt_recovery = env_->stats().host_pages_read;
  {
    auto db = OpenDb(options);
    const uint64_t ckpt_recovery_reads =
        env_->stats().host_pages_read - reads_before_ckpt_recovery;
    for (const auto& [key, value] : expect) {
      EXPECT_EQ(*db->Get(key, 1), value) << key;
    }
    // The checkpointed delete survived.
    EXPECT_TRUE(db->Get("url0", 1).status().IsNotFound());

    // Wipe the checkpoint and compare recovery I/O: the full scan must read
    // much more.
    ASSERT_TRUE(env_->DeleteFile("s00_checkpoint.dat").ok());
    const uint64_t before_full = env_->stats().host_pages_read;
    auto db2 = OpenDb(options);
    const uint64_t full_scan_reads =
        env_->stats().host_pages_read - before_full;
    EXPECT_GT(full_scan_reads, ckpt_recovery_reads * 3);
  }
}

TEST_F(QinDbTest, GcInvalidatesCheckpoint) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 32 << 10;
  options.auto_gc = false;
  auto db = OpenDb(options);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        db->Put("k" + std::to_string(i), 1, std::string(2000, 'v')).ok());
  }
  ASSERT_TRUE(db->Checkpoint().ok());
  EXPECT_TRUE(env_->FileExists("s00_checkpoint.dat"));
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db->Del("k" + std::to_string(i), 1).ok());
  }
  ASSERT_TRUE(db->ForceGc().ok());
  // Relocations made the checkpoint stale; it must be gone.
  EXPECT_FALSE(env_->FileExists("s00_checkpoint.dat"));
}

// ---------------------------------------------------------------------------
// Property test: random workload against a reference model
// ---------------------------------------------------------------------------

struct ModelValue {
  std::string value;
  bool dedup = false;
  bool deleted = false;
};

class QinDbPropertyTest : public QinDbTest,
                          public ::testing::WithParamInterface<uint64_t> {};

// Mirrors the production write pattern the paper describes: per key,
// versions arrive in increasing order (some deduplicated against the
// previous version), and deletions always target the oldest live version —
// the deletion thread dropping the oldest of the retained versions. Under
// this sequencing the engine's purge/referent semantics are exactly
// representable by the model below.
TEST_P(QinDbPropertyTest, RandomVersionedWorkloadMatchesModel) {
  QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 64 << 10;
  auto db = OpenDb(options);
  Random rnd(GetParam());

  // model[key][version]; versions of a key are contiguous from first kept.
  std::map<std::string, std::map<uint64_t, ModelValue>> model;
  std::map<std::string, uint64_t> next_version;

  auto resolve = [&](const std::string& key,
                     uint64_t version) -> std::optional<std::string> {
    auto kit = model.find(key);
    if (kit == model.end()) return std::nullopt;
    auto vit = kit->second.find(version);
    if (vit == kit->second.end()) return std::nullopt;
    if (!vit->second.dedup) return vit->second.value;
    // Traceback: newest older version with a concrete value (deleted
    // versions still carry bytes; the engine keeps them as referents).
    for (auto it = std::make_reverse_iterator(vit); it != kit->second.rend();
         ++it) {
      if (!it->second.dedup) return it->second.value;
    }
    return std::nullopt;
  };

  for (int step = 0; step < 4000; ++step) {
    const std::string key = "key" + std::to_string(rnd.Uniform(60));
    const uint64_t dice = rnd.Uniform(100);
    auto& versions = model[key];
    if (dice < 55) {  // PUT of the next version, maybe deduplicated.
      const uint64_t version = ++next_version[key];
      const bool newest_alive =
          !versions.empty() && !versions.rbegin()->second.deleted;
      const bool want_dedup = rnd.Bernoulli(0.4);
      if (want_dedup && newest_alive) {
        ASSERT_TRUE(db->Put(key, version, Slice(), true).ok());
        versions[version] = ModelValue{"", true, false};
      } else {
        const std::string value = rnd.NextString(20 + rnd.Uniform(400));
        ASSERT_TRUE(db->Put(key, version, value).ok());
        versions[version] = ModelValue{value, false, false};
      }
    } else if (dice < 75) {  // DEL of the oldest live version.
      auto oldest = versions.begin();
      while (oldest != versions.end() && oldest->second.deleted) ++oldest;
      if (oldest != versions.end()) {
        ASSERT_TRUE(db->Del(key, oldest->first).ok());
        oldest->second.deleted = true;
      } else {
        EXPECT_TRUE(db->Del(key, next_version[key] + 1).IsNotFound());
      }
    } else {  // GET of a random known version.
      if (versions.empty()) {
        EXPECT_TRUE(db->Get(key, 1).status().IsNotFound());
        continue;
      }
      auto vit = versions.begin();
      std::advance(vit, rnd.Uniform(versions.size()));
      Result<std::string> got = db->Get(key, vit->first);
      if (vit->second.deleted) {
        EXPECT_TRUE(got.status().IsNotFound()) << key << "/" << vit->first;
      } else {
        std::optional<std::string> want = resolve(key, vit->first);
        ASSERT_TRUE(want.has_value());
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, *want);
      }
    }
  }

  // Sweep-check every key/version at the end, then again after a forced GC.
  auto check_all = [&](QinDb* engine) {
    for (const auto& [key, versions] : model) {
      for (const auto& [version, mv] : versions) {
        Result<std::string> got = engine->Get(key, version);
        if (mv.deleted) {
          EXPECT_TRUE(got.status().IsNotFound()) << key << "/" << version;
          continue;
        }
        std::optional<std::string> want = resolve(key, version);
        ASSERT_TRUE(want.has_value());
        ASSERT_TRUE(got.ok())
            << key << "/" << version << ": " << got.status().ToString();
        EXPECT_EQ(*got, *want);
      }
    }
  };
  check_all(db.get());
  ASSERT_TRUE(db->ForceGc().ok());
  check_all(db.get());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QinDbPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace directload::qindb
