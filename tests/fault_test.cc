// Fault-injection tests: silent media corruption, torn writes, crashed
// nodes, corrupted transmissions. Every persisted format in the project
// carries checksums; these tests verify that damage is *detected* (never
// silently served) and that recovery degrades the way the paper describes.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "aof/aof_manager.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "lsm/db.h"
#include "lsm/wal.h"
#include "qindb/qindb.h"
#include "ssd/env.h"

namespace directload {
namespace {

ssd::Geometry SmallGeometry() {
  ssd::Geometry g;
  g.pages_per_block = 8;
  g.num_blocks = 4096;
  return g;
}

class FaultTest : public ::testing::TestWithParam<ssd::InterfaceMode> {
 protected:
  FaultTest()
      : env_(NewSsdEnv(GetParam(), SmallGeometry(), ssd::LatencyModel(),
                       &clock_)) {}

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

TEST_P(FaultTest, CorruptionHookFlipsExactlyOneBit) {
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(8192, 'a')).ok());
  ASSERT_TRUE((*file)->Close().ok());
  ASSERT_TRUE(env_->CorruptFileByteForTesting("f", 5000).ok());
  auto reader = env_->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());
  std::string out;
  ASSERT_TRUE((*reader)->Read(0, 8192, &out).ok());
  int diffs = 0;
  for (size_t i = 0; i < out.size(); ++i) {
    if (out[i] != 'a') {
      ++diffs;
      EXPECT_EQ(i, 5000u);
    }
  }
  EXPECT_EQ(diffs, 1);
}

TEST_P(FaultTest, CorruptingUnpersistedOffsetRejected) {
  auto file = env_->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("tiny").ok());  // Still in the tail buffer.
  EXPECT_FALSE(env_->CorruptFileByteForTesting("f", 2).ok());
  EXPECT_TRUE(env_->CorruptFileByteForTesting("missing", 0).IsNotFound());
}

INSTANTIATE_TEST_SUITE_P(Modes, FaultTest,
                         ::testing::Values(ssd::InterfaceMode::kPageMappedFtl,
                                           ssd::InterfaceMode::kNativeBlock),
                         [](const auto& info) {
                           return info.param ==
                                          ssd::InterfaceMode::kNativeBlock
                                      ? "Native"
                                      : "Ftl";
                         });

// ---------------------------------------------------------------------------
// AOF-level corruption
// ---------------------------------------------------------------------------

class AofFaultTest : public ::testing::Test {
 protected:
  AofFaultTest()
      : env_(NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock_)) {}

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

TEST_F(AofFaultTest, CorruptedRecordDetectedOnRead) {
  aof::AofOptions options;
  options.segment_bytes = 256 << 10;
  auto mgr = std::move(aof::AofManager::Open(env_.get(), options)).value();
  Result<aof::RecordAddress> addr =
      mgr->AppendRecord("key", 1, aof::kFlagNone, std::string(10000, 'v'));
  ASSERT_TRUE(addr.ok());
  ASSERT_TRUE(mgr->SealActive().ok());  // Flush everything to the device.

  // Flip a bit in the middle of the record's value.
  ASSERT_TRUE(env_->CorruptFileByteForTesting("aof_00000000.dat",
                                              addr->offset + 2000)
                  .ok());
  aof::RecordView view;
  EXPECT_TRUE(mgr->ReadRecord(*addr, 0, &view).IsCorruption());
}

TEST_F(AofFaultTest, ScanSurfacesMidSegmentCorruptionLoudly) {
  aof::AofOptions options;
  options.segment_bytes = 256 << 10;
  std::vector<aof::RecordAddress> addrs;
  {
    auto mgr = std::move(aof::AofManager::Open(env_.get(), options)).value();
    for (int i = 0; i < 10; ++i) {
      Result<aof::RecordAddress> addr = mgr->AppendRecord(
          "key" + std::to_string(i), i, aof::kFlagNone,
          std::string(5000, 'v'));
      ASSERT_TRUE(addr.ok());
      addrs.push_back(*addr);
    }
    ASSERT_TRUE(mgr->SealActive().ok());
  }
  // Damage record 6 in place. Appends are prefix-persistent, so a record
  // that fails its checksum *inside* the persisted extent can only be
  // damaged media, never a torn tail — and records 7..9 sit unreachable
  // behind it. Recovery must refuse to adopt the segment as a shorter valid
  // prefix: that silent truncation is what would later license a checkpoint
  // (or a GC erase) to destroy the suffix permanently.
  ASSERT_TRUE(env_->CorruptFileByteForTesting("aof_00000000.dat",
                                              addrs[6].offset + 10)
                  .ok());
  Result<std::unique_ptr<aof::AofManager>> reopened =
      aof::AofManager::Open(env_.get(), options);
  ASSERT_FALSE(reopened.ok());
  EXPECT_TRUE(reopened.status().IsCorruption())
      << reopened.status().ToString();
  // Fail-stop, not fail-erase: the damaged segment (with the intact records
  // behind the damage) stays on the device for repair from a replica.
  EXPECT_TRUE(env_->FileExists("aof_00000000.dat"));
}

// ---------------------------------------------------------------------------
// QinDB under faults
// ---------------------------------------------------------------------------

class QinDbFaultTest : public AofFaultTest {};

TEST_F(QinDbFaultTest, CorruptedValueNeverServedSilently) {
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 256 << 10;
  auto db = std::move(qindb::QinDb::Open(env_.get(), options)).value();
  const std::string value(20000, 'q');
  ASSERT_TRUE(db->Put("url:1", 1, value).ok());
  ASSERT_TRUE(db->aof().SealActive().ok());
  ASSERT_TRUE(
      env_->CorruptFileByteForTesting("s00_aof_00000000.dat", 600).ok());
  Result<std::string> got = db->Get("url:1", 1);
  // Either detected corruption or (if the flip missed the record) intact
  // data — never silently wrong bytes.
  if (got.ok()) {
    EXPECT_EQ(*got, value);
  } else {
    EXPECT_TRUE(got.status().IsCorruption());
  }
}

TEST_F(QinDbFaultTest, CorruptCheckpointFallsBackToFullScan) {
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 128 << 10;
  Random rnd(4);
  std::map<std::string, std::string> expect;
  {
    auto db = std::move(qindb::QinDb::Open(env_.get(), options)).value();
    for (int i = 0; i < 60; ++i) {
      const std::string key = "url:" + std::to_string(i);
      const std::string value = rnd.NextString(2000);
      ASSERT_TRUE(db->Put(key, 1, value).ok());
      expect[key] = value;
    }
    ASSERT_TRUE(db->Checkpoint().ok());
  }
  ASSERT_TRUE(env_->FileExists("s00_checkpoint.dat"));
  ASSERT_TRUE(env_->CorruptFileByteForTesting("s00_checkpoint.dat", 100).ok());

  // Open must not trust the damaged checkpoint: it falls back to the AOF
  // scan and recovers everything.
  auto db = std::move(qindb::QinDb::Open(env_.get(), options)).value();
  for (const auto& [key, value] : expect) {
    Result<std::string> got = db->Get(key, 1);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
}

TEST_F(QinDbFaultTest, HardCrashLosesOnlyUnflushedTail) {
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 128 << 10;
  {
    auto db = std::move(qindb::QinDb::Open(env_.get(), options)).value();
    // Large value: most pages flush through; the final partial page sits in
    // the writer's tail buffer.
    ASSERT_TRUE(db->Put("url:big", 1, std::string(50000, 'x')).ok());
    ASSERT_TRUE(db->Put("url:tiny", 1, "y").ok());
    // Hard crash: leak the engine so nothing closes/pads the tail.
    (void)db.release();
    env_->SimulateCrashForTesting();
  }
  auto db = std::move(qindb::QinDb::Open(env_.get(), options)).value();
  // The torn-tail records are gone (detected via checksums), not garbled.
  Result<std::string> big = db->Get("url:big", 1);
  if (big.ok()) {
    EXPECT_EQ(*big, std::string(50000, 'x'));
  } else {
    EXPECT_TRUE(big.status().IsNotFound());
  }
  Result<std::string> tiny = db->Get("url:tiny", 1);
  if (tiny.ok()) {
    EXPECT_EQ(*tiny, "y");
  } else {
    EXPECT_TRUE(tiny.status().IsNotFound());
  }
}

// ---------------------------------------------------------------------------
// LSM under faults
// ---------------------------------------------------------------------------

class LsmFaultTest : public ::testing::Test {
 protected:
  LsmFaultTest()
      : env_(NewSsdEnv(ssd::InterfaceMode::kPageMappedFtl, SmallGeometry(),
                       ssd::LatencyModel(), &clock_)) {}

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

TEST_F(LsmFaultTest, CorruptedSstBlockDetected) {
  lsm::LsmOptions options;
  options.write_buffer_bytes = 64 << 10;
  options.block_cache_bytes = 0;  // No cache: reads always hit the device.
  std::string table_name;
  {
    auto db = std::move(lsm::LsmDb::Open(env_.get(), options)).value();
    Random rnd(9);
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(
          db->Put("key" + std::to_string(i), rnd.NextString(2000)).ok());
    }
    ASSERT_TRUE(db->ForceFlush().ok());
    for (const std::string& name : env_->ListFiles()) {
      if (name.find(".sst") != std::string::npos) table_name = name;
    }
    ASSERT_FALSE(table_name.empty());
    // Corrupt a data block (early in the file, away from footer/index).
    ASSERT_TRUE(env_->CorruptFileByteForTesting(table_name, 1000).ok());
    bool corruption_seen = false;
    for (int i = 0; i < 100; ++i) {
      Result<std::string> got = db->Get("key" + std::to_string(i));
      if (!got.ok()) {
        EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
        corruption_seen = true;
      }
    }
    EXPECT_TRUE(corruption_seen);
  }
}

TEST_F(LsmFaultTest, CorruptedWalSuffixDiscardedOnRecovery) {
  lsm::LsmOptions options;
  std::string wal_name;
  {
    auto db = std::move(lsm::LsmDb::Open(env_.get(), options)).value();
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db->Put("key" + std::to_string(i), "v").ok());
    }
    for (const std::string& name : env_->ListFiles()) {
      if (name.rfind("wal_", 0) == 0) wal_name = name;
    }
    ASSERT_FALSE(wal_name.empty());
    // Corrupt a record near the middle of the synced prefix after a hard
    // crash (tail unsynced).
    (void)db.release();
    env_->SimulateCrashForTesting();
  }
  Result<uint64_t> size = env_->GetFileSize(wal_name);
  ASSERT_TRUE(size.ok());
  const uint64_t persisted = (*size / 4096) * 4096;  // Full pages only.
  if (persisted > 100) {
    ASSERT_TRUE(
        env_->CorruptFileByteForTesting(wal_name, persisted / 2).ok());
  }
  // Recovery succeeds with a clean prefix; damaged suffix is dropped.
  auto db = std::move(lsm::LsmDb::Open(env_.get(), options)).value();
  int present = 0;
  for (int i = 0; i < 200; ++i) {
    if (db->Get("key" + std::to_string(i)).ok()) ++present;
  }
  EXPECT_GT(present, 0);
  EXPECT_LT(present, 200);
}

TEST_F(LsmFaultTest, CorruptedManifestReportedNotMisapplied) {
  lsm::LsmOptions options;
  options.write_buffer_bytes = 64 << 10;
  {
    auto db = std::move(lsm::LsmDb::Open(env_.get(), options)).value();
    Random rnd(10);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(
          db->Put("key" + std::to_string(i), rnd.NextString(1000)).ok());
    }
    ASSERT_TRUE(db->ForceFlush().ok());
  }
  ASSERT_TRUE(env_->CorruptFileByteForTesting("MANIFEST", 40).ok());
  // A damaged manifest yields a truncated (prefix) state, never a crash or
  // garbage state: Open either succeeds with fewer tables or fails cleanly.
  auto db = lsm::LsmDb::Open(env_.get(), options);
  if (!db.ok()) {
    EXPECT_TRUE(db.status().IsCorruption() || db.status().IsNotFound())
        << db.status().ToString();
  }
}

}  // namespace
}  // namespace directload
