// Tests for the extension features beyond the paper's minimum: QinDB range
// scans (the sorted-memtable advantage over hash-based stores) and periodic
// checkpointing.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "common/sim_clock.h"
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

class ScannerTest : public ::testing::Test {
 protected:
  ScannerTest()
      : env_(NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock_)) {
    qindb::QinDbOptions options;
    options.num_shards = 1;
    options.aof.segment_bytes = 256 << 10;
    db_ = std::move(qindb::QinDb::Open(env_.get(), options)).value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
  std::unique_ptr<qindb::QinDb> db_;
};

TEST_F(ScannerTest, OrderedFullScan) {
  ASSERT_TRUE(db_->Put("c", 1, "cv").ok());
  ASSERT_TRUE(db_->Put("a", 1, "av").ok());
  ASSERT_TRUE(db_->Put("b", 1, "bv").ok());
  std::vector<std::string> keys;
  auto scan = db_->NewScanner();
  for (scan.SeekToFirst(); scan.Valid(); scan.Next()) {
    keys.push_back(scan.key().ToString());
    EXPECT_TRUE(scan.value().ok());
  }
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(ScannerTest, SeekLandsOnLowerBound) {
  for (const char* k : {"aa", "cc", "ee"}) {
    ASSERT_TRUE(db_->Put(k, 1, k).ok());
  }
  auto scan = db_->NewScanner();
  scan.Seek("bb");
  ASSERT_TRUE(scan.Valid());
  EXPECT_EQ(scan.key().ToString(), "cc");
  scan.Seek("ee");
  ASSERT_TRUE(scan.Valid());
  EXPECT_EQ(scan.key().ToString(), "ee");
  scan.Seek("zz");
  EXPECT_FALSE(scan.Valid());
}

TEST_F(ScannerTest, VersionedSnapshotSemantics) {
  ASSERT_TRUE(db_->Put("k1", 1, "k1v1").ok());
  ASSERT_TRUE(db_->Put("k1", 3, "k1v3").ok());
  ASSERT_TRUE(db_->Put("k2", 2, "k2v2").ok());
  ASSERT_TRUE(db_->Put("k3", 4, "k3v4").ok());

  // Scan at version 2: k1@1, k2@2 visible; k3 (born at 4) is not.
  auto scan = db_->NewScanner(2);
  scan.SeekToFirst();
  ASSERT_TRUE(scan.Valid());
  EXPECT_EQ(scan.key().ToString(), "k1");
  EXPECT_EQ(scan.version(), 1u);
  EXPECT_EQ(*scan.value(), "k1v1");
  scan.Next();
  ASSERT_TRUE(scan.Valid());
  EXPECT_EQ(scan.key().ToString(), "k2");
  EXPECT_EQ(*scan.value(), "k2v2");
  scan.Next();
  EXPECT_FALSE(scan.Valid());

  // Scan at the newest state sees all three, at their newest versions.
  auto newest = db_->NewScanner();
  size_t n = 0;
  for (newest.SeekToFirst(); newest.Valid(); newest.Next()) ++n;
  EXPECT_EQ(n, 3u);
}

TEST_F(ScannerTest, SkipsDeletedAndResolvesDedup) {
  ASSERT_TRUE(db_->Put("gone", 1, "x").ok());
  ASSERT_TRUE(db_->Del("gone", 1).ok());
  ASSERT_TRUE(db_->Put("dd", 1, "original").ok());
  ASSERT_TRUE(db_->Put("dd", 2, Slice(), /*dedup=*/true).ok());

  auto scan = db_->NewScanner();
  scan.SeekToFirst();
  ASSERT_TRUE(scan.Valid());
  EXPECT_EQ(scan.key().ToString(), "dd");
  EXPECT_EQ(scan.version(), 2u);                 // Newest version wins.
  EXPECT_EQ(*scan.value(), "original");          // Resolved by traceback.
  scan.Next();
  EXPECT_FALSE(scan.Valid());  // "gone" is deleted at its newest version.
}

TEST_F(ScannerTest, MatchesModelOnRandomData) {
  Random rnd(50);
  std::map<std::string, std::string> model;  // newest live value per key.
  for (int i = 0; i < 300; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(60));
    const uint64_t version = 1 + rnd.Uniform(4);
    const std::string value = rnd.NextString(200);
    ASSERT_TRUE(db_->Put(key, version, value).ok());
  }
  // Build the model from exact engine semantics: newest version per key.
  model.clear();
  for (int k = 0; k < 60; ++k) {
    const std::string key = "key" + std::to_string(k);
    Result<std::string> got = db_->GetLatest(key);
    if (got.ok()) model[key] = *got;
  }
  auto scan = db_->NewScanner();
  auto expected = model.begin();
  for (scan.SeekToFirst(); scan.Valid(); scan.Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(scan.key().ToString(), expected->first);
    EXPECT_EQ(*scan.value(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
}

// ---------------------------------------------------------------------------
// Periodic checkpointing
// ---------------------------------------------------------------------------

TEST(PeriodicCheckpointTest, CheckpointsAppearAtConfiguredInterval) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 256 << 10;
  options.checkpoint_interval_bytes = 64 << 10;
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  Random rnd(8);
  EXPECT_FALSE(env->FileExists("s00_checkpoint.dat"));
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        db->Put("k" + std::to_string(i), 1, rnd.NextString(2000)).ok());
  }
  // 80 KB ingested > 64 KB interval: a checkpoint must exist.
  EXPECT_TRUE(env->FileExists("s00_checkpoint.dat"));

  // Recovery uses it: reads only the checkpoint + post-checkpoint suffix.
  db.reset();
  const uint64_t before = env->stats().host_pages_read;
  auto reopened = std::move(qindb::QinDb::Open(env.get(), options)).value();
  const uint64_t recovery_reads = env->stats().host_pages_read - before;
  EXPECT_LT(recovery_reads, 40u);  // Far less than the ~20 full data pages x40.
  for (int i = 0; i < 40; ++i) {
    EXPECT_TRUE(reopened->Get("k" + std::to_string(i), 1).ok()) << i;
  }
}

}  // namespace
}  // namespace directload
