// Error-path coverage: every public fallible operation must fail with the
// documented Status on bad input — never crash, never silently succeed.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aof/aof_manager.h"
#include "bifrost/wire/slice_codec.h"
#include "common/failpoint.h"
#include "common/sim_clock.h"
#include "lsm/db.h"
#include "mint/cluster.h"
#include "qindb/qindb.h"
#include "ssd/env.h"
#include "ssd/ftl.h"

namespace directload {
namespace {

ssd::Geometry SmallGeometry() {
  ssd::Geometry g;
  g.pages_per_block = 8;
  g.num_blocks = 1024;
  return g;
}

// ---------------------------------------------------------------------------
// Env
// ---------------------------------------------------------------------------

TEST(EnvErrorTest, MissingFileOperations) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  EXPECT_TRUE(env->GetFileSize("nope").status().IsNotFound());
  EXPECT_TRUE(env->RenameFile("nope", "other").IsNotFound());
  EXPECT_TRUE(env->DeleteFile("nope").IsNotFound());
  EXPECT_FALSE(env->FileExists("nope"));
}

TEST(EnvErrorTest, ReadBeyondPersistedRejected) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kPageMappedFtl, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  auto file = env->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append(std::string(100, 'x')).ok());  // Unflushed.
  auto reader = env->NewRandomAccessFile("f");
  ASSERT_TRUE(reader.ok());
  std::string out;
  EXPECT_TRUE((*reader)->Read(50, 10, &out).IsInvalidArgument());
  // After close, readable.
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE((*reader)->Read(50, 10, &out).ok());
}

TEST(EnvErrorTest, AppendToClosedFileRejected) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  auto file = env->NewWritableFile("f");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_TRUE((*file)->Append("x").IsInvalidArgument());
  EXPECT_TRUE((*file)->Close().ok());  // Idempotent.
}

// ---------------------------------------------------------------------------
// FTL
// ---------------------------------------------------------------------------

TEST(FtlErrorTest, OutOfRangeAddresses) {
  SimClock clock;
  ssd::FtlDevice ftl(SmallGeometry(), ssd::LatencyModel(), &clock);
  const std::string page(4096, 'x');
  EXPECT_TRUE(ftl.Write(ftl.logical_pages(), page).IsInvalidArgument());
  std::string out;
  EXPECT_TRUE(ftl.Read(UINT64_MAX, &out).IsInvalidArgument());
  EXPECT_TRUE(ftl.Trim(ftl.logical_pages() + 7).IsInvalidArgument());
  EXPECT_TRUE(ftl.Trim(0).ok());  // Unmapped trim is a no-op.
}

// ---------------------------------------------------------------------------
// AOF manager
// ---------------------------------------------------------------------------

class AofErrorTest : public ::testing::Test {
 protected:
  AofErrorTest()
      : env_(NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock_)) {
    aof::AofOptions options;
    options.segment_bytes = 64 << 10;
    mgr_ = std::move(aof::AofManager::Open(env_.get(), options)).value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
  std::unique_ptr<aof::AofManager> mgr_;
};

TEST_F(AofErrorTest, OversizedKeyRejected) {
  const std::string huge_key(70000, 'k');
  EXPECT_TRUE(mgr_->AppendRecord(huge_key, 1, aof::kFlagNone, "v")
                  .status()
                  .IsInvalidArgument());
}

TEST_F(AofErrorTest, UnknownSegmentOperations) {
  aof::RecordView view;
  EXPECT_TRUE(mgr_->ReadRecord(aof::RecordAddress{99, 0}, 0, &view)
                  .IsNotFound());
  EXPECT_DOUBLE_EQ(mgr_->Occupancy(99), 1.0);  // Unknown = conservative.
  EXPECT_TRUE(mgr_->CollectSegment(
                      99,
                      [](const aof::RecordAddress&, const aof::RecordView&,
                         uint8_t*) {
                        return true;
                      },
                      [](const aof::RecordAddress&, const aof::RecordAddress&,
                         const aof::RecordView&) {},
                      [](const aof::RecordAddress&, const aof::RecordView&) {})
                  .IsNotFound());
  mgr_->MarkDead(aof::RecordAddress{99, 0}, 100);  // Silently ignored.
}

TEST_F(AofErrorTest, ReadPastSegmentEndRejected) {
  Result<aof::RecordAddress> addr =
      mgr_->AppendRecord("k", 1, aof::kFlagNone, "v");
  ASSERT_TRUE(addr.ok());
  aof::RecordView view;
  EXPECT_FALSE(mgr_->ReadRecord(aof::RecordAddress{0, 1 << 20}, 0, &view).ok());
}

TEST_F(AofErrorTest, TinySegmentConfigRejected) {
  aof::AofOptions options;
  options.segment_bytes = 4;  // Smaller than a record header.
  EXPECT_TRUE(aof::AofManager::Open(env_.get(), options)
                  .status()
                  .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// QinDB
// ---------------------------------------------------------------------------

class QinDbErrorTest : public ::testing::Test {
 protected:
  QinDbErrorTest()
      : env_(NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock_)) {
    db_ = std::move(qindb::QinDb::Open(env_.get(),
                                        qindb::QinDbOptions{.num_shards = 1}))
              .value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
  std::unique_ptr<qindb::QinDb> db_;
};

TEST_F(QinDbErrorTest, EmptyStoreBehaviors) {
  EXPECT_TRUE(db_->Get("k", 1).status().IsNotFound());
  EXPECT_TRUE(db_->GetLatest("k").status().IsNotFound());
  EXPECT_TRUE(db_->Del("k", 1).IsNotFound());
  Result<uint64_t> dropped = db_->DropVersion(1);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(*dropped, 0u);
  EXPECT_TRUE(db_->MaybeGc().ok());
  EXPECT_TRUE(db_->ForceGc().ok());
  Result<qindb::QinDb::ScrubReport> scrub = db_->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->clean());
  EXPECT_EQ(scrub->entries_checked, 0u);
  auto scan = db_->NewScanner();
  scan.SeekToFirst();
  EXPECT_FALSE(scan.Valid());
  EXPECT_TRUE(scan.value().status().IsInvalidArgument());
  EXPECT_TRUE(db_->Checkpoint().ok());  // Empty checkpoint is fine...
  auto reopened = qindb::QinDb::Open(env_.get(), {});
  EXPECT_TRUE(reopened.ok());  // ...and recoverable.
}

TEST_F(QinDbErrorTest, DegradedReadOnlyModeAfterInjectedWriteFailure) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  failpoint::Registry& reg = failpoint::Registry::Instance();
  ASSERT_TRUE(db_->Put("k1", 1, "v1").ok());
  ASSERT_FALSE(db_->degraded());

  // One injected device-level append failure fail-stops the engine.
  ASSERT_TRUE(reg.Activate("ssd_file_append", "1*return(io)").ok());
  Status s = db_->Put("k2", 1, "v2");
  reg.DeactivateAll();
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_TRUE(db_->degraded());

  // Every mutation keeps failing even though the injection is gone — the
  // engine refuses to ack onto a log in an unknown state.
  EXPECT_TRUE(db_->Put("k3", 1, "v3").IsIOError());
  EXPECT_TRUE(db_->Del("k1", 1).IsIOError());
  EXPECT_TRUE(db_->DropVersion(1).status().IsIOError());
  EXPECT_TRUE(db_->Checkpoint().IsIOError());
  EXPECT_TRUE(db_->ForceGc().IsIOError());
  EXPECT_TRUE(db_->MaybeGc().IsIOError());

  // Reads still serve everything written before the fault.
  Result<std::string> got = db_->Get("k1", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v1");

  // Reopening runs recovery and clears the condition.
  db_.reset();
  db_ = std::move(qindb::QinDb::Open(env_.get(),
                                        qindb::QinDbOptions{.num_shards = 1}))
              .value();
  EXPECT_FALSE(db_->degraded());
  EXPECT_TRUE(db_->Put("k2", 1, "v2").ok());
  got = db_->Get("k1", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v1");
}

TEST_F(QinDbErrorTest, NoSpaceDoesNotDegrade) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  failpoint::Registry& reg = failpoint::Registry::Instance();
  // kNoSpace is an environmental rejection, not a torn write: the engine
  // must stay read-write so callers can free space and continue.
  ASSERT_TRUE(reg.Activate("ssd_file_append", "1*return(nospace)").ok());
  Status s = db_->Put("k1", 1, "v1");
  reg.DeactivateAll();
  EXPECT_TRUE(s.IsNoSpace()) << s.ToString();
  EXPECT_FALSE(db_->degraded());
  EXPECT_TRUE(db_->Put("k1", 1, "v1").ok());
}

// A read holds only its own shard's read/GC lock, from its index lookup to
// its record bytes. Paused there (inside the cache lookup), it leaves
// another shard's lazy GC free to collect, and a collection of the segment
// it reads waits for it instead of moving the record away.
TEST(QinDbReadGcTest, PausedReadHoldsOffOnlyItsOwnShardsGc) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  using Clock = std::chrono::steady_clock;
  failpoint::Registry& reg = failpoint::Registry::Instance();
  failpoint::FailPoint* pause = reg.Register("cache_lookup");
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = 2;
  options.aof.segment_bytes = 16 << 10;
  options.cache_bytes = 1 << 20;  // The pause point is the cache lookup.
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  const std::string value(2000, 'v');
  std::vector<std::string> keys[2];
  for (int i = 0; keys[0].size() < 24 || keys[1].size() < 24; ++i) {
    const std::string key = "k" + std::to_string(i);
    std::vector<std::string>& shard_keys = keys[db->ShardOf(key)];
    if (shard_keys.size() == 24) continue;
    shard_keys.push_back(key);
    ASSERT_TRUE(db->Put(key, 1, value).ok());
  }
  // Shard 0 keeps one live pair; every other record of it is garbage, so
  // once sealed, the segment holding that pair is a victim.
  const std::string& read_key = keys[0].front();
  for (size_t i = 1; i < keys[0].size(); ++i) {
    ASSERT_TRUE(db->Del(keys[0][i], 1).ok());
  }
  ASSERT_TRUE(db->SealActive().ok());

  Result<std::string> read = Status::Internal("not read");
  auto paused_read = [&](int delay_ms) {
    const uint64_t hits = pause->hits();
    EXPECT_TRUE(reg.Activate("cache_lookup",
                             "1*delay(" + std::to_string(delay_ms) + ")")
                    .ok());
    std::thread reader([&] { read = db->Get(read_key, 1); });
    while (pause->hits() == hits) std::this_thread::yield();
    return reader;
  };

  // Lazy GC on shard 1, at its DELs' write boundaries, while the read on
  // shard 0 is paused.
  std::thread reader = paused_read(1500);
  const uint64_t reclaimed = db->gc_stats().segments_reclaimed;
  for (const std::string& key : keys[1]) EXPECT_TRUE(db->Del(key, 1).ok());
  EXPECT_GT(db->gc_stats().segments_reclaimed, reclaimed);
  EXPECT_EQ(db->stats().gc_deferrals, 0u);
  reader.join();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, value);

  // Collecting shard 0's victims, the read's own segment among them, waits
  // until the paused read has its bytes.
  constexpr int kPauseMs = 1000;
  const Clock::time_point start = Clock::now();
  reader = paused_read(kPauseMs);
  const uint64_t before_gc = db->gc_stats().segments_reclaimed;
  const Status gc = db->ForceGc();
  const Clock::duration waited = Clock::now() - start;
  reader.join();
  reg.DeactivateAll();
  ASSERT_TRUE(gc.ok()) << gc.ToString();
  EXPECT_GT(db->gc_stats().segments_reclaimed, before_gc);
  EXPECT_GE(waited, std::chrono::milliseconds(kPauseMs));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, value);
  EXPECT_EQ(*db->Get(read_key, 1), value);
}

TEST(QinDbBulkErrorTest, FailedBeginLeavesNoSessionOnAnyShard) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  failpoint::Registry& reg = failpoint::Registry::Instance();
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = 2;
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  std::string keys[2];
  for (int i = 0; keys[0].empty() || keys[1].empty(); ++i) {
    const std::string key = "k" + std::to_string(i);
    keys[db->ShardOf(key)] = key;
  }

  // Degrade shard 1 only: one injected append failure under its Put.
  ASSERT_TRUE(reg.Activate("ssd_file_append", "1*return(io)").ok());
  Status s = db->Put(keys[1], 1, "v");
  reg.DeactivateAll();
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  ASSERT_TRUE(db->Put(keys[0], 1, "v").ok());

  // Shard 0 opens its session before shard 1 refuses; the refused begin
  // must take it back.
  EXPECT_TRUE(db->IngestBegin(2).IsIOError());
  qindb::IngestOp op;
  op.key = keys[0];
  op.version = 2;
  op.value = "bulk";
  EXPECT_TRUE(db->IngestRun(2, &op, 1).IsInvalidArgument());
  // No session defers shard 0's GC: ForceGc passes it and stops at the
  // degraded shard 1.
  Status gc = db->ForceGc();
  EXPECT_TRUE(gc.IsIOError()) << gc.ToString();
}

// ---------------------------------------------------------------------------
// Mint
// ---------------------------------------------------------------------------

TEST(MintErrorTest, GuardsAndUnavailability) {
  mint::MintOptions options;
  options.num_groups = 1;
  options.nodes_per_group = 3;
  options.node_geometry = SmallGeometry();
  mint::MintCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());

  EXPECT_TRUE(cluster.FailNode(-1).IsInvalidArgument());
  EXPECT_TRUE(cluster.RecoverNode(99).status().IsInvalidArgument());
  EXPECT_TRUE(cluster.AddNode(5).status().IsInvalidArgument());
  // Recovering an up node is a misuse, not a silent reopen.
  EXPECT_TRUE(cluster.RecoverNode(0).status().IsInvalidArgument());

  EXPECT_TRUE(cluster.Get("missing", 1).status().IsNotFound());
  EXPECT_TRUE(cluster.Del("missing", 1).IsNotFound());

  // All nodes down: every operation degrades to Unavailable, and the error
  // names the group so operators can tell "pair is gone" from "nobody
  // could answer". Del in particular must NOT report NotFound here.
  for (int n = 0; n < 3; ++n) ASSERT_TRUE(cluster.FailNode(n).ok());
  Status put = cluster.Put("k", 1, "v");
  EXPECT_TRUE(put.IsUnavailable());
  EXPECT_NE(put.ToString().find("group"), std::string::npos) << put.ToString();
  Status get = cluster.Get("k", 1).status();
  EXPECT_TRUE(get.IsUnavailable());
  EXPECT_NE(get.ToString().find("group"), std::string::npos) << get.ToString();
  Status del = cluster.Del("k", 1);
  EXPECT_TRUE(del.IsUnavailable()) << del.ToString();
  EXPECT_NE(del.ToString().find("group"), std::string::npos) << del.ToString();
}

mint::MintOptions TwoReplicaOptions() {
  mint::MintOptions options;
  options.num_groups = 1;
  options.nodes_per_group = 2;
  options.replicas = 2;
  options.node_geometry = SmallGeometry();
  options.engine.num_shards = 1;
  return options;
}

// Degrades one node's engine with one injected device append failure.
void DegradeNode(mint::MintCluster* cluster, int id) {
  failpoint::Registry& reg = failpoint::Registry::Instance();
  ASSERT_TRUE(reg.Activate("ssd_file_append", "1*return(io)").ok());
  Status s = cluster->node(id)->db()->Put("poison", 1, "v");
  reg.DeactivateAll();
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
}

TEST(MintErrorTest, FailedBulkBeginLeavesNoSessionOnAnyNode) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  mint::MintCluster cluster(TwoReplicaOptions());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_NO_FATAL_FAILURE(DegradeNode(&cluster, 1));

  // Node 0 opens its session before node 1 refuses; the refused begin must
  // take it back.
  EXPECT_TRUE(cluster.BulkBegin(2).IsIOError());
  qindb::QinDb* healthy = cluster.node(0)->db();
  qindb::IngestOp op;
  op.key = "k";
  op.version = 2;
  op.value = "bulk";
  EXPECT_TRUE(healthy->IngestRun(2, &op, 1).IsInvalidArgument());
  Status gc = healthy->ForceGc();
  EXPECT_TRUE(gc.ok()) << gc.ToString();
}

TEST(MintErrorTest, DropVersionVisitsEveryNodePastAFailure) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites not compiled in (DIRECTLOAD_FAILPOINTS)";
  }
  mint::MintCluster cluster(TwoReplicaOptions());
  ASSERT_TRUE(cluster.Start().ok());
  ASSERT_TRUE(cluster.Put("k", 1, "v").ok());  // On both nodes.
  ASSERT_NO_FATAL_FAILURE(DegradeNode(&cluster, 0));

  EXPECT_TRUE(cluster.DropVersion(1).IsIOError());
  EXPECT_EQ(cluster.node(1)->db()->VersionCounts().count(1), 0u);
}

// ---------------------------------------------------------------------------
// LSM
// ---------------------------------------------------------------------------

TEST(LsmErrorTest, EmptyKeysAndEmptyStore) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kPageMappedFtl, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  auto db = std::move(lsm::LsmDb::Open(env.get(), {})).value();
  EXPECT_TRUE(db->Put("", "v").IsInvalidArgument());
  EXPECT_TRUE(db->Delete("").IsInvalidArgument());
  EXPECT_TRUE(db->Get("anything").status().IsNotFound());
  EXPECT_TRUE(db->ForceFlush().ok());  // Empty flush is a no-op.
  EXPECT_TRUE(db->CompactUntilQuiescent().ok());
  auto it = db->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
}

// ---------------------------------------------------------------------------
// Bifrost slices
// ---------------------------------------------------------------------------

TEST(SliceErrorTest, DefaultSliceFailsVerification) {
  bifrost::wire::SliceHeader header;
  std::vector<qindb::IngestOp> pairs;
  // No bytes at all: not even a header to check.
  EXPECT_TRUE(bifrost::wire::CheckSliceFrame("", &header).IsProtocol());
  EXPECT_TRUE(
      bifrost::wire::DecodeSlicePacket("", &header, &pairs).IsProtocol());
  // A zero-filled frame of the minimum size: its trailer does not vouch
  // for its bytes.
  const std::string zeros(bifrost::wire::kSliceHeaderBytes +
                              bifrost::wire::kSliceTrailerBytes,
                          '\0');
  EXPECT_TRUE(bifrost::wire::CheckSliceFrame(zeros, &header).IsCorruption());
  EXPECT_TRUE(
      bifrost::wire::DecodeSlicePacket(zeros, &header, &pairs).IsCorruption());
  EXPECT_TRUE(pairs.empty());
}

}  // namespace
}  // namespace directload
