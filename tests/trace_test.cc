// Tests of the workload trace format and replay (the stand-in for the
// paper's production trace replays), plus the integrity scrubber and device
// wear tracking.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "common/random.h"
#include "common/sim_clock.h"
#include "index/trace.h"
#include "qindb/qindb.h"
#include "ssd/device.h"
#include "ssd/env.h"
#include "ssd/native.h"

namespace directload::webindex {
namespace {

ssd::Geometry SmallGeometry() {
  ssd::Geometry g;
  g.pages_per_block = 8;
  g.num_blocks = 4096;
  return g;
}

TraceRecord Put(const std::string& key, uint64_t version,
                const std::string& value) {
  return TraceRecord{TraceOp::kPut, key, version, value};
}

TEST(TraceFormatTest, RoundTripAllOps) {
  std::string buffer;
  AppendTraceRecord(&buffer, Put("k1", 1, "value-1"));
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kDedupPut, "k1", 2, ""});
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kGet, "k1", 2, ""});
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kDel, "k1", 1, ""});
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kDropVersion, "", 1, ""});

  Result<std::vector<TraceRecord>> records = ParseTrace(buffer);
  ASSERT_TRUE(records.ok());
  ASSERT_EQ(records->size(), 5u);
  EXPECT_EQ((*records)[0].op, TraceOp::kPut);
  EXPECT_EQ((*records)[0].value, "value-1");
  EXPECT_EQ((*records)[1].op, TraceOp::kDedupPut);
  EXPECT_EQ((*records)[4].version, 1u);
}

TEST(TraceFormatTest, CorruptionDetected) {
  std::string buffer;
  AppendTraceRecord(&buffer, Put("key", 3, "some value bytes"));
  for (size_t i = 0; i < buffer.size(); i += 2) {
    std::string damaged = buffer;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x10);
    EXPECT_FALSE(ParseTrace(damaged).ok()) << "byte " << i;
  }
  // Truncations too.
  for (size_t cut = 1; cut < buffer.size(); cut += 3) {
    EXPECT_FALSE(ParseTrace(Slice(buffer.data(), cut)).ok()) << cut;
  }
}

TEST(TraceFormatTest, FilePersistenceRoundTrip) {
  std::string buffer;
  Random rnd(3);
  for (int i = 0; i < 50; ++i) {
    AppendTraceRecord(&buffer,
                      Put("key" + std::to_string(i), 1, rnd.NextString(100)));
  }
  const std::string path = "/tmp/directload_trace_test.bin";
  ASSERT_TRUE(SaveTraceFile(path, buffer).ok());
  Result<std::string> loaded = LoadTraceFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, buffer);
  std::remove(path.c_str());
  EXPECT_TRUE(LoadTraceFile("/tmp/definitely-missing-xyz").status().IsNotFound());
}

TEST(TraceReplayTest, ReplayReconstructsState) {
  std::string buffer;
  Random rnd(4);
  const std::string v1 = rnd.NextString(1000);
  AppendTraceRecord(&buffer, Put("url:a", 1, v1));
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kDedupPut, "url:a", 2, ""});
  AppendTraceRecord(&buffer, Put("url:b", 1, "bee"));
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kDel, "url:b", 1, ""});
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kGet, "url:a", 2, ""});
  AppendTraceRecord(&buffer, TraceRecord{TraceOp::kGet, "url:zzz", 1, ""});

  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  auto db = std::move(qindb::QinDb::Open(
                          env.get(), qindb::QinDbOptions{.num_shards = 1}))
                .value();
  Result<TraceReplayStats> stats = ReplayTrace(buffer, db.get());
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->puts, 2u);
  EXPECT_EQ(stats->dedup_puts, 1u);
  EXPECT_EQ(stats->dels, 1u);
  EXPECT_EQ(stats->gets, 2u);
  EXPECT_EQ(stats->get_misses, 1u);

  EXPECT_EQ(*db->Get("url:a", 2), v1);
  EXPECT_TRUE(db->Get("url:b", 1).status().IsNotFound());
}

TEST(TraceReplayTest, ReplayIsDeterministic) {
  // Two engines replaying the same trace end in identical logical state.
  std::string buffer;
  Random rnd(5);
  for (int i = 0; i < 400; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(40));
    const uint64_t version = 1 + rnd.Uniform(4);
    const uint64_t dice = rnd.Uniform(10);
    if (dice < 6) {
      AppendTraceRecord(&buffer, Put(key, version, rnd.NextString(300)));
    } else if (dice < 8) {
      AppendTraceRecord(&buffer, TraceRecord{TraceOp::kDel, key, version, ""});
    } else {
      AppendTraceRecord(&buffer, TraceRecord{TraceOp::kGet, key, version, ""});
    }
  }
  SimClock clocks[2];
  std::unique_ptr<ssd::SsdEnv> envs[2];
  std::unique_ptr<qindb::QinDb> dbs[2];  // Declared last: closed before the envs die.
  for (int i = 0; i < 2; ++i) {
    envs[i] = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                        ssd::LatencyModel(), &clocks[i]);
    dbs[i] = std::move(qindb::QinDb::Open(
                           envs[i].get(),
                           qindb::QinDbOptions{.num_shards = 1}))
                 .value();
    ASSERT_TRUE(ReplayTrace(buffer, dbs[i].get()).ok());
  }
  for (int k = 0; k < 40; ++k) {
    for (uint64_t v = 1; v <= 4; ++v) {
      const std::string key = "key" + std::to_string(k);
      Result<std::string> a = dbs[0]->Get(key, v);
      Result<std::string> b = dbs[1]->Get(key, v);
      EXPECT_EQ(a.ok(), b.ok()) << key << "@" << v;
      if (a.ok()) {
        EXPECT_EQ(*a, *b);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Scrub
// ---------------------------------------------------------------------------

TEST(ScrubTest, CleanStoreScrubsClean) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 256 << 10;
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  Random rnd(6);
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db->Put("k" + std::to_string(i), 1, rnd.NextString(1000)).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(db->Put("k" + std::to_string(i), 2, Slice(), true).ok());
    }
  }
  Result<qindb::QinDb::ScrubReport> report = db->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
  EXPECT_EQ(report->entries_checked, 80u);
  EXPECT_GT(report->bytes_verified, 60u * 1000u);
}

TEST(ScrubTest, ScrubFindsInjectedCorruption) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 256 << 10;
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  Random rnd(7);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db->Put("k" + std::to_string(i), 1, rnd.NextString(2000)).ok());
  }
  ASSERT_TRUE(db->aof().SealActive().ok());
  ASSERT_TRUE(
      env->CorruptFileByteForTesting("s00_aof_00000000.dat", 3000).ok());
  Result<qindb::QinDb::ScrubReport> report = db->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->clean());
  EXPECT_EQ(report->damaged_entries, 1u);
  EXPECT_EQ(report->entries_checked, 40u);
}

// ---------------------------------------------------------------------------
// Wear tracking
// ---------------------------------------------------------------------------

TEST(WearTest, EraseCountsAccumulate) {
  SimClock clock;
  ssd::Geometry geometry;
  geometry.pages_per_block = 8;
  geometry.num_blocks = 16;
  ssd::SsdDevice dev(geometry, ssd::LatencyModel(), &clock);
  EXPECT_EQ(dev.MaxEraseCount(), 0u);
  const std::string page(geometry.page_size, 'x');
  for (int round = 0; round < 3; ++round) {
    ASSERT_TRUE(dev.ProgramPage(0, page).ok());
    ASSERT_TRUE(dev.InvalidatePage(0).ok());
    ASSERT_TRUE(dev.EraseBlock(0).ok());
  }
  EXPECT_EQ(dev.BlockEraseCount(0), 3u);
  EXPECT_EQ(dev.MaxEraseCount(), 3u);
  EXPECT_NEAR(dev.MeanEraseCount(), 3.0 / 16.0, 1e-9);
}

TEST(WearTest, NativeFifoAllocationSpreadsWear) {
  // QinDB's AOF pattern recycles blocks through a FIFO free list, so wear
  // spreads evenly — the simulator's stand-in for wear leveling.
  SimClock clock;
  ssd::Geometry geometry;
  geometry.pages_per_block = 8;
  geometry.num_blocks = 32;
  ssd::NativeSsd native(geometry, ssd::LatencyModel(), &clock);
  const std::string page(geometry.page_size, 'x');
  for (int cycle = 0; cycle < 200; ++cycle) {
    Result<uint32_t> block = native.AllocateBlock();
    ASSERT_TRUE(block.ok());
    for (uint32_t p = 0; p < geometry.pages_per_block; ++p) {
      ASSERT_TRUE(native.AppendPage(*block, page).ok());
    }
    ASSERT_TRUE(native.ReleaseBlock(*block).ok());
  }
  const double mean = native.device().MeanEraseCount();
  EXPECT_NEAR(mean, 200.0 / 32.0, 1.0);
  // No block is worn disproportionately.
  EXPECT_LE(native.device().MaxEraseCount(), mean * 2);
}

}  // namespace
}  // namespace directload::webindex
