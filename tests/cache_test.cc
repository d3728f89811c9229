// The read path's memory governor: the AOF block cache (striped
// segmented-LRU with TinyLFU admission). Unit tests drive BlockCache
// directly; the engine battery proves the staleness story — every path
// that kills or moves a record must evict or re-key its cached bytes —
// plus budget enforcement and survival across GC, version drops, and
// reopen.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sim_clock.h"
#include "qindb/block_cache.h"
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

std::string KeyOf(int i) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "key-%06d", i);
  return buf;
}

// ---------------------------------------------------------------------------
// BlockCache unit tests
// ---------------------------------------------------------------------------

TEST(BlockCacheTest, InsertThenLookupHits) {
  BlockCache cache(64 << 10, 0);
  cache.Insert(100, "alpha", 7, "value-bytes");
  std::string out;
  ASSERT_TRUE(cache.Lookup(100, "alpha", 7, &out));
  EXPECT_EQ(out, "value-bytes");
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_FALSE(cache.Lookup(101, "alpha", 7, &out));
}

TEST(BlockCacheTest, IdentityMismatchNeverServesAndDropsEntry) {
  BlockCache cache(64 << 10, 0);
  cache.Insert(100, "alpha", 7, "value-bytes");
  std::string out;
  // Same address, wrong version: a missed invalidation site. The cache
  // must refuse and self-heal by dropping the entry.
  EXPECT_FALSE(cache.Lookup(100, "alpha", 8, &out));
  EXPECT_FALSE(cache.Lookup(100, "alpha", 7, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(BlockCacheTest, EraseRemovesEntry) {
  BlockCache cache(64 << 10, 0);
  cache.Insert(100, "alpha", 7, "value-bytes");
  cache.Erase(100);
  std::string out;
  EXPECT_FALSE(cache.Lookup(100, "alpha", 7, &out));
  EXPECT_EQ(cache.stats().charged_bytes, 0u);
}

TEST(BlockCacheTest, RekeyFollowsRelocation) {
  BlockCache cache(64 << 10, 0);
  // Exercise both same-stripe and cross-stripe moves: addresses hash to
  // stripes via a mixer, so a spread of values covers both paths.
  for (uint64_t addr = 1; addr <= 32; ++addr) {
    const std::string key = "k" + std::to_string(addr);
    cache.Insert(addr, key, 3, "v" + std::to_string(addr));
    cache.Rekey(addr, addr + 1000);
    std::string out;
    EXPECT_FALSE(cache.Lookup(addr, key, 3, &out)) << addr;
    ASSERT_TRUE(cache.Lookup(addr + 1000, key, 3, &out)) << addr;
    EXPECT_EQ(out, "v" + std::to_string(addr));
  }
}

TEST(BlockCacheTest, BudgetIsNeverExceeded) {
  constexpr uint64_t kBudget = 16 << 10;
  BlockCache cache(kBudget, 0);
  const std::string value(512, 'x');
  for (uint64_t i = 0; i < 1000; ++i) {
    cache.Insert(i, KeyOf(static_cast<int>(i)), 1, value);
    ASSERT_LE(cache.stats().charged_bytes, kBudget) << "at insert " << i;
  }
  const BlockCache::Stats s = cache.stats();
  EXPECT_GT(s.entries, 0u);
  // A one-touch stream must not admit everything: TinyLFU rejects
  // newcomers that cannot beat a victim's frequency.
  EXPECT_GT(s.admission_rejects + s.evicted_bytes, 0u);
}

TEST(BlockCacheTest, HotEntriesSurviveOneTouchScan) {
  constexpr uint64_t kBudget = 16 << 10;
  BlockCache cache(kBudget, 0);
  const std::string value(256, 'h');
  // Build a hot set and touch it repeatedly so the sketch learns it.
  for (uint64_t i = 0; i < 8; ++i) {
    cache.Insert(i, KeyOf(static_cast<int>(i)), 1, value);
  }
  std::string out;
  for (int round = 0; round < 16; ++round) {
    for (uint64_t i = 0; i < 8; ++i) {
      cache.Lookup(i, KeyOf(static_cast<int>(i)), 1, &out);
    }
  }
  // One-touch scan of a much larger cold set.
  for (uint64_t i = 1000; i < 2000; ++i) {
    cache.Insert(i, KeyOf(static_cast<int>(i)), 1, value);
  }
  int survivors = 0;
  for (uint64_t i = 0; i < 8; ++i) {
    if (cache.Lookup(i, KeyOf(static_cast<int>(i)), 1, &out)) ++survivors;
  }
  EXPECT_GE(survivors, 6) << "scan washed out the hot set";
}

TEST(BlockCacheTest, OversizedEntryRejected) {
  BlockCache cache(4 << 10, 0);  // 1 KiB per stripe.
  const std::string huge(8 << 10, 'g');
  cache.Insert(42, "big", 1, huge);
  std::string out;
  EXPECT_FALSE(cache.Lookup(42, "big", 1, &out));
  EXPECT_GT(cache.stats().admission_rejects, 0u);
}

// ---------------------------------------------------------------------------
// Engine battery
// ---------------------------------------------------------------------------

class CacheEngineTest : public ::testing::Test {
 protected:
  CacheEngineTest() { ResetEnv(); }

  void ResetEnv() {
    clock_.Reset();
    env_ = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                     ssd::LatencyModel(), &clock_);
  }

  std::unique_ptr<QinDb> OpenDb(QinDbOptions options) {
    options.num_shards = 1;  // Undivided budgets, deterministic routing.
    if (options.aof.segment_bytes == 64ull << 20) {
      options.aof.segment_bytes = 32 << 10;  // Small segments: GC has teeth.
    }
    auto db = QinDb::Open(env_.get(), options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

TEST_F(CacheEngineTest, RepeatReadsHitTheCache) {
  QinDbOptions options;
  options.cache_bytes = 1 << 20;
  auto db = OpenDb(options);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), 1, "v" + KeyOf(i)).ok());
  }
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 50; ++i) {
      Result<std::string> got = db->Get(KeyOf(i), 1);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, "v" + KeyOf(i));
    }
  }
  const EngineCacheTotals totals = db->CacheTotals();
  EXPECT_GT(totals.cache_inserts, 0u);
  // Rounds 2 and 3 must be served from memory.
  EXPECT_GE(totals.cache_hits, 100u);
  EXPECT_LE(totals.cache_charged_bytes, options.cache_bytes);
}

TEST_F(CacheEngineTest, SupersedingPutEvictsStaleBytes) {
  QinDbOptions options;
  options.cache_bytes = 1 << 20;
  auto db = OpenDb(options);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), 1, "old-" + KeyOf(i)).ok());
    ASSERT_TRUE(db->Get(KeyOf(i), 1).ok());  // Warm the cache.
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), 1, "new-" + KeyOf(i)).ok());
    Result<std::string> got = db->Get(KeyOf(i), 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "new-" + KeyOf(i)) << "stale cached value served";
  }
}

TEST_F(CacheEngineTest, GcRelocationNeverServesStaleBytes) {
  QinDbOptions options;
  options.cache_bytes = 1 << 20;
  options.auto_gc = false;
  auto db = OpenDb(options);
  // Interleave survivors with garbage so GC must relocate live records.
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), 1, "keep-" + KeyOf(i)).ok());
    ASSERT_TRUE(db->Put("junk-" + KeyOf(i), 2, std::string(400, 'j')).ok());
  }
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(db->Get(KeyOf(i), 1).ok());
  ASSERT_TRUE(db->DropVersion(2).ok());
  ASSERT_TRUE(db->ForceGc().ok());
  for (int i = 0; i < 60; ++i) {
    Result<std::string> got = db->Get(KeyOf(i), 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "keep-" + KeyOf(i));
  }
  Result<QinDb::ScrubReport> report = db->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean());
}

TEST_F(CacheEngineTest, DelAndDropVersionLeaveNoGhostHits) {
  QinDbOptions options;
  options.cache_bytes = 1 << 20;
  auto db = OpenDb(options);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), 1, "v1-" + KeyOf(i)).ok());
    ASSERT_TRUE(db->Put(KeyOf(i), 2, "v2-" + KeyOf(i)).ok());
  }
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(db->Get(KeyOf(i), 1).ok());
    ASSERT_TRUE(db->Get(KeyOf(i), 2).ok());
  }
  ASSERT_TRUE(db->Del(KeyOf(0), 1).ok());
  EXPECT_TRUE(db->Get(KeyOf(0), 1).status().IsNotFound());
  ASSERT_TRUE(db->DropVersion(2).ok());
  for (int i = 0; i < 20; ++i) {
    EXPECT_TRUE(db->Get(KeyOf(i), 2).status().IsNotFound()) << i;
  }
  // Reopen: the dropped version must stay gone, the survivors intact.
  db.reset();
  auto db2 = OpenDb(options);
  EXPECT_TRUE(db2->Get(KeyOf(1), 2).status().IsNotFound());
  Result<std::string> got = db2->Get(KeyOf(1), 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "v1-" + KeyOf(1));
}

TEST_F(CacheEngineTest, IngestAbortLeavesNoCachedTrace) {
  QinDbOptions options;
  options.cache_bytes = 1 << 20;
  auto db = OpenDb(options);
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) keys.push_back("bulk:" + KeyOf(i));
  std::vector<IngestOp> ops(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i].key = keys[i];
    ops[i].version = 9;
    ops[i].value = "aborted";
  }
  ASSERT_TRUE(db->IngestBegin(9).ok());
  ASSERT_TRUE(db->IngestRun(9, ops.data(), ops.size()).ok());
  ASSERT_TRUE(db->IngestAbort(9).ok());
  for (const std::string& key : keys) {
    EXPECT_TRUE(db->Get(key, 9).status().IsNotFound());
  }
  // The version's number is reusable; the new load must win everywhere.
  for (size_t i = 0; i < keys.size(); ++i) ops[i].value = "landed";
  ASSERT_TRUE(db->IngestBegin(9).ok());
  ASSERT_TRUE(db->IngestRun(9, ops.data(), ops.size()).ok());
  ASSERT_TRUE(db->IngestCommit(9).ok());
  for (const std::string& key : keys) {
    Result<std::string> got = db->Get(key, 9);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "landed");
  }
}

// Version churn under concurrent readers: writers add versions and drop
// old ones while readers hammer point and latest lookups. Run under TSan
// this is the race battery for cache invalidation on DropVersion vs the
// lock-free read path; under any build it asserts no stale or phantom
// value is ever served.
TEST_F(CacheEngineTest, VersionChurnUnderConcurrentReaders) {
  QinDbOptions options;
  options.cache_bytes = 256 << 10;
  auto db = OpenDb(options);
  constexpr int kKeys = 40;
  constexpr uint64_t kVersions = 12;
  std::atomic<uint64_t> published{0};
  std::atomic<bool> stop{false};

  std::thread writer([&] {
    for (uint64_t v = 1; v <= kVersions; ++v) {
      for (int i = 0; i < kKeys; ++i) {
        ASSERT_TRUE(
            db->Put(KeyOf(i), v, "v" + std::to_string(v) + "-" + KeyOf(i))
                .ok());
      }
      published.store(v, std::memory_order_release);
      if (v > 4) {
        // Drop the oldest surviving version.
        ASSERT_TRUE(db->DropVersion(v - 4).ok());
      }
    }
    stop.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint64_t rng = 0x9e3779b9u + t;
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t high = published.load(std::memory_order_acquire);
        if (high == 0) continue;
        rng = rng * 6364136223846793005ull + 1442695040888963407ull;
        const int key = static_cast<int>((rng >> 33) % kKeys);
        if (rng & 1) {
          // A fully published version may since have been dropped —
          // NotFound is legal; a wrong value never is.
          const uint64_t v = 1 + ((rng >> 17) % high);
          Result<std::string> got = db->Get(KeyOf(key), v);
          if (got.ok()) {
            ASSERT_EQ(*got, "v" + std::to_string(v) + "-" + KeyOf(key));
          }
        } else {
          Result<std::string> got = db->GetLatest(KeyOf(key));
          if (got.ok()) {
            // Latest is some fully- or partially-published version.
            const std::string& value = *got;
            ASSERT_EQ(value.rfind("v", 0), 0u);
            ASSERT_NE(value.find("-" + KeyOf(key)), std::string::npos);
          }
        }
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();

  for (int i = 0; i < kKeys; ++i) {
    Result<std::string> got = db->Get(KeyOf(i), kVersions);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(kVersions) + "-" + KeyOf(i));
  }
}

}  // namespace
}  // namespace directload::qindb
