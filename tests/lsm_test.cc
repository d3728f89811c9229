#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "lsm/block.h"
#include "lsm/bloom.h"
#include "lsm/cache.h"
#include "lsm/db.h"
#include "lsm/format.h"
#include "lsm/sstable.h"
#include "lsm/version.h"
#include "lsm/wal.h"
#include "ssd/env.h"

namespace directload::lsm {
namespace {

ssd::Geometry TestGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 8192;  // 256 MiB device.
  return g;
}

LsmOptions SmallOptions() {
  LsmOptions o;
  o.write_buffer_bytes = 64 << 10;
  o.max_bytes_for_level_base = 256 << 10;
  o.target_file_bytes = 64 << 10;
  o.block_cache_bytes = 256 << 10;
  return o;
}

// ---------------------------------------------------------------------------
// Blocks
// ---------------------------------------------------------------------------

TEST(BlockTest, BuildAndIterate) {
  BlockBuilder builder(4);
  std::vector<std::pair<std::string, std::string>> entries;
  for (int i = 0; i < 100; ++i) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%04d", i);
    entries.emplace_back(key, "value" + std::to_string(i));
  }
  for (const auto& [k, v] : entries) builder.Add(k, v);
  Block block(builder.Finish().ToString());
  auto it = block.NewIterator(BytewiseComparator());
  EXPECT_FALSE(it->Valid());
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->key().ToString(), entries[n].first);
    EXPECT_EQ(it->value().ToString(), entries[n].second);
    ++n;
  }
  EXPECT_EQ(n, entries.size());
  EXPECT_TRUE(it->status().ok());
}

TEST(BlockTest, SeekSemantics) {
  BlockBuilder builder(4);
  for (const char* k : {"b", "d", "f", "h"}) builder.Add(k, k);
  Block block(builder.Finish().ToString());
  auto it = block.NewIterator(BytewiseComparator());
  it->Seek("d");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "d");
  it->Seek("e");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "f");
  it->Seek("a");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key().ToString(), "b");
  it->Seek("z");
  EXPECT_FALSE(it->Valid());
}

TEST(BlockTest, PrefixCompressionRoundTrip) {
  BlockBuilder builder(16);
  std::vector<std::string> keys;
  for (int i = 0; i < 200; ++i) {
    keys.push_back("common/long/prefix/key" + std::to_string(1000 + i));
  }
  for (const auto& k : keys) builder.Add(k, "v");
  // The block must be much smaller than the raw keys thanks to sharing.
  const size_t raw = keys.size() * keys[0].size();
  Block block(builder.Finish().ToString());
  EXPECT_LT(block.size(), raw / 2);
  auto it = block.NewIterator(BytewiseComparator());
  size_t n = 0;
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    EXPECT_EQ(it->key().ToString(), keys[n++]);
  }
  EXPECT_EQ(n, keys.size());
}

TEST(BlockTest, MalformedBlockYieldsCorruption) {
  Block block("ab");
  auto it = block.NewIterator(BytewiseComparator());
  EXPECT_TRUE(it->status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Bloom
// ---------------------------------------------------------------------------

TEST(BloomTest, NoFalseNegatives) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 1000; ++i) {
    builder.AddKey("key" + std::to_string(i));
  }
  const std::string filter = builder.Finish();
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(BloomFilterMayMatch(filter, "key" + std::to_string(i))) << i;
  }
}

TEST(BloomTest, LowFalsePositiveRate) {
  BloomFilterBuilder builder(10);
  for (int i = 0; i < 1000; ++i) builder.AddKey("key" + std::to_string(i));
  const std::string filter = builder.Finish();
  int false_positives = 0;
  for (int i = 0; i < 10000; ++i) {
    if (BloomFilterMayMatch(filter, "absent" + std::to_string(i))) {
      ++false_positives;
    }
  }
  // 10 bits/key gives ~1%; allow generous slack.
  EXPECT_LT(false_positives, 300);
}

TEST(BloomTest, EmptyFilterMatchesEverything) {
  EXPECT_TRUE(BloomFilterMayMatch(Slice(), "anything"));
}

// ---------------------------------------------------------------------------
// LRU cache
// ---------------------------------------------------------------------------

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<std::string> cache(100);
  cache.Insert("a", std::make_shared<std::string>("A"), 40);
  cache.Insert("b", std::make_shared<std::string>("B"), 40);
  ASSERT_NE(cache.Lookup("a"), nullptr);  // Refresh "a".
  cache.Insert("c", std::make_shared<std::string>("C"), 40);  // Evicts "b".
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_LE(cache.usage(), 100u);
}

TEST(LruCacheTest, ZeroCapacityNeverRetains) {
  LruCache<int> cache(0);
  cache.Insert("k", std::make_shared<int>(1), 1);
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(LruCacheTest, HitMissCountersTrack) {
  LruCache<int> cache(10);
  cache.Insert("a", std::make_shared<int>(1), 1);
  (void)cache.Lookup("a");
  (void)cache.Lookup("a");
  (void)cache.Lookup("missing");
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(LruCacheTest, OversizedEntryEvictsItself) {
  LruCache<int> cache(5);
  cache.Insert("big", std::make_shared<int>(1), 100);
  EXPECT_EQ(cache.Lookup("big"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

TEST(LruCacheTest, ReplaceAndErase) {
  LruCache<int> cache(10);
  cache.Insert("k", std::make_shared<int>(1), 1);
  cache.Insert("k", std::make_shared<int>(2), 1);
  EXPECT_EQ(*cache.Lookup("k"), 2);
  EXPECT_EQ(cache.size(), 1u);
  cache.Erase("k");
  EXPECT_EQ(cache.Lookup("k"), nullptr);
  EXPECT_EQ(cache.usage(), 0u);
}

// ---------------------------------------------------------------------------
// WAL
// ---------------------------------------------------------------------------

class WalTest : public ::testing::Test {
 protected:
  WalTest()
      : env_(NewSsdEnv(ssd::InterfaceMode::kPageMappedFtl, TestGeometry(),
                       ssd::LatencyModel(), &clock_)) {}
  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

TEST_F(WalTest, RoundTripIncludingFragmentation) {
  Random rnd(7);
  std::vector<std::string> records = {
      "", "short", rnd.NextString(10000), rnd.NextString(70000),  // > 2 blocks
      "tail"};
  {
    auto file = env_->NewWritableFile("log");
    ASSERT_TRUE(file.ok());
    LogWriter writer(file->get());
    for (const auto& r : records) ASSERT_TRUE(writer.AddRecord(r).ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  auto file = env_->NewRandomAccessFile("log");
  ASSERT_TRUE(file.ok());
  LogReader reader(file->get());
  std::string record;
  for (const auto& expected : records) {
    ASSERT_TRUE(reader.ReadRecord(&record));
    EXPECT_EQ(record, expected);
  }
  EXPECT_FALSE(reader.ReadRecord(&record));
  EXPECT_TRUE(reader.status().ok());
}

TEST_F(WalTest, TornTailIsCleanEof) {
  Random rnd(8);
  {
    auto file = env_->NewWritableFile("log");
    ASSERT_TRUE(file.ok());
    LogWriter writer(file->get());
    ASSERT_TRUE(writer.AddRecord("complete-record").ok());
    ASSERT_TRUE((*file)->Sync().ok());
    // A second record appended but never synced: after the "crash" only the
    // page-flushed prefix survives. Destroying the writer without Close in
    // the env model would persist it, so instead write a record that only
    // partially fits the synced prefix by never syncing it.
    ASSERT_TRUE(writer.AddRecord(rnd.NextString(100)).ok());
    // No Sync, no Close: release the writer handle leaktantly.
    file->release();  // Intentional: simulates power loss.
  }
  auto file = env_->NewRandomAccessFile("log");
  ASSERT_TRUE(file.ok());
  LogReader reader(file->get());
  std::string record;
  ASSERT_TRUE(reader.ReadRecord(&record));
  EXPECT_EQ(record, "complete-record");
  EXPECT_FALSE(reader.ReadRecord(&record));
  EXPECT_TRUE(reader.status().ok());
}

// ---------------------------------------------------------------------------
// SSTable
// ---------------------------------------------------------------------------

class SstableTest : public WalTest {};

TEST_F(SstableTest, BuildLookupIterate) {
  std::map<std::string, std::string> entries;
  Random rnd(9);
  for (int i = 0; i < 500; ++i) {
    entries["key" + std::to_string(10000 + i)] = rnd.NextString(100);
  }
  LsmOptions options;
  {
    auto file = env_->NewWritableFile("t.sst");
    ASSERT_TRUE(file.ok());
    TableBuilder builder(options, file->get());
    SequenceNumber seq = 1;
    for (const auto& [k, v] : entries) {
      ASSERT_TRUE(builder.Add(MakeInternalKey(k, seq++, kTypeValue), v).ok());
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE((*file)->Close().ok());
    EXPECT_EQ(builder.NumEntries(), entries.size());
  }

  BlockCache cache(1 << 20);
  auto file = env_->NewRandomAccessFile("t.sst");
  ASSERT_TRUE(file.ok());
  auto table = TableReader::Open(std::move(file).value(),
                                 *env_->GetFileSize("t.sst"), 1, &cache);
  ASSERT_TRUE(table.ok()) << table.status().ToString();

  // Point lookups.
  for (const auto& [k, v] : entries) {
    std::string value;
    bool found = false, deleted = false;
    ASSERT_TRUE((*table)
                    ->InternalGet(MakeInternalKey(k, kMaxSequenceNumber,
                                                  kTypeValue),
                                  &value, &found, &deleted)
                    .ok());
    ASSERT_TRUE(found) << k;
    EXPECT_FALSE(deleted);
    EXPECT_EQ(value, v);
  }
  // Absent keys: mostly short-circuited by the bloom filter.
  std::string value;
  bool found = true, deleted = false, skipped = false;
  ASSERT_TRUE((*table)
                  ->InternalGet(MakeInternalKey("nope", kMaxSequenceNumber,
                                                kTypeValue),
                                &value, &found, &deleted, &skipped)
                  .ok());
  EXPECT_FALSE(found);

  // Full scan equals the input.
  auto it = (*table)->NewIterator();
  auto expected = entries.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, entries.end());
    EXPECT_EQ(ExtractUserKey(it->key()).ToString(), expected->first);
    EXPECT_EQ(it->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, entries.end());
  EXPECT_TRUE(it->status().ok());
}

TEST_F(SstableTest, IteratorSeekLandsOnLowerBound) {
  LsmOptions options;
  {
    auto file = env_->NewWritableFile("t.sst");
    ASSERT_TRUE(file.ok());
    TableBuilder builder(options, file->get());
    for (int i = 0; i < 100; i += 2) {
      char key[16];
      std::snprintf(key, sizeof(key), "k%04d", i);
      ASSERT_TRUE(
          builder.Add(MakeInternalKey(key, 1, kTypeValue), "v").ok());
    }
    ASSERT_TRUE(builder.Finish().ok());
    ASSERT_TRUE((*file)->Close().ok());
  }
  BlockCache cache(1 << 20);
  auto file = env_->NewRandomAccessFile("t.sst");
  ASSERT_TRUE(file.ok());
  auto table = TableReader::Open(std::move(file).value(),
                                 *env_->GetFileSize("t.sst"), 1, &cache);
  ASSERT_TRUE(table.ok());
  auto it = (*table)->NewIterator();
  it->Seek(MakeInternalKey("k0005", kMaxSequenceNumber, kTypeValue));
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(ExtractUserKey(it->key()).ToString(), "k0006");
}

// ---------------------------------------------------------------------------
// VersionEdit
// ---------------------------------------------------------------------------

TEST(VersionEditTest, EncodeDecodeRoundTrip) {
  VersionEdit edit;
  edit.has_log_number = true;
  edit.log_number = 7;
  edit.has_next_file_number = true;
  edit.next_file_number = 42;
  edit.has_last_sequence = true;
  edit.last_sequence = 99999;
  edit.deleted_files.emplace_back(2, 13);
  FileMetaData meta;
  meta.number = 14;
  meta.file_size = 4096;
  meta.smallest = MakeInternalKey("a", 5, kTypeValue);
  meta.largest = MakeInternalKey("z", 9, kTypeDeletion);
  edit.new_files.emplace_back(3, meta);

  std::string encoded;
  edit.EncodeTo(&encoded);
  VersionEdit decoded;
  ASSERT_TRUE(decoded.DecodeFrom(encoded).ok());
  EXPECT_EQ(decoded.log_number, 7u);
  EXPECT_EQ(decoded.next_file_number, 42u);
  EXPECT_EQ(decoded.last_sequence, 99999u);
  ASSERT_EQ(decoded.deleted_files.size(), 1u);
  EXPECT_EQ(decoded.deleted_files[0], (std::pair<int, uint64_t>{2, 13}));
  ASSERT_EQ(decoded.new_files.size(), 1u);
  EXPECT_EQ(decoded.new_files[0].first, 3);
  EXPECT_EQ(decoded.new_files[0].second.smallest, meta.smallest);
}

TEST(VersionEditTest, GarbageRejected) {
  VersionEdit edit;
  EXPECT_TRUE(edit.DecodeFrom("\xff\xff\xff garbage").IsCorruption());
}

// ---------------------------------------------------------------------------
// LsmDb end-to-end
// ---------------------------------------------------------------------------

class LsmDbTest : public ::testing::Test {
 protected:
  LsmDbTest() { ResetEnv(); }

  void ResetEnv() {
    clock_.Reset();
    env_ = NewSsdEnv(ssd::InterfaceMode::kPageMappedFtl, TestGeometry(),
                     ssd::LatencyModel(), &clock_);
  }

  std::unique_ptr<LsmDb> OpenDb(const LsmOptions& options = SmallOptions()) {
    auto db = LsmDb::Open(env_.get(), options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

TEST_F(LsmDbTest, PutGetDelete) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("k1", "v1").ok());
  ASSERT_TRUE(db->Put("k2", "v2").ok());
  EXPECT_EQ(*db->Get("k1"), "v1");
  ASSERT_TRUE(db->Put("k1", "v1b").ok());
  EXPECT_EQ(*db->Get("k1"), "v1b");
  ASSERT_TRUE(db->Delete("k1").ok());
  EXPECT_TRUE(db->Get("k1").status().IsNotFound());
  EXPECT_EQ(*db->Get("k2"), "v2");
  EXPECT_TRUE(db->Get("k3").status().IsNotFound());
}

TEST_F(LsmDbTest, GetAcrossFlushedTables) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("a", "old").ok());
  ASSERT_TRUE(db->ForceFlush().ok());
  ASSERT_TRUE(db->Put("a", "new").ok());
  ASSERT_TRUE(db->Put("b", "bee").ok());
  ASSERT_TRUE(db->ForceFlush().ok());
  EXPECT_EQ(*db->Get("a"), "new");
  EXPECT_EQ(*db->Get("b"), "bee");
  EXPECT_GE(db->stats().memtable_flushes, 2u);
}

TEST_F(LsmDbTest, TombstoneShadowsAcrossLevels) {
  auto db = OpenDb();
  ASSERT_TRUE(db->Put("key", "value").ok());
  ASSERT_TRUE(db->ForceFlush().ok());
  ASSERT_TRUE(db->Delete("key").ok());
  ASSERT_TRUE(db->ForceFlush().ok());
  EXPECT_TRUE(db->Get("key").status().IsNotFound());
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  EXPECT_TRUE(db->Get("key").status().IsNotFound());
}

TEST_F(LsmDbTest, CompactionPreservesDataAcrossLevels) {
  auto db = OpenDb();
  Random rnd(11);
  std::map<std::string, std::string> model;
  // ~6 MB of data through a 64 KB write buffer: many flushes + compactions.
  for (int i = 0; i < 6000; ++i) {
    char key[24];
    std::snprintf(key, sizeof(key), "key%06llu",
                  static_cast<unsigned long long>(rnd.Uniform(3000)));
    const std::string value = rnd.NextString(1000);
    ASSERT_TRUE(db->Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db->ForceFlush().ok());
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  EXPECT_GT(db->stats().compactions, 0u);
  // Data must have reached levels beyond L0.
  uint64_t deep_files = 0;
  for (int level = 1; level < db->versions().num_levels(); ++level) {
    deep_files += db->versions().NumLevelFiles(level);
  }
  EXPECT_GT(deep_files, 0u);
  for (const auto& [k, v] : model) {
    Result<std::string> got = db->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v);
  }
}

TEST_F(LsmDbTest, IteratorMatchesModel) {
  auto db = OpenDb();
  Random rnd(12);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(500));
    if (rnd.Bernoulli(0.2)) {
      ASSERT_TRUE(db->Delete(key).ok());
      model.erase(key);
    } else {
      const std::string value = rnd.NextString(300);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
  }
  auto it = db->NewIterator();
  auto expected = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(it->key().ToString(), expected->first);
    EXPECT_EQ(it->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, model.end());

  // Seek semantics.
  it->Seek("key3");
  if (model.lower_bound("key3") == model.end()) {
    EXPECT_FALSE(it->Valid());
  } else {
    ASSERT_TRUE(it->Valid());
    EXPECT_EQ(it->key().ToString(), model.lower_bound("key3")->first);
  }
}

TEST_F(LsmDbTest, RecoversFromWalAfterCrash) {
  {
    auto db = OpenDb();
    ASSERT_TRUE(db->Put("persisted", "yes").ok());
    ASSERT_TRUE(db->Put("also", "this").ok());
    // WAL records were page-flushed? Not necessarily: force durability the
    // way the engine does — the destructor closes the WAL, persisting it.
  }
  auto db = OpenDb();
  EXPECT_EQ(*db->Get("persisted"), "yes");
  EXPECT_EQ(*db->Get("also"), "this");
}

TEST_F(LsmDbTest, RecoversManifestStateAfterCompactions) {
  std::map<std::string, std::string> model;
  {
    auto db = OpenDb();
    Random rnd(13);
    for (int i = 0; i < 3000; ++i) {
      const std::string key = "key" + std::to_string(i);
      const std::string value = rnd.NextString(500);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE(db->ForceFlush().ok());
    ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  }
  auto db = OpenDb();
  for (const auto& [k, v] : model) {
    Result<std::string> got = db->Get(k);
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, v);
  }
}

TEST_F(LsmDbTest, CompactionExhibitsWriteAmplification) {
  auto db = OpenDb();
  Random rnd(14);
  for (int i = 0; i < 4000; ++i) {
    char key[24];
    std::snprintf(key, sizeof(key), "key%06d", i % 2000);
    ASSERT_TRUE(db->Put(key, rnd.NextString(1000)).ok());
  }
  ASSERT_TRUE(db->ForceFlush().ok());
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  // Bytes rewritten by compaction exceed what the user ever wrote — the
  // effect the paper's Figure 5a quantifies at 20-25x for its workload.
  const auto& stats = db->stats();
  EXPECT_GT(stats.compaction_bytes_written, 0u);
  const uint64_t engine_writes =
      env_->host_bytes_appended();  // WAL + tables + manifest.
  EXPECT_GT(engine_writes, stats.user_bytes_ingested * 2);
}

TEST_F(LsmDbTest, EmptyKeyRejected) {
  auto db = OpenDb();
  EXPECT_TRUE(db->Put("", "v").IsInvalidArgument());
}

TEST_F(LsmDbTest, IteratorSurvivesReopen) {
  std::map<std::string, std::string> model;
  {
    auto db = OpenDb();
    Random rnd(15);
    for (int i = 0; i < 800; ++i) {
      const std::string key = "key" + std::to_string(rnd.Uniform(200));
      const std::string value = rnd.NextString(500);
      ASSERT_TRUE(db->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_TRUE(db->ForceFlush().ok());
  }
  auto db = OpenDb();
  auto it = db->NewIterator();
  auto expected = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expected) {
    ASSERT_NE(expected, model.end());
    EXPECT_EQ(it->key().ToString(), expected->first);
    EXPECT_EQ(it->value().ToString(), expected->second);
  }
  EXPECT_EQ(expected, model.end());
}

TEST_F(LsmDbTest, WriteStallCounterTicksUnderL0Backlog) {
  LsmOptions options = SmallOptions();
  options.l0_compaction_trigger = 100;  // Let L0 pile up...
  options.l0_stall_trigger = 3;         // ...and stall early.
  auto db = OpenDb(options);
  Random rnd(16);
  for (int i = 0; i < 8; ++i) {
    for (int k = 0; k < 40; ++k) {
      ASSERT_TRUE(
          db->Put("key" + std::to_string(k), rnd.NextString(2000)).ok());
    }
    ASSERT_TRUE(db->ForceFlush().ok());
  }
  EXPECT_GT(db->stats().write_stall_events, 0u);
}

TEST_F(LsmDbTest, BloomFiltersShortCircuitAbsentKeys) {
  auto db = OpenDb();
  Random rnd(17);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), rnd.NextString(500)).ok());
  }
  ASSERT_TRUE(db->ForceFlush().ok());
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  for (int i = 0; i < 500; ++i) {
    // Probes *inside* the stored key range, so a table is always consulted
    // and only the filter can short-circuit the data-block read.
    EXPECT_TRUE(db->Get("key" + std::to_string(i) + "_missing")
                    .status()
                    .IsNotFound());
  }
  // The overwhelming majority of absent probes never touched a data block.
  EXPECT_GT(db->stats().bloom_useful, 400u);
}

TEST_F(LsmDbTest, BlockCacheAbsorbsRepeatedReads) {
  auto db = OpenDb();
  Random rnd(18);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), rnd.NextString(1000)).ok());
  }
  ASSERT_TRUE(db->ForceFlush().ok());
  // First read loads the block from the device; repeats hit the cache.
  ASSERT_TRUE(db->Get("key7").ok());
  const uint64_t reads_after_first = env_->stats().host_pages_read;
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(db->Get("key7").ok());
  EXPECT_EQ(env_->stats().host_pages_read, reads_after_first);
}

TEST_F(LsmDbTest, OverwriteHeavyWorkloadCompactsAway) {
  auto db = OpenDb();
  Random rnd(19);
  // 30 overwrites of the same small key set: compaction should keep only
  // the newest of each, so deep levels stay near the live data size.
  for (int round = 0; round < 30; ++round) {
    for (int k = 0; k < 100; ++k) {
      ASSERT_TRUE(
          db->Put("key" + std::to_string(k), rnd.NextString(2000)).ok());
    }
  }
  ASSERT_TRUE(db->ForceFlush().ok());
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  const uint64_t live_bytes = 100 * 2100;
  EXPECT_LT(db->versions().TotalTableBytes(), live_bytes * 4);
  for (int k = 0; k < 100; ++k) {
    EXPECT_TRUE(db->Get("key" + std::to_string(k)).ok()) << k;
  }
}

TEST_F(LsmDbTest, DeleteEverythingShrinksToNothing) {
  auto db = OpenDb();
  Random rnd(20);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db->Put("key" + std::to_string(i), rnd.NextString(1000)).ok());
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(db->Delete("key" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(db->ForceFlush().ok());
  ASSERT_TRUE(db->CompactUntilQuiescent().ok());
  auto it = db->NewIterator();
  it->SeekToFirst();
  EXPECT_FALSE(it->Valid());
  // The values are gone; what remains is at most tombstone residue in
  // levels whose size never crossed a compaction budget.
  EXPECT_LT(db->versions().TotalTableBytes(), 300u << 10);
}

class LsmDbPropertyTest : public LsmDbTest,
                          public ::testing::WithParamInterface<uint64_t> {};

TEST_P(LsmDbPropertyTest, RandomOpsMatchModelAcrossReopen) {
  std::map<std::string, std::string> model;
  {
    auto db = OpenDb();
    Random rnd(GetParam());
    for (int i = 0; i < 5000; ++i) {
      const std::string key = "key" + std::to_string(rnd.Uniform(800));
      const uint64_t dice = rnd.Uniform(10);
      if (dice < 6) {
        const std::string value = rnd.NextString(200 + rnd.Uniform(800));
        ASSERT_TRUE(db->Put(key, value).ok());
        model[key] = value;
      } else if (dice < 8) {
        ASSERT_TRUE(db->Delete(key).ok());
        model.erase(key);
      } else {
        Result<std::string> got = db->Get(key);
        auto it = model.find(key);
        if (it == model.end()) {
          EXPECT_TRUE(got.status().IsNotFound()) << key;
        } else {
          ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
          EXPECT_EQ(*got, it->second);
        }
      }
    }
  }
  auto db = OpenDb();
  for (const auto& [k, v] : model) {
    Result<std::string> got = db->Get(k);
    ASSERT_TRUE(got.ok()) << k << ": " << got.status().ToString();
    EXPECT_EQ(*got, v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmDbPropertyTest, ::testing::Values(21, 22, 23));

}  // namespace
}  // namespace directload::lsm
