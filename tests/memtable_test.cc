#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "memtable/mem_index.h"
#include "memtable/skiplist.h"

namespace directload {
namespace {

// ---------------------------------------------------------------------------
// Generic skip list
// ---------------------------------------------------------------------------

struct IntCmp {
  int operator()(uint64_t a, uint64_t b) const {
    return a < b ? -1 : (a > b ? 1 : 0);
  }
};

TEST(SkipListTest, InsertAndContains) {
  Arena arena;
  SkipList<uint64_t, IntCmp> list(IntCmp(), &arena);
  Random rnd(7);
  std::set<uint64_t> model;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t v = rnd.Uniform(10000);
    if (model.insert(v).second) list.Insert(v);
  }
  EXPECT_EQ(list.size(), model.size());
  for (uint64_t v = 0; v < 10000; v += 7) {
    EXPECT_EQ(list.Contains(v), model.count(v) == 1) << v;
  }
}

TEST(SkipListTest, IterationMatchesSortedOrder) {
  Arena arena;
  SkipList<uint64_t, IntCmp> list(IntCmp(), &arena);
  std::set<uint64_t> model;
  Random rnd(13);
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = rnd.Uniform(100000);
    if (model.insert(v).second) list.Insert(v);
  }
  SkipList<uint64_t, IntCmp>::Iterator it(&list);
  it.SeekToFirst();
  for (uint64_t expected : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), expected);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, SeekFindsLowerBound) {
  Arena arena;
  SkipList<uint64_t, IntCmp> list(IntCmp(), &arena);
  for (uint64_t v : {10u, 20u, 30u}) list.Insert(v);
  SkipList<uint64_t, IntCmp>::Iterator it(&list);
  it.Seek(15);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 20u);
  it.Seek(30);
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 30u);
  it.Seek(31);
  EXPECT_FALSE(it.Valid());
}

TEST(SkipListTest, PrevAndSeekToLast) {
  Arena arena;
  SkipList<uint64_t, IntCmp> list(IntCmp(), &arena);
  for (uint64_t v : {1u, 2u, 3u, 4u}) list.Insert(v);
  SkipList<uint64_t, IntCmp>::Iterator it(&list);
  it.SeekToLast();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), 4u);
  it.Prev();
  EXPECT_EQ(it.key(), 3u);
  it.Prev();
  it.Prev();
  EXPECT_EQ(it.key(), 1u);
  it.Prev();
  EXPECT_FALSE(it.Valid());
}

// ---------------------------------------------------------------------------
// MemIndex — QinDB's versioned in-memory table
// ---------------------------------------------------------------------------

TEST(MemIndexTest, InsertAndExactLookup) {
  MemIndex index;
  index.Insert("url1", 1, 100, 64, false);
  index.Insert("url1", 2, 200, 0, true);
  index.Insert("url2", 1, 300, 32, false);

  MemEntry* e = index.FindExact("url1", 2);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->address, 200u);
  EXPECT_TRUE(e->dedup);
  EXPECT_EQ(e->value_size, 0u);

  EXPECT_EQ(index.FindExact("url1", 3), nullptr);
  EXPECT_EQ(index.FindExact("url3", 1), nullptr);
  EXPECT_EQ(index.live_count(), 3u);
}

TEST(MemIndexTest, InsertSameVersionUpdatesInPlace) {
  MemIndex index;
  index.Insert("k", 5, 111, 10, false);
  index.Insert("k", 5, 222, 20, false);
  MemEntry* e = index.FindExact("k", 5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->address, 222u);
  EXPECT_EQ(e->value_size, 20u);
  EXPECT_EQ(index.live_count(), 1u);
}

TEST(MemIndexTest, VersionsOfAKeyAreAdjacentNewestFirst) {
  MemIndex index;
  index.Insert("b", 1, 0, 0, false);
  index.Insert("b", 3, 0, 0, false);
  index.Insert("a", 2, 0, 0, false);
  index.Insert("b", 2, 0, 0, false);
  index.Insert("c", 1, 0, 0, false);

  std::vector<std::pair<std::string, uint64_t>> seen;
  for (MemIndex::Iterator it = index.NewIterator(); it.Valid(); it.Next()) {
    seen.emplace_back(it.entry()->user_key().ToString(), it.entry()->version);
  }
  const std::vector<std::pair<std::string, uint64_t>> expected = {
      {"a", 2}, {"b", 3}, {"b", 2}, {"b", 1}, {"c", 1}};
  EXPECT_EQ(seen, expected);
}

TEST(MemIndexTest, FindLatest) {
  MemIndex index;
  index.Insert("k", 1, 0, 0, false);
  index.Insert("k", 7, 0, 0, false);
  index.Insert("k", 4, 0, 0, false);
  MemEntry* e = index.FindLatest("k");
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 7u);
  EXPECT_EQ(index.FindLatest("nope"), nullptr);
}

TEST(MemIndexTest, TracebackSkipsDeduplicatedVersions) {
  MemIndex index;
  index.Insert("k", 1, 10, 100, false);  // Value-bearing.
  index.Insert("k", 2, 20, 0, true);     // Dedup.
  index.Insert("k", 3, 30, 0, true);     // Dedup.
  index.Insert("k", 4, 40, 50, false);   // Value-bearing.

  // From version 4, the newest older value is version 1 (2 and 3 are NULL).
  MemEntry* e = index.TracebackValue("k", 4);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 1u);
  // From version 5 (hypothetical), version 4 itself carries a value.
  e = index.TracebackValue("k", 5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->version, 4u);
  // Nothing below version 1.
  EXPECT_EQ(index.TracebackValue("k", 1), nullptr);
  EXPECT_EQ(index.TracebackValue("k", 0), nullptr);
}

TEST(MemIndexTest, TracebackDoesNotCrossKeys) {
  MemIndex index;
  index.Insert("a", 1, 0, 10, false);
  index.Insert("b", 2, 0, 0, true);
  EXPECT_EQ(index.TracebackValue("b", 2), nullptr);
}

TEST(MemIndexTest, NewestFirstLookupsStopAtTheNearestVersion) {
  MemIndex index;
  index.Insert("k", 2, 0, 0, false);
  index.Insert("k", 9, 0, 0, false);
  index.Insert("k", 5, 0, 0, false);
  index.Insert("j", 1, 0, 0, false);
  index.Insert("other", 1, 0, 0, false);
  ASSERT_NE(index.FindLatestLive("k"), nullptr);
  EXPECT_EQ(index.FindLatestLive("k")->version, 9u);
  // Walking upwards visits every newer version in order, then stops at the
  // key's end instead of running into the previous key.
  std::vector<uint64_t> upwards;
  for (MemEntry* e = index.FindNextNewer("k", 0); e != nullptr;
       e = index.FindNextNewer("k", e->version)) {
    upwards.push_back(e->version);
  }
  EXPECT_EQ(upwards, (std::vector<uint64_t>{2, 5, 9}));
  EXPECT_EQ(index.FindNextNewer("k", 5)->version, 9u);
  EXPECT_EQ(index.FindNextNewer("k", 9), nullptr);
  EXPECT_EQ(index.FindNextNewer("missing", 0), nullptr);
  EXPECT_EQ(index.FindLatestLive("missing"), nullptr);

  // A deleted newest version is skipped by the live lookup, not by the
  // walk (traceback accounting still needs to see it).
  index.FindExact("k", 9)->deleted.store(true);
  EXPECT_EQ(index.FindLatestLive("k")->version, 5u);
  EXPECT_EQ(index.FindNextNewer("k", 5)->version, 9u);
}

TEST(MemIndexTest, PurgeHidesEntry) {
  MemIndex index;
  index.Insert("k", 1, 0, 0, false);
  MemEntry* e = index.Insert("k", 2, 0, 0, false);
  index.Purge(e);
  EXPECT_EQ(index.live_count(), 1u);
  EXPECT_EQ(index.FindExact("k", 2), nullptr);
  MemEntry* latest = index.FindLatest("k");
  ASSERT_NE(latest, nullptr);
  EXPECT_EQ(latest->version, 1u);
  EXPECT_EQ(index.FindNextNewer("k", 1), nullptr);
}

TEST(MemIndexTest, InsertRevivesPurgedEntry) {
  MemIndex index;
  MemEntry* e = index.Insert("k", 1, 10, 5, false);
  index.Purge(e);
  EXPECT_EQ(index.live_count(), 0u);
  index.Insert("k", 1, 20, 6, false);
  MemEntry* revived = index.FindExact("k", 1);
  ASSERT_NE(revived, nullptr);
  EXPECT_EQ(revived->address, 20u);
  EXPECT_EQ(index.live_count(), 1u);
}

TEST(MemIndexTest, IteratorSeek) {
  MemIndex index;
  index.Insert("apple", 1, 0, 0, false);
  index.Insert("banana", 1, 0, 0, false);
  index.Insert("cherry", 1, 0, 0, false);
  MemIndex::Iterator it = index.NewIterator();
  it.Seek("b");
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.entry()->user_key().ToString(), "banana");
  it.Seek("zzz");
  EXPECT_FALSE(it.Valid());
}

TEST(MemIndexTest, CompactIntoDropsGhosts) {
  MemIndex index;
  MemEntry* a = index.Insert("a", 1, 1, 0, false);
  MemEntry* b = index.Insert("b", 1, 2, 0, true);
  b->deleted = true;
  MemEntry* c = index.Insert("c", 1, 3, 0, false);
  index.Purge(a);
  (void)c;

  MemIndex fresh;
  index.CompactInto(&fresh);
  EXPECT_EQ(fresh.live_count(), 2u);
  EXPECT_EQ(fresh.total_count(), 2u);
  EXPECT_EQ(fresh.FindExact("a", 1), nullptr);
  MemEntry* fb = fresh.FindExact("b", 1);
  ASSERT_NE(fb, nullptr);
  EXPECT_TRUE(fb->deleted);
  EXPECT_TRUE(fb->dedup);
}

TEST(MemIndexTest, CompactIntoPreservesAddressesAndSizes) {
  MemIndex index;
  index.Insert("k", 3, 0xdeadbeef, 777, true);
  MemIndex fresh;
  index.CompactInto(&fresh);
  MemEntry* e = fresh.FindExact("k", 3);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->address, 0xdeadbeefu);
  EXPECT_EQ(e->value_size, 777u);
  EXPECT_TRUE(e->dedup);
}

TEST(MemIndexTest, TracebackIncludesDeletedValueVersions) {
  // Deleted value-bearing versions still resolve tracebacks (their bytes
  // persist as GC referents).
  MemIndex index;
  MemEntry* value_entry = index.Insert("k", 1, 10, 100, false);
  index.Insert("k", 2, 20, 0, true);
  value_entry->deleted = true;
  MemEntry* target = index.TracebackValue("k", 2);
  ASSERT_NE(target, nullptr);
  EXPECT_EQ(target->version, 1u);
}

TEST(MemIndexTest, MemoryUsageGrowsWithInsertions) {
  MemIndex index;
  const size_t before = index.ApproximateMemoryUsage();
  for (int i = 0; i < 1000; ++i) {
    index.Insert("key" + std::to_string(i), 1, 0, 0, false);
  }
  EXPECT_GT(index.ApproximateMemoryUsage(), before + 1000 * 20);
  EXPECT_EQ(index.live_count(), 1000u);
  EXPECT_EQ(index.total_count(), 1000u);
}

// Property test: random versioned inserts against a reference model.
TEST(MemIndexTest, RandomOpsMatchReferenceModel) {
  MemIndex index;
  std::map<std::pair<std::string, uint64_t>, uint64_t,
           std::greater<>> dummy;  // silence unused-include warnings
  (void)dummy;
  std::map<std::string, std::map<uint64_t, uint64_t>> model;  // key -> v -> addr
  Random rnd(2024);
  for (int i = 0; i < 5000; ++i) {
    const std::string key = "key" + std::to_string(rnd.Uniform(200));
    const uint64_t version = rnd.Uniform(8);
    const uint64_t addr = rnd.Next();
    index.Insert(key, version, addr, 0, false);
    model[key][version] = addr;
  }
  for (const auto& [key, versions] : model) {
    for (const auto& [version, addr] : versions) {
      MemEntry* e = index.FindExact(key, version);
      ASSERT_NE(e, nullptr);
      EXPECT_EQ(e->address, addr);
    }
    MemEntry* latest = index.FindLatest(key);
    ASSERT_NE(latest, nullptr);
    EXPECT_EQ(latest->version, versions.rbegin()->first);
  }
  // Full iteration is globally sorted and complete.
  size_t n = 0;
  std::string prev_key;
  uint64_t prev_version = 0;
  bool first = true;
  for (MemIndex::Iterator it = index.NewIterator(); it.Valid(); it.Next()) {
    const MemEntry* e = it.entry();
    if (!first) {
      const int c = e->user_key().compare(prev_key);
      EXPECT_TRUE(c > 0 || (c == 0 && e->version < prev_version));
    }
    prev_key = e->user_key().ToString();
    prev_version = e->version;
    first = false;
    ++n;
  }
  size_t model_n = 0;
  for (const auto& [key, versions] : model) model_n += versions.size();
  EXPECT_EQ(n, model_n);
}

}  // namespace
}  // namespace directload
