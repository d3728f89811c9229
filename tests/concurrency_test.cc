// Concurrency stress for QinDB: real writer, reader, and GC threads racing
// one engine. Writers own disjoint key ranges and keep a private model;
// readers validate whatever they observe mid-race via self-verifying
// values; after the threads join, the quiescent state is checked against
// the models entry by entry and scrubbed. Run under ThreadSanitizer in CI.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "ssd/env.h"

namespace directload::qindb {
namespace {

constexpr int kWriters = 4;
constexpr int kReaders = 4;
constexpr int kOpsPerWriter = 500;
constexpr int kKeysPerWriter = 24;
constexpr size_t kValuePadding = 480;

ssd::Geometry StressGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 4096;  // 128 MiB device.
  return g;
}

std::string KeyFor(int writer, int slot) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "w%d:key%03d", writer, slot);
  return std::string(buf);
}

// Self-verifying value: the prefix identifies the key (and the version that
// wrote it), so a reader can validate any value it observes mid-race.
std::string ValueFor(const std::string& key, uint64_t version, Random* rnd) {
  return key + "#" + std::to_string(version) + "#" +
         rnd->NextString(kValuePadding);
}

bool ValueMatchesKey(const std::string& value, const std::string& key) {
  return value.size() > key.size() + 1 &&
         value.compare(0, key.size(), key) == 0 && value[key.size()] == '#';
}

struct ModelVersion {
  std::string value;  // Stored bytes; empty for dedup versions.
  bool dedup = false;
  bool deleted = false;
};
// key -> version -> state. Each writer thread owns one model exclusively.
using Model = std::map<std::string, std::map<uint64_t, ModelVersion>>;

// What Get(key, version) should return per the model: deleted pairs are
// NotFound; dedup pairs resolve through the newest older non-dedup version
// (deleted or not — the engine preserves referents until the chain dies).
const std::string* ExpectedValue(const Model& model, const std::string& key,
                                 uint64_t version, bool* found) {
  *found = false;
  auto kit = model.find(key);
  if (kit == model.end()) return nullptr;
  auto vit = kit->second.find(version);
  if (vit == kit->second.end() || vit->second.deleted) return nullptr;
  *found = true;
  if (!vit->second.dedup) return &vit->second.value;
  for (auto rit = std::make_reverse_iterator(vit);
       rit != kit->second.rend(); ++rit) {
    if (!rit->second.dedup) return &rit->second.value;
  }
  *found = false;  // Unresolvable dedup: the workload never creates these.
  return nullptr;
}

class ConcurrencyTest : public ::testing::Test {
 protected:
  ConcurrencyTest() {
    env_ = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, StressGeometry(),
                     ssd::LatencyModel(), &clock_);
  }

  std::unique_ptr<QinDb> OpenDb(QinDbOptions options = {}) {
    if (options.num_shards == 0) options.num_shards = 1;
    options.aof.segment_bytes = 64 << 10;  // Many segments → GC pressure.
    auto db = QinDb::Open(env_.get(), options);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }

  SimClock clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
};

void RunWriter(QinDb* db, int writer, Model* model) {
  Random rnd(1000 + writer);
  for (int op = 0; op < kOpsPerWriter; ++op) {
    const int slot = static_cast<int>(rnd.Uniform(kKeysPerWriter));
    const std::string key = KeyFor(writer, slot);
    std::map<uint64_t, ModelVersion>& versions = (*model)[key];
    const double choice = rnd.NextDouble();

    if (choice < 0.15 && !versions.empty()) {
      // DEL a random live version. Deleting referents is fine: the engine
      // keeps their records while a live dedup version above needs them.
      std::vector<uint64_t> live;
      for (const auto& [v, state] : versions) {
        if (!state.deleted) live.push_back(v);
      }
      if (!live.empty()) {
        const uint64_t victim = live[rnd.Uniform(live.size())];
        ASSERT_TRUE(db->Del(key, victim).ok());
        versions[victim].deleted = true;
        continue;
      }
    }

    const uint64_t next =
        versions.empty() ? 1 : versions.rbegin()->first + 1;
    const auto& newest = versions.empty() ? versions.end()
                                          : std::prev(versions.end());
    // Dedup-PUT only on top of a live, value-bearing newest version, so
    // every dedup pair resolves and its referent is live at insert time
    // (a deleted referent's record could already have been collected).
    if (choice < 0.35 && newest != versions.end() &&
        !newest->second.deleted && !newest->second.dedup) {
      ASSERT_TRUE(db->Put(key, next, Slice(), /*dedup=*/true).ok());
      versions[next] = ModelVersion{std::string(), /*dedup=*/true, false};
      continue;
    }

    if (choice < 0.45 && newest != versions.end() &&
        !newest->second.deleted && !newest->second.dedup) {
      // Re-PUT of the newest live version: supersedes the record in place,
      // exercising the address-patch-while-reading retry path.
      const uint64_t v = newest->first;
      const std::string value = ValueFor(key, v, &rnd);
      ASSERT_TRUE(db->Put(key, v, value).ok());
      versions[v].value = value;
      continue;
    }

    const std::string value = ValueFor(key, next, &rnd);
    ASSERT_TRUE(db->Put(key, next, value).ok());
    versions[next] = ModelVersion{value, false, false};

    if (writer == 0 && op % 125 == 124) {
      ASSERT_TRUE(db->Checkpoint().ok());
    }
  }
}

void RunReader(QinDb* db, int reader, const std::atomic<bool>* done,
               std::atomic<uint64_t>* successes) {
  Random rnd(2000 + reader);
  uint64_t iter = 0;
  while (!done->load(std::memory_order_acquire)) {
    const int writer = static_cast<int>(rnd.Uniform(kWriters));
    const std::string key =
        KeyFor(writer, static_cast<int>(rnd.Uniform(kKeysPerWriter)));
    if (iter % 32 == 31) {
      // Range scan racing the writers: whatever pairs it surfaces must
      // carry values that belong to their keys.
      QinDb::Scanner scanner = db->NewScanner();
      scanner.SeekToFirst();
      for (int steps = 0; scanner.Valid() && steps < 64; ++steps) {
        Result<std::string> value = scanner.value();
        if (value.ok()) {
          EXPECT_TRUE(ValueMatchesKey(*value, scanner.key().ToString()))
              << "scan of " << scanner.key().ToString() << " returned "
              << value->substr(0, 40);
          successes->fetch_add(1, std::memory_order_relaxed);
        }
        scanner.Next();
      }
    } else {
      Result<std::string> value =
          (iter % 2 == 0) ? db->Get(key, rnd.UniformRange(1, 12))
                          : db->GetLatest(key);
      // Errors (NotFound, mid-race states) are expected on racing keys;
      // any value that does come back must be the key's own.
      if (value.ok()) {
        EXPECT_TRUE(ValueMatchesKey(*value, key))
            << "read of " << key << " returned " << value->substr(0, 40);
        successes->fetch_add(1, std::memory_order_relaxed);
      }
    }
    ++iter;
  }
}

TEST_F(ConcurrencyTest, WritersReadersAndGcRace) {
  auto db = OpenDb();
  std::vector<Model> models(kWriters);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> successes{0};

  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(RunReader, db.get(), r, &done, &successes);
  }
  std::thread gc([&db, &done] {
    uint64_t rounds = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (++rounds % 8 == 0) {
        EXPECT_TRUE(db->ForceGc().ok());
      } else {
        EXPECT_TRUE(db->MaybeGc().ok());
      }
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back(RunWriter, db.get(), w, &models[w]);
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  gc.join();

  EXPECT_GT(successes.load(), 0u) << "readers never observed a value";

  // Quiescent now: one more full collection, then check the engine state
  // against the writers' models pair by pair.
  ASSERT_TRUE(db->ForceGc().ok());
  for (int w = 0; w < kWriters; ++w) {
    for (const auto& [key, versions] : models[w]) {
      for (const auto& [version, state] : versions) {
        bool expect_found = false;
        const std::string* expected =
            ExpectedValue(models[w], key, version, &expect_found);
        Result<std::string> got = db->Get(key, version);
        if (expect_found) {
          ASSERT_TRUE(got.ok()) << key << "/" << version << ": "
                                << got.status().ToString();
          EXPECT_EQ(*got, *expected) << key << "/" << version;
        } else {
          EXPECT_TRUE(got.status().IsNotFound())
              << key << "/" << version << ": " << got.status().ToString();
        }
      }
    }
  }

  Result<QinDb::ScrubReport> report = db->Scrub();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->clean())
      << report->damaged_entries << " damaged, "
      << report->unresolvable_dedups << " unresolvable dedups of "
      << report->entries_checked;
}

// DropVersion takes each shard's write lock itself, beside the group-commit
// queue the writers ride. Writers Put fresh pairs of the dropped version to
// every shard while the drop runs: a pair acked before the drop started is
// gone, a pair written after it returned is live, a pair in between is one
// or the other — and a reopen (scan recovery) agrees with all of it.
TEST_F(ConcurrencyTest, DropVersionRacesWritersOnEveryShard) {
  constexpr uint64_t kVersion = 1;
  constexpr int kSeeded = 200;
  constexpr int kPutsBeforeDrop = 40;  // Per writer, before the drop starts.
  constexpr int kPutsAfterDrop = 40;   // Per writer, after it returned.
  QinDbOptions options;
  options.num_shards = 4;
  auto db = OpenDb(options);

  // When a pair was acked relative to the drop.
  enum Phase { kBefore, kDuring, kAfter };
  struct Written {
    std::string key;
    std::string value;
    Phase phase;
  };
  std::vector<std::vector<Written>> written(kWriters + 1);
  Random seed_rnd(7);
  for (int i = 0; i < kSeeded; ++i) {
    const std::string key = KeyFor(kWriters, i);
    const std::string value = ValueFor(key, kVersion, &seed_rnd);
    ASSERT_TRUE(db->Put(key, kVersion, value).ok());
    written[kWriters].push_back({key, value, kBefore});
  }

  std::atomic<int> puts_before_drop{0};
  std::atomic<bool> drop_started{false};
  std::atomic<bool> drop_returned{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      Random rnd(3000 + w);
      int after = 0;
      for (int i = 0; after < kPutsAfterDrop; ++i) {
        const std::string key = KeyFor(w, i);
        const std::string value = ValueFor(key, kVersion, &rnd);
        const bool issued_after = drop_returned.load();
        ASSERT_TRUE(db->Put(key, kVersion, value).ok());
        const bool acked_before = !drop_started.load();
        written[w].push_back({key, value,
                              issued_after   ? kAfter
                              : acked_before ? kBefore
                                             : kDuring});
        if (issued_after) ++after;
        if (acked_before) puts_before_drop.fetch_add(1);
      }
    });
  }
  while (puts_before_drop.load() < kWriters * kPutsBeforeDrop) {
    std::this_thread::yield();
  }
  drop_started.store(true);
  Result<uint64_t> dropped = db->DropVersion(kVersion);
  drop_returned.store(true);
  for (std::thread& t : writers) t.join();
  ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();

  // Checks every pair against its phase and returns how many are live; a
  // pair written during the drop must keep the state `live_during` holds
  // for it (filled on the first pass).
  std::map<std::string, bool> live_during;
  auto check = [&](QinDb* engine) {
    uint64_t live = 0;
    for (const std::vector<Written>& pairs : written) {
      for (const Written& pair : pairs) {
        Result<std::string> got = engine->Get(pair.key, kVersion);
        ASSERT_TRUE(got.ok() || got.status().IsNotFound())
            << pair.key << ": " << got.status().ToString();
        if (got.ok()) {
          EXPECT_EQ(*got, pair.value) << pair.key;
          ++live;
        }
        if (pair.phase == kBefore) {
          EXPECT_FALSE(got.ok()) << pair.key << " acked before the drop";
        } else if (pair.phase == kAfter) {
          EXPECT_TRUE(got.ok()) << pair.key << " written after the drop";
        } else if (!live_during.try_emplace(pair.key, got.ok()).second) {
          EXPECT_EQ(got.ok(), live_during[pair.key]) << pair.key;
        }
      }
    }
    EXPECT_EQ(engine->VersionCounts()[kVersion], live);
    uint64_t total = 0;
    for (const std::vector<Written>& pairs : written) total += pairs.size();
    EXPECT_EQ(*dropped, total - live);
  };
  check(db.get());
  db.reset();
  db = OpenDb(options);
  check(db.get());
}

// The paper's update cycle under readers: each version lands through a bulk
// session (about half its pairs deduplicated against the version before),
// the version two back is dropped, and GC runs until the shard indexes
// compact — with the block cache on and small segments, so relocations
// re-key cached records while readers hit them. Every GetLatest must
// return the bytes of a version that committed before the read returned
// and whose drop had not finished before the read was sent.
TEST_F(ConcurrencyTest, VersionCycleKeepsGetLatestInTheReadWindow) {
  constexpr int kKeys = 1024;
  constexpr uint64_t kVersions = 20;
  constexpr uint64_t kUnset = ~uint64_t{0};
  auto key_of = [](int i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "url:%06d", i);
    return std::string(buf);
  };
  auto dedup = [](int i, uint64_t v) { return v > 1 && (i * 7 + v) % 2 == 0; };
  // The version whose bytes pair (i, v) reads: itself, or the version its
  // dedup chain ends at.
  auto referent = [&](int i, uint64_t v) {
    while (dedup(i, v)) --v;
    return v;
  };
  auto value_of = [&](int i, uint64_t v) {
    return key_of(i) + "#" + std::to_string(v) + "#" +
           std::string(64 + i % 32, static_cast<char>('a' + v % 26));
  };

  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    env_ = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, StressGeometry(),
                     ssd::LatencyModel(), &clock_);
    QinDbOptions options;
    options.num_shards = shards;
    options.cache_bytes = 256 << 10;
    auto db = OpenDb(options);

    // A logical clock: commit starts, drop ends and reads are stamped on it.
    std::atomic<uint64_t> now{1};
    std::vector<std::atomic<uint64_t>> committed(kVersions + 1);
    std::vector<std::atomic<uint64_t>> dropped(kVersions + 1);
    for (uint64_t v = 0; v <= kVersions; ++v) {
      committed[v].store(kUnset);
      dropped[v].store(kUnset);
    }
    // Loads version v, drops v-2 and collects. False on a failed step, so
    // the readers are still joined before the test ends.
    auto cycle = [&](uint64_t v) {
      std::vector<std::string> keys(kKeys);
      std::vector<std::string> bytes(kKeys);
      std::vector<IngestOp> ops(kKeys);
      for (int i = 0; i < kKeys; ++i) {
        ops[i].key = Slice(keys[i] = key_of(i));
        ops[i].version = v;
        ops[i].dedup = dedup(i, v);
        if (!ops[i].dedup) ops[i].value = Slice(bytes[i] = value_of(i, v));
      }
      Status s = db->IngestBegin(v);
      if (s.ok()) s = db->IngestRun(v, ops.data(), ops.size());
      committed[v].store(now.fetch_add(1));
      if (s.ok()) s = db->IngestCommit(v);
      if (s.ok() && v > 2) {
        s = db->DropVersion(v - 2).status();
        dropped[v - 2].store(now.fetch_add(1));
      }
      if (s.ok()) s = db->ForceGc();
      EXPECT_TRUE(s.ok()) << "version " << v << ": " << s.ToString();
      return s.ok();
    };
    ASSERT_TRUE(cycle(1));

    std::atomic<bool> done{false};
    std::atomic<uint64_t> reads{0};
    std::mutex errors_mu;
    std::vector<std::string> errors;
    std::vector<std::thread> readers;
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&, r] {
        Random rnd(4000 + r);
        while (!done.load(std::memory_order_acquire)) {
          const int i = static_cast<int>(rnd.Uniform(kKeys));
          const uint64_t sent = now.fetch_add(1);
          Result<std::string> got = db->GetLatest(key_of(i));
          const uint64_t returned = now.fetch_add(1);
          reads.fetch_add(1, std::memory_order_relaxed);
          bool allowed = false;
          for (uint64_t v = 1; got.ok() && v <= kVersions && !allowed; ++v) {
            allowed = committed[v].load() < returned &&
                      dropped[v].load() > sent &&
                      *got == value_of(i, referent(i, v));
          }
          if (allowed) continue;
          std::lock_guard<std::mutex> lock(errors_mu);
          errors.push_back(key_of(i) + ": " +
                           (got.ok() ? got->substr(0, 24)
                                     : got.status().ToString()));
        }
      });
    }
    for (uint64_t v = 2; v <= kVersions; ++v) {
      if (!cycle(v)) break;
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_GT(reads.load(), 0u);
    EXPECT_TRUE(errors.empty())
        << errors.size() << " reads outside the window, first "
        << errors.front();
    // GC went far enough that every shard's index was rebuilt dense: its
    // entries are far fewer than the pairs ever written to it.
    for (uint32_t s = 0; s < shards; ++s) {
      EXPECT_LT(db->memtable(s)->total_count(),
                kKeys * kVersions / shards / 2)
          << "shard " << s;
    }
  }
}

}  // namespace
}  // namespace directload::qindb
