// Randomized crash-recovery: a seeded workload (PUTs, dedup PUTs, DELs,
// re-PUTs of live and of deleted pairs, version drops, checkpoints, forced
// GC, and bulk-ingest sessions that commit, abort, or are cut by the crash)
// is cut short by a hard crash at a random op boundary, the engine is
// reopened, and the recovered state must equal the model after some prefix
// of the ops. The env loses the active segment's sub-page tail on a crash,
// so recovery legitimately lands a few ops short of the crash point — but
// never on a state that is not a prefix, never resurrecting a deleted pair,
// and never losing a pair whose record the engine had already made durable
// (segment seals, GC collections, and checkpoints are the durability
// barriers).
//
// The suite runs at num_shards ∈ {1, 4}. Sharded, the engine commits each
// shard's ops through an independent AOF, so the global-prefix invariant
// splits into a per-shard one: for EVERY shard, the recovered state of the
// keys routed to it must equal some prefix of that shard's op subsequence —
// gap-free per shard, even when the crash clipped the shards at different
// depths. At num_shards=1 this degenerates to the original global check. A
// DropVersion is one op in EVERY shard's subsequence: each shard logs its
// own drop marker and recovers all of the drop or none of it. So is a bulk
// commit: each shard's commit marker makes the session's pairs on that
// shard visible at once, and an aborted or cut session leaves no trace.

#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aof/record.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "ssd/env.h"

namespace directload::qindb {
namespace {

constexpr int kSeeds = 40;
constexpr int kOpsPerSeed = 150;
constexpr int kKeys = 16;
constexpr size_t kValuePadding = 400;

ssd::Geometry CrashGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 2048;  // 64 MiB device.
  return g;
}

std::string KeyOf(int slot) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%02d", slot);
  return std::string(buf);
}

struct ModelVersion {
  std::string value;
  bool dedup = false;
  bool deleted = false;
};
using Model = std::map<std::string, std::map<uint64_t, ModelVersion>>;

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
  *found = false;
  return nullptr;
}

// True if the recovered engine's observable state equals `model` over the
// given (key, version) universe.
bool StateMatches(QinDb* db, const Model& model,
                  const std::vector<std::pair<std::string, uint64_t>>& pairs) {
  for (const auto& [key, version] : pairs) {
    bool expect_found = false;
    const std::string* expected =
        ExpectedValue(model, key, version, &expect_found);
    Result<std::string> got = db->Get(key, version);
    if (expect_found) {
      if (!got.ok() || *got != *expected) return false;
    } else {
      if (!got.status().IsNotFound()) return false;
    }
  }
  return true;
}

class CrashRecoveryTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(ShardCounts, CrashRecoveryTest,
                         ::testing::Values(1u, 4u),
                         [](const ::testing::TestParamInfo<uint32_t>& info) {
                           return "shards" + std::to_string(info.param);
                         });

TEST_P(CrashRecoveryTest, RandomCrashRecoversAPerShardPrefixOfTheWorkload) {
  const uint32_t num_shards = GetParam();
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rnd(static_cast<uint64_t>(seed) * 7789);

    SimClock clock;
    auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                              CrashGeometry(), ssd::LatencyModel(), &clock);
    QinDbOptions options;
    options.num_shards = num_shards;
    options.aof.segment_bytes = 4 << 10;  // Frequent seals and GC victims.
    options.auto_gc = false;              // GC only as an explicit op.
    auto opened = QinDb::Open(env.get(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<QinDb> db = std::move(opened).value();

    const int crash_at = static_cast<int>(rnd.UniformRange(1, kOpsPerSeed));
    // The open bulk session, if any: its version and staged ops in run
    // order, and the aborted versions no session has re-opened yet.
    struct Staged {
      std::string key;
      uint64_t version = 0;
      std::string value;
      bool tombstone = false;
    };
    std::optional<std::pair<uint64_t, std::vector<Staged>>> session;
    std::vector<uint64_t> aborted;
    // Pairs staged by sessions that never committed: they must read back
    // NotFound unless some committed op made them.
    std::vector<std::pair<std::string, uint64_t>> uncommitted;
    uint64_t newest_version = 0;
    // Per-shard histories: shard_snapshots[s][n] = the model of shard s's
    // keys after the first n ops ROUTED TO SHARD s. The workload itself is
    // sequential, but a crash cuts each shard's AOF independently, so the
    // match below is per shard, not global.
    std::vector<Model> shard_models(num_shards);
    std::vector<std::vector<Model>> shard_snapshots(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      shard_snapshots[s].emplace_back();  // Prefix of length 0.
    }

    for (int op = 0; op < crash_at; ++op) {
      const std::string key =
          KeyOf(static_cast<int>(rnd.Uniform(kKeys)));
      const uint32_t shard = db->ShardOf(key);
      Model& model = shard_models[shard];
      std::map<uint64_t, ModelVersion>& versions = model[key];
      const auto newest =
          versions.empty() ? versions.end() : std::prev(versions.end());
      const double choice = rnd.NextDouble();
      bool mutated = true;

      if (choice < 0.05) {
        // Durability barrier on every shard; mutates none of the models.
        // (Skipped while a bulk session is open.)
        ASSERT_TRUE(db->Checkpoint().ok());
        mutated = false;
      } else if (choice < 0.10) {
        const Status gc = db->ForceGc();
        ASSERT_TRUE(session ? gc.IsBusy() : gc.ok()) << gc.ToString();
        mutated = false;
      } else if (choice < 0.13 && newest != versions.end()) {
        // Drop one of this key's versions on every shard.
        auto pick = versions.begin();
        std::advance(pick, rnd.Uniform(versions.size()));
        const uint64_t v = pick->first;
        Result<uint64_t> dropped = db->DropVersion(v);
        if (session && session->first == v) {
          // Refused while the version's bulk session is open.
          ASSERT_TRUE(dropped.status().IsBusy());
          mutated = false;
        } else {
          ASSERT_TRUE(dropped.ok()) << dropped.status().ToString();
        }
        for (uint32_t s = 0; mutated && s < num_shards; ++s) {
          for (auto& [k, states] : shard_models[s]) {
            if (auto it = states.find(v); it != states.end()) {
              it->second.deleted = true;
            }
          }
          if (s != shard) shard_snapshots[s].push_back(shard_models[s]);
        }
      } else if (choice < 0.17 && newest != versions.end()) {
        // Re-PUT of a deleted (or dropped) version, with a value: it must
        // stay live across GC relocation and the crash.
        std::vector<uint64_t> deleted;
        for (const auto& [v, state] : versions) {
          if (state.deleted) deleted.push_back(v);
        }
        if (!deleted.empty()) {
          const uint64_t v = deleted[rnd.Uniform(deleted.size())];
          const std::string value = rnd.NextString(kValuePadding);
          ASSERT_TRUE(db->Put(key, v, value).ok());
          versions[v] = ModelVersion{value, false, false};
        } else {
          mutated = false;
        }
      } else if (choice < 0.30 && newest != versions.end()) {
        // DEL a random live version (referents included).
        std::vector<uint64_t> live;
        for (const auto& [v, state] : versions) {
          if (!state.deleted) live.push_back(v);
        }
        if (!live.empty()) {
          const uint64_t victim = live[rnd.Uniform(live.size())];
          ASSERT_TRUE(db->Del(key, victim).ok());
          versions[victim].deleted = true;
        } else {
          mutated = false;
        }
      } else if (choice < 0.40 && newest != versions.end() &&
                 !newest->second.deleted && !newest->second.dedup) {
        // Dedup PUT on top of a live value-bearing version.
        const uint64_t v = newest->first + 1;
        ASSERT_TRUE(db->Put(key, v, Slice(), /*dedup=*/true).ok());
        versions[v] = ModelVersion{std::string(), true, false};
      } else if (choice < 0.50 && newest != versions.end() &&
                 !newest->second.deleted && !newest->second.dedup) {
        // Re-PUT of the newest live version (supersedes the record).
        const uint64_t v = newest->first;
        const std::string value = rnd.NextString(kValuePadding);
        ASSERT_TRUE(db->Put(key, v, value).ok());
        versions[v].value = value;
      } else if (choice >= 0.50 && choice < 0.55 && !session) {
        // Open a bulk session: re-open the version an earlier session
        // aborted (its records must stay dead when this one commits), or
        // a fresh one.
        uint64_t v = newest_version + 1;
        if (!aborted.empty()) {
          v = aborted.back();
          aborted.pop_back();
        }
        ASSERT_TRUE(db->IngestBegin(v).ok());
        session.emplace(v, std::vector<Staged>());
        mutated = false;
      } else if (choice >= 0.50 && choice < 0.70 && session) {
        const uint64_t v = session->first;
        std::vector<Staged>& staged = session->second;
        const double action = rnd.NextDouble();
        mutated = false;
        if (action < (staged.empty() ? 0.9 : 0.4)) {
          // Stage a run of bulk puts and tombstones. A tombstone targets
          // some existing pair, most of them loaded by plain Puts.
          const size_t first = staged.size();
          const int run = 1 + static_cast<int>(rnd.Uniform(3));
          for (int i = 0; i < run; ++i) {
            Staged op;
            op.key = KeyOf(static_cast<int>(rnd.Uniform(kKeys)));
            const Model& target = shard_models[db->ShardOf(op.key)];
            auto kit = target.find(op.key);
            if (rnd.Uniform(10) < 3 && kit != target.end() &&
                !kit->second.empty()) {
              auto pick = kit->second.begin();
              std::advance(pick, rnd.Uniform(kit->second.size()));
              op.version = pick->first;
              op.tombstone = true;
            } else {
              op.version = v;
              op.value = rnd.NextString(kValuePadding);
            }
            staged.push_back(std::move(op));
          }
          std::vector<IngestOp> ops;
          for (size_t i = first; i < staged.size(); ++i) {
            IngestOp op;
            op.key = staged[i].key;
            op.version = staged[i].version;
            op.value = staged[i].value;
            op.tombstone = staged[i].tombstone;
            ops.push_back(op);
          }
          ASSERT_TRUE(db->IngestRun(v, ops.data(), ops.size()).ok());
        } else if (action < 0.75) {
          // Commit: one op in every shard's subsequence, applying that
          // shard's staged ops in run order.
          ASSERT_TRUE(db->IngestCommit(v).ok());
          for (const Staged& op : staged) {
            Model& target = shard_models[db->ShardOf(op.key)];
            if (!op.tombstone) {
              target[op.key][v] = ModelVersion{op.value, false, false};
              continue;
            }
            auto kit = target.find(op.key);
            if (kit == target.end()) continue;
            if (auto vit = kit->second.find(op.version);
                vit != kit->second.end()) {
              vit->second.deleted = true;
            }
          }
          for (uint32_t s = 0; s < num_shards; ++s) {
            shard_snapshots[s].push_back(shard_models[s]);
          }
          session.reset();
        } else {
          ASSERT_TRUE(db->IngestAbort(v).ok());
          for (const Staged& op : staged) {
            if (!op.tombstone) uncommitted.emplace_back(op.key, v);
          }
          aborted.push_back(v);
          session.reset();
        }
      } else {
        const uint64_t v =
            versions.empty() ? 1 : versions.rbegin()->first + 1;
        const std::string value = rnd.NextString(kValuePadding);
        ASSERT_TRUE(db->Put(key, v, value).ok());
        versions[v] = ModelVersion{value, false, false};
      }
      if (versions.empty()) model.erase(key);  // Keep untouched keys out.
      if (mutated) shard_snapshots[shard].push_back(model);
      for (const Model& m : shard_models) {
        for (const auto& [k, states] : m) {
          if (!states.empty()) {
            newest_version = std::max(newest_version, states.rbegin()->first);
          }
        }
      }
    }

    if (session) {
      for (const Staged& op : session->second) {
        if (!op.tombstone) uncommitted.emplace_back(op.key, session->first);
      }
    }

    // Hard crash: leak the engine so no destructor seals or pads anything;
    // the env forgets every open writer's volatile tail.
    (void)db.release();
    ssd::SsdEnv* raw_env = env.get();
    raw_env->SimulateCrashForTesting();

    auto reopened = QinDb::Open(raw_env, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<QinDb> recovered = std::move(reopened).value();

    // Per shard: the (key, version) universe that shard's ops ever touched
    // or an uncommitted session staged; states beyond the matched prefix
    // must read back NotFound. Each shard
    // must land on SOME prefix of its own op subsequence — a gap (op k
    // recovered without op k-1 of the same shard) matches no prefix.
    for (uint32_t s = 0; s < num_shards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s));
      std::vector<std::pair<std::string, uint64_t>> pairs;
      for (const auto& [key, versions] : shard_models[s]) {
        for (const auto& [version, state] : versions) {
          pairs.emplace_back(key, version);
        }
      }
      for (const auto& [key, version] : uncommitted) {
        if (recovered->ShardOf(key) == s) pairs.emplace_back(key, version);
      }
      int matched = -1;
      const auto& snapshots = shard_snapshots[s];
      for (int n = static_cast<int>(snapshots.size()) - 1; n >= 0; --n) {
        if (StateMatches(recovered.get(), snapshots[n], pairs)) {
          matched = n;
          break;
        }
      }
      ASSERT_GE(matched, 0)
          << "shard " << s << " recovered to a state matching no prefix of "
          << "its " << snapshots.size() - 1 << " routed ops";
    }

    Result<QinDb::ScrubReport> report = recovered->Scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean())
        << report->damaged_entries << " damaged, "
        << report->unresolvable_dedups << " unresolvable dedups";
  }
}

// A checkpoint is a full durability barrier: a crash any time after it must
// recover at least the checkpointed state. QinDb::Checkpoint checkpoints
// every shard, so the floor is global at any shard count.
TEST_P(CrashRecoveryTest, CheckpointIsADurabilityFloor) {
  const uint32_t num_shards = GetParam();
  for (int seed = 100; seed < 108; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Random rnd(static_cast<uint64_t>(seed));

    SimClock clock;
    auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                              CrashGeometry(), ssd::LatencyModel(), &clock);
    QinDbOptions options;
    options.num_shards = num_shards;
    options.aof.segment_bytes = 4 << 10;
    options.auto_gc = false;
    auto opened = QinDb::Open(env.get(), options);
    ASSERT_TRUE(opened.ok());
    std::unique_ptr<QinDb> db = std::move(opened).value();

    Model model;
    for (int op = 0; op < 40; ++op) {
      const std::string key = KeyOf(static_cast<int>(rnd.Uniform(kKeys)));
      auto& versions = model[key];
      const uint64_t v = versions.empty() ? 1 : versions.rbegin()->first + 1;
      const std::string value = rnd.NextString(kValuePadding);
      ASSERT_TRUE(db->Put(key, v, value).ok());
      versions[v] = ModelVersion{value, false, false};
      if (op % 3 == 0 && v > 1 && !versions[v - 1].deleted) {
        ASSERT_TRUE(db->Del(key, v - 1).ok());
        versions[v - 1].deleted = true;
      }
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    const Model at_checkpoint = model;

    // Volatile suffix that the crash may or may not preserve.
    for (int op = 0; op < 10; ++op) {
      const std::string key = KeyOf(static_cast<int>(rnd.Uniform(kKeys)));
      auto& versions = model[key];
      const uint64_t v = versions.empty() ? 1 : versions.rbegin()->first + 1;
      ASSERT_TRUE(db->Put(key, v, rnd.NextString(kValuePadding)).ok());
    }

    (void)db.release();
    ssd::SsdEnv* raw_env = env.get();
    raw_env->SimulateCrashForTesting();
    auto reopened = QinDb::Open(raw_env, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<QinDb> recovered = std::move(reopened).value();

    for (const auto& [key, versions] : at_checkpoint) {
      for (const auto& [version, state] : versions) {
        bool expect_found = false;
        const std::string* expected =
            ExpectedValue(at_checkpoint, key, version, &expect_found);
        Result<std::string> got = recovered->Get(key, version);
        if (expect_found) {
          ASSERT_TRUE(got.ok())
              << key << "/" << version << ": " << got.status().ToString();
          EXPECT_EQ(*got, *expected) << key << "/" << version;
        } else {
          EXPECT_TRUE(got.status().IsNotFound()) << key << "/" << version;
        }
      }
    }
  }
}

// A bulk-ingest session cut down by a crash must be all-or-nothing per
// shard: a crash BEFORE the commit marker leaves no trace of the staged
// version (never a partial one), and a crash AFTER commit recovers the
// version gap-free. Normal writes interleave with the staged run to prove
// the pending records don't disturb the live write path's recovery.
TEST_P(CrashRecoveryTest, MidBulkCrashLeavesNoTraceCommittedBulkSurvives) {
  const uint32_t num_shards = GetParam();
  for (const bool committed : {false, true}) {
    SCOPED_TRACE(committed ? "crash after commit" : "crash before commit");
    SimClock clock;
    auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                              CrashGeometry(), ssd::LatencyModel(), &clock);
    QinDbOptions options;
    options.num_shards = num_shards;
    options.aof.segment_bytes = 4 << 10;
    options.auto_gc = false;
    auto opened = QinDb::Open(env.get(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<QinDb> db = std::move(opened).value();

    // A live base the bulk load lands on top of.
    constexpr int kLive = 12;
    for (int i = 0; i < kLive; ++i) {
      ASSERT_TRUE(
          db->Put(KeyOf(i), 1, "live" + std::to_string(i)).ok());
    }
    // Durability barrier: version 1 must survive the crash no matter how
    // little the session appends afterwards.
    ASSERT_TRUE(db->Checkpoint().ok());

    constexpr uint64_t kBulkVersion = 2;
    std::vector<std::string> bulk_keys, bulk_values;
    for (int i = 0; i < 24; ++i) {
      bulk_keys.push_back("bulk" + std::to_string(i));
      bulk_values.push_back("staged" + std::to_string(i));
    }
    std::vector<IngestOp> ops(bulk_keys.size());
    for (size_t i = 0; i < bulk_keys.size(); ++i) {
      ops[i].key = bulk_keys[i];
      ops[i].version = kBulkVersion;
      ops[i].value = bulk_values[i];
    }
    ASSERT_TRUE(db->IngestBegin(kBulkVersion).ok());
    ASSERT_TRUE(db->IngestRun(kBulkVersion, ops.data(), ops.size()).ok());
    // Live writes between the staged run and the crash: their recovery
    // must not be disturbed by the pending records around them.
    for (int i = 0; i < kLive; ++i) {
      ASSERT_TRUE(
          db->Put(KeyOf(i), 3, "after" + std::to_string(i)).ok());
    }
    if (committed) {
      ASSERT_TRUE(db->IngestCommit(kBulkVersion).ok());
      // Barrier after the marker: the committed arm asserts presence, so
      // the marker must be durable when the crash lands. (The uncommitted
      // arm needs no barrier — absence holds regardless of what the crash
      // drops.)
      ASSERT_TRUE(db->Checkpoint().ok());
    }

    (void)db.release();
    ssd::SsdEnv* raw_env = env.get();
    raw_env->SimulateCrashForTesting();
    auto reopened = QinDb::Open(raw_env, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<QinDb> recovered = std::move(reopened).value();

    // The staged version is all-or-nothing: every pair or none, per the
    // commit marker.
    for (size_t i = 0; i < bulk_keys.size(); ++i) {
      Result<std::string> got = recovered->Get(bulk_keys[i], kBulkVersion);
      if (committed) {
        ASSERT_TRUE(got.ok())
            << bulk_keys[i] << ": " << got.status().ToString();
        EXPECT_EQ(*got, bulk_values[i]);
      } else {
        EXPECT_TRUE(got.status().IsNotFound())
            << bulk_keys[i] << " resurrected from an uncommitted session";
      }
    }
    EXPECT_EQ(recovered->VersionCounts().count(kBulkVersion),
              committed ? 1u : 0u);

    // The live pairs recovered independently of the bulk outcome (version
    // 1 was never crash-exposed: segment activity from the staged run and
    // the later puts is not a barrier, so only assert the durable floor).
    for (int i = 0; i < kLive; ++i) {
      Result<std::string> got = recovered->Get(KeyOf(i), 1);
      ASSERT_TRUE(got.ok()) << KeyOf(i) << ": " << got.status().ToString();
      EXPECT_EQ(*got, "live" + std::to_string(i));
    }

    // The recovered engine accepts a fresh bulk session and serves it.
    constexpr uint64_t kNextVersion = 4;
    std::vector<IngestOp> next(1);
    next[0].key = bulk_keys[0];
    next[0].version = kNextVersion;
    next[0].value = bulk_values[0];
    ASSERT_TRUE(recovered->IngestBegin(kNextVersion).ok());
    ASSERT_TRUE(recovered->IngestRun(kNextVersion, next.data(), 1).ok());
    ASSERT_TRUE(recovered->IngestCommit(kNextVersion).ok());
    ASSERT_TRUE(recovered->Get(bulk_keys[0], kNextVersion).ok());

    Result<QinDb::ScrubReport> report = recovered->Scrub();
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->clean())
        << report->damaged_entries << " damaged, "
        << report->unresolvable_dedups << " unresolvable dedups";
  }
}

// The first key, "<prefix>0", "<prefix>1", ..., that routes to `shard`.
std::string KeyOnShard(const QinDb& db, const std::string& prefix,
                       uint32_t shard) {
  for (int i = 0;; ++i) {
    std::string key = prefix + std::to_string(i);
    if (db.ShardOf(key) == shard) return key;
  }
}

// A drop is one CRC'd marker per shard, so a crash that tears it leaves the
// version whole on that shard, and one that keeps it drops all of it. The
// env persists whole pages only: a padding record per shard places the
// marker so that exactly `torn` of its bytes reach the last whole page,
// for every `torn` from 0 to the marker's extent. Shards get different
// offsets, so one crash keeps some shards' markers and tears others'.
TEST_P(CrashRecoveryTest, TornDropMarkerDropsAllOrNothingPerShard) {
  const uint32_t num_shards = GetParam();
  const uint64_t page = CrashGeometry().page_size;
  const uint64_t marker = aof::RecordExtent(0, 0);
  constexpr int kPairs = 24;
  for (uint64_t torn = 0; torn <= marker; ++torn) {
    SCOPED_TRACE("torn " + std::to_string(torn));
    SimClock clock;
    auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                              CrashGeometry(), ssd::LatencyModel(), &clock);
    QinDbOptions options;
    options.num_shards = num_shards;
    options.aof.segment_bytes = 64 << 10;
    options.auto_gc = false;
    auto opened = QinDb::Open(env.get(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    std::unique_ptr<QinDb> db = std::move(opened).value();

    for (int i = 0; i < kPairs; ++i) {
      ASSERT_TRUE(db->Put(KeyOf(i), 1, "v1-" + std::to_string(i)).ok());
    }
    // Durability barrier: every shard's next record opens a new segment.
    ASSERT_TRUE(db->Checkpoint().ok());
    std::vector<uint64_t> shard_torn(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
      shard_torn[s] = (torn + 7 * s) % (marker + 1);
      const std::string key = KeyOnShard(*db, "pad", s);
      const uint64_t value_size =
          page - shard_torn[s] - aof::RecordExtent(key.size(), 0);
      ASSERT_TRUE(db->Put(key, 2, std::string(value_size, 'p')).ok());
    }
    ASSERT_TRUE(db->DropVersion(1).ok());

    (void)db.release();
    ssd::SsdEnv* raw_env = env.get();
    raw_env->SimulateCrashForTesting();
    auto reopened = QinDb::Open(raw_env, options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    std::unique_ptr<QinDb> recovered = std::move(reopened).value();

    for (uint32_t s = 0; s < num_shards; ++s) {
      SCOPED_TRACE("shard " + std::to_string(s) + " keeps " +
                   std::to_string(shard_torn[s]) + " marker bytes");
      const bool whole = shard_torn[s] == marker;
      for (int i = 0; i < kPairs; ++i) {
        if (recovered->ShardOf(KeyOf(i)) != s) continue;
        Result<std::string> got = recovered->Get(KeyOf(i), 1);
        if (whole) {
          EXPECT_TRUE(got.status().IsNotFound()) << KeyOf(i);
        } else {
          ASSERT_TRUE(got.ok()) << KeyOf(i) << ": " << got.status().ToString();
          EXPECT_EQ(*got, "v1-" + std::to_string(i));
        }
      }
    }
  }
}

// GC keeps drop markers and moves them like any record, so a relocated
// marker lands after records that followed the drop. Its copy remembers
// where the drop happened: a re-PUT made after the drop, in a segment GC
// leaves alone, stays live, and the dropped pairs stay dropped — also those
// whose records share a segment with live data and stay on disk.
TEST_P(CrashRecoveryTest, RelocatedDropMarkerKeepsLaterRePutLive) {
  const uint32_t num_shards = GetParam();
  SimClock clock;
  auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, CrashGeometry(),
                            ssd::LatencyModel(), &clock);
  QinDbOptions options;
  options.num_shards = num_shards;
  options.aof.segment_bytes = 32 << 10;
  options.auto_gc = false;
  auto opened = QinDb::Open(env.get(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<QinDb> db = std::move(opened).value();

  // A live version-2 record keeps each shard's first segment from GC.
  for (uint32_t s = 0; s < num_shards; ++s) {
    ASSERT_TRUE(
        db->Put(KeyOnShard(*db, "keeper", s), 2, std::string(12 << 10, 'k'))
            .ok());
  }
  constexpr int kPairs = 40;
  for (int i = 0; i < kPairs; ++i) {
    ASSERT_TRUE(db->Put(KeyOf(i), 1, std::string(3000, 'a')).ok()) << i;
  }
  ASSERT_TRUE(db->DropVersion(1).ok());
  std::vector<uint32_t> marker_segment(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    marker_segment[s] = db->aof(s).active_segment();
  }
  // Dead fillers seal every shard's marker segment.
  for (int i = 0; i < 24 * static_cast<int>(num_shards); ++i) {
    const std::string key = "filler" + std::to_string(i);
    ASSERT_TRUE(db->Put(key, 1, std::string(3000, 'f')).ok());
    ASSERT_TRUE(db->Del(key, 1).ok());
  }
  for (uint32_t s = 0; s < num_shards; ++s) {
    ASSERT_NE(db->aof(s).active_segment(), marker_segment[s]) << s;
  }
  // The re-PUT follows the drop, in a segment it keeps above the GC
  // threshold.
  const std::string again(12 << 10, 'b');
  ASSERT_TRUE(db->Put(KeyOf(0), 1, again).ok());
  ASSERT_TRUE(db->ForceGc().ok());
  for (uint32_t s = 0; s < num_shards; ++s) {
    ASSERT_EQ(db->aof(s).SegmentMetas().count(marker_segment[s]), 0u)
        << "shard " << s << " kept its marker segment";
  }
  Result<std::string> before = db->Get(KeyOf(0), 1);
  ASSERT_TRUE(before.ok()) << before.status().ToString();

  // No barrier needed: GC seals the log before it erases a segment, so the
  // re-PUT and the relocated markers are durable.
  (void)db.release();
  ssd::SsdEnv* raw_env = env.get();
  raw_env->SimulateCrashForTesting();
  auto reopened = QinDb::Open(raw_env, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  std::unique_ptr<QinDb> recovered = std::move(reopened).value();
  Result<std::string> got = recovered->Get(KeyOf(0), 1);
  ASSERT_TRUE(got.ok()) << "re-PUT after the drop lost: "
                        << got.status().ToString();
  EXPECT_EQ(*got, again);
  for (int i = 1; i < kPairs; ++i) {
    EXPECT_TRUE(recovered->Get(KeyOf(i), 1).status().IsNotFound()) << i;
  }
}

}  // namespace
}  // namespace directload::qindb
