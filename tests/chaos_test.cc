// The chaos harness (ISSUE: failpoints everywhere). Two suites:
//
//  1. ChaosCrashPoints — for every registered failpoint inside AOF sealing
//     and GC rewriting, inject a one-shot failure at that exact point, then
//     hard-crash the engine (volatile tails lost) and verify recovery: every
//     pair that was durable before the fault keeps its exact value, every
//     deleted pair stays deleted, and an integrity scrub comes back clean.
//
//  2. ChaosSchedules — seeded, randomized fault storms against a live
//     KvServer over real sockets: node crashes and recoveries, server
//     restarts, and a dozen armed failpoints across every layer, while
//     closed-loop writers and readers hammer the cluster. Invariants:
//     (a) every acknowledged write is durable and readable once the storm
//     passes and the nodes are recovered, and (b) a read NEVER returns a
//     torn or cross-version value — errors are always surfaced as errors.
//
// Both suites skip unless failpoints are compiled in (-DDIRECTLOAD_FAILPOINTS=ON).
//
// Deliberate exclusions, so the invariants stay provable:
//  - No `corrupt` action on write paths: silently flipping a bit in data the
//    engine has already acknowledged loses the write with no error anywhere,
//    which no retry discipline can mask. Read-side corruption IS injected —
//    record checksums must convert it into an error, never into wrong bytes.
//  - Writers issue no deletes: an acknowledged Del only proves SOME replica
//    holds the tombstone. Without anti-entropy, another replica may still
//    serve the pair, so "deleted implies NotFound everywhere" is not an
//    invariant of this system and asserting it would be a false alarm.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bifrost/dedup.h"
#include "bifrost/wire/bulk_loader.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "mint/cluster.h"
#include "qindb/qindb.h"
#include "qindb/write_batch.h"
#include "rpc/client.h"
#include "server/kv_server.h"
#include "ssd/env.h"

namespace directload {
namespace {

using failpoint::Registry;

ssd::Geometry SmallGeometry() {
  ssd::Geometry g;
  g.pages_per_block = 8;
  g.num_blocks = 4096;
  return g;
}

/// Deterministic value for a key: any torn, truncated, or cross-key read
/// breaks the equality check against a recomputed copy.
std::string ValueFor(const std::string& key) {
  Random rng(Hash64(Slice(key)) | 1);
  const size_t extra = static_cast<size_t>(rng.Uniform(96));
  return key + "|" + rng.NextString(64 + extra);
}

// ---------------------------------------------------------------------------
// Suite 1: crash-point recovery sweep over AOF seal + GC rewrite.
// ---------------------------------------------------------------------------

/// Builds an engine with sealed, GC-eligible segments, injects a one-shot
/// IO failure at `point`, drives seals and collections into it, then
/// crashes and verifies recovery. At num_shards > 1 the one-shot fault hits
/// whichever shard reaches the point first — only that shard's AOF takes the
/// hit — and the durable model must still survive in full: the other shards
/// were never faulted, and the hit shard fail-stopped before losing
/// anything it had acknowledged durable.
void RunCrashPoint(const std::string& point, uint32_t num_shards) {
  SCOPED_TRACE("crash point: " + point +
               " shards=" + std::to_string(num_shards));
  Registry& reg = Registry::Instance();
  reg.DeactivateAll();
  reg.ResetCountersForTesting();

  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = num_shards;
  options.aof.segment_bytes = 4 << 10;  // Tiny segments: many seals/victims.
  options.auto_gc = false;  // GC runs only when the test says so.
  auto opened = qindb::QinDb::Open(env.get(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<qindb::QinDb> db = std::move(opened).value();

  // Workload: 48 pairs, then delete 7 of every 8. The surviving ~12% live
  // occupancy puts every data segment under the GC threshold, and the kept
  // pairs force real record rewrites during collection.
  std::map<std::string, std::string> kept;     // key -> expected value
  std::vector<std::string> deleted;
  for (int i = 0; i < 48; ++i) {
    const std::string key = "ck" + std::to_string(i);
    const std::string value = ValueFor(key);
    ASSERT_TRUE(db->Put(key, 1, value).ok());
    kept[key] = value;
  }
  for (int i = 0; i < 48; ++i) {
    if (i % 8 == 0) continue;
    const std::string key = "ck" + std::to_string(i);
    ASSERT_TRUE(db->Del(key, 1).ok());
    kept.erase(key);
    deleted.push_back(key);
  }
  // Durability point: seal everything and checkpoint. The model below is
  // the state the crash must recover to — everything after this line is
  // allowed (expected, even) to be lost or half-applied.
  ASSERT_TRUE(db->Checkpoint().ok()) << "while preparing " << point;

  failpoint::FailPoint* fp = reg.Find(point);
  ASSERT_NE(fp, nullptr);
  ASSERT_TRUE(reg.Activate(point, "1*return(io)").ok());

  // Drive appends, seals, and collections into the armed point. Statuses
  // are ignored on purpose: the first failure flips the engine into
  // degraded read-only mode and later calls report that — both are fine,
  // the sweep only cares that the point actually fired and that recovery
  // is clean afterwards.
  for (int i = 0; i < 12; ++i) {
    DL_DISCARD_STATUS("driving writes into the armed point",
                      db->Put("drive" + std::to_string(i), 1,
                              std::string(180, 'd')));
  }
  DL_DISCARD_STATUS("driving into the armed point", db->Checkpoint());
  DL_DISCARD_STATUS("driving into the armed point", db->ForceGc());
  DL_DISCARD_STATUS("driving into the armed point", db->Checkpoint());
  EXPECT_GT(fp->hits(), 0u) << "the drive never reached " << point;
  reg.DeactivateAll();

  // Hard crash: leak the engine so no destructor seals or pads anything;
  // the env forgets every open writer's volatile tail.
  (void)db.release();
  ssd::SsdEnv* raw_env = env.get();
  raw_env->SimulateCrashForTesting();

  auto reopened = qindb::QinDb::Open(raw_env, options);
  ASSERT_TRUE(reopened.ok())
      << "recovery failed after fault at " << point << ": "
      << reopened.status().ToString();
  std::unique_ptr<qindb::QinDb> recovered = std::move(reopened).value();
  EXPECT_FALSE(recovered->degraded());

  for (const auto& [key, value] : kept) {
    Result<std::string> got = recovered->Get(key, 1);
    ASSERT_TRUE(got.ok()) << key << " lost after fault at " << point << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, value) << key << " torn after fault at " << point;
  }
  for (const std::string& key : deleted) {
    EXPECT_TRUE(recovered->Get(key, 1).status().IsNotFound())
        << key << " resurrected after fault at " << point;
  }
  Result<qindb::QinDb::ScrubReport> scrub = recovered->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->clean())
      << "scrub after fault at " << point << ": damaged="
      << scrub->damaged_entries
      << " unresolvable=" << scrub->unresolvable_dedups;
  // And the recovered engine is writable again — degraded mode must not
  // survive a reopen.
  EXPECT_TRUE(recovered->Put("post-recovery", 1, "alive").ok());
}

TEST(ChaosCrashPoints, RecoversFromEverySealAndGcFailpoint) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DDIRECTLOAD_FAILPOINTS=ON";
  }
  // Enumerate the registered points instead of hard-coding them: a new
  // failpoint added inside sealing or collection is swept automatically.
  std::vector<std::string> points;
  for (failpoint::FailPoint* fp : Registry::Instance().List()) {
    const std::string& name = fp->name();
    if (name.rfind("aof_seal_", 0) == 0 || name.rfind("aof_gc_", 0) == 0) {
      points.push_back(name);
    }
  }
  ASSERT_GE(points.size(), 7u) << "seal/GC failpoints went missing";
  for (const uint32_t shards : {1u, 4u}) {
    for (const std::string& point : points) {
      RunCrashPoint(point, shards);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Suite 1b: group-commit crash points — a fault lands mid-batch.
// ---------------------------------------------------------------------------

/// Commits multi-op WriteBatches into an armed append-path failpoint, then
/// hard-crashes and verifies the group-commit durability contract:
///  - batches checkpointed before the fault keep every op, byte-exact;
///  - batches acked after the checkpoint sit in the volatile AOF tail, so
///    each may lose a SUFFIX of its ops on crash — but survivors must form
///    a clean prefix in op order (a gap would mean AppendMany reordered or
///    tore the group);
///  - the batch whose Write failed follows the point's semantics: an
///    aof_append fault fires before anything is written, so the failed
///    sub-batch vanishes entirely; an aof_roll_segment fault can strand an
///    appended prefix, which is held to the same prefix rule.
///
/// At num_shards > 1 every rule is PER SHARD: a batch splits into sub-
/// batches committed through independent AOFs, the one-shot fault hits one
/// shard's sub-batch (its ops fail; sibling sub-batches commit), and the
/// crash clips each shard's volatile tail separately — so survivors must
/// form a gap-free prefix of the batch's op subsequence on EACH shard.
void RunBatchCrashPoint(const std::string& point, uint32_t num_shards) {
  SCOPED_TRACE("batch crash point: " + point +
               " shards=" + std::to_string(num_shards));
  Registry& reg = Registry::Instance();
  reg.DeactivateAll();
  reg.ResetCountersForTesting();

  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = num_shards;
  options.aof.segment_bytes = 4 << 10;  // Tiny segments: batches span rolls.
  options.auto_gc = false;
  auto opened = qindb::QinDb::Open(env.get(), options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<qindb::QinDb> db = std::move(opened).value();

  constexpr int kOpsPerBatch = 6;
  auto batch_key = [](int b, int j) {
    return "gb" + std::to_string(b) + ":o" + std::to_string(j);
  };
  // Per-op statuses of the batch whose Write failed: the non-OK ops are
  // exactly the hit shard's sub-batch.
  std::vector<Status> failed_statuses;
  auto commit_batch = [&](int b) {
    qindb::WriteBatch batch;
    for (int j = 0; j < kOpsPerBatch; ++j) {
      const std::string key = batch_key(b, j);
      batch.Put(key, 1, ValueFor(key));
    }
    Status status = db->Write(batch);
    if (!status.ok()) failed_statuses = batch.statuses();
    return status;
  };

  // Phase 1: the durable model — batches committed, then checkpointed.
  int next_batch = 0;
  for (; next_batch < 6; ++next_batch) {
    ASSERT_TRUE(commit_batch(next_batch).ok());
  }
  const int checkpointed_batches = next_batch;
  ASSERT_TRUE(db->Checkpoint().ok()) << "while preparing " << point;

  // Phase 2: arm the point and keep committing until a batch fails.
  failpoint::FailPoint* fp = reg.Find(point);
  ASSERT_NE(fp, nullptr);
  ASSERT_TRUE(reg.Activate(point, "1*return(io)").ok());
  int failed_batch = -1;
  std::vector<int> acked_tail;  // Acked post-checkpoint: volatile AOF tail.
  for (int i = 0; i < 64 && failed_batch < 0; ++i, ++next_batch) {
    if (commit_batch(next_batch).ok()) {
      acked_tail.push_back(next_batch);
    } else {
      failed_batch = next_batch;
    }
  }
  ASSERT_GE(failed_batch, 0) << "the drive never reached " << point;
  ASSERT_EQ(failed_statuses.size(), static_cast<size_t>(kOpsPerBatch));
  EXPECT_GT(fp->hits(), 0u);
  EXPECT_TRUE(db->degraded()) << "an append-path IO fault must degrade";
  reg.DeactivateAll();

  // Hard crash: leak the engine, drop every open writer's volatile tail.
  (void)db.release();
  ssd::SsdEnv* raw_env = env.get();
  raw_env->SimulateCrashForTesting();

  auto reopened = qindb::QinDb::Open(raw_env, options);
  ASSERT_TRUE(reopened.ok())
      << "recovery failed after batch fault at " << point << ": "
      << reopened.status().ToString();
  std::unique_ptr<qindb::QinDb> recovered = std::move(reopened).value();
  EXPECT_FALSE(recovered->degraded());

  for (int b = 0; b < checkpointed_batches; ++b) {
    for (int j = 0; j < kOpsPerBatch; ++j) {
      const std::string key = batch_key(b, j);
      Result<std::string> got = recovered->Get(key, 1);
      ASSERT_TRUE(got.ok()) << key << " lost after batch fault at " << point
                            << ": " << got.status().ToString();
      EXPECT_EQ(*got, ValueFor(key)) << key << " torn at " << point;
    }
  }

  // Survivors of a post-checkpoint batch must be a gap-free prefix of the
  // batch's op subsequence ON EACH SHARD: sub-batches sit in independent
  // AOF tails that the crash clips separately, but within one shard the
  // leader lays the group down in op order (at num_shards=1 there is one
  // shard, and this is exactly the unsharded whole-batch prefix rule).
  auto check_prefix = [&](int b) {
    std::map<uint32_t, bool> shard_missing;
    for (int j = 0; j < kOpsPerBatch; ++j) {
      const std::string key = batch_key(b, j);
      const uint32_t shard = recovered->ShardOf(key);
      Result<std::string> got = recovered->Get(key, 1);
      if (got.ok()) {
        EXPECT_FALSE(shard_missing[shard])
            << "batch " << b << " has a shard-" << shard << " gap before op "
            << j << " at " << point;
        EXPECT_EQ(*got, ValueFor(key)) << key << " torn at " << point;
      } else {
        EXPECT_TRUE(got.status().IsNotFound())
            << key << ": " << got.status().ToString();
        shard_missing[shard] = true;
      }
    }
  };
  for (int b : acked_tail) check_prefix(b);
  if (point == "aof_append") {
    // The point fires before the hit shard's first record: none of the
    // failed ops may survive. Sibling sub-batches on other shards (OK
    // statuses) committed normally and follow the per-shard prefix rule.
    for (int j = 0; j < kOpsPerBatch; ++j) {
      if (failed_statuses[j].ok()) continue;
      EXPECT_TRUE(
          recovered->Get(batch_key(failed_batch, j), 1).status().IsNotFound())
          << "op " << j << " of the failed sub-batch survived " << point;
    }
    check_prefix(failed_batch);
  } else {
    check_prefix(failed_batch);
  }

  Result<qindb::QinDb::ScrubReport> scrub = recovered->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->clean())
      << "scrub after batch fault at " << point << ": damaged="
      << scrub->damaged_entries
      << " unresolvable=" << scrub->unresolvable_dedups;
  qindb::WriteBatch post;
  post.Put("post-recovery", 1, "alive");
  post.Put("post-recovery", 2, "still alive");
  EXPECT_TRUE(recovered->Write(post).ok());
}

TEST(ChaosCrashPoints, GroupCommitSurvivesAppendAndRollFaults) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DDIRECTLOAD_FAILPOINTS=ON";
  }
  for (const uint32_t shards : {1u, 4u}) {
    for (const char* point : {"aof_append", "aof_roll_segment"}) {
      RunBatchCrashPoint(point, shards);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// ---------------------------------------------------------------------------
// Suite 2: seeded randomized fault schedules against a live KvServer.
// ---------------------------------------------------------------------------

int NumSchedules() {
  // The TSan CI job dials this down: every schedule spawns real threads
  // under a 10x+ sanitizer slowdown.
  if (const char* env = std::getenv("DIRECTLOAD_CHAOS_SEEDS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return 25;
}

uint64_t FirstSeed() {
  // Replay aid: start the schedule sweep at a specific seed (combine with
  // DIRECTLOAD_CHAOS_SEEDS=1 to hammer one schedule).
  if (const char* env = std::getenv("DIRECTLOAD_CHAOS_FIRST_SEED")) {
    const long long n = std::atoll(env);
    if (n > 0) return static_cast<uint64_t>(n);
  }
  return 1;
}

struct AckedWrite {
  std::string key;
  std::string value;
};

/// The base fault surface, armed for the whole schedule. Probabilities are
/// low enough that the system keeps making progress and high enough that
/// every layer's error path runs many times per schedule.
const std::pair<const char*, const char*> kBaseFaults[] = {
    {"mint_replica_read", "10%return(unavailable)"},
    {"qindb_get", "4%return(io)"},
    {"qindb_put", "4%return(busy)"},
    {"ssd_file_read", "2%return(io)"},
    {"ssd_file_read_corrupt", "4%corrupt"},
    // Rolls and syncs are rare events (a handful per schedule), so these
    // fire deterministically when reached — a 1ms stall at every seal is
    // chaos enough, and probabilistic arming would leave some schedules
    // with the points silent.
    {"ssd_file_sync", "delay(1)"},
    {"aof_roll_segment", "delay(1)"},
    {"qindb_checkpoint", "delay(1)"},
    // At most two injected append failures per schedule: each one flips a
    // node into degraded read-only mode for the rest of the storm, and the
    // schedule still wants live replicas to write to.
    {"aof_append", "1%2*return(io)"},
    {"rpc_send", "1%return(unavailable)"},
    {"rpc_recv", "1%return(unavailable)"},
    {"rpc_connect", "10%return(unavailable)"},
    {"server_accept", "25%return(io)"},
    {"server_enqueue", "3%return(busy)"},
};

void RunSchedule(uint64_t seed, uint32_t num_shards,
                 std::set<std::string>* sweep_fired) {
  SCOPED_TRACE("schedule seed " + std::to_string(seed) +
               " shards=" + std::to_string(num_shards));
  Registry& reg = Registry::Instance();
  reg.DeactivateAll();
  reg.ResetCountersForTesting();
  reg.SetSeed(1000 + seed);

  mint::MintOptions cluster_options;
  cluster_options.num_groups = 2;
  cluster_options.nodes_per_group = 2;
  cluster_options.replicas = 2;
  cluster_options.parallel_reads = true;
  cluster_options.node_geometry = SmallGeometry();
  // Sharded engines on every node: an injected append fault degrades ONE
  // shard of one node; writes routed to the node's other shards keep
  // committing, and the acked-write invariant must hold regardless.
  cluster_options.engine.num_shards = num_shards;
  // Small segments: every node rolls (and therefore seals + syncs) several
  // times per schedule, keeping the seal-path failpoints in play.
  cluster_options.engine.aof.segment_bytes = 4 << 10;
  // Periodic checkpoints: file syncs only happen when a checkpoint seals the
  // active segment, so without this the checkpoint/sync/rename points would
  // be structurally silent for the whole schedule. It also pulls the
  // checkpoint-load path into every mid-storm recovery.
  cluster_options.engine.checkpoint_interval_bytes = 8 << 10;
  // Block cache on every engine: the staleness invariants (supersede/GC/
  // drop must evict or re-key) now ride every storm, and the acked-write
  // check below would catch a stale cached value as a torn write.
  cluster_options.engine.cache_bytes = 1 << 20;
  mint::MintCluster cluster(cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  server::KvServerOptions server_options;
  server_options.num_workers = 4;
  auto server =
      std::make_unique<server::KvServer>(&cluster, server_options);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  // Arm the storm. Per-point RNG streams derive from the registry seed, so
  // one failing seed replays exactly.
  for (const auto& [name, spec] : kBaseFaults) {
    ASSERT_TRUE(reg.Activate(name, spec).ok()) << name << "=" << spec;
  }

  rpc::RpcClient::Options chaos_client;
  chaos_client.connect_timeout_ms = 500;
  chaos_client.request_timeout_ms = 2000;
  chaos_client.max_reconnects = 3;
  chaos_client.backoff_initial_ms = 2;
  chaos_client.backoff_max_ms = 20;
  chaos_client.retry_budget_ms = 4000;

  std::mutex acked_mu;
  std::vector<AckedWrite> acked;
  std::atomic<bool> writers_done{false};
  std::atomic<int> value_violations{0};
  std::string first_violation;

  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 100;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      rpc::RpcClient::Options options = chaos_client;
      options.backoff_seed = seed * 31 + static_cast<uint64_t>(t) + 1;
      rpc::RpcClient client("127.0.0.1", port, options);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string key = "s" + std::to_string(seed) + ":t" +
                                std::to_string(t) + ":k" + std::to_string(i);
        const std::string value = ValueFor(key);
        if (client.Put(key, 1, value).ok()) {
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.push_back(AckedWrite{key, value});
        }
        // Failed puts may or may not have been applied (the ack can be the
        // injected casualty); the invariant only binds acknowledged ones.
      }
    });
  }
  // Closed-loop reader: during the storm, errors are expected — wrong BYTES
  // are not. Any successful read must match the recomputed value exactly.
  threads.emplace_back([&] {
    rpc::RpcClient::Options options = chaos_client;
    options.backoff_seed = seed * 31 + 77;
    rpc::RpcClient client("127.0.0.1", port, options);
    Random rng(seed * 131 + 7);
    while (!writers_done.load(std::memory_order_acquire)) {
      AckedWrite target;
      {
        std::lock_guard<std::mutex> lock(acked_mu);
        if (acked.empty()) {
          target.key.clear();
        } else {
          target = acked[rng.Uniform(acked.size())];
        }
      }
      if (target.key.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      Result<std::string> got = client.Get(target.key, 1);
      if (got.ok() && *got != target.value) {
        if (value_violations.fetch_add(1) == 0) {
          std::lock_guard<std::mutex> lock(acked_mu);
          first_violation = target.key + ": got " + got->substr(0, 48) +
                            " want " + target.value.substr(0, 48);
        }
      }
    }
  });

  // The chaos driver: node crashes/recoveries and one server restart,
  // paced across the writers' lifetime, all derived from the seed.
  Random chaos(seed ^ 0xc4a05);
  const int kSteps = 30;
  for (int step = 0; step < kSteps; ++step) {
    std::this_thread::sleep_for(std::chrono::milliseconds(8));
    switch (chaos.Uniform(4)) {
      case 0: {  // Crash a random node (possibly downing a whole group).
        const int id = static_cast<int>(chaos.Uniform(
            static_cast<uint64_t>(cluster.num_nodes())));
        DL_DISCARD_STATUS("chaos step; failing a downed node is fine",
                          cluster.FailNode(id));
        break;
      }
      case 1: {  // Recover a random node (no-op error if it is up).
        const int id = static_cast<int>(chaos.Uniform(
            static_cast<uint64_t>(cluster.num_nodes())));
        DL_DISCARD_STATUS("chaos step; recovering an up node is fine",
                          cluster.RecoverNode(id));
        break;
      }
      case 2: {  // Flicker one client-visible fault off and back on.
        reg.Deactivate("mint_replica_read");  // No-op if already disarmed.
        break;
      }
      default: {
        DL_DISCARD_STATUS(
            "chaos step; may already be armed",
            reg.Activate("mint_replica_read", "10%return(unavailable)"));
        break;
      }
    }
    if (step == kSteps / 2) {
      // Mid-storm server restart on the same port. Shutdown drains: every
      // acknowledged request finished executing before the listener died.
      server->Shutdown();
      server_options.port = port;
      server = std::make_unique<server::KvServer>(&cluster, server_options);
      Status restarted = server->Start();
      for (int retry = 0; retry < 50 && !restarted.ok(); ++retry) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        restarted = server->Start();
      }
      ASSERT_TRUE(restarted.ok()) << restarted.ToString();
    }
  }

  for (int t = 0; t < kWriters; ++t) threads[t].join();
  writers_done.store(true, std::memory_order_release);
  threads.back().join();

  const uint64_t distinct_fired = reg.DistinctFired();
  std::string fired_names;
  std::string silent_names;
  for (failpoint::FailPoint* fp : reg.List()) {
    if (fp->hits() > 0) {
      fired_names += fp->name() + " ";
      sweep_fired->insert(fp->name());
    } else {
      silent_names += fp->name() + " ";
    }
  }
  reg.DeactivateAll();

  // Heal: recover every node. A down node replays its AOF; an up node is
  // crash-cycled so degraded read-only engines (injected append failures)
  // come back writable and re-verify their on-disk state. Everything a
  // node acknowledged survives Fail() — the env keeps every appended byte;
  // only process-crash simulation drops volatile tails, and this suite
  // never does that to an acknowledged write.
  for (int id = 0; id < cluster.num_nodes(); ++id) {
    if (cluster.node(id)->up()) {
      ASSERT_TRUE(cluster.FailNode(id).ok());
    }
    Result<double> recovered = cluster.RecoverNode(id);
    ASSERT_TRUE(recovered.ok())
        << "node " << id << ": " << recovered.status().ToString();
  }

  // Invariant (b): no torn or cross-version value was ever served.
  EXPECT_EQ(value_violations.load(), 0) << first_violation;

  // Invariant (a): every acknowledged write is durable and readable.
  rpc::RpcClient::Options verify_options;
  verify_options.max_reconnects = 10;
  rpc::RpcClient verifier("127.0.0.1", port, verify_options);
  ASSERT_FALSE(acked.empty()) << "storm was so hostile nothing was acked";
  for (const AckedWrite& write : acked) {
    Result<std::string> got = verifier.Get(write.key, 1);
    if (!got.ok()) {
      // Per-node forensics: distinguish "record gone from every replica's
      // engine" from "serving path cannot reach it".
      std::string diag;
      for (int id = 0; id < cluster.num_nodes(); ++id) {
        Result<std::string> direct = cluster.node(id)->db()->Get(write.key, 1);
        diag += " node" + std::to_string(id) + "=" +
                (direct.ok() ? "present" : direct.status().ToString());
      }
      ASSERT_TRUE(got.ok())
          << "acknowledged write lost: " << write.key << " ("
          << got.status().ToString() << ");" << diag;
    }
    EXPECT_EQ(*got, write.value) << "acknowledged write torn: " << write.key;
  }

  // The schedule must genuinely exercise the fault surface, not tiptoe
  // around it. How many distinct points fire in ONE storm is stochastic
  // (probabilistic arming meets thread scheduling), so the per-schedule
  // floor only rules out a structurally dead storm; the sweep-wide union
  // check in the TEST body holds the real coverage bar.
  EXPECT_GE(distinct_fired, 8u)
      << "fired: " << fired_names << "| silent: " << silent_names;

  server->Shutdown();
}

TEST(ChaosSchedules, AckedWritesSurviveSeededFaultStorms) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DDIRECTLOAD_FAILPOINTS=ON";
  }
  const int schedules = NumSchedules();
  const uint64_t first = FirstSeed();
  // Disjoint seed ranges per shard-count configuration: the sharded sweep
  // explores different storms, not a rerun of the single-shard ones. CI
  // narrows each sweep with DIRECTLOAD_CHAOS_SEEDS (a per-configuration
  // count) and replays one storm with DIRECTLOAD_CHAOS_FIRST_SEED.
  struct ShardConfig {
    uint32_t shards;
    uint64_t seed_base;
  };
  std::set<std::string> sweep_fired;
  for (const ShardConfig& config :
       {ShardConfig{1, first}, ShardConfig{4, first + 10000}}) {
    for (int i = 0; i < schedules; ++i) {
      RunSchedule(config.seed_base + static_cast<uint64_t>(i), config.shards,
                  &sweep_fired);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // Sweep-wide coverage bar: across all schedules, the storms must fire
  // nearly the whole armed surface (14 points in kBaseFaults). Skipped for
  // a narrowed replay (DIRECTLOAD_CHAOS_SEEDS=1) where a single schedule's
  // draw cannot be expected to span the surface.
  if (schedules * 2 >= 8) {
    std::string union_names;
    for (const std::string& name : sweep_fired) union_names += name + " ";
    EXPECT_GE(sweep_fired.size(), 12u) << "union fired: " << union_names;
  }
}

// ---------------------------------------------------------------------------
// Suite 3: bulk loads mixed into the storm.
// ---------------------------------------------------------------------------

/// The bulk-storm fault surface. Node crashes are deliberately excluded: a
/// slice is staged on the key's LIVE replicas only, so a load acked during a
/// replica outage legitimately commits a version some replica never saw —
/// the same non-invariant as deletes in the live-write storm. Everything
/// else is fair game: wire corruption (the per-hop slice checksum must turn
/// it into a repairable NACK, never into wrong bytes), injected ingest
/// failures, transport faults, admission rejections, and a mid-storm server
/// restart.
const std::pair<const char*, const char*> kBulkStormFaults[] = {
    {"bulk_slice_corrupt", "33%corrupt"},
    {"qindb_ingest_append", "2%return(io)"},
    {"mint_replica_read", "10%return(unavailable)"},
    {"qindb_get", "4%return(io)"},
    {"ssd_file_read_corrupt", "4%corrupt"},
    {"ssd_file_sync", "delay(1)"},
    {"aof_roll_segment", "delay(1)"},
    {"rpc_connect", "10%return(unavailable)"},
    {"server_enqueue", "2%return(busy)"},
};

/// Coverage aggregated across a sweep's schedules: any single storm may be
/// gentle, but the sweep as a whole must exercise the repair machinery.
struct BulkStormCoverage {
  uint64_t checksum_nacks = 0;
  uint64_t slices_resent = 0;
  uint64_t max_distinct_fired = 0;
};

void RunBulkSchedule(uint64_t seed, uint32_t num_shards,
                     BulkStormCoverage* coverage) {
  SCOPED_TRACE("bulk schedule seed " + std::to_string(seed) +
               " shards=" + std::to_string(num_shards));
  Registry& reg = Registry::Instance();
  reg.DeactivateAll();
  reg.ResetCountersForTesting();
  reg.SetSeed(7000 + seed);

  mint::MintOptions cluster_options;
  cluster_options.num_groups = 2;
  cluster_options.nodes_per_group = 2;
  cluster_options.replicas = 2;
  cluster_options.parallel_reads = true;
  cluster_options.node_geometry = SmallGeometry();
  cluster_options.engine.num_shards = num_shards;
  cluster_options.engine.aof.segment_bytes = 16 << 10;
  cluster_options.engine.cache_bytes = 1 << 20;
  mint::MintCluster cluster(cluster_options);
  ASSERT_TRUE(cluster.Start().ok());

  server::KvServerOptions server_options;
  server_options.num_workers = 4;
  auto server = std::make_unique<server::KvServer>(&cluster, server_options);
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  for (const auto& [name, spec] : kBulkStormFaults) {
    ASSERT_TRUE(reg.Activate(name, spec).ok()) << name << "=" << spec;
  }

  rpc::RpcClient::Options chaos_client;
  chaos_client.connect_timeout_ms = 500;
  chaos_client.request_timeout_ms = 2000;
  chaos_client.max_reconnects = 3;
  chaos_client.backoff_initial_ms = 2;
  chaos_client.backoff_max_ms = 20;
  chaos_client.retry_budget_ms = 4000;

  // Live writers keep the normal write path hot underneath the bulk loads;
  // their acked-write invariant must hold exactly as in the live storm.
  std::mutex acked_mu;
  std::vector<AckedWrite> acked;
  std::atomic<bool> stop_chaos{false};
  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 60;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      rpc::RpcClient::Options options = chaos_client;
      options.backoff_seed = seed * 37 + static_cast<uint64_t>(t) + 1;
      rpc::RpcClient client("127.0.0.1", port, options);
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string key = "bs" + std::to_string(seed) + ":t" +
                                std::to_string(t) + ":k" + std::to_string(i);
        if (client.Put(key, 1, ValueFor(key)).ok()) {
          std::lock_guard<std::mutex> lock(acked_mu);
          acked.push_back(AckedWrite{key, ValueFor(key)});
        }
      }
    });
  }

  // The chaos driver: one mid-storm server restart plus read-fault flicker.
  std::thread chaos_thread([&] {
    Random chaos(seed ^ 0xb41f);
    for (int step = 0; step < 24 && !stop_chaos.load(); ++step) {
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
      if (chaos.Uniform(2) == 0) {
        reg.Deactivate("mint_replica_read");
      } else {
        DL_DISCARD_STATUS(
            "chaos step; may already be armed",
            reg.Activate("mint_replica_read", "10%return(unavailable)"));
      }
      if (step == 12) {
        server->Shutdown();
        server_options.port = port;
        server =
            std::make_unique<server::KvServer>(&cluster, server_options);
        Status restarted = server->Start();
        for (int retry = 0; retry < 50 && !restarted.ok(); ++retry) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          restarted = server->Start();
        }
        ASSERT_TRUE(restarted.ok()) << restarted.ToString();
      }
    }
  });

  // Sequential bulk loads, one version each, from the storm's main thread.
  // The invariant is all-or-nothing per load: an OK load must serve every
  // pair; a failed one may have committed (the lost-ack ambiguity of any
  // at-most-once protocol) but must never be PARTIALLY visible.
  constexpr int kLoads = 6;
  constexpr int kPairsPerLoad = 60;
  std::vector<Status> load_status;
  bifrost::wire::BulkLoadReport total_report;
  for (int load = 0; load < kLoads; ++load) {
    const uint64_t version = 2 + static_cast<uint64_t>(load);
    std::vector<bifrost::ShippedPair> pairs;
    for (int i = 0; i < kPairsPerLoad; ++i) {
      bifrost::ShippedPair pair;
      pair.key = "blk" + std::to_string(version) + ":k" + std::to_string(i);
      pair.value = ValueFor(pair.key);
      pairs.push_back(std::move(pair));
    }
    rpc::RpcClient::Options options = chaos_client;
    options.backoff_seed = seed * 41 + static_cast<uint64_t>(load);
    rpc::RpcClient client("127.0.0.1", port, options);
    bifrost::wire::BulkLoadOptions load_options;
    load_options.slice_bytes = 2048;
    load_options.send_window = 4;
    bifrost::wire::BulkLoader loader(&client, load_options);
    bifrost::wire::BulkLoadReport report;
    load_status.push_back(
        loader.Load(version, pairs, {}, {}, &report));
    total_report.checksum_nacks += report.checksum_nacks;
    total_report.slices_resent += report.slices_resent;
  }

  for (std::thread& t : writers) t.join();
  stop_chaos.store(true);
  chaos_thread.join();
  const uint64_t distinct_fired = reg.DistinctFired();
  reg.DeactivateAll();

  // Post-storm verification over a clean channel.
  rpc::RpcClient::Options verify_options;
  verify_options.max_reconnects = 10;
  rpc::RpcClient verifier("127.0.0.1", port, verify_options);

  int loads_ok = 0;
  for (int load = 0; load < kLoads; ++load) {
    const uint64_t version = 2 + static_cast<uint64_t>(load);
    SCOPED_TRACE("load version " + std::to_string(version) + ": " +
                 load_status[load].ToString());
    int visible = 0;
    for (int i = 0; i < kPairsPerLoad; ++i) {
      const std::string key =
          "blk" + std::to_string(version) + ":k" + std::to_string(i);
      Result<std::string> got = verifier.Get(key, version);
      if (got.ok()) {
        ++visible;
        EXPECT_EQ(*got, ValueFor(key)) << "torn bulk pair: " << key;
      } else {
        ASSERT_TRUE(got.status().IsNotFound())
            << key << ": " << got.status().ToString();
      }
    }
    if (load_status[load].ok()) {
      ++loads_ok;
      EXPECT_EQ(visible, kPairsPerLoad)
          << "acked load v" << version << " partially visible";
    } else {
      EXPECT_TRUE(visible == 0 || visible == kPairsPerLoad)
          << "failed load v" << version << " is PARTIALLY visible ("
          << visible << "/" << kPairsPerLoad << ")";
    }
  }
  std::string statuses;
  for (const Status& s : load_status) statuses += s.ToString() + "; ";
  EXPECT_GT(loads_ok, 0) << "storm was so hostile no load ever committed: "
                         << statuses;

  for (const AckedWrite& write : acked) {
    Result<std::string> got = verifier.Get(write.key, 1);
    ASSERT_TRUE(got.ok()) << "acknowledged write lost during bulk storm: "
                          << write.key << " (" << got.status().ToString()
                          << ")";
    EXPECT_EQ(*got, write.value) << "acknowledged write torn: " << write.key;
  }

  coverage->checksum_nacks += total_report.checksum_nacks;
  coverage->slices_resent += total_report.slices_resent;
  coverage->max_distinct_fired =
      std::max(coverage->max_distinct_fired, distinct_fired);

  server->Shutdown();
}

TEST(ChaosSchedules, BulkLoadsAreAllOrNothingUnderFaultStorms) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "build with -DDIRECTLOAD_FAILPOINTS=ON";
  }
  const int schedules = std::max(1, NumSchedules() / 5);
  const uint64_t first = FirstSeed();
  BulkStormCoverage coverage;
  for (const uint32_t shards : {1u, 4u}) {
    for (int i = 0; i < schedules; ++i) {
      RunBulkSchedule(first + 20000 + static_cast<uint64_t>(shards) * 1000 +
                          static_cast<uint64_t>(i),
                      shards, &coverage);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The sweep must genuinely exercise the repair machinery: wire corruption
  // fired and was converted into NACK + re-send somewhere, and at least one
  // storm lit up a meaningful slice of the fault surface.
  EXPECT_GT(coverage.checksum_nacks, 0u)
      << "wire corruption never fired across the sweep";
  EXPECT_GE(coverage.slices_resent, coverage.checksum_nacks);
  EXPECT_GE(coverage.max_distinct_fired, 4u);
}

}  // namespace
}  // namespace directload
