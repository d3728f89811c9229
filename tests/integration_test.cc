// Cross-module integration tests: the full data path (build -> dedup ->
// slice -> transmit -> store -> query), engine equivalence on identical
// workloads, and failure/recovery behavior across subsystem boundaries.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "bifrost/dedup.h"
#include "bifrost/delivery.h"
#include "bifrost/wire/slice_codec.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "core/directload.h"
#include "index/builders.h"
#include "index/corpus.h"
#include "lsm/db.h"
#include "mint/cluster.h"
#include "qindb/qindb.h"
#include "ssd/env.h"

namespace directload {
namespace {

const std::vector<bifrost::wire::BulkDelete> kNoDeletes;

ssd::Geometry NodeGeometry() {
  ssd::Geometry g;
  g.pages_per_block = 8;
  g.num_blocks = 8192;  // 256 MiB.
  return g;
}

// ---------------------------------------------------------------------------
// Build -> dedup -> slice -> unpack -> QinDB: byte-identical round trip.
// ---------------------------------------------------------------------------

TEST(PipelineIntegrationTest, DedupedStreamReconstructsExactValues) {
  webindex::CorpusOptions corpus_options;
  corpus_options.num_docs = 150;
  corpus_options.vocab_size = 1000;
  corpus_options.terms_per_doc = 10;
  corpus_options.abstract_bytes = 2048;
  webindex::Corpus corpus(corpus_options);

  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, NodeGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions db_options;
  db_options.num_shards = 1;
  db_options.aof.segment_bytes = 1 << 20;
  auto db = std::move(qindb::QinDb::Open(env.get(), db_options)).value();

  bifrost::Deduplicator dedup;
  // Ship five versions through the full serialize/deserialize path.
  std::map<uint64_t, std::map<std::string, std::string>> truth;
  for (int round = 0; round < 5; ++round) {
    if (round > 0) corpus.AdvanceVersionWithChangeRate(0.3);
    const uint64_t version = corpus.version();
    webindex::IndexDataset summary = webindex::BuildSummaryIndex(corpus);
    for (const webindex::KvPair& kv : summary.pairs) {
      truth[version][kv.key] = kv.value;
    }
    std::vector<bifrost::ShippedPair> shipped =
        dedup.Process(summary, nullptr);
    std::vector<bifrost::SliceFrame> slices;
    uint64_t next_slice_id = 0;
    bifrost::EncodeSliceFrames({summary.type, &shipped, &kNoDeletes}, version,
                               /*slice_bytes=*/16 << 10, &next_slice_id,
                               &slices);
    ASSERT_TRUE(db->IngestBegin(version).ok());
    for (const bifrost::SliceFrame& slice : slices) {
      bifrost::wire::SliceHeader header;
      std::vector<qindb::IngestOp> ops;
      ASSERT_TRUE(
          bifrost::wire::DecodeSlicePacket(slice.bytes, &header, &ops).ok());
      ASSERT_TRUE(db->IngestRun(version, ops.data(), ops.size()).ok());
    }
    ASSERT_TRUE(db->IngestCommit(version).ok());
  }

  // Every value of every version reconstructs exactly — deduplicated pairs
  // resolve through the traceback to the version that last carried bytes.
  for (const auto& [version, pairs] : truth) {
    for (const auto& [key, value] : pairs) {
      Result<std::string> got = db->Get(key, version);
      ASSERT_TRUE(got.ok()) << key << "@" << version;
      EXPECT_EQ(*got, value) << key << "@" << version;
    }
  }
  // And a meaningful share of the stream really was deduplicated.
  EXPECT_GT(db->stats().dedup_puts, db->stats().puts / 3);
}

// ---------------------------------------------------------------------------
// Engine equivalence: identical workload, identical answers.
// ---------------------------------------------------------------------------

TEST(EngineEquivalenceTest, QinDbAndLsmServeIdenticalData) {
  SimClock q_clock, l_clock;
  auto q_env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, NodeGeometry(),
                         ssd::LatencyModel(), &q_clock);
  auto l_env = NewSsdEnv(ssd::InterfaceMode::kPageMappedFtl, NodeGeometry(),
                         ssd::LatencyModel(), &l_clock);
  qindb::QinDbOptions q_options;
  q_options.num_shards = 1;
  q_options.aof.segment_bytes = 512 << 10;
  auto qdb = std::move(qindb::QinDb::Open(q_env.get(), q_options)).value();
  lsm::LsmOptions l_options;
  l_options.write_buffer_bytes = 256 << 10;
  auto ldb = std::move(lsm::LsmDb::Open(l_env.get(), l_options)).value();

  // LSM stores versioned pairs under composite keys.
  auto composite = [](const std::string& key, uint64_t version) {
    std::string out = key;
    for (int shift = 56; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>((version >> shift) & 0xff));
    }
    return out;
  };

  Random rnd(77);
  std::map<std::pair<std::string, uint64_t>, std::string> model;
  for (int i = 0; i < 1500; ++i) {
    const std::string key = "k" + std::to_string(rnd.Uniform(120));
    const uint64_t version = 1 + rnd.Uniform(4);
    if (rnd.Bernoulli(0.8)) {
      const std::string value = rnd.NextString(100 + rnd.Uniform(2000));
      ASSERT_TRUE(qdb->Put(key, version, value).ok());
      ASSERT_TRUE(ldb->Put(composite(key, version), value).ok());
      model[{key, version}] = value;
    } else {
      Status qs = qdb->Del(key, version);
      Status ls = ldb->Delete(composite(key, version));
      ASSERT_TRUE(ls.ok());
      if (qs.ok()) model.erase({key, version});
      // QinDB returns NotFound for never-written pairs; LSM writes a
      // tombstone unconditionally. Both end at "absent".
      model.erase({key, version});
    }
  }

  for (int i = 0; i < 120; ++i) {
    const std::string key = "k" + std::to_string(i);
    for (uint64_t version = 1; version <= 4; ++version) {
      Result<std::string> q = qdb->Get(key, version);
      Result<std::string> l = ldb->Get(composite(key, version));
      auto it = model.find({key, version});
      if (it == model.end()) {
        EXPECT_TRUE(q.status().IsNotFound()) << key << "@" << version;
        EXPECT_TRUE(l.status().IsNotFound()) << key << "@" << version;
      } else {
        ASSERT_TRUE(q.ok());
        ASSERT_TRUE(l.ok());
        EXPECT_EQ(*q, *l);
        EXPECT_EQ(*q, it->second);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Delivery + Mint: a node crash during ingestion is absorbed.
// ---------------------------------------------------------------------------

TEST(DeliveryIngestIntegrationTest, NodeCrashDuringIngestIsAbsorbed) {
  mint::MintOptions mint_options;
  mint_options.num_groups = 1;
  mint_options.nodes_per_group = 3;
  mint_options.node_geometry = NodeGeometry();
  mint_options.engine.aof.segment_bytes = 1 << 20;
  mint::MintCluster cluster(mint_options);
  ASSERT_TRUE(cluster.Start().ok());

  // Prepare slices.
  std::vector<bifrost::ShippedPair> pairs;
  Random rnd(3);
  for (int i = 0; i < 120; ++i) {
    bifrost::ShippedPair p;
    p.key = "url:" + std::to_string(i);
    p.value = rnd.NextString(1500);
    pairs.push_back(std::move(p));
  }
  std::vector<bifrost::SliceFrame> slices;
  uint64_t next_slice_id = 0;
  bifrost::EncodeSliceFrames({webindex::IndexType::kInverted, &pairs,
                              &kNoDeletes},
                             1, /*slice_bytes=*/16 << 10, &next_slice_id,
                             &slices);

  SimClock net_clock;
  bifrost::DeliveryOptions delivery_options;
  delivery_options.backbone_bytes_per_sec = 10e6;
  delivery_options.regional_bytes_per_sec = 40e6;
  delivery_options.interregion_bytes_per_sec = 10e6;
  delivery_options.tick_seconds = 0.05;
  bifrost::DeliveryService delivery(&net_clock, delivery_options);

  size_t arrivals = 0;
  bool crashed = false;
  ASSERT_TRUE(cluster.BulkBegin(1).ok());
  bifrost::DeliveryReport report = delivery.DeliverVersion(
      {}, slices, [&](int dc, const bifrost::SliceFrame& slice) {
        if (dc != 0) return;  // This test ingests at data center 0 only.
        bifrost::wire::SliceHeader header;
        std::vector<qindb::IngestOp> ops;
        ASSERT_TRUE(
            bifrost::wire::DecodeSlicePacket(slice.bytes, &header, &ops).ok());
        if (!crashed && ++arrivals == 2) {
          // A replica dies mid-version.
          ASSERT_TRUE(cluster.FailNode(0).ok());
          crashed = true;
        }
        ASSERT_TRUE(cluster.BulkIngest(1, ops.data(), ops.size()).ok());
      });
  ASSERT_TRUE(report.completed);
  ASSERT_TRUE(crashed);
  ASSERT_TRUE(cluster.BulkCommit(1).ok());

  // Every pair is readable from the surviving replicas.
  for (const bifrost::ShippedPair& pair : pairs) {
    Result<mint::MintCluster::ReadResult> got = cluster.Get(pair.key, 1);
    ASSERT_TRUE(got.ok()) << pair.key;
    EXPECT_EQ(got->value, pair.value);
  }
  // The crashed node recovers from its AOFs and rejoins.
  ASSERT_TRUE(cluster.RecoverNode(0).ok());
  EXPECT_TRUE(cluster.node(0)->up());
}

// ---------------------------------------------------------------------------
// Gray release catches a bad version; rollback restores service.
// ---------------------------------------------------------------------------

core::DirectLoadOptions TinyPipeline() {
  core::DirectLoadOptions o;
  o.corpus.num_docs = 80;
  o.corpus.vocab_size = 600;
  o.corpus.terms_per_doc = 10;
  o.corpus.abstract_bytes = 512;
  o.delivery.backbone_bytes_per_sec = 40e6;
  o.delivery.interregion_bytes_per_sec = 25e6;
  o.delivery.regional_bytes_per_sec = 80e6;
  o.delivery.tick_seconds = 0.1;
  o.slice_bytes = 16 << 10;
  o.mint.num_groups = 1;
  o.mint.nodes_per_group = 3;
  o.mint.node_geometry.pages_per_block = 8;
  o.mint.node_geometry.num_blocks = 4096;
  o.mint.engine.aof.segment_bytes = 256 << 10;
  o.gray_probe_queries = 15;
  return o;
}

TEST(GrayReleaseIntegrationTest, FailedGrayCheckBlocksActivationEverywhere) {
  // An impossible inconsistency budget makes every gray release fail —
  // verifying the gating mechanism: the new version is stored but never
  // activated, and queries keep serving the previous one.
  core::DirectLoadOptions options = TinyPipeline();
  core::DirectLoad dl(options);
  ASSERT_TRUE(dl.Start().ok());
  ASSERT_TRUE(dl.RunUpdateCycle().ok());
  EXPECT_EQ(dl.active_version(0), 1u);

  core::DirectLoadOptions strict = TinyPipeline();
  strict.gray_max_inconsistency = -1.0;  // Unsatisfiable.
  core::DirectLoad strict_dl(strict);
  ASSERT_TRUE(strict_dl.Start().ok());
  Result<core::UpdateReport> first = strict_dl.RunUpdateCycle();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->gray_release_passed);
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    EXPECT_EQ(strict_dl.active_version(dc), 0u);  // Never went live.
  }
  // The data is nevertheless stored (rollforward would be possible).
  mint::MintCluster* gray = strict_dl.data_center(0);
  const webindex::Document& doc = strict_dl.corpus().documents()[0];
  EXPECT_TRUE(gray->Get(doc.url, 1).ok());
  // But queries refuse to serve an inactive version.
  const uint32_t term = strict_dl.corpus().TermsOf(doc)[0];
  EXPECT_TRUE(strict_dl.Query(0, term).status().IsUnavailable());
}

TEST(GrayReleaseIntegrationTest, RollbackAfterActivationServesOldVersion) {
  core::DirectLoad dl(TinyPipeline());
  ASSERT_TRUE(dl.Start().ok());
  ASSERT_TRUE(dl.RunUpdateCycle().ok());
  ASSERT_TRUE(dl.RunUpdateCycle(0.5).ok());
  ASSERT_EQ(dl.active_version(0), 2u);
  ASSERT_TRUE(dl.Rollback().ok());
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    EXPECT_EQ(dl.active_version(dc), 1u);
  }
  const webindex::Document& doc = dl.corpus().documents()[1];
  const uint32_t term = dl.corpus().TermsOf(doc)[0];
  // Queries keep being served from the rolled-back version at every DC.
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    EXPECT_TRUE(dl.Query(dc, term).ok()) << dc;
  }
}

// ---------------------------------------------------------------------------
// Checkpoint + GC + crash interplay across the stack.
// ---------------------------------------------------------------------------

TEST(RecoveryIntegrationTest, CheckpointGcCrashSequencePreservesData) {
  SimClock clock;
  auto env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, NodeGeometry(),
                       ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.aof.segment_bytes = 256 << 10;
  options.auto_gc = false;
  Random rnd(12);
  std::map<std::string, std::string> live;
  {
    auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
    for (int i = 0; i < 150; ++i) {
      const std::string key = "url:" + std::to_string(i);
      const std::string value = rnd.NextString(2000);
      ASSERT_TRUE(db->Put(key, 1, value).ok());
      live[key] = value;
    }
    ASSERT_TRUE(db->Checkpoint().ok());
    // Post-checkpoint deletes + GC relocations invalidate the checkpoint.
    // Deleting 7/8 of the keys pushes every sealed segment below the 25%
    // occupancy threshold so the GC physically drops the records.
    for (int i = 0; i < 150; ++i) {
      if (i % 8 == 0) continue;
      const std::string key = "url:" + std::to_string(i);
      ASSERT_TRUE(db->Del(key, 1).ok());
      live.erase(key);
    }
    ASSERT_TRUE(db->ForceGc().ok());
    EXPECT_GT(db->gc_stats().segments_reclaimed, 0u);
    EXPECT_FALSE(env->FileExists("s00_checkpoint.dat"));
    // More writes after the GC, then a crash.
    for (int i = 200; i < 230; ++i) {
      const std::string key = "url:" + std::to_string(i);
      const std::string value = rnd.NextString(2000);
      ASSERT_TRUE(db->Put(key, 1, value).ok());
      live[key] = value;
    }
  }
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  for (const auto& [key, value] : live) {
    Result<std::string> got = db->Get(key, 1);
    ASSERT_TRUE(got.ok()) << key;
    EXPECT_EQ(*got, value);
  }
  // Every delete logged a tombstone, so the deleted keys stay gone whether
  // or not GC has already dropped their records.
  EXPECT_TRUE(db->Get("url:1", 1).status().IsNotFound());
  EXPECT_TRUE(db->Get("url:0", 1).ok());  // A survivor, relocated by GC.
}

}  // namespace
}  // namespace directload
