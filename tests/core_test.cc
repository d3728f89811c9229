#include <gtest/gtest.h>

#include "core/directload.h"

namespace directload::core {
namespace {

DirectLoadOptions SmallPipeline() {
  DirectLoadOptions o;
  o.corpus.num_docs = 120;
  o.corpus.vocab_size = 800;
  o.corpus.terms_per_doc = 12;
  o.corpus.abstract_bytes = 1024;
  o.corpus.seed = 11;
  o.delivery.backbone_bytes_per_sec = 40e6;
  o.delivery.interregion_bytes_per_sec = 25e6;
  o.delivery.regional_bytes_per_sec = 80e6;
  o.delivery.tick_seconds = 0.1;
  o.slice_bytes = 32 << 10;
  o.mint.num_groups = 1;
  o.mint.nodes_per_group = 3;
  o.mint.node_geometry.pages_per_block = 8;
  o.mint.node_geometry.num_blocks = 4096;  // 128 MiB per node.
  o.mint.engine.aof.segment_bytes = 256 << 10;
  o.gray_probe_queries = 20;
  return o;
}

class DirectLoadTest : public ::testing::Test {
 protected:
  DirectLoadTest() : dl_(SmallPipeline()) { EXPECT_TRUE(dl_.Start().ok()); }

  /// Takes every node of data center 3 down (or back up), so that its
  /// BulkBegin answers Unavailable after three data centers opened theirs.
  void SetDc3Up(bool up) {
    mint::MintCluster* dc3 = dl_.data_center(3);
    for (int n = 0; n < dc3->num_nodes(); ++n) {
      if (up) {
        ASSERT_TRUE(dc3->RecoverNode(n).ok()) << n;
      } else {
        ASSERT_TRUE(dc3->FailNode(n).ok()) << n;
      }
    }
  }

  /// Every summary pair of `version` at data center 0 reads back as the
  /// corpus says.
  void ExpectSummariesServed(uint64_t version) {
    for (const webindex::Document& doc : dl_.corpus().documents()) {
      Result<mint::MintCluster::ReadResult> got =
          dl_.data_center(0)->Get(doc.url, version);
      ASSERT_TRUE(got.ok()) << doc.url << ": " << got.status().ToString();
      EXPECT_EQ(got->value, dl_.corpus().AbstractOf(doc)) << doc.url;
    }
  }

  DirectLoad dl_;
};

TEST_F(DirectLoadTest, FirstCycleShipsFullVersionAndActivates) {
  Result<UpdateReport> report = dl_.RunUpdateCycle();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->version, 1u);
  EXPECT_EQ(report->dedup.pairs_deduped, 0u);  // Nothing to dedup yet.
  EXPECT_TRUE(report->delivery.completed);
  EXPECT_TRUE(report->gray_release_passed);
  EXPECT_LE(report->gray_inconsistency, 0.001);
  EXPECT_GT(report->pairs_ingested, 0u);
  EXPECT_GT(report->update_time_seconds, 0.0);
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    EXPECT_EQ(dl_.active_version(dc), 1u);
  }
}

TEST_F(DirectLoadTest, SecondCycleDeduplicatesUnchangedContent) {
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  Result<UpdateReport> second = dl_.RunUpdateCycle(/*change_rate=*/0.2);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->version, 2u);
  EXPECT_GT(second->dedup.pairs_deduped, 0u);
  EXPECT_GT(second->dedup.dedup_ratio(), 0.3);
  EXPECT_TRUE(second->gray_release_passed);
}

TEST_F(DirectLoadTest, DedupShortensUpdateTime) {
  // Cycle 1 ships everything; cycle 2 at low change rate ships much less
  // and must complete faster (Figure 9's anti-correlation).
  Result<UpdateReport> first = dl_.RunUpdateCycle();
  ASSERT_TRUE(first.ok());
  Result<UpdateReport> second = dl_.RunUpdateCycle(/*change_rate=*/0.05);
  ASSERT_TRUE(second.ok());
  EXPECT_LT(second->update_time_seconds, first->update_time_seconds);
}

TEST_F(DirectLoadTest, QueriesServeSearchPath) {
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  // Pick a real document term so the query has hits.
  const webindex::Document& doc = dl_.corpus().documents()[5];
  const uint32_t term = dl_.corpus().TermsOf(doc)[0];
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    Result<DirectLoad::QueryResult> result = dl_.Query(dc, term, 3);
    ASSERT_TRUE(result.ok()) << "dc " << dc << ": "
                             << result.status().ToString();
    ASSERT_FALSE(result->urls.empty());
    ASSERT_EQ(result->urls.size(), result->abstracts.size());
    for (const std::string& abstract : result->abstracts) {
      EXPECT_FALSE(abstract.empty());
    }
  }
}

// A failed cycle must not leave dedup state describing a version the data
// centers do not all hold: the retry ships full values and reads back.
TEST_F(DirectLoadTest, RetryOfFailedFirstCycleShipsFullValues) {
  SetDc3Up(false);
  Result<UpdateReport> failed = dl_.RunUpdateCycle();
  ASSERT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  SetDc3Up(true);
  Result<UpdateReport> retry = dl_.RunUpdateCycle();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->version, 1u);
  EXPECT_EQ(retry->dedup.pairs_deduped, 0u);
  EXPECT_DOUBLE_EQ(retry->gray_inconsistency, 0.0);
  ExpectSummariesServed(1);
}

TEST_F(DirectLoadTest, CycleAfterAFailedLaterCycleShipsFullValues) {
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  SetDc3Up(false);
  Result<UpdateReport> failed = dl_.RunUpdateCycle(/*change_rate=*/0.5);
  ASSERT_TRUE(failed.status().IsUnavailable()) << failed.status().ToString();
  SetDc3Up(true);
  Result<UpdateReport> next = dl_.RunUpdateCycle(/*change_rate=*/0.5);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  EXPECT_EQ(next->version, 3u);
  EXPECT_EQ(next->dedup.pairs_deduped, 0u);
  EXPECT_DOUBLE_EQ(next->gray_inconsistency, 0.0);
  ExpectSummariesServed(3);
}

TEST_F(DirectLoadTest, VersionPruningKeepsAtMostFour) {
  for (int i = 0; i < 6; ++i) {
    Result<UpdateReport> report = dl_.RunUpdateCycle(/*change_rate=*/0.3);
    ASSERT_TRUE(report.ok()) << i << ": " << report.status().ToString();
    if (i < 4) {
      EXPECT_EQ(report->version_pruned, 0u) << i;
    } else {
      EXPECT_EQ(report->version_pruned, static_cast<uint64_t>(i - 3)) << i;
    }
  }
  // Version 1 was pruned; version 6 (current) still readable.
  mint::MintCluster* dc0 = dl_.data_center(0);
  const webindex::Document& doc = dl_.corpus().documents()[0];
  EXPECT_TRUE(dc0->Get(doc.url, 1).status().IsNotFound());
  EXPECT_TRUE(dc0->Get(doc.url, 6).ok());
}

TEST_F(DirectLoadTest, TracebackSurvivesPruningOfValueVersion) {
  // A document that never changes: versions 2..N are all deduplicated and
  // trace back to version 1's record. Pruning version 1 must not break
  // reads of live versions (the GC keeps the record as a referent).
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dl_.RunUpdateCycle(/*change_rate=*/0.0).ok());
  }
  const webindex::Document& doc = dl_.corpus().documents()[9];
  mint::MintCluster* dc0 = dl_.data_center(0);
  Result<mint::MintCluster::ReadResult> got = dc0->Get(doc.url, 6);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, dl_.corpus().AbstractOf(doc));
}

TEST_F(DirectLoadTest, RollbackRestoresPreviousVersion) {
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  EXPECT_EQ(dl_.active_version(0), 2u);
  ASSERT_TRUE(dl_.Rollback().ok());
  EXPECT_EQ(dl_.active_version(0), 1u);
  // Queries now serve version 1.
  const webindex::Document& doc = dl_.corpus().documents()[3];
  const uint32_t term = dl_.corpus().TermsOf(doc)[0];
  EXPECT_TRUE(dl_.Query(0, term).ok());
}

TEST_F(DirectLoadTest, RollbackBelowOldestRejected) {
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  EXPECT_TRUE(dl_.Rollback().IsInvalidArgument());
}

TEST_F(DirectLoadTest, VipOnlyCycleIsFasterAndHighlyDeduplicated) {
  ASSERT_TRUE(dl_.RunUpdateCycle().ok());
  Result<UpdateReport> full = dl_.RunUpdateCycle(/*change_rate=*/0.4);
  ASSERT_TRUE(full.ok());
  // A VIP-only round mutates only the VIP tier (~20% of documents), so far
  // more pairs deduplicate and the cycle completes faster — the paper's
  // higher-frequency VIP update path.
  Result<UpdateReport> vip =
      dl_.RunUpdateCycle(/*change_rate=*/0.4, /*vip_only=*/true);
  ASSERT_TRUE(vip.ok());
  EXPECT_GT(vip->dedup.dedup_ratio(), full->dedup.dedup_ratio());
  EXPECT_LT(vip->dedup.bytes_shipped, full->dedup.bytes_shipped);
  // On this fast test network both rounds may finish within one simulation
  // tick, so compare time weakly.
  EXPECT_LE(vip->update_time_seconds, full->update_time_seconds);
  EXPECT_TRUE(vip->gray_release_passed);
}

// A version lands through a bulk session per data center: a delivery that
// runs out of time aborts it, and no node serves any pair of it — not even
// the slices that arrived before the deadline.
TEST(DirectLoadTimeoutTest, TimedOutDeliveryLeavesNoTraceOfTheVersion) {
  DirectLoadOptions options = SmallPipeline();
  options.delivery.max_seconds = options.delivery.tick_seconds;
  DirectLoad dl(options);
  ASSERT_TRUE(dl.Start().ok());
  Result<UpdateReport> report = dl.RunUpdateCycle();
  ASSERT_TRUE(report.status().IsTimedOut()) << report.status().ToString();

  const webindex::IndexDataset summary =
      webindex::BuildSummaryIndex(dl.corpus());
  const webindex::IndexDataset inverted = webindex::BuildInvertedIndex(
      dl.corpus(), webindex::BuildForwardIndex(dl.corpus()));
  ASSERT_EQ(summary.version, 1u);
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    mint::MintCluster* cluster = dl.data_center(dc);
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      qindb::QinDb* db = cluster->node(n)->db();
      for (const webindex::IndexDataset* dataset : {&summary, &inverted}) {
        for (const webindex::KvPair& kv : dataset->pairs) {
          EXPECT_TRUE(db->Get(kv.key, 1).status().IsNotFound())
              << "dc " << dc << " node " << n << " key " << kv.key;
        }
      }
    }
  }
}

TEST(DirectLoadForwardShipTest, ForwardIndexReachesEveryDataCenter) {
  DirectLoadOptions options = SmallPipeline();
  options.ship_forward = true;
  DirectLoad dl(options);
  ASSERT_TRUE(dl.Start().ok());
  Result<UpdateReport> report = dl.RunUpdateCycle();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->gray_release_passed);
  // Every DC serves the forward index under the fwd: prefix, decodable to
  // the document's exact term list.
  const webindex::Document& doc = dl.corpus().documents()[4];
  for (int dc = 0; dc < bifrost::kNumDataCenters; ++dc) {
    Result<mint::MintCluster::ReadResult> got =
        dl.data_center(dc)->Get("fwd:" + doc.url, 1);
    ASSERT_TRUE(got.ok()) << dc;
    std::vector<uint32_t> terms;
    ASSERT_TRUE(webindex::DecodeTermList(got->value, &terms).ok());
    EXPECT_EQ(terms, dl.corpus().TermsOf(doc));
  }
}

TEST(DirectLoadNoDedupTest, DisabledDedupShipsEverythingEveryCycle) {
  DirectLoadOptions options = SmallPipeline();
  options.dedup_enabled = false;
  DirectLoad dl(options);
  ASSERT_TRUE(dl.Start().ok());
  ASSERT_TRUE(dl.RunUpdateCycle().ok());
  Result<UpdateReport> second = dl.RunUpdateCycle(/*change_rate=*/0.0);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->dedup.pairs_deduped, 0u);
  EXPECT_DOUBLE_EQ(second->dedup.dedup_ratio(), 0.0);
}

TEST(DirectLoadContrastTest, DedupBeatsNoDedupOnUpdateTime) {
  DirectLoadOptions with = SmallPipeline();
  DirectLoadOptions without = SmallPipeline();
  without.dedup_enabled = false;
  DirectLoad dl_with(with), dl_without(without);
  ASSERT_TRUE(dl_with.Start().ok());
  ASSERT_TRUE(dl_without.Start().ok());
  ASSERT_TRUE(dl_with.RunUpdateCycle().ok());
  ASSERT_TRUE(dl_without.RunUpdateCycle().ok());
  Result<UpdateReport> r_with = dl_with.RunUpdateCycle(/*change_rate=*/0.1);
  Result<UpdateReport> r_without =
      dl_without.RunUpdateCycle(/*change_rate=*/0.1);
  ASSERT_TRUE(r_with.ok());
  ASSERT_TRUE(r_without.ok());
  EXPECT_LT(r_with->update_time_seconds, r_without->update_time_seconds);
  EXPECT_GT(r_with->throughput_kps, r_without->throughput_kps);
}

}  // namespace
}  // namespace directload::core
