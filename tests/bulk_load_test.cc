// Bifrost-over-the-wire bulk loading, bottom to top: the slice codec's
// framing and hostile-input discipline, the engine's staged ingest sessions
// (invisible until commit, abort/crash leaves no trace, idempotent
// cross-shard commit), and the full socket path — BulkLoader streaming a
// version into a live KvServer, including the checksum-NACK repair loop and
// the commit-time missing-slice repair contract, plus the negotiated bulk
// frame bound.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bifrost/dedup.h"
#include "bifrost/wire/bulk_loader.h"
#include "bifrost/wire/slice_codec.h"
#include "common/coding.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"
#include "server/kv_server.h"
#include "ssd/env.h"

namespace directload {
namespace {

using bifrost::ShippedPair;
using bifrost::wire::AppendWirePair;
using bifrost::wire::BulkBeginInfo;
using bifrost::wire::BulkDelete;
using bifrost::wire::BulkLoader;
using bifrost::wire::BulkLoadOptions;
using bifrost::wire::BulkLoadReport;
using bifrost::wire::CheckSliceFrame;
using bifrost::wire::DecodeBulkBegin;
using bifrost::wire::DecodeBulkCommit;
using bifrost::wire::DecodeMissingSlices;
using bifrost::wire::DecodeSlicePacket;
using bifrost::wire::EncodeBulkBegin;
using bifrost::wire::EncodeBulkCommit;
using bifrost::wire::EncodeMissingSlices;
using bifrost::wire::EncodeSlicePacket;
using bifrost::wire::SliceHeader;

// ---------------------------------------------------------------------------
// Slice codec
// ---------------------------------------------------------------------------

std::string MakeSlice(uint64_t slice_id, uint64_t version,
                      webindex::IndexType type, uint32_t pair_count,
                      const std::string& payload) {
  SliceHeader header;
  header.slice_id = slice_id;
  header.version = version;
  header.type = type;
  header.pair_count = pair_count;
  std::string frame;
  EncodeSlicePacket(header, payload, &frame);
  return frame;
}

TEST(SliceCodecTest, PairPayloadRoundTrip) {
  std::string payload;
  AppendWirePair(&payload, "url:a", 7, "value-a", false, false);
  AppendWirePair(&payload, "url:b", 7, "ignored", /*dedup=*/true, false);
  AppendWirePair(&payload, "url:c", 3, "ignored", false, /*tombstone=*/true);
  const std::string frame =
      MakeSlice(12, 7, webindex::IndexType::kSummary, 3, payload);

  SliceHeader header;
  std::vector<qindb::IngestOp> pairs;
  ASSERT_TRUE(DecodeSlicePacket(frame, &header, &pairs).ok());
  EXPECT_EQ(header.slice_id, 12u);
  EXPECT_EQ(header.version, 7u);
  EXPECT_EQ(header.type, webindex::IndexType::kSummary);
  ASSERT_EQ(pairs.size(), 3u);

  EXPECT_EQ(pairs[0].key.ToString(), "url:a");
  EXPECT_EQ(pairs[0].value.ToString(), "value-a");
  EXPECT_EQ(pairs[0].version, 7u);
  EXPECT_FALSE(pairs[0].dedup);
  EXPECT_FALSE(pairs[0].tombstone);

  // Dedup and tombstone pairs ship value-less no matter what was passed.
  EXPECT_TRUE(pairs[1].dedup);
  EXPECT_TRUE(pairs[1].value.empty());
  EXPECT_TRUE(pairs[2].tombstone);
  EXPECT_TRUE(pairs[2].value.empty());
  EXPECT_EQ(pairs[2].version, 3u);
}

TEST(SliceCodecTest, AnyFlippedByteFailsTheChecksum) {
  std::string payload;
  AppendWirePair(&payload, "k", 1, "v", false, false);
  const std::string frame =
      MakeSlice(0, 1, webindex::IndexType::kInverted, 1, payload);
  // Header, payload, and trailer bytes all count.
  for (size_t at : {size_t{0}, size_t{9}, size_t{17},
                    bifrost::wire::kSliceHeaderBytes + 1, frame.size() - 1}) {
    std::string damaged = frame;
    damaged[at] ^= 0x40;
    SliceHeader header;
    Status s = CheckSliceFrame(damaged, &header);
    EXPECT_TRUE(s.IsCorruption()) << "byte " << at << ": " << s.ToString();
  }
  SliceHeader header;
  EXPECT_TRUE(CheckSliceFrame(frame, &header).ok());
}

TEST(SliceCodecTest, ForgedPairCountIsBoundedByThePayloadOnHand) {
  std::string payload;
  AppendWirePair(&payload, "k", 1, "v", false, false);
  // The checksum is valid — the count itself is the forgery. The decoder
  // must reject before allocating for a billion pairs.
  const std::string frame =
      MakeSlice(0, 1, webindex::IndexType::kInverted, 1u << 30, payload);
  SliceHeader header;
  std::vector<qindb::IngestOp> pairs;
  Status s = DecodeSlicePacket(frame, &header, &pairs);
  EXPECT_TRUE(s.IsProtocol()) << s.ToString();
  EXPECT_NE(s.ToString().find("pair count exceeds payload"),
            std::string::npos);
}

TEST(SliceCodecTest, PayloadMustMatchPairCountExactly) {
  std::string one_pair;
  AppendWirePair(&one_pair, "key-0", 1, std::string(16, 'x'), false, false);

  // Declared two pairs, payload holds one (big enough to pass the
  // min-bytes bound): short.
  SliceHeader header;
  std::vector<qindb::IngestOp> pairs;
  Status s = DecodeSlicePacket(
      MakeSlice(0, 1, webindex::IndexType::kInverted, 2, one_pair), &header,
      &pairs);
  EXPECT_TRUE(s.IsProtocol()) << s.ToString();

  // Declared one pair, payload holds two: trailing bytes.
  std::string two_pairs = one_pair;
  AppendWirePair(&two_pairs, "key-1", 1, "y", false, false);
  s = DecodeSlicePacket(
      MakeSlice(0, 1, webindex::IndexType::kInverted, 1, two_pairs), &header,
      &pairs);
  EXPECT_TRUE(s.IsProtocol()) << s.ToString();
  EXPECT_NE(s.ToString().find("trailing"), std::string::npos);
}

TEST(SliceCodecTest, BadPairFlagsAndValueOnValuelessPairRejected) {
  std::string payload;
  AppendWirePair(&payload, "k", 1, "v", false, false);
  payload[0] = static_cast<char>(0x80);  // Unknown flag bit.
  SliceHeader header;
  std::vector<qindb::IngestOp> pairs;
  Status s = DecodeSlicePacket(
      MakeSlice(0, 1, webindex::IndexType::kInverted, 1, payload), &header,
      &pairs);
  EXPECT_TRUE(s.IsProtocol()) << s.ToString();

  // A hand-built dedup pair that smuggles a value anyway.
  std::string smuggled;
  smuggled.push_back(static_cast<char>(bifrost::wire::kPairFlagDedup));
  PutVarint64(&smuggled, 1);
  PutLengthPrefixedSlice(&smuggled, "k");
  PutLengthPrefixedSlice(&smuggled, "not-allowed");
  s = DecodeSlicePacket(
      MakeSlice(0, 1, webindex::IndexType::kInverted, 1, smuggled), &header,
      &pairs);
  EXPECT_TRUE(s.IsProtocol()) << s.ToString();
}

TEST(SliceCodecTest, UnknownIndexTypeRejected) {
  std::string payload;
  AppendWirePair(&payload, "k", 1, "v", false, false);
  const std::string frame = MakeSlice(
      0, 1, static_cast<webindex::IndexType>(7), 1, payload);
  SliceHeader header;
  EXPECT_TRUE(CheckSliceFrame(frame, &header).IsProtocol());
}

TEST(SliceCodecTest, ControlPayloadsRoundTripAndRejectBadSizes) {
  BulkBeginInfo info;
  info.version = 42;
  info.total_slices = 17;
  info.summary_bytes = 1000;
  info.inverted_bytes = 2000;
  std::string wire;
  EncodeBulkBegin(info, &wire);
  BulkBeginInfo out;
  ASSERT_TRUE(DecodeBulkBegin(wire, &out).ok());
  EXPECT_EQ(out.version, 42u);
  EXPECT_EQ(out.total_slices, 17u);
  EXPECT_EQ(out.summary_bytes, 1000u);
  EXPECT_EQ(out.inverted_bytes, 2000u);
  EXPECT_TRUE(DecodeBulkBegin(Slice(wire.data(), 31), &out).IsProtocol());
  EXPECT_TRUE(DecodeBulkBegin(wire + "x", &out).IsProtocol());

  std::string commit;
  EncodeBulkCommit(99, &commit);
  uint64_t expected = 0;
  ASSERT_TRUE(DecodeBulkCommit(commit, &expected).ok());
  EXPECT_EQ(expected, 99u);
  EXPECT_TRUE(DecodeBulkCommit(Slice(), &expected).IsProtocol());
}

TEST(SliceCodecTest, MissingSliceListBoundsItsDeclaredCount) {
  std::string wire;
  EncodeMissingSlices({3, 1, 4, 1, 5}, &wire);
  std::vector<uint64_t> ids;
  ASSERT_TRUE(DecodeMissingSlices(wire, &ids).ok());
  EXPECT_EQ(ids, (std::vector<uint64_t>{3, 1, 4, 1, 5}));

  // A forged count far past the payload is rejected before reserve.
  std::string forged;
  PutVarint64(&forged, 1u << 20);
  PutFixed64(&forged, 9);
  Status s = DecodeMissingSlices(forged, &ids);
  EXPECT_TRUE(s.IsProtocol()) << s.ToString();
}

// ---------------------------------------------------------------------------
// Engine ingest sessions
// ---------------------------------------------------------------------------

ssd::Geometry SmallGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 2048;  // 64 MiB device.
  return g;
}

class BulkIngestEngineTest : public ::testing::Test {
 protected:
  void Open(uint32_t num_shards = 1) {
    clock_ = std::make_unique<SimClock>();
    env_ = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, SmallGeometry(),
                          ssd::LatencyModel(), clock_.get());
    options_.num_shards = num_shards;
    options_.aof.segment_bytes = 64 << 10;
    options_.auto_gc = false;
    auto opened = qindb::QinDb::Open(env_.get(), options_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
  }

  void Reopen() {
    db_.reset();
    auto opened = qindb::QinDb::Open(env_.get(), options_);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    db_ = std::move(opened).value();
  }

  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<ssd::SsdEnv> env_;
  qindb::QinDbOptions options_;
  std::unique_ptr<qindb::QinDb> db_;
};

TEST_F(BulkIngestEngineTest, StagedPairsAreInvisibleUntilCommit) {
  Open();
  std::vector<std::string> keys, values;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("bulk:k" + std::to_string(i));
    values.push_back("bv" + std::to_string(i));
  }
  std::vector<qindb::IngestOp> ops(8);
  for (int i = 0; i < 8; ++i) {
    ops[i].key = keys[i];
    ops[i].version = 2;
    ops[i].value = values[i];
  }

  ASSERT_TRUE(db_->IngestBegin(2).ok());
  ASSERT_TRUE(db_->IngestRun(2, ops.data(), ops.size()).ok());
  // Durable but unindexed: nothing is readable, latest included.
  for (const std::string& key : keys) {
    EXPECT_TRUE(db_->Get(key, 2).status().IsNotFound());
    EXPECT_TRUE(db_->GetLatest(key).status().IsNotFound());
  }
  ASSERT_TRUE(db_->IngestCommit(2).ok());
  for (int i = 0; i < 8; ++i) {
    Result<std::string> got = db_->Get(keys[i], 2);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, values[i]);
  }
  EXPECT_EQ(db_->VersionCounts()[2], 8u);
}

TEST_F(BulkIngestEngineTest, AbortLeavesNoTraceAndReleasesMaintenance) {
  Open();
  ASSERT_TRUE(db_->IngestBegin(5).ok());
  std::string key = "gone:k";
  std::string value(1024, 'z');
  qindb::IngestOp op;
  op.key = key;
  op.version = 5;
  op.value = value;
  ASSERT_TRUE(db_->IngestRun(5, &op, 1).ok());

  // Maintenance is deferred while the session is open.
  EXPECT_TRUE(db_->ForceGc().IsBusy());

  ASSERT_TRUE(db_->IngestAbort(5).ok());
  EXPECT_TRUE(db_->Get(key, 5).status().IsNotFound());
  // The deferral lifts with the session, and GC reclaims the staged bytes.
  EXPECT_TRUE(db_->ForceGc().ok());
  EXPECT_TRUE(db_->Get(key, 5).status().IsNotFound());
  EXPECT_EQ(db_->VersionCounts().count(5), 0u);
}

TEST_F(BulkIngestEngineTest, DedupAndTombstonePairsApplyAtCommit) {
  Open();
  ASSERT_TRUE(db_->Put("dd:a", 1, "base-value").ok());
  ASSERT_TRUE(db_->Put("dd:b", 1, "doomed").ok());

  std::vector<qindb::IngestOp> ops(2);
  ops[0].key = "dd:a";
  ops[0].version = 2;
  ops[0].dedup = true;  // Resolves by traceback to version 1.
  ops[1].key = "dd:b";
  ops[1].version = 1;
  ops[1].tombstone = true;  // The d-flag riding the load.

  ASSERT_TRUE(db_->IngestBegin(2).ok());
  ASSERT_TRUE(db_->IngestRun(2, ops.data(), ops.size()).ok());
  // Pre-commit: the dedup pair is invisible and the delete unapplied.
  EXPECT_TRUE(db_->Get("dd:a", 2).status().IsNotFound());
  ASSERT_TRUE(db_->Get("dd:b", 1).ok());
  ASSERT_TRUE(db_->IngestCommit(2).ok());

  Result<std::string> got = db_->Get("dd:a", 2);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "base-value");
  EXPECT_TRUE(db_->Get("dd:b", 1).status().IsNotFound());
}

TEST_F(BulkIngestEngineTest, RunValidationFailsWholeWithoutClosingSession) {
  Open();
  ASSERT_TRUE(db_->IngestBegin(3).ok());

  qindb::IngestOp wrong;
  wrong.key = "w:k";
  wrong.version = 4;  // Not the session version.
  wrong.value = "v";
  EXPECT_TRUE(db_->IngestRun(3, &wrong, 1).IsInvalidArgument());

  qindb::IngestOp empty;
  empty.version = 3;
  empty.value = "v";
  EXPECT_TRUE(db_->IngestRun(3, &empty, 1).IsInvalidArgument());

  // The session survived both rejections.
  qindb::IngestOp good;
  good.key = "w:k";
  good.version = 3;
  good.value = "v";
  ASSERT_TRUE(db_->IngestRun(3, &good, 1).ok());
  ASSERT_TRUE(db_->IngestCommit(3).ok());
  ASSERT_TRUE(db_->Get("w:k", 3).ok());

  // No session anywhere: run and abort say so, commit of an unknown
  // version too.
  EXPECT_TRUE(db_->IngestRun(9, &good, 1).IsInvalidArgument());
  EXPECT_TRUE(db_->IngestCommit(9).IsInvalidArgument());
}

TEST_F(BulkIngestEngineTest, CommittedVersionSurvivesGcAndReopen) {
  Open();
  std::vector<std::string> keys, values;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("dur:k" + std::to_string(i));
    values.push_back("dv" + std::to_string(i));
  }
  std::vector<qindb::IngestOp> ops(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i].key = keys[i];
    ops[i].version = 4;
    ops[i].value = values[i];
  }
  ASSERT_TRUE(db_->IngestBegin(4).ok());
  ASSERT_TRUE(db_->IngestRun(4, ops.data(), ops.size()).ok());
  ASSERT_TRUE(db_->IngestCommit(4).ok());
  // Commit markers are kept forever by GC's classify rule; the pairs must
  // survive a full collection and a reopen.
  ASSERT_TRUE(db_->ForceGc().ok());
  Reopen();
  for (size_t i = 0; i < keys.size(); ++i) {
    Result<std::string> got = db_->Get(keys[i], 4);
    ASSERT_TRUE(got.ok()) << keys[i] << ": " << got.status().ToString();
    EXPECT_EQ(*got, "dv" + std::to_string(i));
  }
  // Recovery re-seeded the idempotency set from the on-disk marker: a
  // commit retry arriving after the reopen still answers OK.
  EXPECT_TRUE(db_->IngestCommit(4).ok());
}

TEST_F(BulkIngestEngineTest, TornCrossShardCommitRetriesToCompletion) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites compiled out";
  }
  Open(/*num_shards=*/4);
  std::vector<std::string> keys, values;
  for (int i = 0; i < 32; ++i) {
    keys.push_back("torn:k" + std::to_string(i));
    values.push_back("tv" + std::to_string(i));
  }
  std::vector<qindb::IngestOp> ops(keys.size());
  std::set<uint32_t> shards;
  for (size_t i = 0; i < keys.size(); ++i) {
    ops[i].key = keys[i];
    ops[i].version = 6;
    ops[i].value = values[i];
    shards.insert(db_->ShardOf(keys[i]));
  }
  ASSERT_GT(shards.size(), 1u) << "keys must span shards for this test";

  ASSERT_TRUE(db_->IngestBegin(6).ok());
  ASSERT_TRUE(db_->IngestRun(6, ops.data(), ops.size()).ok());

  auto& reg = failpoint::Registry::Instance();
  ASSERT_TRUE(reg.Activate("qindb_ingest_commit", "1*return(io)").ok());
  Status torn = db_->IngestCommit(6);
  reg.Deactivate("qindb_ingest_commit");
  ASSERT_FALSE(torn.ok());

  // The commit tore between shards: shard 0 is committed (its keys
  // visible), the rest still staged (invisible).
  for (size_t i = 0; i < keys.size(); ++i) {
    const bool visible = db_->Get(keys[i], 6).ok();
    EXPECT_EQ(visible, db_->ShardOf(keys[i]) == 0) << keys[i];
  }

  // The retry must complete: already-committed shards answer OK
  // (idempotent), the rest commit now.
  ASSERT_TRUE(db_->IngestCommit(6).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    Result<std::string> got = db_->Get(keys[i], 6);
    ASSERT_TRUE(got.ok()) << keys[i] << ": " << got.status().ToString();
    EXPECT_EQ(*got, "tv" + std::to_string(i));
  }
  EXPECT_TRUE(db_->ForceGc().ok());
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets
// ---------------------------------------------------------------------------

mint::MintOptions SmallClusterOptions() {
  mint::MintOptions options;
  options.num_groups = 2;
  options.nodes_per_group = 1;
  options.replicas = 1;
  options.parallel_reads = false;
  options.engine.aof.segment_bytes = 4 << 20;
  return options;
}

class BulkLoadServerTest : public ::testing::Test {
 protected:
  void StartAll(server::KvServerOptions options = server::KvServerOptions()) {
    cluster_ = std::make_unique<mint::MintCluster>(SmallClusterOptions());
    ASSERT_TRUE(cluster_->Start().ok());
    server_ = std::make_unique<server::KvServer>(cluster_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    failpoint::Registry::Instance().DeactivateAll();
  }

  rpc::RpcClient MakeClient() {
    return rpc::RpcClient("127.0.0.1", server_->port());
  }

  std::unique_ptr<mint::MintCluster> cluster_;
  std::unique_ptr<server::KvServer> server_;
};

TEST_F(BulkLoadServerTest, StreamsAVersionIntoTheLiveCluster) {
  StartAll();
  rpc::RpcClient client = MakeClient();

  // Version 1 goes in through the normal write path: the dedup pairs below
  // resolve through it by traceback, and the shipped deletes remove it.
  constexpr int kKeys = 120;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(
        client.Put("e2e:k" + std::to_string(i), 1, "old" + std::to_string(i))
            .ok());
  }

  std::vector<ShippedPair> summary, inverted;
  std::vector<BulkDelete> deletes;
  for (int i = 0; i < kKeys; ++i) {
    ShippedPair pair;
    pair.key = "e2e:k" + std::to_string(i);
    if (i % 5 == 0) {
      pair.dedup = true;  // Unchanged since version 1.
    } else {
      pair.value = "new" + std::to_string(i) + std::string(200, 'p');
    }
    (i % 2 == 0 ? summary : inverted).push_back(std::move(pair));
    if (i % 7 == 0) {
      deletes.push_back(BulkDelete{"e2e:k" + std::to_string(i), 1});
    }
  }

  BulkLoadOptions options;
  options.slice_bytes = 2048;  // Many slices; exercises the send window.
  options.send_window = 4;
  rpc::RpcClient load_client = MakeClient();
  BulkLoader loader(&load_client, options);
  BulkLoadReport report;
  Status s = loader.Load(2, summary, inverted, deletes, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();

  EXPECT_GT(report.slices_total, 4u);
  EXPECT_EQ(report.pairs_total,
            static_cast<uint64_t>(kKeys) + deletes.size());
  EXPECT_EQ(report.checksum_nacks, 0u);
  EXPECT_EQ(report.repair_rounds, 0u);
  EXPECT_EQ(server_->counters().bulk_sessions_opened.load(), 1u);
  EXPECT_EQ(server_->counters().bulk_slices_landed.load(),
            report.slices_total);

  // Every shipped pair is live as version 2 with the right value; dedup
  // pairs resolve to the version-1 value; deleted version-1 pairs are gone,
  // the rest still there.
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "e2e:k" + std::to_string(i);
    Result<std::string> got = client.Get(key, 2);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    if (i % 5 == 0) {
      EXPECT_EQ(*got, "old" + std::to_string(i)) << key;
    } else {
      EXPECT_EQ(*got, "new" + std::to_string(i) + std::string(200, 'p'))
          << key;
    }
    Result<std::string> latest = client.GetLatest(key);
    ASSERT_TRUE(latest.ok()) << key;
    EXPECT_EQ(*latest, *got) << key;
    Result<std::string> old = client.Get(key, 1);
    if (i % 7 == 0 && i % 5 != 0) {
      EXPECT_TRUE(old.status().IsNotFound()) << key;
    } else if (i % 7 != 0) {
      ASSERT_TRUE(old.ok()) << key;
    }
  }

  // The session is closed: a second load on the same connection works.
  std::vector<ShippedPair> next;
  ShippedPair pair;
  pair.key = "e2e:extra";
  pair.value = "v3";
  next.push_back(pair);
  ASSERT_TRUE(loader.Load(3, next, {}, {}).ok());
  Result<std::string> extra = client.Get("e2e:extra", 3);
  ASSERT_TRUE(extra.ok());
  EXPECT_EQ(*extra, "v3");
}

TEST_F(BulkLoadServerTest, CorruptedSliceIsNackedAndRepairedInFlight) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites compiled out";
  }
  StartAll();

  std::vector<ShippedPair> inverted;
  for (int i = 0; i < 40; ++i) {
    ShippedPair pair;
    pair.key = "fix:k" + std::to_string(i);
    pair.value = "fv" + std::to_string(i) + std::string(100, 'q');
    inverted.push_back(std::move(pair));
  }

  auto& reg = failpoint::Registry::Instance();
  ASSERT_TRUE(reg.Activate("bulk_slice_corrupt", "1*corrupt").ok());

  BulkLoadOptions options;
  options.slice_bytes = 1024;
  rpc::RpcClient load_client = MakeClient();
  BulkLoader loader(&load_client, options);
  BulkLoadReport report;
  Status s = loader.Load(2, {}, inverted, {}, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();

  // The damaged slice was NACKed by the per-hop checksum and repaired by a
  // pristine re-send — the session never failed.
  EXPECT_GE(report.checksum_nacks, 1u);
  EXPECT_GE(report.slices_resent, 1u);
  EXPECT_GE(server_->counters().bulk_checksum_rejects.load(), 1u);
  EXPECT_EQ(server_->counters().stream_errors.load(), 0u);

  rpc::RpcClient client = MakeClient();
  for (int i = 0; i < 40; ++i) {
    const std::string key = "fix:k" + std::to_string(i);
    Result<std::string> got = client.Get(key, 2);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, "fv" + std::to_string(i) + std::string(100, 'q'));
  }
}

// A stand-in ingest server on one connection: it answers every bulk frame
// kOk and records what arrived, so a test can compare the loader's bytes
// with a reference packing. Ids in `missing_at_first_commit` are reported
// missing by the first commit, which makes the loader re-send them.
class RecordingBulkPeer {
 public:
  explicit RecordingBulkPeer(std::vector<uint64_t> missing_at_first_commit)
      : missing_(std::move(missing_at_first_commit)) {
    Result<rpc::Socket> listener = rpc::Listen("127.0.0.1", 0, 4);
    DL_CHECK(listener.ok());
    listener_ = std::move(listener).value();
    port_ = rpc::LocalPort(listener_).value();
    thread_ = std::thread([this] { Serve(); });
  }

  ~RecordingBulkPeer() {
    if (thread_.joinable()) thread_.join();
  }
  RecordingBulkPeer(const RecordingBulkPeer&) = delete;
  RecordingBulkPeer& operator=(const RecordingBulkPeer&) = delete;

  uint16_t port() const { return port_; }

  /// Waits for the client to disconnect; the records are complete after.
  void Join() { thread_.join(); }

  std::string begin;                // kBulkBegin value.
  std::vector<std::string> slices;  // kBulkSlice values, in arrival order.

 private:
  void Serve() {
    Result<rpc::Socket> conn = rpc::AcceptOne(listener_, 10'000);
    if (!conn.ok()) return;
    rpc::FrameDecoder decoder(rpc::kMaxBulkBodyBytes);
    std::vector<char> buf(1 << 16);
    for (;;) {
      Result<size_t> n = conn->RecvSome(buf.data(), buf.size(), 10'000);
      if (!n.ok() || *n == 0) return;
      decoder.Append(buf.data(), *n);
      rpc::Frame frame;
      for (Result<bool> next = decoder.Next(&frame); next.ok() && *next;
           next = decoder.Next(&frame)) {
        rpc::Frame response = rpc::MakeResponse(frame, Status::OK(), "");
        if (frame.op == rpc::Opcode::kBulkBegin) begin = frame.value;
        if (frame.op == rpc::Opcode::kBulkSlice) slices.push_back(frame.value);
        if (frame.op == rpc::Opcode::kBulkCommit && !missing_.empty()) {
          response.status = StatusCode::kUnavailable;
          EncodeMissingSlices(missing_, &response.value);
          missing_.clear();
        }
        std::string wire;
        rpc::EncodeFrame(response, &wire);
        if (!conn->SendAll(wire, 10'000).ok()) return;
      }
    }
  }

  std::vector<uint64_t> missing_;
  rpc::Socket listener_;
  uint16_t port_ = 0;
  std::thread thread_;
};

// The loader's sizing pass and send-time encoding must ship exactly what
// packing every pair with AppendWirePair and sealing each slice with
// EncodeSlicePacket would: the same BulkBeginInfo and the same slices,
// byte for byte, including a slice re-encoded for a commit-round repair.
TEST(BulkLoaderPackingTest, ShipsTheReferencePackingByteForByte) {
  struct Packed {
    BulkBeginInfo info;
    std::vector<std::string> slices;
  };
  auto reference = [](uint64_t version, const std::vector<ShippedPair>& summary,
                      const std::vector<ShippedPair>& inverted,
                      const std::vector<BulkDelete>& deletes,
                      uint64_t slice_bytes) {
    Packed out;
    auto pack = [&](webindex::IndexType type,
                    const std::vector<ShippedPair>& pairs,
                    const std::vector<BulkDelete>& dels) {
      uint64_t bytes = 0;
      std::string payload;
      uint32_t count = 0;
      auto seal = [&] {
        if (count == 0) return;
        SliceHeader header;
        header.slice_id = out.slices.size();
        header.version = version;
        header.type = type;
        header.pair_count = count;
        std::string frame;
        EncodeSlicePacket(header, payload, &frame);
        bytes += frame.size();
        out.slices.push_back(std::move(frame));
        payload.clear();
        count = 0;
      };
      for (const ShippedPair& pair : pairs) {
        AppendWirePair(&payload, pair.key, version, pair.value, pair.dedup,
                       /*tombstone=*/false);
        ++count;
        if (payload.size() >= slice_bytes) seal();
      }
      for (const BulkDelete& del : dels) {
        AppendWirePair(&payload, del.key, del.version, Slice(), false,
                       /*tombstone=*/true);
        ++count;
        if (payload.size() >= slice_bytes) seal();
      }
      seal();
      return bytes;
    };
    out.info.version = version;
    out.info.summary_bytes = pack(webindex::IndexType::kSummary, summary, {});
    out.info.inverted_bytes =
        pack(webindex::IndexType::kInverted, inverted, deletes);
    out.info.total_slices = out.slices.size();
    return out;
  };
  auto pairs = [](const std::string& prefix, int n, size_t value_bytes) {
    std::vector<ShippedPair> out;
    for (int i = 0; i < n; ++i) {
      ShippedPair pair;
      pair.key = prefix + std::to_string(i);
      pair.dedup = i % 3 == 0;
      if (!pair.dedup) {
        pair.value.assign(value_bytes + i, static_cast<char>('a' + i % 26));
      }
      out.push_back(std::move(pair));
    }
    return out;
  };
  auto deletes = [](int n, uint64_t version) {
    std::vector<BulkDelete> out;
    for (int i = 0; i < n; ++i) {
      out.push_back(BulkDelete{"del:k" + std::to_string(i), version});
    }
    return out;
  };
  auto check = [&](uint64_t version, const std::vector<ShippedPair>& summary,
                   const std::vector<ShippedPair>& inverted,
                   const std::vector<BulkDelete>& dels, uint64_t slice_bytes,
                   std::vector<uint64_t> missing) {
    const Packed want = reference(version, summary, inverted, dels,
                                  slice_bytes);
    std::vector<std::string> want_slices = want.slices;
    for (uint64_t id : missing) want_slices.push_back(want.slices[id]);
    uint64_t want_bytes = 0;
    for (const std::string& slice : want_slices) want_bytes += slice.size();

    RecordingBulkPeer peer(missing);
    BulkLoadReport report;
    {
      rpc::RpcClient client("127.0.0.1", peer.port());
      BulkLoadOptions options;
      options.slice_bytes = slice_bytes;
      options.send_window = 3;
      BulkLoader loader(&client, options);
      Status s = loader.Load(version, summary, inverted, dels, &report);
      ASSERT_TRUE(s.ok()) << s.ToString();
    }
    peer.Join();

    BulkBeginInfo got;
    ASSERT_TRUE(DecodeBulkBegin(peer.begin, &got).ok());
    EXPECT_EQ(got.version, want.info.version);
    EXPECT_EQ(got.total_slices, want.info.total_slices);
    EXPECT_EQ(got.summary_bytes, want.info.summary_bytes);
    EXPECT_EQ(got.inverted_bytes, want.info.inverted_bytes);
    ASSERT_EQ(peer.slices.size(), want_slices.size());
    for (size_t i = 0; i < want_slices.size(); ++i) {
      EXPECT_EQ(peer.slices[i], want_slices[i]) << "slice frame " << i;
    }
    EXPECT_EQ(report.slices_total, want.slices.size());
    EXPECT_EQ(report.pairs_total,
              summary.size() + inverted.size() + dels.size());
    EXPECT_EQ(report.bytes_shipped, want_bytes);
    EXPECT_EQ(report.slices_resent, missing.size());
    EXPECT_EQ(report.repair_rounds, missing.empty() ? 0u : 1u);
  };

  {
    SCOPED_TRACE("dedup pairs, both streams, deletes, a repaired slice");
    check(300, pairs("sum:k", 30, 100), pairs("inv:k", 25, 150),
          deletes(5, 299), 512, {1, 3});
  }
  {
    SCOPED_TRACE("tombstone-only inverted stream");
    check(2, {}, {}, deletes(40, 1), 256, {});
  }
  {
    SCOPED_TRACE("empty summary stream");
    check(3, {}, pairs("inv:k", 20, 300), {}, 1024, {});
  }
  {
    SCOPED_TRACE("one pair larger than slice_bytes");
    std::vector<ShippedPair> inverted = pairs("inv:k", 4, 10);
    inverted[2].dedup = false;
    inverted[2].value.assign(5000, 'L');
    check(4, pairs("sum:k", 2, 10), inverted, {}, 1024, {0});
  }
  {
    SCOPED_TRACE("slice_bytes = 1: one pair per slice");
    check(5, pairs("sum:k", 5, 20), pairs("inv:k", 5, 20), deletes(3, 4), 1,
          {});
  }
}

// Builds one single-pair slice frame for the raw-frame tests.
std::string OnePairSlice(uint64_t slice_id, uint64_t version,
                         const std::string& key, const std::string& value) {
  std::string payload;
  AppendWirePair(&payload, key, version, value, false, false);
  return MakeSlice(slice_id, version, webindex::IndexType::kInverted, 1,
                   payload);
}

TEST_F(BulkLoadServerTest, CommitReportsMissingSlicesForRepair) {
  StartAll();
  rpc::RpcClient raw = MakeClient();
  ASSERT_TRUE(raw.Connect().ok());

  auto exchange = [&raw](rpc::Frame frame) {
    frame.request_id = raw.NextRequestId();
    Status s = raw.Send(frame);
    if (!s.ok()) return Result<rpc::Frame>(s);
    return raw.Receive();
  };

  // A slice before any session is refused without touching the engine.
  rpc::Frame stray;
  stray.op = rpc::Opcode::kBulkSlice;
  stray.version = 2;
  stray.value = OnePairSlice(0, 2, "ms:k0", "mv0");
  Result<rpc::Frame> resp = exchange(stray);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_EQ(resp->status, StatusCode::kInvalidArgument);

  BulkBeginInfo info;
  info.version = 2;
  info.total_slices = 3;
  rpc::Frame begin;
  begin.op = rpc::Opcode::kBulkBegin;
  begin.version = 2;
  EncodeBulkBegin(info, &begin.value);
  resp = exchange(begin);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, StatusCode::kOk);

  // Land slices 0 and 2 of 3 — slice 0 twice; the duplicate is an ack, not
  // an error.
  for (uint64_t id : {uint64_t{0}, uint64_t{2}, uint64_t{0}}) {
    rpc::Frame slice;
    slice.op = rpc::Opcode::kBulkSlice;
    slice.version = 2;
    slice.value = OnePairSlice(id, 2, "ms:k" + std::to_string(id),
                               "mv" + std::to_string(id));
    resp = exchange(slice);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    EXPECT_EQ(resp->status, StatusCode::kOk) << "slice " << id;
  }

  // Commit names the gap instead of failing the session.
  rpc::Frame commit;
  commit.op = rpc::Opcode::kBulkCommit;
  commit.version = 2;
  EncodeBulkCommit(3, &commit.value);
  resp = exchange(commit);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->status, StatusCode::kUnavailable);
  std::vector<uint64_t> missing;
  ASSERT_TRUE(DecodeMissingSlices(resp->value, &missing).ok());
  EXPECT_EQ(missing, std::vector<uint64_t>{1});
  // Nothing is visible yet — the commit did not partially apply.
  rpc::RpcClient reader = MakeClient();
  EXPECT_TRUE(reader.Get("ms:k0", 2).status().IsNotFound());

  // Repair the gap and commit again.
  rpc::Frame slice;
  slice.op = rpc::Opcode::kBulkSlice;
  slice.version = 2;
  slice.value = OnePairSlice(1, 2, "ms:k1", "mv1");
  resp = exchange(slice);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, StatusCode::kOk);

  commit.value.clear();
  EncodeBulkCommit(3, &commit.value);
  resp = exchange(commit);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, StatusCode::kOk);

  for (int i = 0; i < 3; ++i) {
    const std::string key = "ms:k" + std::to_string(i);
    Result<std::string> got = reader.Get(key, 2);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(*got, "mv" + std::to_string(i));
  }
}

TEST_F(BulkLoadServerTest, AbortRollsTheStagedVersionBack) {
  StartAll();
  rpc::RpcClient raw = MakeClient();
  ASSERT_TRUE(raw.Connect().ok());
  auto exchange = [&raw](rpc::Frame frame) {
    frame.request_id = raw.NextRequestId();
    Status s = raw.Send(frame);
    if (!s.ok()) return Result<rpc::Frame>(s);
    return raw.Receive();
  };

  BulkBeginInfo info;
  info.version = 3;
  rpc::Frame begin;
  begin.op = rpc::Opcode::kBulkBegin;
  begin.version = 3;
  EncodeBulkBegin(info, &begin.value);
  Result<rpc::Frame> resp = exchange(begin);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, StatusCode::kOk);

  rpc::Frame slice;
  slice.op = rpc::Opcode::kBulkSlice;
  slice.version = 3;
  slice.value = OnePairSlice(0, 3, "ab:k", "never-visible");
  resp = exchange(slice);
  ASSERT_TRUE(resp.ok());
  ASSERT_EQ(resp->status, StatusCode::kOk);

  rpc::Frame abort;
  abort.op = rpc::Opcode::kBulkAbort;
  abort.version = 3;
  resp = exchange(abort);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOk);
  // Abort is idempotent — a second one (no session left) still answers OK.
  resp = exchange(abort);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->status, StatusCode::kOk);

  rpc::RpcClient reader = MakeClient();
  EXPECT_TRUE(reader.Get("ab:k", 3).status().IsNotFound());

  // The connection is reusable: a fresh session on it loads fine.
  BulkLoadOptions options;
  BulkLoader loader(&raw, options);
  std::vector<ShippedPair> pairs;
  ShippedPair pair;
  pair.key = "ab:k";
  pair.value = "visible";
  pairs.push_back(pair);
  ASSERT_TRUE(loader.Load(4, pairs, {}, {}).ok());
  Result<std::string> got = reader.Get("ab:k", 4);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "visible");
}

TEST_F(BulkLoadServerTest, BulkFrameBoundIsNegotiatedNotDefault) {
  StartAll();

  // Without a session the connection keeps the tight default bound: a frame
  // over rpc::kMaxBodyBytes is a protocol error and tears the connection
  // down. Only the header is sent: it already declares the oversized body,
  // the decoder rejects the frame there, and the server may close the
  // socket before any body bytes could be written.
  {
    Result<rpc::Socket> sock =
        rpc::ConnectTo("127.0.0.1", server_->port(), 1000);
    ASSERT_TRUE(sock.ok());
    rpc::Frame oversized;
    oversized.op = rpc::Opcode::kBulkSlice;
    oversized.version = 2;
    oversized.value.assign(rpc::kMaxBodyBytes + 1024, 'x');
    std::string wire;
    rpc::EncodeFrame(oversized, &wire);
    ASSERT_TRUE(
        sock->SendAll(Slice(wire.data(), rpc::kHeaderBytes), 2000).ok());

    rpc::FrameDecoder decoder;
    rpc::Frame response;
    bool got_response = false, closed = false;
    char buf[4096];
    for (int spins = 0; spins < 100 && !closed; ++spins) {
      Result<size_t> n = sock->RecvSome(buf, sizeof(buf), 100);
      if (!n.ok()) {
        if (n.status().IsTimedOut()) continue;
        closed = true;
        break;
      }
      if (*n == 0) {
        closed = true;
        break;
      }
      decoder.Append(buf, *n);
      Result<bool> next = decoder.Next(&response);
      ASSERT_TRUE(next.ok());
      if (*next) got_response = true;
    }
    ASSERT_TRUE(got_response) << "no error frame before teardown";
    EXPECT_TRUE(closed);
    EXPECT_EQ(response.status, StatusCode::kProtocol);
  }

  // With a session open the bound is raised to the bulk limit: a slice
  // whose frame exceeds the default bound goes through.
  std::vector<ShippedPair> big;
  for (int i = 0; i < 3; ++i) {
    ShippedPair pair;
    pair.key = "big:k" + std::to_string(i);
    pair.value.assign((rpc::kMaxBodyBytes / 2) + (64 << 10), 'B');
    big.push_back(std::move(pair));
  }
  BulkLoadOptions options;
  options.slice_bytes = rpc::kMaxBulkBodyBytes / 2;  // Seals past 4 MiB.
  rpc::RpcClient load_client = MakeClient();
  BulkLoader loader(&load_client, options);
  BulkLoadReport report;
  Status s = loader.Load(2, {}, big, {}, &report);
  ASSERT_TRUE(s.ok()) << s.ToString();
  // The point of the test: at least one shipped frame was bigger than the
  // non-bulk bound.
  EXPECT_GT(report.bytes_shipped, rpc::kMaxBodyBytes);
  EXPECT_LT(report.slices_total, 3u + 1u);

  rpc::RpcClient reader = MakeClient();
  for (int i = 0; i < 3; ++i) {
    Result<std::string> got = reader.Get("big:k" + std::to_string(i), 2);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->size(), (rpc::kMaxBodyBytes / 2) + (64 << 10));
  }
}

}  // namespace
}  // namespace directload
