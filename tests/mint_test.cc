#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "mint/cluster.h"

namespace directload::mint {
namespace {

MintOptions SmallCluster() {
  MintOptions o;
  o.num_groups = 2;
  o.nodes_per_group = 3;
  o.replicas = 3;
  o.node_geometry.page_size = 4096;
  o.node_geometry.pages_per_block = 8;
  o.node_geometry.num_blocks = 2048;  // 64 MiB per node.
  o.engine.aof.segment_bytes = 128 << 10;
  return o;
}

class MintTest : public ::testing::Test {
 protected:
  MintTest() : cluster_(SmallCluster()) {
    EXPECT_TRUE(cluster_.Start().ok());
  }
  MintCluster cluster_;
};

TEST_F(MintTest, DispatchIsByGroupAndDeterministic) {
  EXPECT_EQ(cluster_.GroupOf("some-key"), cluster_.GroupOf("some-key"));
  // Replicas live inside the key's group.
  for (const char* key : {"a", "b", "c", "d", "e"}) {
    const int group = cluster_.GroupOf(key);
    const std::vector<int> replicas = cluster_.ReplicasOf(key);
    EXPECT_EQ(replicas.size(), 3u);
    std::set<int> unique(replicas.begin(), replicas.end());
    EXPECT_EQ(unique.size(), 3u);
    for (int id : replicas) {
      EXPECT_EQ(id / 3, group);  // 3 nodes per group, ids are contiguous.
    }
  }
}

TEST_F(MintTest, KeysSpreadAcrossGroups) {
  std::set<int> groups;
  for (int i = 0; i < 100; ++i) {
    groups.insert(cluster_.GroupOf("key" + std::to_string(i)));
  }
  EXPECT_EQ(groups.size(), 2u);
}

TEST_F(MintTest, PutReplicatesToAllReplicas) {
  ASSERT_TRUE(cluster_.Put("key", 1, "value").ok());
  for (int id : cluster_.ReplicasOf("key")) {
    Result<std::string> got = cluster_.node(id)->db()->Get("key", 1);
    ASSERT_TRUE(got.ok()) << "node " << id;
    EXPECT_EQ(*got, "value");
  }
}

// With several live replicas the answer comes from the one with the lowest
// simulated read latency. Only whole pages reach the device; the log tail
// is served from the writer's buffer. A filler version of the same key (so
// the same shard log) appended on two replicas pushes all of the value's
// pages to their devices, so those two read one page more than the third.
// The third is the highest node id, so a first-in-group-order pick cannot
// pass by accident.
TEST_F(MintTest, GetReturnsFastestReplica) {
  const std::string value(5000, 'v');
  ASSERT_TRUE(cluster_.Put("key", 1, value).ok());
  const std::vector<int> replicas = cluster_.ReplicasOf("key");
  ASSERT_EQ(replicas.size(), 3u);
  const int fastest = *std::max_element(replicas.begin(), replicas.end());
  for (int id : replicas) {
    if (id == fastest) continue;
    ASSERT_TRUE(cluster_.node(id)
                    ->db()
                    ->Put("key", 2, std::string(16 << 10, 'f'))
                    .ok());
  }

  std::map<int, double> device_micros;
  for (int id : replicas) {
    StorageNode* node = cluster_.node(id);
    const uint64_t before = node->clock()->NowMicros();
    ASSERT_TRUE(node->db()->Get("key", 1).ok());
    device_micros[id] =
        static_cast<double>(node->clock()->NowMicros() - before);
  }
  for (int id : replicas) {
    if (id != fastest) {
      ASSERT_LT(device_micros[fastest], device_micros[id]);
    }
  }

  Result<MintCluster::ReadResult> got = cluster_.Get("key", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, value);
  EXPECT_EQ(got->served_by, fastest);
  EXPECT_DOUBLE_EQ(got->latency_micros,
                   device_micros[fastest] + kReadRttMicros);
}

// A read the only replica answers correctly must come back, however slow
// it is next to that replica's history: a 256 KiB value costs far more than
// 4x the p95 of the small reads before it, and there is no faster replica
// to serve it instead.
TEST(MintReadTest, SlowSoleReplicaStillAnswers) {
  MintOptions options = SmallCluster();
  options.num_groups = 1;
  options.nodes_per_group = 1;
  options.replicas = 1;
  options.engine.aof.segment_bytes = 1 << 20;
  MintCluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());

  const std::string small(100, 's');
  const std::string big(256 << 10, 'b');
  ASSERT_TRUE(cluster.Put("small", 1, small).ok());
  ASSERT_TRUE(cluster.Put("big", 1, big).ok());
  double slowest_small = 0;
  for (int i = 0; i < 64; ++i) {
    Result<MintCluster::ReadResult> got = cluster.Get("small", 1);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    slowest_small = std::max(slowest_small, got->latency_micros);
  }

  Result<MintCluster::ReadResult> got = cluster.Get("big", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->value, big);
  EXPECT_EQ(got->served_by, 0);
  EXPECT_GT(got->latency_micros, 4 * slowest_small);
}

TEST_F(MintTest, GetLatestAndVersioning) {
  ASSERT_TRUE(cluster_.Put("key", 1, "v1").ok());
  ASSERT_TRUE(cluster_.Put("key", 2, "v2").ok());
  Result<MintCluster::ReadResult> got = cluster_.GetLatest("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v2");
  ASSERT_TRUE(cluster_.Del("key", 2).ok());
  got = cluster_.GetLatest("key");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "v1");
}

TEST_F(MintTest, DedupPairsResolveAcrossVersions) {
  ASSERT_TRUE(cluster_.Put("key", 1, "stable-value").ok());
  ASSERT_TRUE(cluster_.Put("key", 2, Slice(), /*dedup=*/true).ok());
  Result<MintCluster::ReadResult> got = cluster_.Get("key", 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->value, "stable-value");
}

TEST_F(MintTest, DropVersionPrunesEverywhere) {
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    ASSERT_TRUE(cluster_.Put(key, 1, "old").ok());
    ASSERT_TRUE(cluster_.Put(key, 2, "new").ok());
  }
  ASSERT_TRUE(cluster_.DropVersion(1).ok());
  for (int i = 0; i < 20; ++i) {
    const std::string key = "key" + std::to_string(i);
    EXPECT_TRUE(cluster_.Get(key, 1).status().IsNotFound()) << key;
    ASSERT_TRUE(cluster_.Get(key, 2).ok());
  }
}

TEST_F(MintTest, ReadsSurviveNodeFailure) {
  Random rnd(1);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        cluster_.Put("key" + std::to_string(i), 1, rnd.NextString(500)).ok());
  }
  // Kill one node; every key still answers from the surviving replicas.
  ASSERT_TRUE(cluster_.FailNode(0).ok());
  int served_by_failed = 0;
  for (int i = 0; i < 50; ++i) {
    Result<MintCluster::ReadResult> got =
        cluster_.Get("key" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok()) << i;
    if (got->served_by == 0) ++served_by_failed;
  }
  EXPECT_EQ(served_by_failed, 0);
}

TEST_F(MintTest, RecoveryRestoresNodeAndReportsTime) {
  Random rnd(2);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        cluster_.Put("key" + std::to_string(i), 1, rnd.NextString(2000)).ok());
  }
  ASSERT_TRUE(cluster_.FailNode(1).ok());
  Result<double> recovery_seconds = cluster_.RecoverNode(1);
  ASSERT_TRUE(recovery_seconds.ok()) << recovery_seconds.status().ToString();
  // Recovery scans the AOFs: it takes real (simulated) time.
  EXPECT_GT(*recovery_seconds, 0.0);
  EXPECT_TRUE(cluster_.node(1)->up());
  // The recovered node serves its share of reads again.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 1).ok());
  }
}

TEST_F(MintTest, WritesSkipDownNodesAndClusterStaysAvailable) {
  ASSERT_TRUE(cluster_.FailNode(0).ok());
  ASSERT_TRUE(cluster_.FailNode(3).ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 1, "v").ok());
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 1).ok());
  }
}

TEST_F(MintTest, AddNodeWithoutRedistribution) {
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 1, "before").ok());
  }
  Result<int> new_node = cluster_.AddNode(0);
  ASSERT_TRUE(new_node.ok());
  EXPECT_EQ(cluster_.num_nodes(), 7);
  // Nothing moved: the new node holds no data.
  EXPECT_EQ(cluster_.node(*new_node)->db()->memtable()->live_count(), 0u);
  // All previously stored pairs remain readable (reads query the group).
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 1).ok()) << i;
  }
  // New writes may now land on the new node.
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 2, "after").ok());
  }
  for (int i = 100; i < 200; ++i) {
    ASSERT_TRUE(cluster_.Get("key" + std::to_string(i), 2).ok());
  }
}

TEST_F(MintTest, ReplicationTriplesIngestedBytes) {
  const std::string value(1000, 'v');
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster_.Put("key" + std::to_string(i), 1, value).ok());
  }
  const uint64_t user_bytes = 30 * (4 + std::to_string(0).size() + 1000);
  // Roughly 3x the single-copy volume (key sizes vary slightly).
  EXPECT_NEAR(static_cast<double>(cluster_.TotalUserBytesIngested()),
              3.0 * static_cast<double>(user_bytes), 0.1 * 3 * user_bytes);
}

}  // namespace
}  // namespace directload::mint
