// Distributed Mint over real processes: each storage node is a forked
// dmint_node (KvServer over its own engine), and a MintCoordinator speaks
// DLP1 to the fleet. Covers replicated writes with per-replica verification,
// the quorum path across a SIGKILLed replica, the full crash → restart →
// RepairNode → VerifyNodeComplete healing loop (paged over a deliberately
// tiny repair page), repair of dedup chains and its refusals, timer-fired
// hedged reads against a SIGSTOPped primary (and the late answer of the
// abandoned attempt), hedge and failover accounting, a failed read's
// status, stale pooled connections, and the
// heartbeat failure detector's down/up transitions.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "mint/coordinator.h"
#include "rpc/client.h"
#include "server/node_process.h"

#ifndef DMINT_NODE_BINARY
#error "DMINT_NODE_BINARY must point at the dmint_node executable"
#endif

namespace directload::mint {
namespace {

using Clock = std::chrono::steady_clock;

std::string ValueOf(const std::string& key, uint64_t version) {
  return "value:" + key + "#" + std::to_string(version);
}

/// Polls `predicate` until it holds or `timeout_ms` passes.
bool WaitFor(int timeout_ms, const std::function<bool()>& predicate) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  while (Clock::now() < deadline) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return predicate();
}

/// One forked group of `replicas` dmint_node processes plus a coordinator
/// over them. Options are tuned for test speed: fast heartbeats, short
/// client deadlines.
class DmintTest : public ::testing::Test {
 protected:
  void StartFleet(int replicas, CoordinatorOptions options = {}) {
    nodes_.resize(replicas);
    std::vector<std::vector<NodeEndpoint>> groups(1);
    for (int i = 0; i < replicas; ++i) {
      ASSERT_TRUE(nodes_[i]
                      .Start(DMINT_NODE_BINARY, /*port=*/0, /*shards=*/2)
                      .ok())
          << "node " << i;
      NodeEndpoint endpoint;
      endpoint.port = nodes_[i].port();
      groups[0].push_back(endpoint);
    }
    options.replicas = replicas;
    options.heartbeat_interval_ms = 20;
    options.heartbeat_timeout_ms = 150;
    coordinator_ = std::make_unique<MintCoordinator>(groups, options);
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  void TearDown() override {
    if (coordinator_ != nullptr) coordinator_->Stop();
    for (server::NodeProcess& node : nodes_) {
      if (node.running()) node.Kill();
    }
  }

  rpc::RpcClient DirectClient(int node_id) {
    return rpc::RpcClient("127.0.0.1", nodes_[node_id].port());
  }

  std::vector<server::NodeProcess> nodes_;
  std::unique_ptr<MintCoordinator> coordinator_;
};

TEST_F(DmintTest, ReplicatedWritesLandOnEveryReplica) {
  StartFleet(3);
  constexpr int kKeys = 20;
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "rep:k" + std::to_string(i);
    MintCoordinator::WriteReport report;
    ASSERT_TRUE(coordinator_->Put(key, 1, ValueOf(key, 1), false, &report)
                    .ok());
    EXPECT_EQ(report.targets, 3);
    EXPECT_EQ(report.quorum, 2);  // Majority of 3.
    EXPECT_EQ(report.acks, 3);    // All replicas healthy: every ack lands.
  }

  // The coordinator serves every pair back.
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "rep:k" + std::to_string(i);
    Result<MintCoordinator::ReadResult> read = coordinator_->Get(key, 1);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->value, ValueOf(key, 1));
  }

  // Per-replica verification over direct clients: with replication factor
  // equal to the group size, every node must hold every pair — an acked
  // write is not "somewhere in the group", it is on its rendezvous
  // replicas, verifiably.
  for (int node = 0; node < 3; ++node) {
    rpc::RpcClient client = DirectClient(node);
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "rep:k" + std::to_string(i);
      Result<std::string> value = client.Get(key, 1);
      ASSERT_TRUE(value.ok())
          << "node " << node << " key " << key << ": "
          << value.status().ToString();
      EXPECT_EQ(*value, ValueOf(key, 1));
    }
    Result<rpc::HeartbeatInfo> hb = client.Heartbeat();
    ASSERT_TRUE(hb.ok());
    EXPECT_TRUE(hb->serving);
    EXPECT_EQ(hb->live_entries, static_cast<uint64_t>(kKeys));
  }
}

TEST_F(DmintTest, WritesAndReadsContinueAfterReplicaKill) {
  StartFleet(3);
  for (int i = 0; i < 10; ++i) {
    const std::string key = "pre:k" + std::to_string(i);
    ASSERT_TRUE(coordinator_->Put(key, 1, ValueOf(key, 1)).ok());
  }

  nodes_[2].Kill();

  // Writes keep succeeding on the surviving majority.
  for (int i = 0; i < 20; ++i) {
    const std::string key = "post:k" + std::to_string(i);
    MintCoordinator::WriteReport report;
    ASSERT_TRUE(coordinator_->Put(key, 1, ValueOf(key, 1), false, &report)
                    .ok())
        << "write " << i << " after kill";
    EXPECT_EQ(report.acks, 2);
    EXPECT_EQ(report.quorum, 2);
  }

  // Reads keep answering — pre-kill and post-kill pairs alike.
  for (int i = 0; i < 10; ++i) {
    const std::string key = "pre:k" + std::to_string(i);
    Result<MintCoordinator::ReadResult> read = coordinator_->GetLatest(key);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    EXPECT_EQ(read->value, ValueOf(key, 1));
    EXPECT_NE(read->served_by, 2);  // The corpse cannot have answered.
  }
  for (int i = 0; i < 20; ++i) {
    const std::string key = "post:k" + std::to_string(i);
    Result<MintCoordinator::ReadResult> read = coordinator_->Get(key, 1);
    ASSERT_TRUE(read.ok()) << read.status().ToString();
  }
  EXPECT_GT(coordinator_->counters().replica_write_failures, 0u);
}

TEST_F(DmintTest, AckedWritesSurviveKillRestartAndRepair) {
  CoordinatorOptions options;
  options.repair_page_pairs = 7;  // Force many pages: the cursor resumes.
  StartFleet(3, options);

  // Healthy-phase writes: acked by all three replicas.
  std::vector<std::pair<std::string, uint64_t>> acked;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "h:k" + std::to_string(i);
    ASSERT_TRUE(coordinator_->Put(key, 1, ValueOf(key, 1)).ok());
    acked.emplace_back(key, 1);
  }

  // Crash one replica. Its simulated SSD lives in process memory, so this
  // node loses everything it stored.
  nodes_[1].Kill();

  // Degraded-phase writes: acked by the surviving quorum, never by node 1.
  for (int i = 0; i < 40; ++i) {
    const std::string key = "d:k" + std::to_string(i);
    MintCoordinator::WriteReport report;
    ASSERT_TRUE(
        coordinator_->Put(key, 2, ValueOf(key, 2), false, &report).ok());
    EXPECT_EQ(report.acks, 2);
    acked.emplace_back(key, 2);
  }

  // Restart empty, then heal over RPC: the coordinator inventories the
  // node, pages the peers' scans, and bulk-ingests what the node owns but
  // lacks — which is every pair, healthy-phase and degraded-phase alike.
  ASSERT_TRUE(nodes_[1].Restart().ok());
  Result<uint64_t> repaired = coordinator_->RepairNode(1);
  ASSERT_TRUE(repaired.ok()) << repaired.status().ToString();
  EXPECT_EQ(*repaired, acked.size());

  // The acceptance check: repair restored the replication factor,
  // verifiably, over RPC.
  Result<uint64_t> missing = coordinator_->VerifyNodeComplete(1);
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(*missing, 0u);

  // Zero acked writes lost, and the healed replica itself serves them.
  for (const auto& [key, version] : acked) {
    Result<MintCoordinator::ReadResult> read =
        coordinator_->Get(key, version);
    ASSERT_TRUE(read.ok()) << key << ": " << read.status().ToString();
    EXPECT_EQ(read->value, ValueOf(key, version));
  }
  rpc::RpcClient healed = DirectClient(1);
  Result<rpc::HeartbeatInfo> hb = healed.Heartbeat();
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(hb->live_entries, acked.size());
  for (size_t i = 0; i < acked.size(); i += 9) {
    Result<std::string> value = healed.Get(acked[i].first, acked[i].second);
    ASSERT_TRUE(value.ok()) << acked[i].first;
    EXPECT_EQ(*value, ValueOf(acked[i].first, acked[i].second));
  }
  EXPECT_EQ(coordinator_->counters().repair_pairs_copied, acked.size());
}

TEST_F(DmintTest, RepairResolvesDedupChains) {
  StartFleet(3);
  // Node 1 is down for both writes, so it never receives the base version
  // the dedup pair traces back to.
  nodes_[1].Kill();
  ASSERT_TRUE(coordinator_->Put("k", 1, "base-value").ok());
  ASSERT_TRUE(coordinator_->Put("k", 2, Slice(), /*dedup=*/true).ok());

  // Repair copies resolved values, so the repaired node needs no chain.
  ASSERT_TRUE(nodes_[1].Restart().ok());
  Result<uint64_t> copied = coordinator_->RepairNode(1);
  ASSERT_TRUE(copied.ok()) << copied.status().ToString();
  EXPECT_EQ(*copied, 2u);

  // Both versions resolve on the repaired node alone.
  rpc::RpcClient healed = DirectClient(1);
  for (uint64_t version : {1, 2}) {
    Result<std::string> value = healed.Get("k", version);
    ASSERT_TRUE(value.ok()) << "version " << version << ": "
                            << value.status().ToString();
    EXPECT_EQ(*value, "base-value") << "version " << version;
  }
}

TEST_F(DmintTest, RepairOfDownOrUnknownNodeRejected) {
  StartFleet(3);
  nodes_[2].Kill();
  EXPECT_TRUE(coordinator_->RepairNode(2).status().IsUnavailable());
  EXPECT_TRUE(coordinator_->RepairNode(99).status().IsInvalidArgument());
}

TEST_F(DmintTest, HedgedReadFiresWhenPrimaryStalls) {
  CoordinatorOptions options;
  options.hedge_default_delay_ms = 25;
  options.hedge_min_samples = 1'000'000;  // Pin the default hedge delay.
  // Keep the detector from demoting the frozen node: this test wants the
  // stall to be covered by the hedge *timer*, not by failure detection.
  options.suspect_after_misses = 1'000'000;
  options.down_after_misses = 1'000'001;
  StartFleet(3, options);

  ASSERT_TRUE(coordinator_->Put("stall:k", 1, "stall-value").ok());

  // With no latency samples and all nodes up, read order falls back to node
  // id — node 0 is the preferred replica. Freeze it: its kernel still
  // accepts TCP, but nothing ever answers, which is exactly the silent
  // stall hedging exists for (a dead node would fail fast and take the
  // failover path instead).
  ASSERT_TRUE(nodes_[0].Suspend().ok());

  Result<MintCoordinator::ReadResult> read = coordinator_->Get("stall:k", 1);
  ASSERT_TRUE(nodes_[0].Resume().ok());

  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->value, "stall-value");
  EXPECT_TRUE(read->hedged);
  EXPECT_NE(read->served_by, 0);  // A backup won, not the frozen primary.
  const MintCoordinator::Counters counters = coordinator_->counters();
  EXPECT_GE(counters.hedged_reads, 1u);
  EXPECT_GE(counters.hedge_wins, 1u);
}

TEST_F(DmintTest, HedgeLoserNeverAnswersALaterCall) {
  CoordinatorOptions options;
  options.hedge_default_delay_ms = 25;
  options.hedge_min_samples = 1'000'000;
  options.suspect_after_misses = 1'000'000;
  options.down_after_misses = 1'000'001;
  StartFleet(3, options);
  ASSERT_TRUE(coordinator_->Put("loser:k", 1, "loser-value").ok());

  // Node 0 leads the read order. Frozen, it lets the hedge win; thawed, it
  // answers the abandoned attempt onto a connection that must not be
  // handed to any later call.
  ASSERT_TRUE(nodes_[0].Suspend().ok());
  Result<MintCoordinator::ReadResult> read = coordinator_->Get("loser:k", 1);
  ASSERT_TRUE(nodes_[0].Resume().ok());
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->value, "loser-value");
  EXPECT_NE(read->served_by, 0);

  for (int i = 0; i < 200; ++i) {
    const std::string key = "late:k" + std::to_string(i);
    ASSERT_TRUE(coordinator_->Put(key, 1, ValueOf(key, 1)).ok()) << key;
    Result<MintCoordinator::ReadResult> got = coordinator_->Get(key, 1);
    ASSERT_TRUE(got.ok()) << key << ": " << got.status().ToString();
    EXPECT_EQ(got->value, ValueOf(key, 1));
  }
  const MintCoordinator::Counters counters = coordinator_->counters();
  EXPECT_GE(counters.hedge_wins, 1u);
  EXPECT_LE(counters.hedge_wins, counters.hedged_reads);
}

TEST_F(DmintTest, FailoverWinIsNotAHedgeWin) {
  CoordinatorOptions options;
  options.hedge_default_delay_ms = 10'000;  // The hedge timer never fires.
  options.hedge_min_samples = 1'000'000;
  StartFleet(3, options);

  // Only node 2 — last in the sample-less read order — holds the pair, so
  // the coordinator reaches it through two NotFound failovers.
  rpc::RpcClient direct = DirectClient(2);
  ASSERT_TRUE(direct.Put("only:k", 1, "only-value").ok());

  Result<MintCoordinator::ReadResult> read = coordinator_->Get("only:k", 1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->value, "only-value");
  EXPECT_EQ(read->served_by, 2);
  EXPECT_FALSE(read->hedged);
  const MintCoordinator::Counters counters = coordinator_->counters();
  EXPECT_GE(counters.read_failovers, 1u);
  EXPECT_EQ(counters.hedged_reads, 0u);
  EXPECT_EQ(counters.hedge_wins, 0u);
}

TEST_F(DmintTest, AbsentKeyIsNotFoundWithAReplicaDown) {
  StartFleet(3);
  ASSERT_TRUE(coordinator_->Put("present:k", 1, "v").ok());
  nodes_[1].Kill();
  ASSERT_TRUE(WaitFor(5000, [&] {
    return coordinator_->health(1) == NodeHealth::kDown;
  })) << "detector never marked the killed node down";

  // The down node is tried last and refuses the connection; the two live
  // replicas answered NotFound, and that answer is the read's.
  Result<MintCoordinator::ReadResult> read = coordinator_->GetLatest("absent");
  ASSERT_FALSE(read.ok());
  EXPECT_TRUE(read.status().IsNotFound()) << read.status().ToString();
}

TEST_F(DmintTest, StalePooledConnectionIsResentNotFailed) {
  CoordinatorOptions options;
  options.suspect_after_misses = 1'000'000;
  options.down_after_misses = 1'000'001;
  StartFleet(3, options);
  ASSERT_TRUE(coordinator_->Put("stale:a", 1, "a").ok());  // Pools clients.

  // The restarted node listens on the same port; the pooled connection to
  // its predecessor is dead.
  nodes_[0].Kill();
  ASSERT_TRUE(nodes_[0].Restart().ok());

  MintCoordinator::WriteReport report;
  ASSERT_TRUE(coordinator_->Put("stale:b", 1, "b", false, &report).ok());
  EXPECT_EQ(report.acks, 3);
  EXPECT_EQ(report.attempts, 3);  // Re-dialled within the send, not retried.
  EXPECT_EQ(coordinator_->counters().replica_write_failures, 0u);
  Result<std::string> landed = DirectClient(0).Get("stale:b", 1);
  ASSERT_TRUE(landed.ok()) << landed.status().ToString();
  EXPECT_EQ(*landed, "b");
}

TEST_F(DmintTest, DetectorTracksCrashAndRecovery) {
  CoordinatorOptions options;
  options.suspect_after_misses = 2;
  options.down_after_misses = 4;
  StartFleet(3, options);

  ASSERT_EQ(coordinator_->health(1), NodeHealth::kUp);
  nodes_[1].Kill();
  EXPECT_TRUE(WaitFor(5000, [&] {
    return coordinator_->health(1) == NodeHealth::kDown;
  })) << "detector never marked the killed node down";
  EXPECT_GT(coordinator_->counters().heartbeat_misses, 0u);

  ASSERT_TRUE(nodes_[1].Restart().ok());
  EXPECT_TRUE(WaitFor(5000, [&] {
    return coordinator_->health(1) == NodeHealth::kUp;
  })) << "detector never marked the restarted node up";
}

TEST(DmintRoutingTest, CoordinatorRoutingIsPureAndGroupScoped) {
  // Placement needs no live fleet: GroupOf/ReplicasOf are pure functions of
  // the topology, shared with MintCluster via mint/routing.h.
  std::vector<std::vector<NodeEndpoint>> groups(2);
  for (int g = 0; g < 2; ++g) {
    for (int r = 0; r < 3; ++r) {
      NodeEndpoint endpoint;
      endpoint.port = static_cast<uint16_t>(1000 + g * 3 + r);
      groups[g].push_back(endpoint);
    }
  }
  CoordinatorOptions options;
  options.replicas = 2;
  MintCoordinator coordinator(groups, options);

  bool used_group[2] = {false, false};
  for (int i = 0; i < 200; ++i) {
    const std::string key = "route:k" + std::to_string(i);
    const int group = coordinator.GroupOf(key);
    ASSERT_GE(group, 0);
    ASSERT_LT(group, 2);
    used_group[group] = true;
    const std::vector<int> replicas = coordinator.ReplicasOf(key);
    ASSERT_EQ(replicas.size(), 2u);
    for (int id : replicas) {
      // Replicas stay inside the key's group: ids 0..2 for group 0,
      // 3..5 for group 1.
      EXPECT_EQ(id / 3, group) << key;
    }
    EXPECT_NE(replicas[0], replicas[1]);
    // Deterministic placement: the same key routes the same way again.
    EXPECT_EQ(coordinator.ReplicasOf(key), replicas);
  }
  EXPECT_TRUE(used_group[0]);
  EXPECT_TRUE(used_group[1]);
}

}  // namespace
}  // namespace directload::mint
