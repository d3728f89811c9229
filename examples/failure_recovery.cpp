// Failure handling in Mint (paper Sections 2.3 and 5): a storage node
// crashes and loses its memtable; reads keep flowing from the other
// replicas; the node rebuilds its in-memory index by scanning its AOFs
// (slow), or from a checkpoint (fast); and a fresh node joins the group
// without any data redistribution.

#include <cstdio>

#include "common/logging.h"
#include "common/random.h"
#include "mint/cluster.h"

using namespace directload;

int main() {
  mint::MintOptions options;
  options.num_groups = 2;
  options.nodes_per_group = 3;
  options.node_geometry.num_blocks = 2048;  // 512 MiB per node.
  options.engine.aof.segment_bytes = 2 << 20;

  mint::MintCluster cluster(options);
  DL_CHECK_OK(cluster.Start());

  // Load a version of index data (3-way replicated within each group).
  Random rnd(7);
  const int kKeys = 400;
  std::printf("loading %d keys, 3 replicas each...\n", kKeys);
  for (int i = 0; i < kKeys; ++i) {
    DL_CHECK_OK(cluster.Put("url:" + std::to_string(i), 1,
                            rnd.NextString(4096)));
  }

  // Baseline read.
  Result<mint::MintCluster::ReadResult> read = cluster.Get("url:42", 1);
  DL_CHECK(read.ok());
  std::printf("read url:42 served by node %d in %.0f us\n", read->served_by,
              read->latency_micros);

  // Crash a node: its memtable and GC table are gone; AOFs survive.
  std::printf("\n*** node 0 crashes (memory lost, AOFs intact) ***\n");
  DL_CHECK_OK(cluster.FailNode(0));
  int available = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (cluster.Get("url:" + std::to_string(i), 1).ok()) ++available;
  }
  std::printf("during the outage: %d/%d keys still readable via the "
              "surviving replicas (parallel requests hide the failure)\n",
              available, kKeys);

  // Recover: full AOF scan rebuilds the memtable.
  Result<double> recovery = cluster.RecoverNode(0);
  DL_CHECK(recovery.ok());
  std::printf("node 0 recovered by scanning its AOFs in %.1f simulated ms\n",
              *recovery * 1e3);

  // Checkpoint-accelerated recovery on another node.
  mint::StorageNode* node = cluster.node(1);
  DL_CHECK_OK(node->db()->Checkpoint());
  node->Fail();
  Result<double> fast = node->Recover();
  DL_CHECK(fast.ok());
  std::printf("node 1 (checkpointed) recovered in %.1f simulated ms "
              "(vs the full scan above)\n",
              *fast * 1e3);

  // Elastic growth: a new empty node joins group 0; nothing moves.
  Result<int> added = cluster.AddNode(0);
  DL_CHECK(added.ok());
  std::printf("\nadded node %d to group 0 — stored pairs stay put, reads "
              "still answer:\n", *added);
  int ok = 0;
  for (int i = 0; i < kKeys; ++i) {
    if (cluster.Get("url:" + std::to_string(i), 1).ok()) ++ok;
  }
  std::printf("  %d/%d keys readable after membership change\n", ok, kKeys);
  std::printf("  new node holds %zu pairs (no redistribution, by design)\n",
              cluster.node(*added)->db()->memtable()->live_count());

  // New writes start landing on the larger group.
  for (int i = 0; i < 200; ++i) {
    DL_CHECK_OK(cluster.Put("new:" + std::to_string(i), 2,
                            rnd.NextString(1024)));
  }
  std::printf("  after 200 new writes it holds %zu pairs\n",
              cluster.node(*added)->db()->memtable()->live_count());
  return 0;
}
