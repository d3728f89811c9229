#include "mint/cluster.h"

#include <algorithm>
#include <thread>

#include "common/failpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "mint/routing.h"

namespace directload::mint {

namespace {

// Fires once per replica attempt inside ParallelRead, before the engine is
// consulted — a probabilistic spec makes individual replicas flaky while
// the group as a whole keeps serving, which is exactly the redundancy the
// chaos harness wants to stress.
DIRECTLOAD_FAILPOINT_DEFINE(fp_mint_replica_read, "mint_replica_read");
}  // namespace

// ---------------------------------------------------------------------------
// StorageNode
// ---------------------------------------------------------------------------

StorageNode::StorageNode(int id, const MintOptions& options)
    : id_(id), options_(options) {
  env_ = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                        options_.node_geometry, ssd::LatencyModel(), &clock_);
}

Status StorageNode::Start() {
  WriterLock guard(&lifecycle_mu_);
  Result<std::unique_ptr<qindb::QinDb>> db =
      qindb::QinDb::Open(env_.get(), options_.engine);
  if (!db.ok()) return db.status();
  db_ = std::move(db).value();
  up_.store(true, std::memory_order_release);
  return Status::OK();
}

void StorageNode::Fail() {
  // Drop the engine without any graceful shutdown: the memtable and GC
  // table vanish; the AOF segments remain on the simulated SSD. Note that
  // the sub-page tail of the active segment is padded out by the env when
  // the writer is destroyed — record checksums would catch a genuinely torn
  // tail, which the AOF scan treats as end-of-segment. The exclusive lock
  // waits out requests currently inside the engine: they complete against
  // the pre-crash engine, exactly as a request already past the NIC would
  // on real hardware.
  WriterLock guard(&lifecycle_mu_);
  db_.reset();
  up_.store(false, std::memory_order_release);
}

Result<double> StorageNode::Recover() {
  WriterLock guard(&lifecycle_mu_);
  if (db_ != nullptr) {
    return Status::InvalidArgument("node is already up; Fail() it first");
  }
  const uint64_t before = clock_.NowMicros();
  Result<std::unique_ptr<qindb::QinDb>> db =
      qindb::QinDb::Open(env_.get(), options_.engine);
  if (!db.ok()) return db.status();
  db_ = std::move(db).value();
  up_.store(true, std::memory_order_release);
  return static_cast<double>(clock_.NowMicros() - before) * 1e-6;
}

// ---------------------------------------------------------------------------
// MintCluster
// ---------------------------------------------------------------------------

MintCluster::MintCluster(const MintOptions& options) : options_(options) {
  groups_.resize(options_.num_groups);
  for (int g = 0; g < options_.num_groups; ++g) {
    for (int i = 0; i < options_.nodes_per_group; ++i) {
      const int id = static_cast<int>(nodes_.size());
      nodes_.push_back(std::make_unique<StorageNode>(id, options_));
      groups_[g].push_back(id);
    }
  }
}

Status MintCluster::Start() {
  ReaderLock cluster_guard(&cluster_mu_);
  for (auto& node : nodes_) {
    Status s = node->Start();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

int MintCluster::GroupOf(const Slice& key) const {
  ReaderLock cluster_guard(&cluster_mu_);
  return GroupOfLocked(key);
}

std::vector<int> MintCluster::ReplicasOf(const Slice& key) const {
  ReaderLock cluster_guard(&cluster_mu_);
  return ReplicasOfLocked(key);
}

int MintCluster::GroupOfLocked(const Slice& key) const {
  // H(k) maps to a group, not a node (Section 2.3: scalability without
  // redistribution). Shared with the distributed coordinator via
  // mint/routing.h — both sides must place keys identically.
  return GroupOfKey(key, options_.num_groups);
}

std::vector<int> MintCluster::ReplicasOfLocked(const Slice& key) const {
  return RendezvousReplicas(key, groups_[GroupOfLocked(key)],
                            options_.replicas);
}

Status MintCluster::Put(const Slice& key, uint64_t version, const Slice& value,
                        bool dedup) {
  std::vector<rpc::BatchOp> ops(1);
  ops[0].dedup = dedup;
  ops[0].version = version;
  ops[0].key = key.ToString();
  ops[0].value = value.ToString();
  std::vector<Status> statuses;
  return WriteMany(ops, &statuses);
}

Status MintCluster::Del(const Slice& key, uint64_t version) {
  std::vector<rpc::BatchOp> ops(1);
  ops[0].is_del = true;
  ops[0].version = version;
  ops[0].key = key.ToString();
  std::vector<Status> statuses;
  return WriteMany(ops, &statuses);
}

template <typename TargetFn, typename EmitFn>
void MintCluster::RouteWritesLocked(size_t count, const TargetFn& target,
                                    const EmitFn& emit) const {
  std::vector<std::pair<uint64_t, int>> ranked;
  std::vector<int> replicas;
  for (size_t i = 0; i < count; ++i) {
    const auto [key, whole_group] = target(i);
    const std::vector<int>* targets = &GroupNodesLocked(GroupOfLocked(key));
    if (!whole_group) {
      RendezvousReplicas(key, *targets, options_.replicas, &ranked,
                         &replicas);
      targets = &replicas;
    }
    for (int id : *targets) emit(id, i);
  }
}

Status MintCluster::WriteMany(const std::vector<rpc::BatchOp>& ops,
                              std::vector<Status>* statuses) {
  ReaderLock cluster_guard(&cluster_mu_);
  statuses->assign(ops.size(), Status::OK());
  if (ops.empty()) return Status::OK();

  // Bucket ops by target node id, preserving op order inside each bucket.
  struct NodePlan {
    qindb::WriteBatch batch;
    std::vector<size_t> op_index;  // Batch position -> ops index.
  };
  std::vector<NodePlan> plans(nodes_.size());
  RouteWritesLocked(
      ops.size(),
      [&](size_t i) {
        return std::pair<Slice, bool>(ops[i].key, ops[i].is_del);
      },
      [&](int id, size_t i) {
        const rpc::BatchOp& op = ops[i];
        NodePlan& plan = plans[id];
        if (op.is_del) {
          plan.batch.Del(op.key, op.version);
        } else {
          plan.batch.Put(op.key, op.version, op.value, op.dedup);
        }
        plan.op_index.push_back(i);
      });

  struct Agg {
    int applied = 0;
    int live_targets = 0;
    Status first_error;
  };
  std::vector<Agg> agg(ops.size());
  for (size_t id = 0; id < plans.size(); ++id) {
    NodePlan& plan = plans[id];
    if (plan.op_index.empty()) continue;
    StorageNode* node = nodes_[id].get();
    ReaderLock guard(node->lifecycle_mu());
    if (!node->up()) continue;  // Healed by recovery + re-replication.
    DL_DISCARD_STATUS("first failing per-op status; the per-op results are "
                      "aggregated below",
                      node->db()->Write(plan.batch));
    const std::vector<Status>& results = plan.batch.statuses();
    for (size_t bi = 0; bi < results.size(); ++bi) {
      Agg& a = agg[plan.op_index[bi]];
      ++a.live_targets;
      const Status& s = results[bi];
      if (s.ok()) {
        ++a.applied;
      } else if (ops[plan.op_index[bi]].is_del) {
        // NotFound from one replica is normal for deletes; keep the first
        // real refusal (e.g. a degraded engine).
        if (!s.IsNotFound() && a.first_error.ok()) a.first_error = s;
      } else if (a.first_error.ok()) {
        a.first_error = s;
      }
    }
  }

  // Per-op aggregation. An op any live replica applied succeeds. A Del
  // distinguishes "the pair is gone" (NotFound) from "nobody could answer"
  // (Unavailable): a caller that treats NotFound as success must not do so
  // while the whole group is down.
  for (size_t i = 0; i < ops.size(); ++i) {
    const Agg& a = agg[i];
    if (a.applied > 0) continue;
    const int group = GroupOfLocked(ops[i].key);
    if (ops[i].is_del) {
      if (a.live_targets == 0) {
        (*statuses)[i] =
            Status::Unavailable("group " + std::to_string(group) +
                                " is entirely down; delete not applied");
      } else if (!a.first_error.ok()) {
        (*statuses)[i] = a.first_error;
      } else {
        (*statuses)[i] = Status::NotFound("no replica held the pair");
      }
    } else if (!a.first_error.ok()) {
      (*statuses)[i] = a.first_error;
    } else {
      (*statuses)[i] =
          Status::Unavailable("group " + std::to_string(group) +
                              " has no live replica for the key");
    }
  }
  for (const Status& s : *statuses) {
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status MintCluster::DropVersion(uint64_t version) {
  ReaderLock cluster_guard(&cluster_mu_);
  // Every live node drops, even past a failing one: stopping would leave
  // the later nodes serving a version the earlier ones dropped.
  Status first_error;
  for (auto& node : nodes_) {
    ReaderLock guard(node->lifecycle_mu());
    if (!node->up()) continue;
    Result<uint64_t> n = node->db()->DropVersion(version);
    if (!n.ok() && first_error.ok()) first_error = n.status();
  }
  return first_error;
}

Status MintCluster::BulkBegin(uint64_t version) {
  ReaderLock cluster_guard(&cluster_mu_);
  Status s = Status::Unavailable("no live node to open the bulk session");
  for (auto& node : nodes_) {
    {
      ReaderLock guard(node->lifecycle_mu());
      if (!node->up()) continue;
      s = node->db()->IngestBegin(version);
    }
    if (!s.ok()) {
      // A refused begin leaves no session on the nodes it reached (the
      // refusing engine already rolled back its own shards).
      DL_DISCARD_STATUS("best-effort rollback; the begin already failed",
                        BulkAbortLocked(version));
      return s;
    }
  }
  return s;  // OK once any live node opened the session.
}

Status MintCluster::BulkIngest(uint64_t version, const qindb::IngestOp* ops,
                               size_t count) {
  if (count == 0) return Status::OK();
  ReaderLock cluster_guard(&cluster_mu_);
  // Bucket per node id, preserving run order inside each bucket: puts go to
  // the key's rendezvous replicas, tombstones to the whole group (matching
  // Put/Del above).
  std::vector<std::vector<qindb::IngestOp>> routed(nodes_.size());
  RouteWritesLocked(
      count,
      [&](size_t i) {
        return std::pair<Slice, bool>(ops[i].key, ops[i].tombstone);
      },
      [&](int id, size_t i) { routed[id].push_back(ops[i]); });
  size_t applied_nodes = 0;
  Status first_error;
  for (size_t id = 0; id < routed.size(); ++id) {
    const std::vector<qindb::IngestOp>& node_ops = routed[id];
    if (node_ops.empty()) continue;
    StorageNode* node = nodes_[id].get();
    ReaderLock guard(node->lifecycle_mu());
    if (!node->up()) continue;  // Healed by recovery + re-replication.
    Status s =
        node->db()->IngestRun(version, node_ops.data(), node_ops.size());
    if (s.ok()) {
      ++applied_nodes;
    } else if (!s.IsInvalidArgument() && first_error.ok()) {
      // InvalidArgument means the node has no session for this version —
      // it recovered mid-load and missed the begin; it heals later like any
      // node that missed a write. Anything else fails the run.
      first_error = s;
    }
  }
  if (!first_error.ok()) return first_error;
  if (applied_nodes == 0) {
    return Status::Unavailable("no live replica staged the bulk run");
  }
  return Status::OK();
}

Status MintCluster::BulkCommit(uint64_t version) {
  ReaderLock cluster_guard(&cluster_mu_);
  bool any = false;
  Status first_error;
  for (auto& node : nodes_) {
    ReaderLock guard(node->lifecycle_mu());
    if (!node->up()) continue;
    Status s = node->db()->IngestCommit(version);
    if (s.ok()) {
      any = true;
    } else if (!s.IsInvalidArgument() && first_error.ok()) {
      first_error = s;
    }
  }
  if (!first_error.ok()) return first_error;
  if (!any) return Status::Unavailable("no live node held the bulk session");
  return Status::OK();
}

Status MintCluster::BulkAbort(uint64_t version) {
  ReaderLock cluster_guard(&cluster_mu_);
  return BulkAbortLocked(version);
}

Status MintCluster::BulkAbortLocked(uint64_t version) {
  Status first_error;
  for (auto& node : nodes_) {
    ReaderLock guard(node->lifecycle_mu());
    if (!node->up()) continue;
    Status s = node->db()->IngestAbort(version);
    if (!s.ok() && !s.IsInvalidArgument() && first_error.ok()) {
      first_error = s;
    }
  }
  return first_error;
}

template <typename Fn>
Result<MintCluster::ReadResult> MintCluster::ParallelRead(const Slice& key,
                                                          const Fn& fn) {
  // Requests go to the group's nodes in parallel — one thread per live
  // replica — and the caller sees the fastest live replica's answer (each
  // node has its own clock, so the per-node elapsed device time is the
  // replica's service latency). Every thread is joined before selection:
  // no replica thread can outlive the cluster's node state, and picking
  // the minimum simulated latency keeps the winner deterministic no matter
  // how the OS schedules the threads.
  const int group = GroupOfLocked(key);
  const std::vector<int>& members = GroupNodesLocked(group);
  std::vector<int> live;
  live.reserve(members.size());
  for (int id : members) {
    if (nodes_[id]->up()) live.push_back(id);
  }
  if (live.empty()) {
    return Status::Unavailable("group " + std::to_string(group) +
                               " is entirely down; no replica to read");
  }

  struct Attempt {
    bool ok = false;
    std::string value;
    Status error = Status::OK();
    double latency_micros = 0;
  };
  std::vector<Attempt> attempts(live.size());

  auto run_one = [&](size_t slot) {
    StorageNode* node = nodes_[live[slot]].get();
    Attempt& attempt = attempts[slot];
#if DIRECTLOAD_FAILPOINTS_COMPILED
    if (fp_mint_replica_read->armed()) {
      Status injected = fp_mint_replica_read->MaybeFail();
      if (!injected.ok()) {
        // The replica "answered" with a failure before touching the engine;
        // selection below falls through to the surviving replicas.
        attempt.error = std::move(injected);
        attempt.latency_micros = kReadRttMicros;
        return;
      }
    }
#endif
    ReaderLock guard(node->lifecycle_mu());
    if (!node->up()) {
      // Crashed between the live-replica scan and this thread running.
      attempt.error = Status::Unavailable("replica failed mid-read");
      attempt.latency_micros = kReadRttMicros;
      return;
    }
    const uint64_t before = node->clock()->NowMicros();
    Result<std::string> got = fn(node->db());
    attempt.latency_micros =
        static_cast<double>(node->clock()->NowMicros() - before) +
        kReadRttMicros;
    if (got.ok()) {
      attempt.ok = true;
      attempt.value = std::move(got).value();
    } else {
      attempt.error = got.status();
    }
  };

  if (options_.parallel_reads && live.size() > 1) {
    std::vector<std::thread> threads;
    threads.reserve(live.size());
    for (size_t i = 0; i < live.size(); ++i) {
      threads.emplace_back(run_one, i);  // Disjoint slots: no locking needed.
    }
    for (std::thread& t : threads) t.join();
  } else {
    for (size_t i = 0; i < live.size(); ++i) run_one(i);
  }

  ReadResult best;
  bool found = false;
  Status last_error = Status::Unavailable(
      "group " + std::to_string(group) + " produced no usable replica read");
  for (size_t i = 0; i < live.size(); ++i) {
    Attempt& attempt = attempts[i];
    if (!attempt.ok) {
      last_error = attempt.error;
      continue;
    }
    if (!found || attempt.latency_micros < best.latency_micros) {
      best.value = std::move(attempt.value);
      best.latency_micros = attempt.latency_micros;
      best.served_by = live[i];
      found = true;
    }
  }
  if (!found) return last_error;
  return best;
}

Result<MintCluster::ReadResult> MintCluster::Get(const Slice& key,
                                                 uint64_t version) {
  ReaderLock cluster_guard(&cluster_mu_);
  return ParallelRead(key, [&](qindb::QinDb* db) {
    return db->Get(key, version);
  });
}

Result<MintCluster::ReadResult> MintCluster::GetLatest(const Slice& key) {
  ReaderLock cluster_guard(&cluster_mu_);
  return ParallelRead(key, [&](qindb::QinDb* db) {
    return db->GetLatest(key);
  });
}

Status MintCluster::FailNode(int node_id) {
  ReaderLock cluster_guard(&cluster_mu_);
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("no such node");
  }
  nodes_[node_id]->Fail();
  return Status::OK();
}

Result<double> MintCluster::RecoverNode(int node_id) {
  ReaderLock cluster_guard(&cluster_mu_);
  if (node_id < 0 || node_id >= static_cast<int>(nodes_.size())) {
    return Status::InvalidArgument("no such node");
  }
  return nodes_[node_id]->Recover();
}

Result<int> MintCluster::AddNode(int group) {
  // Exclusive: waits out every in-flight operation's shared hold before the
  // node table grows — the documented quiescence requirement, now enforced
  // by the lock instead of by hoping callers read the comment.
  WriterLock cluster_guard(&cluster_mu_);
  if (group < 0 || group >= options_.num_groups) {
    return Status::InvalidArgument("no such group");
  }
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back(std::make_unique<StorageNode>(id, options_));
  Status s = nodes_.back()->Start();
  if (!s.ok()) return s;
  groups_[group].push_back(id);
  return id;
}

int MintCluster::num_nodes() const {
  ReaderLock cluster_guard(&cluster_mu_);
  return static_cast<int>(nodes_.size());
}

StorageNode* MintCluster::node(int id) {
  ReaderLock cluster_guard(&cluster_mu_);
  return nodes_[id].get();
}

uint64_t MintCluster::TotalUserBytesIngested() const {
  ReaderLock cluster_guard(&cluster_mu_);
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    ReaderLock guard(node->lifecycle_mu());
    if (node->up()) {
      total += node->db()->stats().user_bytes_ingested;
    }
  }
  return total;
}

uint64_t MintCluster::TotalDiskBytes() const {
  ReaderLock cluster_guard(&cluster_mu_);
  uint64_t total = 0;
  for (const auto& node : nodes_) {
    total += node->env()->TotalFileBytes();
  }
  return total;
}

}  // namespace directload::mint
