#include "mint/coordinator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/coding.h"
#include "common/failpoint.h"
#include "mint/routing.h"

namespace directload::mint {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Fires once per replica inside the write fan-out, before the RPC is sent —
// the chaos harness uses it to starve individual replicas of writes and
// then watch quorum accounting and repair make up the difference.
DIRECTLOAD_FAILPOINT_DEFINE(fp_coord_replica_write, "coord_replica_write");

// Fires once per read attempt (primary, hedge, and failover alike) before
// its RPC — injected failures exercise the failover ladder without any
// server-side cooperation.
DIRECTLOAD_FAILPOINT_DEFINE(fp_coord_read_attempt, "coord_read_attempt");

/// Sends per replica for a write that fails retryably (kBusy or a transport
/// error), on top of the RPC client's own reconnect handling. The resend
/// waits the client's first jittered backoff step.
constexpr int kWriteAttempts = 2;

/// A read hedges after the primary's rolling p95 latency ("Tail-Tolerant
/// Distributed Search"), never sooner than the floor.
constexpr double kHedgeQuantile = 0.95;
constexpr double kHedgeFloorMs = 1.0;

/// Data-path client settings. They keep per-op worst cases short: a
/// coordinator facing a dead replica should fail the replica fast and let
/// quorum + the detector absorb it, not burn the caller's patience.
constexpr rpc::RpcClient::Options kDataPathClient = [] {
  rpc::RpcClient::Options o;
  o.connect_timeout_ms = 500;
  o.request_timeout_ms = 2000;
  o.max_reconnects = 1;
  o.retry_budget_ms = 1000;
  return o;
}();

/// A failure of the transport (or the peer's availability), as opposed to
/// the server answering the operation with an error. Only these count as
/// failure-detector misses: a NotFound is a healthy node disagreeing about
/// data, not a dead one.
bool IsTransportError(const Status& s) {
  return s.IsUnavailable() || s.IsIOError() || s.IsTimedOut();
}

/// A failed read's status, folded over its attempts the way Del folds its
/// replicas: an answered error first, then NotFound, and a transport
/// failure only when no replica answered at all.
class ReadFailure {
 public:
  void Add(const Status& s) {
    Status& first = IsTransportError(s) ? transport_
                    : s.IsNotFound()    ? not_found_
                                        : answered_;
    if (first.ok()) first = s;
  }

  Status status() const {
    if (!answered_.ok()) return answered_;
    if (!not_found_.ok()) return not_found_;
    if (!transport_.ok()) return transport_;
    return Status::Unavailable("no read attempt made");
  }

 private:
  Status answered_;
  Status not_found_;
  Status transport_;
};

double ElapsedMs(SteadyClock::time_point since) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - since)
      .count();
}

std::string InventoryToken(const Slice& key, uint64_t version) {
  std::string token(key.data(), key.size());
  PutFixed64(&token, version);
  return token;
}

}  // namespace

/// One request to one node over a client popped from the node's pool; the
/// client's exchange runs it. A pooled connection the node has since closed
/// is re-dialed and resent by the exchange itself, so staleness costs
/// neither a failed attempt nor a detector miss.
struct MintCoordinator::Attempt {
  int node = -1;
  int slot = -1;  // The caller's index: read ladder rung or write target.
  SteadyClock::time_point start;
  std::unique_ptr<rpc::RpcClient> client;
  rpc::RpcClient::Exchange exchange;
};

MintCoordinator::MintCoordinator(std::vector<std::vector<NodeEndpoint>> groups,
                                 CoordinatorOptions options)
    : options_(options) {
  // Probe clients are deliberately impatient: no reconnects, short
  // deadlines — a probe that needs a retry *is* a miss.
  rpc::RpcClient::Options probe_opts = kDataPathClient;
  probe_opts.connect_timeout_ms = options_.heartbeat_timeout_ms;
  probe_opts.request_timeout_ms = options_.heartbeat_timeout_ms;
  probe_opts.max_reconnects = 0;
  probe_opts.retry_budget_ms = options_.heartbeat_timeout_ms;

  groups_.resize(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    for (NodeEndpoint& endpoint : groups[g]) {
      const int id = static_cast<int>(nodes_.size());
      auto node = std::make_unique<Node>();
      node->endpoint = endpoint;
      node->group = static_cast<int>(g);
      node->probe = std::make_unique<rpc::RpcClient>(
          endpoint.host, endpoint.port, probe_opts);
      nodes_.push_back(std::move(node));
      groups_[g].push_back(id);
    }
  }
}

MintCoordinator::~MintCoordinator() { Stop(); }

Status MintCoordinator::Start() {
  if (started_) return Status::InvalidArgument("coordinator already started");
  started_ = true;
  detector_ = std::thread(&MintCoordinator::DetectorLoop, this);
  return Status::OK();
}

void MintCoordinator::Stop() {
  {
    MutexLock lock(&mu_);
    stopping_ = true;
    cv_.SignalAll();
  }
  if (detector_.joinable()) detector_.join();
}

int MintCoordinator::GroupOf(const Slice& key) const {
  return GroupOfKey(key, num_groups());
}

std::vector<int> MintCoordinator::ReplicasOf(const Slice& key) const {
  return RendezvousReplicas(key, groups_[GroupOf(key)], options_.replicas);
}

NodeHealth MintCoordinator::health(int node_id) const {
  MutexLock lock(&mu_);
  return nodes_[node_id]->health;
}

MintCoordinator::Counters MintCoordinator::counters() const {
  Counters c;
  c.writes_acked = writes_acked_.load(std::memory_order_relaxed);
  c.write_quorum_failures =
      write_quorum_failures_.load(std::memory_order_relaxed);
  c.replica_write_failures =
      replica_write_failures_.load(std::memory_order_relaxed);
  c.hedged_reads = hedged_reads_.load(std::memory_order_relaxed);
  c.hedge_wins = hedge_wins_.load(std::memory_order_relaxed);
  c.read_failovers = read_failovers_.load(std::memory_order_relaxed);
  c.heartbeat_misses = heartbeat_misses_.load(std::memory_order_relaxed);
  c.repair_pairs_copied =
      repair_pairs_copied_.load(std::memory_order_relaxed);
  return c;
}

double MintCoordinator::HedgeDelayMsFor(int node_id) {
  const double q = nodes_[node_id]->latency_ms.Quantile(
      kHedgeQuantile, static_cast<size_t>(options_.hedge_min_samples),
      /*fallback=*/-1.0);
  if (q < 0) return options_.hedge_default_delay_ms;
  return std::max(kHedgeFloorMs, q);
}

std::unique_ptr<rpc::RpcClient> MintCoordinator::AcquireClient(int node_id) {
  {
    MutexLock lock(&mu_);
    auto& pool = nodes_[node_id]->pool;
    if (!pool.empty()) {
      std::unique_ptr<rpc::RpcClient> client = std::move(pool.back());
      pool.pop_back();
      return client;
    }
  }
  const NodeEndpoint& endpoint = nodes_[node_id]->endpoint;
  return std::make_unique<rpc::RpcClient>(endpoint.host, endpoint.port,
                                          kDataPathClient);
}

void MintCoordinator::ReleaseClient(int node_id,
                                    std::unique_ptr<rpc::RpcClient> client,
                                    bool reusable) {
  // A client whose transport failed is dropped, not pooled: its stream may
  // hold half a frame or an answer still on its way, and reconnecting is
  // the next caller's job anyway.
  static constexpr size_t kMaxPooledPerNode = 8;
  if (!reusable) return;  // unique_ptr dtor closes the socket.
  MutexLock lock(&mu_);
  auto& pool = nodes_[node_id]->pool;
  if (pool.size() < kMaxPooledPerNode) pool.push_back(std::move(client));
}

void MintCoordinator::ReportNodeOutcome(int node_id, bool healthy) {
  MutexLock lock(&mu_);
  Node* node = nodes_[node_id].get();
  if (healthy) {
    node->misses = 0;
    node->health = NodeHealth::kUp;
    return;
  }
  ++node->misses;
  if (node->misses >= options_.down_after_misses) {
    node->health = NodeHealth::kDown;
  } else if (node->misses >= options_.suspect_after_misses) {
    node->health = NodeHealth::kSuspect;
  }
}

std::vector<int> MintCoordinator::ReadOrder(int group) const {
  struct Candidate {
    int health_rank;
    double p95;
    int id;
  };
  std::vector<Candidate> candidates;
  {
    MutexLock lock(&mu_);
    for (int id : groups_[group]) {
      const Node& node = *nodes_[id];
      Candidate c;
      c.health_rank = static_cast<int>(node.health);
      // No samples yet sorts ahead of a known-slow replica: a fresh node
      // deserves the benefit of the doubt (and quickly earns a real
      // estimate either way).
      c.p95 = node.latency_ms.Quantile(0.95, 1, /*fallback=*/0.0);
      c.id = id;
      candidates.push_back(c);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.health_rank != b.health_rank) {
                return a.health_rank < b.health_rank;
              }
              if (a.p95 != b.p95) return a.p95 < b.p95;
              return a.id < b.id;
            });
  std::vector<int> order;
  order.reserve(candidates.size());
  for (const Candidate& c : candidates) order.push_back(c.id);
  return order;
}

// ---------------------------------------------------------------------------
// Exchanges with the pool and the detector
// ---------------------------------------------------------------------------

MintCoordinator::Attempt MintCoordinator::Begin(int node_id,
                                                const rpc::Frame& request,
                                                int slot) {
  const SteadyClock::time_point start = SteadyClock::now();
  std::unique_ptr<rpc::RpcClient> client = AcquireClient(node_id);
  rpc::RpcClient::Exchange exchange(client.get(), request);
  return Attempt{node_id, slot, start, std::move(client), std::move(exchange)};
}

void MintCoordinator::Await(std::vector<Attempt>* attempts,
                            SteadyClock::time_point until) {
  std::vector<rpc::RpcClient::Exchange*> exchanges;
  for (Attempt& a : *attempts) exchanges.push_back(&a.exchange);
  rpc::RpcClient::Exchange::Await(exchanges, until);
}

void MintCoordinator::Finish(Attempt* a, const Status& answer) {
  const bool answered = !IsTransportError(answer);
  ReleaseClient(a->node, std::move(a->client), answered);
  ReportNodeOutcome(a->node, answered);
}

// ---------------------------------------------------------------------------
// Writes
// ---------------------------------------------------------------------------

std::vector<Status> MintCoordinator::FanOut(const std::vector<int>& targets,
                                            const rpc::Frame& request,
                                            int* sends) {
  std::vector<Status> statuses(targets.size());
  std::vector<int> round;  // Target indices to send to this round.
  for (size_t i = 0; i < targets.size(); ++i) {
    if (health(targets[i]) == NodeHealth::kDown) {
      // Routed around; RepairNode re-replicates what it missed.
      statuses[i] = Status::Unavailable("replica " +
                                        std::to_string(targets[i]) +
                                        " is down (routed around)");
      continue;
    }
#if DIRECTLOAD_FAILPOINTS_COMPILED
    if (fp_coord_replica_write->armed()) {
      statuses[i] = fp_coord_replica_write->MaybeFail();
      if (!statuses[i].ok()) continue;
    }
#endif
    round.push_back(static_cast<int>(i));
  }

  int backoff_ms = 0;
  for (int attempt = 1; !round.empty(); ++attempt) {
    if (attempt > 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
    }
    std::vector<Attempt> attempts;
    attempts.reserve(round.size());
    for (int i : round) attempts.push_back(Begin(targets[i], request, i));
    if (sends != nullptr) *sends += static_cast<int>(round.size());
    while (std::any_of(attempts.begin(), attempts.end(), [](const Attempt& a) {
      return !a.exchange.done();
    })) {
      Await(&attempts, SteadyClock::time_point::max());
    }
    round.clear();
    for (Attempt& a : attempts) {
      // Retry what waiting can fix: admission-control pushback and
      // transport failures, after the client's first backoff step. A
      // definitive server answer is final.
      Status& s = statuses[a.slot];
      s = rpc::Unwrap(a.exchange.TakeResponse()).status();
      const bool retryable =
          (s.IsBusy() || IsTransportError(s)) && attempt < kWriteAttempts;
      if (retryable) {
        backoff_ms = std::max(backoff_ms, a.client->BackoffDelayMs(1));
      }
      Finish(&a, s);
      if (retryable && health(a.node) != NodeHealth::kDown) {
        round.push_back(a.slot);
      }
    }
  }
  return statuses;
}

Status MintCoordinator::Put(const Slice& key, uint64_t version,
                            const Slice& value, bool dedup,
                            WriteReport* report) {
  const std::vector<int> targets = ReplicasOf(key);
  if (targets.empty()) {
    return Status::InvalidArgument("key maps to no replicas");
  }
  const int quorum = static_cast<int>(targets.size()) / 2 + 1;

  rpc::Frame request;
  request.op = rpc::Opcode::kPut;
  request.dedup = dedup;
  request.version = version;
  request.key = key.ToString();
  request.value = value.ToString();
  int sends = 0;
  int acks = 0;
  Status first_error;
  for (const Status& s : FanOut(targets, request, &sends)) {
    if (s.ok()) {
      ++acks;
      continue;
    }
    ++replica_write_failures_;
    if (first_error.ok()) first_error = s;
  }

  if (report != nullptr) {
    report->acks = acks;
    report->targets = static_cast<int>(targets.size());
    report->quorum = quorum;
    report->attempts = sends;
  }
  if (acks >= quorum) {
    ++writes_acked_;
    return Status::OK();
  }
  ++write_quorum_failures_;
  std::string message = "write acked by " + std::to_string(acks) + " of " +
                        std::to_string(targets.size()) +
                        " replicas (quorum " + std::to_string(quorum) + ")";
  if (!first_error.ok()) {
    message += ": " + std::string(first_error.message());
  }
  return Status::Unavailable(message);
}

Status MintCoordinator::Del(const Slice& key, uint64_t version) {
  const int group = GroupOf(key);
  rpc::Frame request;
  request.op = rpc::Opcode::kDel;
  request.version = version;
  request.key = key.ToString();
  bool any = false;
  bool any_live = false;
  Status first_error;
  for (const Status& s : FanOut(groups_[group], request, nullptr)) {
    const bool transport_ok = !IsTransportError(s);
    if (transport_ok) any_live = true;
    if (s.ok()) {
      any = true;
    } else if (!s.IsNotFound() && transport_ok && first_error.ok()) {
      first_error = s;
    }
  }
  if (any) return Status::OK();
  if (!any_live) {
    return Status::Unavailable("group " + std::to_string(group) +
                               " is entirely unreachable; delete not applied");
  }
  if (!first_error.ok()) return first_error;
  return Status::NotFound("no replica held the pair");
}

// ---------------------------------------------------------------------------
// Hedged reads
// ---------------------------------------------------------------------------

Result<MintCoordinator::ReadResult> MintCoordinator::ReadInternal(
    const Slice& key, uint64_t version, bool latest) {
  const SteadyClock::time_point start = SteadyClock::now();
  const int group = GroupOf(key);
  const std::vector<int> order = ReadOrder(group);
  if (order.empty()) {
    return Status::Unavailable("group " + std::to_string(group) +
                               " has no nodes");
  }
  rpc::Frame request;
  request.op = rpc::Opcode::kGet;
  request.latest = latest;
  request.version = version;
  request.key = key.ToString();

  const auto hedge_delay =
      std::chrono::duration_cast<SteadyClock::duration>(
          std::chrono::duration<double, std::milli>(
              HedgeDelayMsFor(order[0])));
  std::vector<Attempt> in_flight;
  ReadFailure failure;
  size_t next = 0;      // The next rung of the ladder.
  int hedge_slot = -1;  // The rung the hedge timer launched, if it fired.
  SteadyClock::time_point hedge_at;
  auto launch = [&] {
    const int slot = static_cast<int>(next);
    const int node = order[next++];
    hedge_at = SteadyClock::now() + hedge_delay;
#if DIRECTLOAD_FAILPOINTS_COMPILED
    if (fp_coord_read_attempt->armed()) {
      const Status injected = fp_coord_read_attempt->MaybeFail();
      if (!injected.ok()) {
        // Feed the detector exactly as a real transport failure would.
        if (IsTransportError(injected)) ReportNodeOutcome(node, false);
        failure.Add(injected);
        return;
      }
    }
#endif
    in_flight.push_back(Begin(node, request, slot));
  };

  launch();
  while (true) {
    // The first OK answer wins; a failed attempt is noted and dropped.
    for (size_t i = 0; i < in_flight.size();) {
      Attempt& a = in_flight[i];
      if (!a.exchange.done()) {
        ++i;
        continue;
      }
      Result<std::string> answer = rpc::Unwrap(a.exchange.TakeResponse());
      if (answer.ok()) {
        nodes_[a.node]->latency_ms.Record(ElapsedMs(a.start));
      }
      Finish(&a, answer.status());
      if (answer.ok()) {
        if (a.slot == hedge_slot) ++hedge_wins_;
        ReadResult result;
        result.value = std::move(answer).value();
        result.served_by = a.node;
        result.hedged = hedge_slot >= 0;
        result.latency_ms = ElapsedMs(start);
        return result;  // A loser still in flight closes with `in_flight`.
      }
      failure.Add(answer.status());
      in_flight.erase(in_flight.begin() + static_cast<ptrdiff_t>(i));
    }
    if (in_flight.empty()) {
      // Every launched attempt failed: fail over to the next candidate, or
      // give up when the ladder is exhausted.
      if (next >= order.size()) return failure.status();
      ++read_failovers_;
      launch();
      continue;
    }
    const bool can_hedge = hedge_slot < 0 && next < order.size();
    if (can_hedge && SteadyClock::now() >= hedge_at) {
      // The attempt went silent past the primary's p95-derived budget: send
      // the backup and race them.
      ++hedged_reads_;
      hedge_slot = static_cast<int>(next);
      launch();
      continue;
    }
    Await(&in_flight,
          can_hedge ? hedge_at : SteadyClock::time_point::max());
  }
}

Result<MintCoordinator::ReadResult> MintCoordinator::Get(const Slice& key,
                                                         uint64_t version) {
  return ReadInternal(key, version, /*latest=*/false);
}

Result<MintCoordinator::ReadResult> MintCoordinator::GetLatest(
    const Slice& key) {
  return ReadInternal(key, 0, /*latest=*/true);
}

// ---------------------------------------------------------------------------
// Failure detector
// ---------------------------------------------------------------------------

void MintCoordinator::DetectorLoop() {
  while (true) {
    for (size_t i = 0; i < nodes_.size(); ++i) {
      {
        MutexLock lock(&mu_);
        if (stopping_) return;
      }
      Node* node = nodes_[i].get();
      Result<rpc::HeartbeatInfo> hb = node->probe->Heartbeat();
      const bool healthy = hb.ok() && hb->serving;
      if (!healthy) {
        heartbeat_misses_.fetch_add(1, std::memory_order_relaxed);
        // Drop the probe's connection so the next round dials fresh instead
        // of trusting a half-dead stream.
        node->probe->Close();
      }
      ReportNodeOutcome(static_cast<int>(i), healthy);
    }
    MutexLock lock(&mu_);
    if (stopping_) return;
    cv_.WaitFor(std::chrono::milliseconds(options_.heartbeat_interval_ms));
  }
}

// ---------------------------------------------------------------------------
// Repair
// ---------------------------------------------------------------------------

Status MintCoordinator::ScanNode(
    int node_id, bool keys_only,
    const std::function<void(rpc::RepairPage*)>& on_page) {
  rpc::RepairScanRequest request;
  request.keys_only = keys_only;
  request.max_pairs = options_.repair_page_pairs;
  std::unique_ptr<rpc::RpcClient> client = AcquireClient(node_id);
  Status failure;
  while (true) {
    Result<rpc::RepairPage> page = client->RepairScan(request);
    if (!page.ok()) {
      failure = page.status();
      break;
    }
    on_page(&page.value());
    if (page->done) break;
    request.cursor = page->next;
  }
  ReleaseClient(node_id, std::move(client), !IsTransportError(failure));
  return failure;
}

Result<std::unordered_set<std::string>> MintCoordinator::InventoryNode(
    int node_id) {
  std::unordered_set<std::string> tokens;
  Status s = ScanNode(node_id, /*keys_only=*/true, [&](rpc::RepairPage* page) {
    for (const rpc::RepairPair& pair : page->pairs) {
      tokens.insert(InventoryToken(pair.key, pair.version));
    }
  });
  if (!s.ok()) return s;
  return tokens;
}

Result<uint64_t> MintCoordinator::RepairNode(int node_id) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  // The target must be serving before repair starts: everything below
  // writes into it.
  {
    std::unique_ptr<rpc::RpcClient> client = AcquireClient(node_id);
    Result<rpc::HeartbeatInfo> hb = client->Heartbeat();
    const bool serving = hb.ok() && hb->serving;
    ReleaseClient(node_id, std::move(client),
                  hb.ok() || !IsTransportError(hb.status()));
    if (!serving) {
      return Status::Unavailable("repair target is not serving");
    }
    ReportNodeOutcome(node_id, true);
  }

  Result<std::unordered_set<std::string>> inventory = InventoryNode(node_id);
  if (!inventory.ok()) return inventory.status();
  std::unordered_set<std::string> present = std::move(inventory).value();

  uint64_t copied = 0;
  Status first_error;
  // Copies the pairs of one peer's page that the target owns but lacks.
  auto copy_page = [&](rpc::RepairPage* page) {
    std::vector<rpc::BatchOp> ops;
    std::vector<std::string> op_tokens;
    for (rpc::RepairPair& pair : page->pairs) {
      const std::vector<int> owners = ReplicasOf(pair.key);
      if (std::find(owners.begin(), owners.end(), node_id) == owners.end()) {
        continue;  // Not this node's responsibility.
      }
      std::string token = InventoryToken(pair.key, pair.version);
      if (present.count(token) != 0) continue;
      rpc::BatchOp op;
      op.version = pair.version;
      op.key = std::move(pair.key);
      op.value = std::move(pair.value);
      ops.push_back(std::move(op));
      op_tokens.push_back(std::move(token));
    }
    if (ops.empty()) return;
    std::unique_ptr<rpc::RpcClient> target_client = AcquireClient(node_id);
    std::vector<Status> statuses;
    Status s = target_client->WriteBatch(ops, &statuses);
    ReleaseClient(node_id, std::move(target_client), !IsTransportError(s));
    if (statuses.size() == ops.size()) {
      for (size_t i = 0; i < statuses.size(); ++i) {
        if (statuses[i].ok()) {
          ++copied;
          present.insert(std::move(op_tokens[i]));
        }
      }
    }
    if (!s.ok() && first_error.ok()) first_error = s;
  };
  for (int peer : groups_[nodes_[node_id]->group]) {
    if (peer == node_id) continue;
    if (health(peer) == NodeHealth::kDown) continue;
    // A failed scan moves on: the next peer may still cover the missing
    // pairs.
    Status s = ScanNode(peer, /*keys_only=*/false, copy_page);
    if (!s.ok() && first_error.ok()) first_error = s;
  }
  repair_pairs_copied_.fetch_add(copied, std::memory_order_relaxed);
  if (copied == 0 && !first_error.ok()) return first_error;
  return copied;
}

Result<uint64_t> MintCoordinator::VerifyNodeComplete(int node_id) {
  if (node_id < 0 || node_id >= num_nodes()) {
    return Status::InvalidArgument("no such node");
  }
  Result<std::unordered_set<std::string>> inventory = InventoryNode(node_id);
  if (!inventory.ok()) return inventory.status();
  const std::unordered_set<std::string> present = std::move(inventory).value();

  std::unordered_set<std::string> missing;
  for (int peer : groups_[nodes_[node_id]->group]) {
    if (peer == node_id) continue;
    if (health(peer) == NodeHealth::kDown) continue;
    Status s = ScanNode(peer, /*keys_only=*/true, [&](rpc::RepairPage* page) {
      for (const rpc::RepairPair& pair : page->pairs) {
        const std::vector<int> owners = ReplicasOf(pair.key);
        if (std::find(owners.begin(), owners.end(), node_id) ==
            owners.end()) {
          continue;
        }
        std::string token = InventoryToken(pair.key, pair.version);
        if (present.count(token) == 0) missing.insert(std::move(token));
      }
    });
    if (!s.ok()) return s;
  }
  return static_cast<uint64_t>(missing.size());
}

}  // namespace directload::mint
