#include "server/kv_server.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>

#include "bifrost/wire/slice_codec.h"
#include "common/failpoint.h"
#include "common/logging.h"
#include "server/bulk_ingest.h"

namespace directload::server {

namespace {

// Server-side failpoints. Both sit before the request is acknowledged in
// any way, so firing them can never lose an acked write: a dropped accept
// looks like a dial race, a failed admission is answered kBusy and the
// client retries.
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_accept, "server_accept");
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_enqueue, "server_enqueue");

// Node-role failpoints. A failed heartbeat makes a healthy node look dead
// to the coordinator's detector (false-suspect drills); a failed repair
// scan interrupts re-replication mid-stream, which the coordinator must
// survive by resuming from its cursor. Neither touches stored data.
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_heartbeat, "server_heartbeat");
DIRECTLOAD_FAILPOINT_DEFINE(fp_server_repair_scan, "server_repair_scan");

/// How long a worker's epoll wait lasts before it re-checks the shutdown
/// flag. Bounds drain latency without burning CPU; also the period of
/// housekeeping and the accept back-off.
constexpr int kPollSliceMs = 50;

/// Deadline for writing one response onto a connection. A peer that stops
/// reading for this long forfeits the response and the connection (the
/// socket send buffer plus this budget is far more slack than a live
/// client ever needs).
constexpr int kWriteTimeoutMs = 5000;

/// A worker executes up to this many consecutive single-op write requests
/// (PUT/DEL) decoded from one read as one cluster write batch — the
/// serving-layer half of group commit: one engine Write per involved node
/// instead of one per request, each request still answered individually.
constexpr size_t kMaxWriteBatch = 32;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A single-op write request a worker may fold into a batched run.
bool IsWriteOp(const rpc::Frame& frame) {
  return frame.op == rpc::Opcode::kPut || frame.op == rpc::Opcode::kDel;
}

}  // namespace

/// Per-connection state. EPOLLONESHOT hands the read side to one worker
/// per wake-up; that worker uses `decoder` under `read_mu`,
/// which is never contended and makes the hand-over between workers
/// visible to race detectors. Any worker executing the connection's
/// requests may send on the socket; `write_mu` serializes the senders so
/// pipelined responses cannot interleave bytes.
struct KvServer::Connection : std::enable_shared_from_this<Connection> {
  Connection(rpc::Socket s, const KvServerOptions& options,
             std::atomic<uint64_t>* send_failures)
      : socket(std::move(s)),
        send_failures(send_failures),
        idle_deadline_ms(NowMs() + options.idle_timeout_ms) {}

  /// Encodes and writes one frame. A send failure means the peer is gone
  /// or stopped reading: the response is dropped — counted, not silent —
  /// and the socket shut down, so later responses fail fast and the read
  /// side's next owner tears the connection down.
  void Write(const rpc::Frame& frame) {
    std::string wire;
    rpc::EncodeFrame(frame, &wire);
    MutexLock lock(&write_mu);
    if (!socket.SendAll(wire, kWriteTimeoutMs).ok()) {
      send_failures->fetch_add(1, std::memory_order_relaxed);
      ::shutdown(socket.fd(), SHUT_RDWR);
    }
  }

  rpc::Socket socket;
  Mutex read_mu{LockRank::kServerConnRead, "Connection::read_mu"};
  rpc::FrameDecoder decoder GUARDED_BY(read_mu);
  Mutex write_mu{LockRank::kServerConnWrite, "Connection::write_mu"};
  std::atomic<uint64_t>* send_failures;  // Server-owned counter.
  /// Steady-clock ms after which housekeeping shuts the connection down
  /// (INT64_MAX once it has); pushed back by each decoded request.
  std::atomic<int64_t> idle_deadline_ms;

  /// Decoder frame bound, re-applied by the read side before each decode
  /// pass. Raised to rpc::kMaxBulkBodyBytes by the kBulkBegin handler
  /// *before* its ack goes out, so by the time the client can legally send
  /// an oversized slice the read side already observes the new bound. The
  /// raise persists for the rest of the connection (a loader typically
  /// streams several versions back to back); connections that never open a
  /// bulk session keep the tight rpc::kMaxBodyBytes bound.
  std::atomic<size_t> frame_limit{rpc::kMaxBodyBytes};
  /// The connection's bulk-ingest session, if one is open. Workers copy the
  /// pointer out under bulk_mu and call the session unlocked.
  Mutex bulk_mu{LockRank::kServerBulk, "Connection::bulk_mu"};
  std::shared_ptr<BulkIngestSession> bulk GUARDED_BY(bulk_mu);

  std::shared_ptr<BulkIngestSession> Bulk() {
    MutexLock lock(&bulk_mu);
    return bulk;
  }

  /// Rolls back whatever the open session staged but never committed — on
  /// kBulkAbort, and at teardown, so a loader that crashed mid-stream
  /// leaves no trace. (Abort waits out a commit already executing on a
  /// worker and then no-ops if it won.)
  void AbortBulk() {
    std::shared_ptr<BulkIngestSession> orphan;
    {
      MutexLock lock(&bulk_mu);
      orphan = std::move(bulk);
    }
    if (orphan != nullptr) orphan->Abort();
  }
};

KvServer::KvServer(mint::MintCluster* cluster, KvServerOptions options)
    : cluster_(cluster), options_(std::move(options)) {}

KvServer::~KvServer() { Shutdown(); }

Status KvServer::Start() {
  MutexLock lock(&mu_);
  if (running_) return Status::InvalidArgument("server is already running");

  Result<rpc::Socket> listener =
      rpc::Listen(options_.host, options_.port, /*backlog=*/128);
  if (!listener.ok()) return listener.status();
  Result<uint16_t> port = rpc::LocalPort(*listener);
  if (!port.ok()) return port.status();
  epoll_ = rpc::Socket(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_.valid()) return Status::IOError("epoll_create1 failed");
  listener_ = std::move(listener).value();
  port_ = *port;
  // Non-blocking, so a worker can accept until the backlog is empty.
  ::fcntl(listener_.fd(), F_SETFL,
          ::fcntl(listener_.fd(), F_GETFL) | O_NONBLOCK);
  if (!Arm(EPOLL_CTL_ADD, listener_.fd(), nullptr)) {
    return Status::IOError("cannot watch the listener");
  }

  draining_.store(false);
  int num_workers = options_.num_workers;
  if (num_workers <= 0) {
    num_workers = std::max(2u, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back(&KvServer::WorkerLoop, this);
  }
  running_ = true;
  return Status::OK();
}

void KvServer::Shutdown() {
  {
    MutexLock lock(&mu_);
    if (!running_) return;
    running_ = false;
  }
  // Stop reading. A worker finishes the wake-up it is in — every frame it
  // decoded is executed and acknowledged — before it sees the flag: that
  // is the drain guarantee, every acknowledged write reached the cluster.
  draining_.store(true);
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();

  std::unordered_set<std::shared_ptr<Connection>> connections;
  {
    MutexLock lock(&mu_);
    connections.swap(connections_);
  }
  for (const std::shared_ptr<Connection>& conn : connections) conn->AbortBulk();
  connections.clear();  // Closes the sockets.
  epoll_.Close();
  listener_.Close();
}

bool KvServer::Arm(int op, int fd, Connection* tag) {
  epoll_event event{};
  event.events = EPOLLIN | EPOLLONESHOT;
  event.data.ptr = tag;
  return ::epoll_ctl(epoll_.fd(), op, fd, &event) == 0;
}

void KvServer::WorkerLoop() {
  std::vector<rpc::Frame> frames;
  while (!draining_.load()) {
    // One event per wait, so ready connections spread over the workers.
    epoll_event event;
    if (::epoll_wait(epoll_.fd(), &event, 1, kPollSliceMs) == 1) {
      if (event.data.ptr == nullptr) {
        AcceptReady();
      } else {
        ServeReady(static_cast<Connection*>(event.data.ptr), &frames);
      }
    }
    Housekeep();
  }
}

void KvServer::AcceptReady() {
  while (true) {
    Result<rpc::Socket> accepted = rpc::AcceptNow(listener_);
    if (!accepted.ok()) {
      if (accepted.status().IsTimedOut()) break;  // Backlog drained.
      // Out of descriptors or memory (EMFILE, ENFILE, ENOBUFS, ENOMEM):
      // the connection stays queued and the listener readable, so
      // re-arming now would spin. Housekeeping re-arms it instead.
      accept_paused_.store(true);
      return;
    }
#if DIRECTLOAD_FAILPOINTS_COMPILED
    if (fp_server_accept->armed() && !fp_server_accept->MaybeFail().ok()) {
      // Drop the fresh connection on the floor — to the client this is a
      // peer that accepted and immediately reset, the classic overloaded
      // front-end symptom.
      continue;
    }
#endif
    counters_.connections_accepted.fetch_add(1);
    auto conn = std::make_shared<Connection>(
        std::move(accepted).value(), options_,
        &counters_.response_send_failures);
    MutexLock lock(&mu_);
    connections_.insert(conn);
    if (!Arm(EPOLL_CTL_ADD, conn->socket.fd(), conn.get())) {
      connections_.erase(conn);  // Never watched: close it right away.
    }
  }
  Arm(EPOLL_CTL_MOD, listener_.fd(), nullptr);
}

void KvServer::ServeReady(Connection* tagged,
                          std::vector<rpc::Frame>* frames) {
  // Until this worker re-arms or unregisters it, the connection is ours
  // and the registry keeps it alive.
  const std::shared_ptr<Connection> conn = tagged->shared_from_this();
  frames->clear();
  bool alive = true;
  {
    MutexLock lock(&conn->read_mu);
    // One read per wake-up: a connection with more pending fires again
    // once re-armed, so its next bytes go to the next free worker.
    char buf[32 * 1024];
    Result<size_t> n = conn->socket.RecvNow(buf, sizeof(buf));
    if (!n.ok() || *n == 0) {
      // Nothing to read yet (a spurious wake-up), or EOF / reset — also
      // how a socket shut down by housekeeping or Write ends.
      alive = !n.ok() && n.status().IsTimedOut();
    } else {
      // The bulk-begin handler may have negotiated the frame bound up since
      // the last pass; the decoder applies the new bound from the next
      // frame.
      conn->decoder.set_max_body_bytes(
          conn->frame_limit.load(std::memory_order_acquire));
      conn->decoder.Append(buf, *n);
    }
    while (alive) {
      rpc::Frame frame;
      Result<bool> got = conn->decoder.Next(&frame);
      if (!got.ok()) {
        // Framing is lost: report the reason on a best-effort error frame
        // (request id 0 — the broken stream no longer names one) and tear
        // the connection down.
        counters_.stream_errors.fetch_add(1);
        rpc::Frame error;
        error.op = rpc::Opcode::kPing;
        error.response = true;
        error.status = got.status().code();
        error.value = got.status().ToString();
        conn->Write(error);
        alive = false;
      } else if (!*got) {
        break;  // Need more bytes.
      } else if (frame.response) {
        counters_.stream_errors.fetch_add(1);
        conn->Write(rpc::MakeResponse(
            frame, Status::Protocol("client sent a response frame")));
        alive = false;
      } else {
#if DIRECTLOAD_FAILPOINTS_COMPILED
        if (fp_server_enqueue->armed() &&
            !fp_server_enqueue->MaybeFail().ok()) {
          // Rejected before execution, so never applied: the client retries.
          counters_.requests_rejected_busy.fetch_add(1);
          conn->Write(rpc::MakeResponse(
              frame, Status::Busy("request rejected at admission")));
          continue;
        }
#endif
        frames->push_back(std::move(frame));
      }
    }
  }
  if (!frames->empty()) {
    conn->idle_deadline_ms.store(NowMs() + options_.idle_timeout_ms);
  }
  // Re-arm before executing, so the connection's next pipelined frames
  // (a bulk loader's slices, say) execute on other workers meanwhile.
  if (alive) Arm(EPOLL_CTL_MOD, conn->socket.fd(), conn.get());

  // Group commit at the front end: each run of consecutive single-op
  // writes — a lone one too — executes as one cluster batch, in arrival
  // order.
  for (size_t i = 0, end; i < frames->size(); i = end) {
    end = i + 1;
    if (!IsWriteOp((*frames)[i])) {
      conn->Write(Execute(*conn, (*frames)[i]));
      counters_.requests_served.fetch_add(1);
      continue;
    }
    while (end < frames->size() && end - i < kMaxWriteBatch &&
           IsWriteOp((*frames)[end])) {
      ++end;
    }
    ExecuteWriteRun(*conn, std::span(frames->data() + i, end - i));
  }
  if (!alive) {
    // This worker owns the read side and did not re-arm it, so no event
    // can name the connection again. The socket closes once no worker
    // still executes one of its requests.
    {
      MutexLock lock(&mu_);
      connections_.erase(conn);
    }
    conn->AbortBulk();
  }
}

void KvServer::Housekeep() {
  const int64_t now = NowMs();
  int64_t due = next_housekeeping_ms_.load();
  if (now < due ||
      !next_housekeeping_ms_.compare_exchange_strong(due,
                                                     now + kPollSliceMs)) {
    return;  // Not due, or another worker took this pass.
  }
  if (accept_paused_.exchange(false)) {
    Arm(EPOLL_CTL_MOD, listener_.fd(), nullptr);
  }
  MutexLock lock(&mu_);
  for (const std::shared_ptr<Connection>& conn : connections_) {
    int64_t deadline = conn->idle_deadline_ms.load();
    if (now >= deadline &&
        conn->idle_deadline_ms.compare_exchange_strong(deadline, INT64_MAX)) {
      counters_.connections_idle_closed.fetch_add(1);
      ::shutdown(conn->socket.fd(), SHUT_RDWR);
    }
  }
}

void KvServer::ExecuteWriteRun(Connection& conn, std::span<rpc::Frame> run) {
  std::vector<rpc::BatchOp> ops;
  ops.reserve(run.size());
  for (rpc::Frame& frame : run) {
    rpc::BatchOp op;
    op.is_del = frame.op == rpc::Opcode::kDel;
    op.version = frame.version;
    op.dedup = frame.dedup;
    // MakeResponse only reads the scalar fields, so the payload can move.
    op.key = std::move(frame.key);
    op.value = std::move(frame.value);
    ops.push_back(std::move(op));
  }
  std::vector<Status> statuses;
  DL_DISCARD_STATUS("first failing per-op status; each response frame below "
                    "carries its own op's status",
                    cluster_->WriteMany(ops, &statuses));
  for (size_t i = 0; i < run.size(); ++i) {
    conn.Write(rpc::MakeResponse(run[i], statuses[i]));
  }
  counters_.requests_served.fetch_add(run.size());
  if (run.size() > 1) counters_.writes_batched.fetch_add(run.size());
}

rpc::Frame KvServer::Execute(Connection& conn, const rpc::Frame& request) {
  switch (request.op) {
    case rpc::Opcode::kGet: {
      Result<mint::MintCluster::ReadResult> read =
          request.latest ? cluster_->GetLatest(request.key)
                         : cluster_->Get(request.key, request.version);
      if (!read.ok()) return rpc::MakeResponse(request, read.status());
      return rpc::MakeResponse(request, Status::OK(),
                               std::move(read->value));
    }
    case rpc::Opcode::kStats:
      return rpc::MakeResponse(request, Status::OK(), StatsText());
    case rpc::Opcode::kPing:
      return rpc::MakeResponse(request, Status::OK(), request.value);
    case rpc::Opcode::kWriteBatch: {
      std::vector<rpc::BatchOp> ops;
      Status decoded = rpc::DecodeBatchOps(request.value, &ops);
      if (!decoded.ok()) return rpc::MakeResponse(request, decoded);
      std::vector<Status> statuses;
      Status overall = cluster_->WriteMany(ops, &statuses);
      // The response value always carries the per-op statuses; the frame
      // status summarizes them (first non-OK), so a client that only looks
      // at the frame level still sees the batch outcome.
      std::string payload;
      rpc::EncodeBatchStatuses(statuses, &payload);
      rpc::Frame response =
          rpc::MakeResponse(request, Status::OK(), std::move(payload));
      response.status = overall.code();
      return response;
    }
    case rpc::Opcode::kBulkBegin: {
      bifrost::wire::BulkBeginInfo info;
      if (Status s = bifrost::wire::DecodeBulkBegin(request.value, &info);
          !s.ok()) {
        return rpc::MakeResponse(request, s);
      }
      if (info.version != request.version) {
        return rpc::MakeResponse(
            request, Status::InvalidArgument(
                         "begin payload version differs from the frame"));
      }
      auto session =
          std::make_shared<BulkIngestSession>(cluster_, request.version);
      {
        MutexLock lock(&conn.bulk_mu);
        if (conn.bulk != nullptr) {
          return rpc::MakeResponse(
              request,
              Status::Busy("a bulk session is already open on this "
                           "connection"));
        }
        conn.bulk = session;
      }
      if (Status s = cluster_->BulkBegin(request.version); !s.ok()) {
        MutexLock lock(&conn.bulk_mu);
        conn.bulk.reset();
        return rpc::MakeResponse(request, s);
      }
      // Negotiate the frame bound up before the ack is on the wire: once
      // the client sees OK it may send slices up to the bulk bound, and by
      // then the read side observes the raised limit.
      conn.frame_limit.store(rpc::kMaxBulkBodyBytes,
                             std::memory_order_release);
      counters_.bulk_sessions_opened.fetch_add(1);
      return rpc::MakeResponse(request, Status::OK());
    }
    case rpc::Opcode::kBulkSlice: {
      std::shared_ptr<BulkIngestSession> session = conn.Bulk();
      if (session == nullptr) {
        return rpc::MakeResponse(
            request,
            Status::InvalidArgument("no bulk session on this connection"));
      }
      Status s = session->HandleSlice(request.version, request.value);
      if (s.ok()) {
        counters_.bulk_slices_landed.fetch_add(1);
      } else if (s.IsCorruption()) {
        counters_.bulk_checksum_rejects.fetch_add(1);
      }
      return rpc::MakeResponse(request, s);
    }
    case rpc::Opcode::kBulkCommit: {
      std::shared_ptr<BulkIngestSession> session = conn.Bulk();
      if (session == nullptr) {
        return rpc::MakeResponse(
            request,
            Status::InvalidArgument("no bulk session on this connection"));
      }
      uint64_t expected = 0;
      if (Status s = bifrost::wire::DecodeBulkCommit(request.value, &expected);
          !s.ok()) {
        return rpc::MakeResponse(request, s);
      }
      std::string missing;
      Status s = session->Commit(expected, &missing);
      if (s.IsUnavailable() && !missing.empty()) {
        // The repair contract: the ids still outstanding ride the response
        // so the client re-sends exactly those and commits again.
        rpc::Frame response =
            rpc::MakeResponse(request, Status::OK(), std::move(missing));
        response.status = StatusCode::kUnavailable;
        return response;
      }
      if (s.ok()) {
        MutexLock lock(&conn.bulk_mu);
        conn.bulk.reset();
      }
      return rpc::MakeResponse(request, s);
    }
    case rpc::Opcode::kHeartbeat: {
#if DIRECTLOAD_FAILPOINTS_COMPILED
      if (fp_server_heartbeat->armed()) {
        if (Status s = fp_server_heartbeat->MaybeFail(); !s.ok()) {
          return rpc::MakeResponse(request, s);
        }
      }
#endif
      // The probe speaks for this process's node role: node 0 is THE node
      // in a dmint_node process (its cluster is 1 group x 1 node), and the
      // front node of an in-process simulation cluster otherwise.
      rpc::HeartbeatInfo info;
      if (cluster_->num_nodes() > 0) {
        mint::StorageNode* node = cluster_->node(0);
        ReaderLock engine_guard(node->lifecycle_mu());
        if (node->up() && node->db() != nullptr) {
          const bool draining = draining_.load();
          info.serving = !draining;
          info.degraded = draining;
          info.live_entries = node->db()->LiveEntryCount();
        }
      }
      std::string payload;
      rpc::EncodeHeartbeatInfo(info, &payload);
      return rpc::MakeResponse(request, Status::OK(), std::move(payload));
    }
    case rpc::Opcode::kRepairScan: {
#if DIRECTLOAD_FAILPOINTS_COMPILED
      if (fp_server_repair_scan->armed()) {
        if (Status s = fp_server_repair_scan->MaybeFail(); !s.ok()) {
          return rpc::MakeResponse(request, s);
        }
      }
#endif
      rpc::RepairScanRequest scan;
      if (Status s = rpc::DecodeRepairScanRequest(request.value, &scan);
          !s.ok()) {
        return rpc::MakeResponse(request, s);
      }
      if (cluster_->num_nodes() == 0) {
        return rpc::MakeResponse(request,
                                 Status::Unavailable("no node to scan"));
      }
      mint::StorageNode* node = cluster_->node(0);
      ReaderLock engine_guard(node->lifecycle_mu());
      if (!node->up() || node->db() == nullptr) {
        return rpc::MakeResponse(request,
                                 Status::Unavailable("node engine is down"));
      }
      qindb::QinDb* db = node->db();
      const uint32_t max_pairs = std::max<uint32_t>(1, scan.max_pairs);
      rpc::RepairPage page;
      bool full = false;
      size_t budget = 0;
      const uint32_t start_shard = scan.cursor.resume ? scan.cursor.shard : 0;
      for (uint32_t shard = start_shard; shard < db->num_shards() && !full;
           ++shard) {
        // The pin keeps the index alive if GC swaps in a rebuild mid-page.
        const std::shared_ptr<const MemIndex> index = db->memtable(shard);
        MemIndex::Iterator it(index.get());
        if (scan.cursor.resume && shard == scan.cursor.shard) {
          // The cursor names the last pair already returned; skip past it.
          // The index orders versions descending within a key, so "past"
          // is every entry of the cursor key at or above its version.
          const Slice cursor_key(scan.cursor.key);
          it.Seek(cursor_key);
          while (it.Valid() && it.entry()->user_key() == cursor_key &&
                 it.entry()->version >= scan.cursor.version) {
            it.Next();
          }
        }
        for (; it.Valid(); it.Next()) {
          MemEntry* entry = it.entry();
          // Deleted pairs are not copied: a repaired node that never hears
          // of the pair equals one that heard of it and its deletion.
          if (entry->deleted.load(std::memory_order_acquire)) continue;
          rpc::RepairPair pair;
          pair.key = entry->user_key().ToString();
          pair.version = entry->version;
          if (!scan.keys_only) {
            // Resolves the dedup traceback too, so the page carries full
            // values the receiver can store without this node's chain.
            Result<std::string> value = db->Get(pair.key, pair.version);
            if (!value.ok()) continue;  // Collected mid-scan; skip.
            pair.value = std::move(value).value();
          }
          budget += pair.key.size() + pair.value.size() + 16;
          page.pairs.push_back(std::move(pair));
          if (page.pairs.size() >= max_pairs ||
              budget >= rpc::kRepairPageBudgetBytes) {
            page.next.shard = shard;
            page.next.version = page.pairs.back().version;
            page.next.key = page.pairs.back().key;
            page.next.resume = true;
            full = true;
            break;
          }
        }
      }
      page.done = !full;
      std::string payload;
      rpc::EncodeRepairPage(page, &payload);
      return rpc::MakeResponse(request, Status::OK(), std::move(payload));
    }
    case rpc::Opcode::kBulkAbort:
      conn.AbortBulk();
      return rpc::MakeResponse(request, Status::OK());  // Idempotent.
    case rpc::Opcode::kPut:
    case rpc::Opcode::kDel:
      break;  // Every write runs through ExecuteWriteRun.
  }
  return rpc::MakeResponse(request, Status::Protocol("unknown opcode"));
}

std::string KvServer::StatsText() {
  char line[512];
  std::string out;
  std::snprintf(line, sizeof(line),
                "server: accepted=%llu idle_closed=%llu served=%llu "
                "busy_rejected=%llu stream_errors=%llu writes_batched=%llu "
                "send_failures=%llu\n",
                (unsigned long long)counters_.connections_accepted.load(),
                (unsigned long long)counters_.connections_idle_closed.load(),
                (unsigned long long)counters_.requests_served.load(),
                (unsigned long long)counters_.requests_rejected_busy.load(),
                (unsigned long long)counters_.stream_errors.load(),
                (unsigned long long)counters_.writes_batched.load(),
                (unsigned long long)counters_.response_send_failures.load());
  out += line;
  std::snprintf(line, sizeof(line),
                "bulk: sessions=%llu slices_landed=%llu checksum_rejects=%llu\n",
                (unsigned long long)counters_.bulk_sessions_opened.load(),
                (unsigned long long)counters_.bulk_slices_landed.load(),
                (unsigned long long)counters_.bulk_checksum_rejects.load());
  out += line;
  // Every node opens its engine with the same options, so node 0's resolved
  // shard count speaks for the cluster (0 = no node has an open engine).
  // Engines are read under each node's lifecycle lock, as the heartbeat
  // does: FailNode frees a node's engine under the exclusive hold.
  unsigned engine_shards = 0;
  if (cluster_->num_nodes() > 0) {
    mint::StorageNode* node = cluster_->node(0);
    ReaderLock engine_guard(node->lifecycle_mu());
    if (node->up() && node->db() != nullptr) {
      engine_shards = node->db()->num_shards();
    }
  }
  std::snprintf(line, sizeof(line),
                "cluster: nodes=%d engine_shards=%u user_bytes=%llu "
                "disk_bytes=%llu\n",
                cluster_->num_nodes(), engine_shards,
                (unsigned long long)cluster_->TotalUserBytesIngested(),
                (unsigned long long)cluster_->TotalDiskBytes());
  out += line;
  // Block-cache counters, summed across every local node's engine.
  qindb::EngineCacheTotals cache;
  for (int n = 0; n < cluster_->num_nodes(); ++n) {
    mint::StorageNode* node = cluster_->node(n);
    ReaderLock engine_guard(node->lifecycle_mu());
    if (!node->up() || node->db() == nullptr) continue;
    const qindb::EngineCacheTotals t = node->db()->CacheTotals();
    cache.cache_hits += t.cache_hits;
    cache.cache_misses += t.cache_misses;
    cache.cache_inserts += t.cache_inserts;
    cache.cache_admission_rejects += t.cache_admission_rejects;
    cache.cache_evicted_bytes += t.cache_evicted_bytes;
    cache.cache_charged_bytes += t.cache_charged_bytes;
  }
  std::snprintf(line, sizeof(line),
                "cache: hits=%llu misses=%llu inserts=%llu "
                "admission_rejects=%llu evicted_bytes=%llu "
                "charged_bytes=%llu\n",
                (unsigned long long)cache.cache_hits,
                (unsigned long long)cache.cache_misses,
                (unsigned long long)cache.cache_inserts,
                (unsigned long long)cache.cache_admission_rejects,
                (unsigned long long)cache.cache_evicted_bytes,
                (unsigned long long)cache.cache_charged_bytes);
  out += line;
  return out;
}

}  // namespace directload::server
