#include "rpc/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace directload::rpc {

namespace {

using Clock = std::chrono::steady_clock;

int RemainingMs(Clock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

/// A connection-level failure worth a reconnect-and-resend; distinct from
/// the server *answering* with an error, and from a broken byte stream.
bool Reconnectable(const Status& s) {
  return s.IsUnavailable() || s.IsIOError();
}

}  // namespace

RpcClient::RpcClient(std::string host, uint16_t port, Options options)
    : host_(std::move(host)),
      port_(port),
      options_(options),
      backoff_rng_(options.backoff_seed) {}

RpcClient::~RpcClient() { Close(); }

Status RpcClient::Connect() {
  MutexLock lock(&mu_);
  return EnsureConnectedLocked();
}

void RpcClient::Close() {
  MutexLock lock(&mu_);
  CloseLocked();
}

void RpcClient::CloseLocked() {
  socket_.Close();
  decoder_ = FrameDecoder();
}

Status RpcClient::EnsureConnectedLocked() {
  if (socket_.valid()) return Status::OK();
  Result<Socket> connected =
      ConnectTo(host_, port_, options_.connect_timeout_ms);
  if (!connected.ok()) return connected.status();
  socket_ = std::move(connected).value();
  decoder_ = FrameDecoder();
  return Status::OK();
}

Status RpcClient::SendLocked(const Frame& frame, int timeout_ms) {
  std::string wire;
  EncodeFrame(frame, &wire);
  return socket_.SendAll(wire, timeout_ms);
}

Result<Frame> RpcClient::ReceiveLocked(int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  Frame frame;
  while (true) {
    Result<bool> got = decoder_.Next(&frame);
    if (!got.ok()) {
      // Framing lost: the stream is useless from here on.
      CloseLocked();
      return got.status();
    }
    if (*got) {
      if (!frame.response) {
        CloseLocked();
        return Status::Protocol("server sent a request frame");
      }
      return frame;
    }
    // An expired deadline still polls once, without waiting, so a zero
    // timeout takes whatever has already arrived.
    char buf[16 * 1024];
    Result<size_t> n =
        socket_.RecvSome(buf, sizeof(buf), RemainingMs(deadline));
    if (!n.ok()) return n.status();
    if (*n == 0) {
      CloseLocked();
      return Status::Unavailable("server closed the connection");
    }
    decoder_.Append(buf, *n);
  }
}

Status RpcClient::Send(const Frame& request) {
  MutexLock lock(&mu_);
  Status s = EnsureConnectedLocked();
  if (!s.ok()) return s;
  return SendLocked(request, options_.request_timeout_ms);
}

Result<Frame> RpcClient::Receive() {
  return Receive(options_.request_timeout_ms);
}

Result<Frame> RpcClient::Receive(int timeout_ms) {
  MutexLock lock(&mu_);
  if (!socket_.valid()) return Status::Unavailable("not connected");
  return ReceiveLocked(timeout_ms);
}

std::vector<size_t> RpcClient::WaitReadable(
    const std::vector<RpcClient*>& clients, int timeout_ms) {
  std::vector<size_t> ready;
  std::vector<int> fds;
  for (size_t i = 0; i < clients.size(); ++i) {
    RpcClient* client = clients[i];
    MutexLock lock(&client->mu_);
    if (!client->socket_.valid() || client->decoder_.frame_ready()) {
      ready.push_back(i);
    }
    fds.push_back(client->socket_.fd());
  }
  if (!ready.empty()) return ready;
  return PollReadable(fds, timeout_ms);
}

int RpcClient::BackoffDelayMs(int attempt) {
  int64_t base = options_.backoff_initial_ms;
  for (int i = 1; i < attempt && base < options_.backoff_max_ms; ++i) {
    base *= 2;
  }
  base = std::min<int64_t>(base, options_.backoff_max_ms);
  if (base <= 0) return 0;
  uint64_t jitter;
  {
    MutexLock lock(&mu_);
    jitter = backoff_rng_.Uniform(static_cast<uint64_t>(base / 2 + 1));
  }
  return static_cast<int>(base - base / 2 + static_cast<int64_t>(jitter));
}

Result<Frame> RpcClient::Call(Frame request) {
  request.request_id = NextRequestId();
  const Clock::time_point budget =
      Clock::now() + std::chrono::milliseconds(options_.retry_budget_ms);
  Status last = Status::Unavailable("no attempt made");
  for (int attempt = 0; attempt <= options_.max_reconnects; ++attempt) {
    if (attempt > 0) {
      // A previous attempt failed at the connection level: back off before
      // hammering the server again, unless the call's retry budget cannot
      // cover the delay — then surface the last error rather than sleep
      // past the caller's patience.
      const int delay = BackoffDelayMs(attempt);
      if (RemainingMs(budget) <= delay) return last;
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    MutexLock lock(&mu_);
    last = EnsureConnectedLocked();
    if (!last.ok()) continue;  // Reconnect on the next attempt.
    last = SendLocked(request, options_.request_timeout_ms);
    if (!last.ok()) {
      if (Reconnectable(last)) {
        CloseLocked();
        continue;
      }
      return last;
    }
    // Drain responses until ours: a reconnect may leave stale responses to
    // abandoned requests ahead of it in the stream.
    while (true) {
      Result<Frame> response = ReceiveLocked(options_.request_timeout_ms);
      if (!response.ok()) {
        last = response.status();
        break;
      }
      if (response->request_id == request.request_id) return response;
    }
    if (last.IsTimedOut()) return last;  // The deadline is spent; stop.
    if (Reconnectable(last)) {
      CloseLocked();
      continue;
    }
    return last;
  }
  return last;
}

Result<std::string> RpcClient::Get(const Slice& key, uint64_t version) {
  Frame request;
  request.op = Opcode::kGet;
  request.version = version;
  request.key = key.ToString();
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  Status s = StatusFromWire(response->status, response->value);
  if (!s.ok()) return s;
  return std::move(response->value);
}

Result<std::string> RpcClient::GetLatest(const Slice& key) {
  Frame request;
  request.op = Opcode::kGet;
  request.latest = true;
  request.key = key.ToString();
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  Status s = StatusFromWire(response->status, response->value);
  if (!s.ok()) return s;
  return std::move(response->value);
}

Status RpcClient::Put(const Slice& key, uint64_t version, const Slice& value,
                      bool dedup) {
  Frame request;
  request.op = Opcode::kPut;
  request.dedup = dedup;
  request.version = version;
  request.key = key.ToString();
  request.value = value.ToString();
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  return StatusFromWire(response->status, response->value);
}

Status RpcClient::Del(const Slice& key, uint64_t version) {
  Frame request;
  request.op = Opcode::kDel;
  request.version = version;
  request.key = key.ToString();
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  return StatusFromWire(response->status, response->value);
}

Status RpcClient::WriteBatch(const std::vector<BatchOp>& ops,
                             std::vector<Status>* statuses) {
  if (statuses != nullptr) statuses->clear();
  if (ops.empty()) return Status::OK();
  Frame request;
  request.op = Opcode::kWriteBatch;
  EncodeBatchOps(ops, &request.value);
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  std::vector<Status> decoded;
  Status parse = DecodeBatchStatuses(response->value, &decoded);
  if (!parse.ok()) {
    // The server rejected the frame before executing any op (for example a
    // malformed batch payload): the value field carries the error message,
    // not per-op statuses.
    if (response->status == StatusCode::kOk) return parse;
    return StatusFromWire(response->status, response->value);
  }
  if (decoded.size() != ops.size()) {
    return Status::Protocol("batch response op count mismatch");
  }
  Status overall;
  for (const Status& s : decoded) {
    if (overall.ok() && !s.ok()) overall = s;
  }
  if (statuses != nullptr) *statuses = std::move(decoded);
  return overall;
}

Result<std::string> RpcClient::Stats() {
  Frame request;
  request.op = Opcode::kStats;
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  Status s = StatusFromWire(response->status, response->value);
  if (!s.ok()) return s;
  return std::move(response->value);
}

Status RpcClient::Ping() {
  Frame request;
  request.op = Opcode::kPing;
  request.value = "ping";
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  return StatusFromWire(response->status, response->value);
}

Result<HeartbeatInfo> RpcClient::Heartbeat() {
  Frame request;
  request.op = Opcode::kHeartbeat;
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  Status s = StatusFromWire(response->status, response->value);
  if (!s.ok()) return s;
  HeartbeatInfo info;
  Status parse = DecodeHeartbeatInfo(response->value, &info);
  if (!parse.ok()) return parse;
  return info;
}

Result<RepairPage> RpcClient::RepairScan(const RepairScanRequest& req) {
  Frame request;
  request.op = Opcode::kRepairScan;
  EncodeRepairScanRequest(req, &request.value);
  Result<Frame> response = Call(std::move(request));
  if (!response.ok()) return response.status();
  Status s = StatusFromWire(response->status, response->value);
  if (!s.ok()) return s;
  RepairPage page;
  Status parse = DecodeRepairPage(response->value, &page);
  if (!parse.ok()) return parse;
  return page;
}

}  // namespace directload::rpc
