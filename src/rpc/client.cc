#include "rpc/client.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace directload::rpc {

namespace {

using Clock = std::chrono::steady_clock;

/// Rounded up, so a wait that times out has reached `until`.
int RemainingMs(Clock::time_point until) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(until - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

/// A connection-level failure worth a reconnect-and-resend; distinct from
/// the server *answering* with an error, and from a broken byte stream.
bool Reconnectable(const Status& s) {
  return s.IsUnavailable() || s.IsIOError();
}

Frame Request(Opcode op, const Slice& key = Slice(), uint64_t version = 0) {
  Frame request;
  request.op = op;
  request.version = version;
  request.key = key.ToString();
  return request;
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

RpcClient::Exchange::Exchange(RpcClient* client, Frame request)
    : client_(client),
      request_(std::move(request)),
      budget_(Clock::now() +
              std::chrono::milliseconds(client->options_.retry_budget_ms)) {
  request_.request_id = client_->NextRequestId();
  Transmit();
}

void RpcClient::Exchange::Transmit() {
  resend_pending_ = false;
  due_ = Clock::now() +
         std::chrono::milliseconds(client_->options_.request_timeout_ms);
  const Status s = client_->Send(request_);
  if (!s.ok()) Fail(s);
}

void RpcClient::Exchange::Poll(Clock::time_point until) {
  while (!done_) {
    Result<Frame> response = client_->Receive(RemainingMs(until));
    if (!response.ok()) {
      // kTimedOut: nothing whole has arrived yet; the stream is intact.
      if (!response.status().IsTimedOut()) Fail(response.status());
      return;
    }
    // Only its own answer ends the exchange.
    if (response->request_id != request_.request_id) continue;
    done_ = true;
    response_ = std::move(response).value();
  }
}

void RpcClient::Exchange::Fail(const Status& s) {
  if (Reconnectable(s)) {
    client_->Close();
    if (resends_ < client_->options_.max_reconnects) {
      // The first resend dials at once: most often the server closed an
      // idle connection, and a fresh one is all it takes. Later ones back
      // off first, unless the retry budget cannot cover the delay: then
      // surface the failure rather than sleep past the caller's patience.
      const int delay = resends_ == 0 ? 0 : client_->BackoffDelayMs(resends_);
      ++resends_;
      if (RemainingMs(budget_) > delay) {
        resend_pending_ = true;
        due_ = Clock::now() + std::chrono::milliseconds(delay);
        return;
      }
    }
  }
  done_ = true;
  status_ = s;
}

Result<Frame> RpcClient::Exchange::TakeResponse() {
  if (!status_.ok()) return status_;
  return std::move(response_);
}

void RpcClient::Exchange::Await(const std::vector<Exchange*>& exchanges,
                                Clock::time_point until) {
  std::vector<Exchange*> sent;  // Sent and waiting for their responses.
  std::vector<RpcClient*> clients;
  bool open = false;
  for (Exchange* x : exchanges) {
    if (x->done_) continue;
    open = true;
    until = std::min(until, x->due_);
    if (x->resend_pending_) continue;
    sent.push_back(x);
    clients.push_back(x->client_);
  }
  if (!open) return;
  if (sent.size() == 1) {
    sent[0]->Poll(until);  // One connection: its receive is the wait.
  } else if (!sent.empty()) {
    for (size_t i : WaitReadable(clients, RemainingMs(until))) {
      sent[i]->Poll(Clock::now());
    }
  } else {
    std::this_thread::sleep_until(until);
  }
  const Clock::time_point now = Clock::now();
  for (Exchange* x : exchanges) {
    if (x->done_ || now < x->due_) continue;
    if (x->resend_pending_) {
      x->Transmit();
    } else {
      x->done_ = true;
      x->status_ = Status::TimedOut("request deadline expired");
    }
  }
}

Result<std::string> Unwrap(Result<Frame> response) {
  if (!response.ok()) return response.status();
  Status s = StatusFromWire(response->status, response->value);
  if (!s.ok()) return s;
  return std::move(response->value);
}

Result<Frame> RpcClient::Call(Frame request) {
  MutexLock serial(&call_mu_);
  Exchange x(this, std::move(request));
  while (!x.done()) Exchange::Await({&x}, Exchange::Clock::time_point::max());
  return x.TakeResponse();
}

Result<std::string> RpcClient::Get(const Slice& key, uint64_t version) {
  return Unwrap(Call(Request(Opcode::kGet, key, version)));
}

Result<std::string> RpcClient::GetLatest(const Slice& key) {
  Frame request = Request(Opcode::kGet, key);
  request.latest = true;
  return Unwrap(Call(std::move(request)));
}

Status RpcClient::Put(const Slice& key, uint64_t version, const Slice& value,
                      bool dedup) {
  Frame request = Request(Opcode::kPut, key, version);
  request.dedup = dedup;
  request.value = value.ToString();
  return Unwrap(Call(std::move(request))).status();
}

Status RpcClient::Del(const Slice& key, uint64_t version) {
  return Unwrap(Call(Request(Opcode::kDel, key, version))).status();
}

Status RpcClient::WriteBatch(const std::vector<BatchOp>& ops,
                             std::vector<Status>* statuses) {
  if (statuses != nullptr) statuses->clear();
  if (ops.empty()) return Status::OK();
  Frame request = Request(Opcode::kWriteBatch);
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
  return Unwrap(Call(Request(Opcode::kStats)));
}

Status RpcClient::Ping() {
  Frame request = Request(Opcode::kPing);
  request.value = "ping";
  return Unwrap(Call(std::move(request))).status();
}

Result<HeartbeatInfo> RpcClient::Heartbeat() {
  Result<std::string> value = Unwrap(Call(Request(Opcode::kHeartbeat)));
  if (!value.ok()) return value.status();
  HeartbeatInfo info;
  if (Status s = DecodeHeartbeatInfo(*value, &info); !s.ok()) return s;
  return info;
}

Result<RepairPage> RpcClient::RepairScan(const RepairScanRequest& req) {
  Frame request = Request(Opcode::kRepairScan);
  EncodeRepairScanRequest(req, &request.value);
  Result<std::string> value = Unwrap(Call(std::move(request)));
  if (!value.ok()) return value.status();
  RepairPage page;
  if (Status s = DecodeRepairPage(*value, &page); !s.ok()) return s;
  return page;
}

}  // namespace directload::rpc
