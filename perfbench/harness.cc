#include "harness.h"

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "bifrost/wire/slice_codec.h"
#include "common/hash.h"
#include "common/thread_annotations.h"
#include "rpc/client.h"
#include "rpc/socket.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Time and samples
// ---------------------------------------------------------------------------

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo);
}

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  times_.insert(times_.end(), other.times_.begin(), other.times_.end());
}

double Samples::WindowedPercentile(double p, int64_t origin_ns,
                                   int64_t window_ns,
                                   size_t min_count) const {
  std::map<int64_t, Samples> windows;
  for (size_t i = 0; i < times_.size() && i < values_.size(); ++i) {
    if (times_[i] < origin_ns) continue;
    windows[(times_[i] - origin_ns) / window_ns].Add(values_[i]);
  }
  std::vector<double> per_window;
  for (const auto& [index, window] : windows) {
    if (window.count() >= min_count) {
      per_window.push_back(window.Percentile(p));
    }
  }
  return per_window.empty() ? Percentile(p) : Median(per_window);
}

double Median(std::vector<double> values) {
  Samples s;
  for (double v : values) s.Add(v);
  return s.Percentile(50);
}

double PeakRssMb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::Add(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  if (!std::isfinite(value)) value = 0;
  entries_.push_back(Entry{name, value, unit, samples});
}

void Report::Print(bool correct, uint64_t attempted, uint64_t failed) const {
  for (const Entry& e : entries_) {
    if (e.samples > 0) {
      std::printf("metric %-40s %16.6f %-8s samples=%llu\n", e.name.c_str(),
                  e.value, e.unit.c_str(), (unsigned long long)e.samples);
    } else {
      std::printf("metric %-40s %16.6f %-8s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < entries_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entries_[i].value);
    if (i > 0) json += ", ";
    json += "\"" + entries_[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + entries_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------------

OpStream::OpStream(const MixOptions& mix, uint64_t seed, uint32_t stream)
    : mix_(mix),
      stream_(stream),
      rng_(seed * 0x9e3779b97f4a7c15ull + stream * 0x632be59bd9b4e019ull + 1),
      read_zipf_(mix.read_keys, mix.theta, seed * 31 + stream * 7 + 3),
      put_zipf_(mix.put_keys, mix.theta, seed * 37 + stream * 11 + 5) {}

Op OpStream::Next() {
  Op op;
  if (static_cast<int>(rng_.Uniform(100)) < mix_.put_pct) {
    op.kind = OpKind::kPut;
    op.key = static_cast<uint32_t>(put_zipf_.Next());
    op.version = mix_.version_base + puts_++ * kVersionStride + stream_;
    return op;
  }
  if (static_cast<int>(rng_.Uniform(100)) < mix_.absent_pct_of_reads) {
    op.kind = OpKind::kAbsentRead;
    op.key = static_cast<uint32_t>(rng_.Uniform(mix_.read_keys));
    return op;
  }
  op.kind = OpKind::kRead;
  op.key = static_cast<uint32_t>(read_zipf_.Next());
  return op;
}

// ---------------------------------------------------------------------------
// Values and oracles
// ---------------------------------------------------------------------------

std::string MakeValue(const std::string& key, uint64_t version, int bytes) {
  std::string value = key + "#" + std::to_string(version) + "#";
  uint64_t state = Hash64(Slice(key), version);
  while (static_cast<int>(value.size()) < bytes) {
    state += 0x9e3779b97f4a7c15ull;  // splitmix64
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    for (int i = 0; i < 8 && static_cast<int>(value.size()) < bytes; ++i) {
      value.push_back(static_cast<char>('a' + ((z >> (i * 8)) & 0xff) % 26));
    }
  }
  return value;
}

uint64_t ParseVersion(const std::string& key, const std::string& value) {
  if (value.size() < key.size() + 3 ||
      value.compare(0, key.size(), key) != 0 || value[key.size()] != '#') {
    return 0;
  }
  uint64_t version = 0;
  for (size_t i = key.size() + 1; i < value.size(); ++i) {
    if (value[i] == '#') return version;
    if (value[i] < '0' || value[i] > '9') return 0;
    version = version * 10 + static_cast<uint64_t>(value[i] - '0');
  }
  return 0;
}

std::string Oracle::AbsentKey(uint32_t idx) const {
  return "absent:" + std::to_string(idx);
}

namespace {

void AtomicMax(std::atomic<uint64_t>* slot, uint64_t value) {
  uint64_t cur = slot->load(std::memory_order_relaxed);
  while (cur < value && !slot->compare_exchange_weak(cur, value)) {
  }
}

}  // namespace

VersionedKeys::VersionedKeys(std::string prefix, uint32_t keys,
                             int value_bytes, bool allow_stale)
    : prefix_(std::move(prefix)),
      keys_(keys),
      value_bytes_(value_bytes),
      allow_stale_(allow_stale),
      acked_(new std::atomic<uint64_t>[keys]),
      issued_(new std::atomic<uint64_t>[keys]) {
  for (uint32_t i = 0; i < keys; ++i) {
    acked_[i].store(0);
    issued_[i].store(0);
  }
}

std::string VersionedKeys::Key(uint32_t idx) const {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08u", idx);
  return prefix_ + buf;
}

std::string VersionedKeys::PutValue(uint32_t idx, uint64_t version) const {
  return MakeValue(Key(idx), version, value_bytes_);
}

void VersionedKeys::MarkPreloaded() {
  for (uint32_t i = 0; i < keys_; ++i) {
    AtomicMax(&acked_[i], 1);
    AtomicMax(&issued_[i], 1);
  }
}

uint64_t VersionedKeys::BeforeRead(uint32_t idx) {
  return acked_[idx].load(std::memory_order_acquire);
}

Verdict VersionedKeys::CheckRead(uint32_t idx, uint64_t token,
                                 const std::string& value) {
  const std::string key = Key(idx);
  const uint64_t version = ParseVersion(key, value);
  if (version == 0 || version > issued_[idx].load(std::memory_order_acquire) ||
      value != MakeValue(key, version, value_bytes_)) {
    return Verdict::kWrong;
  }
  if (version >= token) return Verdict::kOk;
  return allow_stale_ ? Verdict::kStale : Verdict::kWrong;
}

void VersionedKeys::BeforePut(uint32_t idx, uint64_t version) {
  AtomicMax(&issued_[idx], version);
}

void VersionedKeys::AfterPutAck(uint32_t idx, uint64_t version) {
  AtomicMax(&acked_[idx], version);
}

IndexKeys::IndexKeys(std::vector<std::string> keys, VersionedKeys* put_keys)
    : keys_(std::move(keys)), put_keys_(put_keys) {}

std::string IndexKeys::PutKey(uint32_t idx) const {
  return put_keys_->PutKey(idx);
}

std::string IndexKeys::PutValue(uint32_t idx, uint64_t version) const {
  return put_keys_->PutValue(idx, version);
}

void IndexKeys::BeforePut(uint32_t idx, uint64_t version) {
  put_keys_->BeforePut(idx, version);
}

void IndexKeys::AfterPutAck(uint32_t idx, uint64_t version) {
  put_keys_->AfterPutAck(idx, version);
}

uint64_t IndexKeys::BeforeRead(uint32_t /*idx*/) {
  return committed_.load(std::memory_order_acquire);
}

Verdict IndexKeys::CheckRead(uint32_t idx, uint64_t token,
                             const std::string& value) {
  const uint64_t newest = started_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> guard(mu_);
  for (const auto& data : recent_) {
    if (data->version >= token && data->version <= newest &&
        data->values[idx] == value) {
      return Verdict::kOk;
    }
  }
  return Verdict::kWrong;
}

void IndexKeys::LoadStarting(std::shared_ptr<const VersionData> data) {
  const uint64_t version = data->version;
  {
    std::lock_guard<std::mutex> guard(mu_);
    recent_.push_back(std::move(data));
    // Two committed versions plus the one loading cover every read window.
    if (recent_.size() > 3) recent_.erase(recent_.begin());
  }
  started_.store(version, std::memory_order_release);
}

void IndexKeys::Committed(uint64_t version) {
  committed_.store(version, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  wrong += other.wrong;
  retries += other.retries;
  max_tries = std::max(max_tries, other.max_tries);
  busy += other.busy;
  read_timeouts += other.read_timeouts;
  stale += other.stale;
  reads += other.reads;
  read_us.Merge(other.read_us);
  write_us.Merge(other.write_us);
  lag_us.Merge(other.lag_us);
  acked.insert(acked.end(), other.acked.begin(), other.acked.end());
  if (first_error.empty()) first_error = other.first_error;
}

namespace {

void Fail(Tally* tally, bool wrong, const std::string& why) {
  ++tally->failed;
  if (wrong) ++tally->wrong;
  if (tally->first_error.empty()) tally->first_error = why;
}

/// Counts a transient answer by cause.
void CountTransient(StatusCode status, const std::string& message,
                    Tally* tally) {
  if (status == StatusCode::kBusy) ++tally->busy;
  if (message.find("exceeded read timeout") != std::string::npos) {
    ++tally->read_timeouts;
  }
}

}  // namespace

bool IsTransient(StatusCode code) {
  return code == StatusCode::kBusy || code == StatusCode::kUnavailable ||
         code == StatusCode::kTimedOut;
}

int64_t RetryBackoffNs(int tries) {
  // 1, 2, 4, ... 256 ms, then every 256 ms: the tries span 9.7 s. On a
  // slowed host the server's request queue stayed full for about a second
  // during version drops (METRICS.md, known defects).
  return 1'000'000ll << std::min(tries - 1, 8);
}

void SleepBackoff(int tries) {
  std::this_thread::sleep_for(std::chrono::nanoseconds(RetryBackoffNs(tries)));
}

void BackOff(const Status& status, int tries, Tally* tally) {
  ++tally->retries;
  CountTransient(status.code(), status.message(), tally);
  SleepBackoff(tries);
}

bool Judge(Oracle* oracle, const Op& op, uint64_t token, StatusCode status,
           const std::string& message, const std::string& value,
           double latency_us, int tries, Tally* tally) {
  if (IsTransient(status) && tries < kMaxTries) {
    ++tally->retries;
    CountTransient(status, message, tally);
    return true;
  }
  ++tally->attempted;
  tally->max_tries = std::max(tally->max_tries, tries);
  const int64_t now = NowNs();
  if (op.kind == OpKind::kPut) {
    tally->write_us.Add(latency_us, now);
  } else {
    ++tally->reads;
    tally->read_us.Add(latency_us, now);
  }
  if (IsTransient(status)) {
    CountTransient(status, message, tally);
    Fail(tally, false, "still transient after retries: " + message);
    return false;
  }
  switch (op.kind) {
    case OpKind::kPut:
      if (status != StatusCode::kOk) {
        Fail(tally, false, "put: " + message);
        return false;
      }
      oracle->AfterPutAck(op.key, op.version);
      tally->acked.push_back(AckedPut{op.key, op.version});
      return false;
    case OpKind::kAbsentRead:
      if (status == StatusCode::kNotFound) return false;
      Fail(tally, status == StatusCode::kOk,
           status == StatusCode::kOk ? "absent key answered a value"
                                     : "absent read: " + message);
      return false;
    case OpKind::kRead:
      break;
  }
  if (status == StatusCode::kNotFound) {
    Fail(tally, true, "unexpected NotFound for " + oracle->ReadKey(op.key));
    return false;
  }
  if (status != StatusCode::kOk) {
    Fail(tally, false, "read: " + message);
    return false;
  }
  switch (oracle->CheckRead(op.key, token, value)) {
    case Verdict::kOk:
      return false;
    case Verdict::kStale:
      ++tally->stale;
      return false;
    case Verdict::kWrong:
      Fail(tally, true, "wrong value for " + oracle->ReadKey(op.key));
      return false;
  }
  return false;
}

rpc::Frame MakeRequest(Oracle* oracle, const Op& op, uint64_t request_id) {
  rpc::Frame frame;
  frame.request_id = request_id;
  switch (op.kind) {
    case OpKind::kPut:
      frame.op = rpc::Opcode::kPut;
      frame.key = oracle->PutKey(op.key);
      frame.version = op.version;
      frame.value = oracle->PutValue(op.key, op.version);
      break;
    case OpKind::kAbsentRead:
      frame.op = rpc::Opcode::kGet;
      frame.latest = true;
      frame.key = oracle->AbsentKey(op.key);
      break;
    case OpKind::kRead:
      frame.op = rpc::Opcode::kGet;
      frame.latest = true;
      frame.key = oracle->ReadKey(op.key);
      break;
  }
  return frame;
}

namespace {

/// Token for the oracle, taken just before the op is sent.
uint64_t BeforeSend(Oracle* oracle, const Op& op) {
  if (op.kind == OpKind::kPut) {
    oracle->BeforePut(op.key, op.version);
    return 0;
  }
  return op.kind == OpKind::kRead ? oracle->BeforeRead(op.key) : 0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Client loops
// ---------------------------------------------------------------------------

void RunOpenLoop(uint16_t port, double rate, int64_t start_ns,
                 int64_t end_ns, OpStream stream, Oracle* oracle,
                 Tally* tally) {
  Result<rpc::Socket> connected = rpc::ConnectTo("127.0.0.1", port, 2000);
  if (!connected.ok()) {
    Fail(tally, false, "connect: " + connected.status().ToString());
    return;
  }
  rpc::Socket socket = std::move(connected).value();
  rpc::FrameDecoder decoder;
  struct Pending {
    Op op;
    uint64_t token;
    int64_t due_ns;
    int tries;
  };
  std::unordered_map<uint64_t, Pending> in_flight;
  // Ops answered transiently, with the time they are sent again.
  std::vector<std::pair<int64_t, Pending>> retry;
  const double interval_ns = 1e9 / rate;
  uint64_t issued = 0;
  uint64_t next_id = 1;
  std::string out;
  std::vector<char> buf(256 << 10);
  // Long enough for an op due at end_ns to spend its retries.
  const int64_t drain_deadline = end_ns + 15'000'000'000ll;

  auto due_of = [&](uint64_t n) {
    return start_ns + static_cast<int64_t>(static_cast<double>(n) *
                                           interval_ns);
  };
  auto send = [&](Pending pending) {
    const uint64_t id = next_id++;
    pending.token = BeforeSend(oracle, pending.op);
    rpc::EncodeFrame(MakeRequest(oracle, pending.op, id), &out);
    in_flight.emplace(id, pending);
  };
  bool broken = false;
  while (!broken) {
    int64_t now = NowNs();
    // Send everything that has fallen due, late or not, and every retry
    // whose backoff has passed.
    out.clear();
    while (due_of(issued) <= now && due_of(issued) < end_ns) {
      const int64_t due = due_of(issued);
      send(Pending{stream.Next(), 0, due, 1});
      tally->lag_us.Add(static_cast<double>(now - due) * 1e-3);
      ++issued;
    }
    int64_t next_retry = INT64_MAX;
    for (size_t i = 0; i < retry.size();) {
      if (retry[i].first <= now) {
        send(retry[i].second);
        retry[i] = retry.back();
        retry.pop_back();
      } else {
        next_retry = std::min(next_retry, retry[i].first);
        ++i;
      }
    }
    if (!out.empty()) {
      if (Status s = socket.SendAll(Slice(out), 5000); !s.ok()) {
        Fail(tally, false, "send: " + s.ToString());
        broken = true;
        break;
      }
    }
    now = NowNs();
    const bool sending = due_of(issued) < end_ns;
    if (!sending && in_flight.empty() && retry.empty()) break;
    if (!sending && now >= drain_deadline) break;
    const int64_t wake =
        std::min(sending ? due_of(issued) : drain_deadline, next_retry);
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    struct pollfd pfd = {socket.fd(), POLLIN, 0};
    struct timespec ts = {static_cast<time_t>(wait_ns / 1'000'000'000),
                          static_cast<long>(wait_ns % 1'000'000'000)};
    const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
    if (ready <= 0) continue;
    Result<size_t> got = socket.RecvSome(buf.data(), buf.size(), 0);
    if (!got.ok() || *got == 0) {
      Fail(tally, false, "recv: connection lost");
      break;
    }
    decoder.Append(buf.data(), *got);
    rpc::Frame frame;
    while (true) {
      Result<bool> next = decoder.Next(&frame);
      if (!next.ok()) {
        Fail(tally, false, "decode: " + next.status().ToString());
        broken = true;
        break;
      }
      if (!*next) break;
      const int64_t done = NowNs();
      auto it = in_flight.find(frame.request_id);
      if (it == in_flight.end()) continue;
      const Pending& pending = it->second;
      const bool ok = frame.status == StatusCode::kOk;
      if (Judge(oracle, pending.op, pending.token, frame.status,
                ok ? std::string() : frame.value,
                ok ? frame.value : std::string(),
                static_cast<double>(done - pending.due_ns) * 1e-3,
                pending.tries, tally)) {
        retry.emplace_back(done + RetryBackoffNs(pending.tries),
                           Pending{pending.op, 0, pending.due_ns,
                                   pending.tries + 1});
      }
      in_flight.erase(it);
    }
  }
  // Unanswered ops count as attempted and failed.
  for (size_t i = 0; i < in_flight.size() + retry.size(); ++i) {
    ++tally->attempted;
    Fail(tally, false, "no answer");
  }
}

void RunClosedLoop(uint16_t port, int64_t end_ns, OpStream stream,
                   Oracle* oracle, Tally* tally) {
  rpc::RpcClient client("127.0.0.1", port);
  if (Status s = client.Connect(); !s.ok()) {
    Fail(tally, false, "connect: " + s.ToString());
    return;
  }
  while (NowNs() < end_ns) {
    const Op op = stream.Next();
    const int64_t start = NowNs();
    for (int tries = 1;; ++tries) {
      const uint64_t token = BeforeSend(oracle, op);
      const rpc::Frame request =
          MakeRequest(oracle, op, client.NextRequestId());
      Status sent = client.Send(request);
      Result<rpc::Frame> reply =
          sent.ok() ? client.Receive() : Result<rpc::Frame>(sent);
      const double us = static_cast<double>(NowNs() - start) * 1e-3;
      if (!reply.ok()) {
        ++tally->attempted;
        Fail(tally, false, "rpc: " + reply.status().ToString());
        return;
      }
      const bool ok = reply->status == StatusCode::kOk;
      if (!Judge(oracle, op, token, reply->status,
                 ok ? std::string() : reply->value,
                 ok ? reply->value : std::string(), us, tries, tally)) {
        break;
      }
      SleepBackoff(tries);
    }
  }
}

void VerifyAckedPuts(uint16_t port, const VersionedKeys& keys,
                     const std::vector<AckedPut>& acked, Tally* tally) {
  rpc::RpcClient client("127.0.0.1", port);
  if (Status s = client.Connect(); !s.ok()) {
    Fail(tally, false, "connect: " + s.ToString());
    return;
  }
  for (const AckedPut& put : acked) {
    ++tally->attempted;
    Result<std::string> got = Retrying(
        tally, [&] { return client.Get(keys.Key(put.key), put.version); });
    if (!got.ok() && !got.status().IsNotFound()) {
      Fail(tally, false, "re-read: " + got.status().ToString());
    } else if (!got.ok() || *got != keys.PutValue(put.key, put.version)) {
      Fail(tally, true, "acked put lost or changed: " + keys.Key(put.key));
    }
  }
}

// ---------------------------------------------------------------------------
// Stack and loads
// ---------------------------------------------------------------------------

Stack::~Stack() {
  if (server != nullptr) server->Shutdown();
  server.reset();
  cluster.reset();
}

namespace {

mint::MintOptions StackOptions(uint64_t cache_bytes) {
  mint::MintOptions options;
  options.num_groups = 2;
  options.nodes_per_group = 1;
  options.replicas = 1;
  options.parallel_reads = false;
  options.engine.aof.segment_bytes = 8 << 20;
  options.engine.cache_bytes = cache_bytes;
  return options;
}

}  // namespace

Status StartStack(uint64_t cache_bytes, Stack* stack) {
  stack->cluster =
      std::make_unique<mint::MintCluster>(StackOptions(cache_bytes));
  if (Status s = stack->cluster->Start(); !s.ok()) return s;
  stack->server = std::make_unique<server::KvServer>(
      stack->cluster.get(), server::KvServerOptions());
  if (Status s = stack->server->Start(); !s.ok()) return s;
  stack->port = stack->server->port();
  return Status::OK();
}

EngineCounters EngineCounters::Minus(const EngineCounters& b) const {
  EngineCounters d = *this;
  d.device_us -= b.device_us;
  d.pages_written -= b.pages_written;
  d.pages_read -= b.pages_read;
  d.blocks_erased -= b.blocks_erased;
  d.gc_pages_migrated -= b.gc_pages_migrated;
  d.user_bytes -= b.user_bytes;
  d.gets -= b.gets;
  d.traceback_gets -= b.traceback_gets;
  d.gc_invocations -= b.gc_invocations;
  d.gc_bytes_rewritten -= b.gc_bytes_rewritten;
  d.segments_reclaimed -= b.segments_reclaimed;
  d.cache_hits -= b.cache_hits;
  d.cache_misses -= b.cache_misses;
  d.cache_inserts -= b.cache_inserts;
  d.cache_admission_rejects -= b.cache_admission_rejects;
  return d;
}

EngineCounters ReadEngineCounters(mint::MintCluster* cluster) {
  EngineCounters c;
  for (int n = 0; n < cluster->num_nodes(); ++n) {
    mint::StorageNode* node = cluster->node(n);
    ReaderLock guard(node->lifecycle_mu());
    c.device_us += node->clock()->NowMicros();
    const ssd::SsdStats& ssd = node->env()->stats();
    c.pages_written += ssd.device_pages_written();
    c.pages_read += ssd.host_pages_read;
    c.blocks_erased += ssd.blocks_erased;
    c.gc_pages_migrated += ssd.gc_pages_migrated;
    c.page_size = node->env()->geometry().page_size;
    c.disk_bytes += node->env()->TotalFileBytes();
    qindb::QinDb* db = node->db();
    if (db == nullptr) continue;
    c.user_bytes += db->stats().user_bytes_ingested;
    c.gets += db->stats().gets;
    c.traceback_gets += db->stats().traceback_gets;
    c.gc_invocations += db->stats().gc_invocations;
    c.gc_bytes_rewritten += db->gc_stats().bytes_rewritten;
    c.segments_reclaimed += db->gc_stats().segments_reclaimed;
    const qindb::EngineCacheTotals cache = db->CacheTotals();
    c.cache_hits += cache.cache_hits;
    c.cache_misses += cache.cache_misses;
    c.cache_inserts += cache.cache_inserts;
    c.cache_admission_rejects += cache.cache_admission_rejects;
  }
  return c;
}

Status LoadVersion(uint16_t port, bifrost::Deduplicator* dedup,
                   const webindex::IndexDataset& dataset, LoadTiming* timing,
                   bool keep_shipped) {
  const int64_t start = NowNs();
  std::vector<bifrost::ShippedPair> shipped =
      dedup->Process(dataset, &timing->dedup);
  const int64_t dedup_done = NowNs();
  rpc::RpcClient client("127.0.0.1", port);
  Status s = client.Connect();
  if (s.ok()) {
    bifrost::wire::BulkLoader loader(&client,
                                     bifrost::wire::BulkLoadOptions());
    s = loader.Load(dataset.version, shipped, /*inverted=*/{},
                    /*deletes=*/{}, &timing->bulk);
  }
  const int64_t done = NowNs();
  timing->dedup_s = static_cast<double>(dedup_done - start) * 1e-9;
  timing->ship_s = static_cast<double>(done - dedup_done) * 1e-9;
  timing->total_s = static_cast<double>(done - start) * 1e-9;
  if (keep_shipped) timing->shipped = std::move(shipped);
  return s;
}

double SliceEncodeUsPerMib(const std::vector<bifrost::ShippedPair>& pairs,
                           uint64_t version) {
  constexpr size_t kSliceBytes = 1u << 20;
  std::string payload;
  std::string frame;
  uint64_t bytes = 0;
  bifrost::wire::SliceHeader header;
  header.version = version;
  header.type = webindex::IndexType::kSummary;
  const int64_t start = NowNs();
  auto flush = [&]() {
    frame.clear();
    bifrost::wire::EncodeSlicePacket(header, Slice(payload), &frame);
    bytes += frame.size();
    ++header.slice_id;
    header.pair_count = 0;
    payload.clear();
  };
  for (const bifrost::ShippedPair& pair : pairs) {
    bifrost::wire::AppendWirePair(&payload, Slice(pair.key), version,
                                  Slice(pair.value), pair.dedup, false);
    ++header.pair_count;
    if (payload.size() >= kSliceBytes) flush();
  }
  if (!payload.empty()) flush();
  const double us = static_cast<double>(NowNs() - start) * 1e-3;
  return bytes == 0 ? 0 : us / (static_cast<double>(bytes) / (1 << 20));
}

Status TimeDirectIngest(mint::MintCluster* cluster,
                        const std::vector<bifrost::ShippedPair>& pairs,
                        uint64_t version, bool drop, DirectIngest* out) {
  constexpr size_t kRun = 4096;
  std::vector<qindb::IngestOp> ops;
  ops.reserve(kRun);
  const int64_t start = NowNs();
  if (Status s = cluster->BulkBegin(version); !s.ok()) return s;
  for (size_t i = 0; i < pairs.size(); i += kRun) {
    ops.clear();
    for (size_t j = i; j < std::min(pairs.size(), i + kRun); ++j) {
      qindb::IngestOp op;
      op.key = Slice(pairs[j].key);
      op.version = version;
      op.value = Slice(pairs[j].value);
      op.dedup = pairs[j].dedup;
      ops.push_back(op);
    }
    if (Status s = cluster->BulkIngest(version, ops.data(), ops.size());
        !s.ok()) {
      return s;
    }
  }
  const int64_t staged = NowNs();
  if (Status s = cluster->BulkCommit(version); !s.ok()) return s;
  const int64_t committed = NowNs();
  if (drop) {
    if (Status s = cluster->DropVersion(version); !s.ok()) return s;
  }
  const int64_t dropped = NowNs();
  out->ingest_us_per_pair =
      pairs.empty() ? 0
                    : static_cast<double>(staged - start) * 1e-3 /
                          static_cast<double>(pairs.size());
  out->commit_ms = static_cast<double>(committed - staged) * 1e-6;
  out->drop_ms = static_cast<double>(dropped - committed) * 1e-6;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Layer peeling
// ---------------------------------------------------------------------------

namespace {

Op Shifted(const Op& op, uint64_t version_offset) {
  Op shifted = op;
  if (op.kind == OpKind::kPut) shifted.version += version_offset;
  return shifted;
}

/// Books one in-process answer into `level` via the oracle.
void BookDirect(Oracle* oracle, const Op& op, uint64_t token,
                const Status& status, const std::string& value, double us,
                PeelLevel* level) {
  Tally tally;
  Judge(oracle, op, token, status.code(), status.message(), value, us,
        kMaxTries, &tally);
  ++level->ops;
  level->wrong += tally.wrong;
  if (op.kind == OpKind::kPut) {
    level->put_us.Add(us);
  } else {
    level->get_us.Add(us);
  }
}

std::string KeyFor(Oracle* oracle, const Op& op) {
  switch (op.kind) {
    case OpKind::kPut:
      return oracle->PutKey(op.key);
    case OpKind::kAbsentRead:
      return oracle->AbsentKey(op.key);
    case OpKind::kRead:
      break;
  }
  return oracle->ReadKey(op.key);
}

}  // namespace

PeelLevel PeelRpc(uint16_t port, const std::vector<Op>& ops, Oracle* oracle,
                  uint64_t version_offset, bool spans) {
  PeelLevel level;
  rpc::RpcClient client("127.0.0.1", port);
  if (!client.Connect().ok()) {
    level.wrong = 1;
    return level;
  }
  // Spans stay in memory until the run writes them out.
  if (spans) level.stamps.reserve(ops.size() * 3);
  std::string encoded;
  for (const Op& raw : ops) {
    const Op op = Shifted(raw, version_offset);
    const uint64_t token = BeforeSend(oracle, op);
    const rpc::Frame request = MakeRequest(oracle, op, client.NextRequestId());
    const int64_t start = NowNs();
    Status sent = client.Send(request);
    const int64_t send_done = spans ? NowNs() : 0;
    Result<rpc::Frame> reply =
        sent.ok() ? client.Receive() : Result<rpc::Frame>(sent);
    const int64_t done = NowNs();
    if (spans) {
      level.stamps.push_back(start);
      level.stamps.push_back(send_done);
      level.stamps.push_back(done);
      level.send_us.Add(static_cast<double>(send_done - start) * 1e-3);
    }
    if (!reply.ok()) {
      ++level.wrong;
      return level;
    }
    encoded.clear();
    rpc::EncodeFrame(request, &encoded);
    rpc::EncodeFrame(*reply, &encoded);
    level.frame_bytes += encoded.size();
    const bool ok = reply->status == StatusCode::kOk;
    BookDirect(oracle, op, token,
               ok ? Status::OK()
                  : rpc::StatusFromWire(reply->status, reply->value),
               ok ? reply->value : std::string(),
               static_cast<double>(done - start) * 1e-3, &level);
  }
  return level;
}

PeelLevel PeelMint(mint::MintCluster* cluster, const std::vector<Op>& ops,
                   Oracle* oracle, uint64_t version_offset) {
  PeelLevel level;
  for (const Op& raw : ops) {
    const Op op = Shifted(raw, version_offset);
    const uint64_t token = BeforeSend(oracle, op);
    const std::string key = KeyFor(oracle, op);
    if (op.kind == OpKind::kPut) {
      const std::string value = oracle->PutValue(op.key, op.version);
      const int64_t start = NowNs();
      const Status s = cluster->Put(key, op.version, value);
      BookDirect(oracle, op, token, s, "",
                 static_cast<double>(NowNs() - start) * 1e-3, &level);
    } else {
      const int64_t start = NowNs();
      Result<mint::MintCluster::ReadResult> r = cluster->GetLatest(key);
      const double us = static_cast<double>(NowNs() - start) * 1e-3;
      BookDirect(oracle, op, token, r.ok() ? Status::OK() : r.status(),
                 r.ok() ? r->value : std::string(), us, &level);
    }
  }
  return level;
}

PeelLevel PeelQinDb(mint::MintCluster* cluster, const std::vector<Op>& ops,
                    Oracle* oracle, uint64_t version_offset) {
  PeelLevel level;
  for (const Op& raw : ops) {
    const Op op = Shifted(raw, version_offset);
    const uint64_t token = BeforeSend(oracle, op);
    const std::string key = KeyFor(oracle, op);
    mint::StorageNode* node = cluster->node(cluster->ReplicasOf(key)[0]);
    ReaderLock guard(node->lifecycle_mu());
    qindb::QinDb* db = node->db();
    if (op.kind == OpKind::kPut) {
      const std::string value = oracle->PutValue(op.key, op.version);
      const int64_t start = NowNs();
      const Status s = db->Put(key, op.version, value);
      BookDirect(oracle, op, token, s, "",
                 static_cast<double>(NowNs() - start) * 1e-3, &level);
    } else {
      const int64_t start = NowNs();
      Result<std::string> r = db->GetLatest(key);
      const double us = static_cast<double>(NowNs() - start) * 1e-3;
      BookDirect(oracle, op, token, r.ok() ? Status::OK() : r.status(),
                 r.ok() ? *r : std::string(), us, &level);
    }
  }
  return level;
}

double CodecNsPerFrame(const std::vector<Op>& ops, Oracle* oracle) {
  std::vector<rpc::Frame> frames;
  frames.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    frames.push_back(MakeRequest(oracle, ops[i], i + 1));
  }
  constexpr int kRounds = 3;
  std::string wire;
  uint64_t decoded = 0;
  const int64_t start = NowNs();
  for (int round = 0; round < kRounds; ++round) {
    rpc::FrameDecoder decoder;
    for (const rpc::Frame& frame : frames) {
      wire.clear();
      rpc::EncodeFrame(frame, &wire);
      decoder.Append(Slice(wire));
      rpc::Frame out;
      Result<bool> got = decoder.Next(&out);
      if (got.ok() && *got) ++decoded;
    }
  }
  const double ns = static_cast<double>(NowNs() - start);
  return decoded == 0 ? 0 : ns / static_cast<double>(decoded);
}

}  // namespace perfbench
