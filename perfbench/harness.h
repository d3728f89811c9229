// Shared pieces of the repository benchmark: timing and exact percentiles,
// the seeded op streams, the answer oracles that check every reply, the
// open- and closed-loop client loops, version loads through Bifrost, the
// in-process serving stack, and the metric report perfbench_driver prints.
//
// Everything here drives the system through its public entry points only
// (rpc::Socket + frame codec, rpc::RpcClient, server::KvServer,
// mint::MintCluster, mint::MintCoordinator, qindb::QinDb,
// bifrost::Deduplicator, bifrost::wire::BulkLoader).

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bifrost/dedup.h"
#include "bifrost/wire/bulk_loader.h"
#include "common/random.h"
#include "common/status.h"
#include "index/builders.h"
#include "mint/cluster.h"
#include "rpc/protocol.h"
#include "server/kv_server.h"

namespace perfbench {

using namespace directload;

// ---------------------------------------------------------------------------
// Time and samples
// ---------------------------------------------------------------------------

int64_t NowNs();
double SecondsSince(int64_t start_ns);

/// Keeps every observation, so percentiles are exact order statistics
/// (linear interpolation between closest ranks), not histogram buckets.
/// Observations may carry the time they completed, for windowed figures.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Add(double v, int64_t at_ns) {
    values_.push_back(v);
    times_.push_back(at_ns);
  }
  void Merge(const Samples& other);
  size_t count() const { return values_.size(); }
  double Percentile(double p) const;

  /// The p-th percentile of each `window_ns` window from `origin_ns` that
  /// holds at least `min_count` timed observations, medianed over those
  /// windows: a stall confined to a few windows moves only those windows.
  /// Falls back to Percentile(p) when no window qualifies.
  double WindowedPercentile(double p, int64_t origin_ns, int64_t window_ns,
                            size_t min_count) const;

 private:
  std::vector<double> values_;
  std::vector<int64_t> times_;  // Parallel to values_ when timed.
};

double Median(std::vector<double> values);

/// Peak resident set (VmHWM) of a process in MiB; pid 0 = this process.
double PeakRssMb(int pid = 0);

// ---------------------------------------------------------------------------
// Metric report
// ---------------------------------------------------------------------------

/// Metrics in the order they are added. Print() writes one human-readable
/// line per metric (value, unit, sample count) and then the single JSON
/// object run.py reads as the last line of stdout.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t samples = 0);
  void Print(bool correct, uint64_t attempted, uint64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    uint64_t samples;
  };
  std::vector<Entry> entries_;
};

// ---------------------------------------------------------------------------
// Op streams
// ---------------------------------------------------------------------------

enum class OpKind : uint8_t { kRead, kAbsentRead, kPut };

struct Op {
  OpKind kind = OpKind::kRead;
  uint32_t key = 0;      // Index into the workload's key space.
  uint64_t version = 0;  // Puts only.
};

struct MixOptions {
  uint32_t read_keys = 1;    // Key space reads draw from (Zipfian).
  uint32_t put_keys = 1;     // Key space puts draw from (Zipfian).
  double theta = 0.99;
  int put_pct = 5;           // Remainder are reads.
  int absent_pct_of_reads = 2;
  /// Put versions are version_base + n * kVersionStride + stream, so
  /// streams never collide and replays can offset by up to the stride.
  uint64_t version_base = 1000;
};

inline constexpr uint64_t kVersionStride = 256;

/// A deterministic op stream: the same (seed, stream) always yields the
/// same sequence of kinds, keys and versions.
class OpStream {
 public:
  OpStream(const MixOptions& mix, uint64_t seed, uint32_t stream);
  Op Next();

 private:
  MixOptions mix_;
  uint32_t stream_;
  Random rng_;
  ZipfianGenerator read_zipf_;
  ZipfianGenerator put_zipf_;
  uint64_t puts_ = 0;
};

// ---------------------------------------------------------------------------
// Values and oracles
// ---------------------------------------------------------------------------

/// The value of (key, version): "<key>#<version>#" followed by filler bytes
/// derived from a hash of both, padded to `bytes`. A pure function, so any
/// answer can be re-derived and compared byte for byte.
std::string MakeValue(const std::string& key, uint64_t version, int bytes);
/// The version a MakeValue() string claims for `key`, or 0 if malformed.
uint64_t ParseVersion(const std::string& key, const std::string& value);

enum class Verdict { kOk, kWrong, kStale };

/// Knows what every key must hold and judges each answer. Thread-safe.
class Oracle {
 public:
  virtual ~Oracle() = default;
  virtual std::string ReadKey(uint32_t idx) const = 0;
  virtual std::string PutKey(uint32_t idx) const = 0;
  std::string AbsentKey(uint32_t idx) const;
  virtual std::string PutValue(uint32_t idx, uint64_t version) const = 0;
  /// Called just before a read is sent; the returned token is handed back
  /// to CheckRead.
  virtual uint64_t BeforeRead(uint32_t idx) = 0;
  virtual Verdict CheckRead(uint32_t idx, uint64_t token,
                            const std::string& value) = 0;
  virtual void BeforePut(uint32_t idx, uint64_t version) = 0;
  virtual void AfterPutAck(uint32_t idx, uint64_t version) = 0;
};

/// Keys "<prefix><idx>" holding MakeValue() values; version 1 is the
/// preload. A read must return a value some put of that key produced, no
/// older than the newest put acknowledged before the read was sent. With
/// `allow_stale` (quorum writes, single-replica reads) an older written
/// value is reported as kStale instead of kWrong.
class VersionedKeys : public Oracle {
 public:
  VersionedKeys(std::string prefix, uint32_t keys, int value_bytes,
                bool allow_stale = false);
  std::string ReadKey(uint32_t idx) const override { return Key(idx); }
  std::string PutKey(uint32_t idx) const override { return Key(idx); }
  std::string PutValue(uint32_t idx, uint64_t version) const override;
  uint64_t BeforeRead(uint32_t idx) override;
  Verdict CheckRead(uint32_t idx, uint64_t token,
                    const std::string& value) override;
  void BeforePut(uint32_t idx, uint64_t version) override;
  void AfterPutAck(uint32_t idx, uint64_t version) override;

  std::string Key(uint32_t idx) const;
  uint32_t keys() const { return keys_; }
  int value_bytes() const { return value_bytes_; }
  /// Marks every key as holding version 1 (after the preload commits).
  void MarkPreloaded();

 private:
  const std::string prefix_;
  const uint32_t keys_;
  const int value_bytes_;
  const bool allow_stale_;
  std::unique_ptr<std::atomic<uint64_t>[]> acked_;
  std::unique_ptr<std::atomic<uint64_t>[]> issued_;
};

/// One index version: values[i] is the value of key i.
struct VersionData {
  uint64_t version = 0;
  std::vector<std::string> values;
};

/// Reads go to index keys whose value is whichever version is committed;
/// puts go to a separate VersionedKeys namespace. A read must match a
/// version committed no earlier than the newest commit acknowledged before
/// it was sent, and no later than the newest load started when it returned.
class IndexKeys : public Oracle {
 public:
  IndexKeys(std::vector<std::string> keys, VersionedKeys* put_keys);
  std::string ReadKey(uint32_t idx) const override { return keys_[idx]; }
  std::string PutKey(uint32_t idx) const override;
  std::string PutValue(uint32_t idx, uint64_t version) const override;
  uint64_t BeforeRead(uint32_t idx) override;
  Verdict CheckRead(uint32_t idx, uint64_t token,
                    const std::string& value) override;
  void BeforePut(uint32_t idx, uint64_t version) override;
  void AfterPutAck(uint32_t idx, uint64_t version) override;

  /// Load protocol: LoadStarting before the version can become visible,
  /// Committed once its commit is acknowledged.
  void LoadStarting(std::shared_ptr<const VersionData> data);
  void Committed(uint64_t version);
  uint32_t size() const { return static_cast<uint32_t>(keys_.size()); }

 private:
  const std::vector<std::string> keys_;
  VersionedKeys* const put_keys_;
  std::atomic<uint64_t> committed_{0};
  std::atomic<uint64_t> started_{0};
  std::mutex mu_;
  std::vector<std::shared_ptr<const VersionData>> recent_;  // Guarded by mu_.
};

// ---------------------------------------------------------------------------
// Outcomes
// ---------------------------------------------------------------------------

struct AckedPut {
  uint32_t key;
  uint64_t version;
};

/// Per-thread outcome of a client loop; merged by the workload. An op is
/// one logical request: a transient answer (see IsTransient) is retried and
/// the op counts once, failed only when its last try was not correct.
struct Tally {
  uint64_t attempted = 0;       // Ops.
  uint64_t failed = 0;          // Ops whose final outcome was not correct.
  uint64_t wrong = 0;           // Wrong values and unexpected NotFounds.
  uint64_t retries = 0;         // Transient answers that were retried.
  int max_tries = 0;            // Most tries any op needed.
  uint64_t busy = 0;            // kBusy answers (admission control).
  uint64_t read_timeouts = 0;   // "replica exceeded read timeout" answers.
  uint64_t stale = 0;           // Older-than-acked answers (replicated).
  uint64_t reads = 0;
  Samples read_us;
  Samples write_us;
  Samples lag_us;               // Open loop: send time minus due time.
  std::vector<AckedPut> acked;
  std::string first_error;      // The first failure, for the outcome line.

  void Merge(const Tally& other);
};

// Retries. kBusy (admission control), kUnavailable (e.g. a replica read
// timeout) and kTimedOut mean "not now": a client tries the op again, up
// to kMaxTries tries in all, RetryBackoffNs(tries) after its tries-th try.
// Every other error, wrong value or unexpected NotFound is final.
constexpr int kMaxTries = 45;
bool IsTransient(StatusCode code);
int64_t RetryBackoffNs(int tries);

/// Judges the answer to the `tries`-th try of `op` and books it into
/// `tally`. Returns true when the answer is transient and the op should be
/// tried again; then only the retry is booked, and the final answer's
/// latency should span every try. `status` and `message` are the wire
/// status and (for errors) its text.
bool Judge(Oracle* oracle, const Op& op, uint64_t token, StatusCode status,
           const std::string& message, const std::string& value,
           double latency_us, int tries, Tally* tally);

/// Sleeps the backoff after the `tries`-th try.
void SleepBackoff(int tries);

/// Books a transient answer that will be retried after `tries` tries, and
/// sleeps its backoff.
void BackOff(const Status& status, int tries, Tally* tally);

/// Calls `call()`, which returns a Result, until its status is not
/// transient or kMaxTries tries are spent, booking each retry in `tally`.
template <typename Call>
auto Retrying(Tally* tally, const Call& call) -> decltype(call()) {
  for (int tries = 1;; ++tries) {
    auto answer = call();
    if (answer.ok() || tries >= kMaxTries ||
        !IsTransient(answer.status().code())) {
      tally->max_tries = std::max(tally->max_tries, tries);
      return answer;
    }
    BackOff(answer.status(), tries, tally);
  }
}

/// The request frame for `op` (reads are GetLatest).
rpc::Frame MakeRequest(Oracle* oracle, const Op& op, uint64_t request_id);

// ---------------------------------------------------------------------------
// Client loops
// ---------------------------------------------------------------------------

/// Open loop over one connection driven with rpc::Socket, the frame codec
/// and ppoll: ops fall due every 1/rate seconds from `start_ns + offset`
/// until `end_ns` whether or not earlier ones were answered; latency is
/// timed from the due time.
void RunOpenLoop(uint16_t port, double rate, int64_t start_ns,
                 int64_t end_ns, OpStream stream, Oracle* oracle,
                 Tally* tally);

/// Closed loop over one RpcClient: the next op is sent when the previous
/// one is answered, until `end_ns`.
void RunClosedLoop(uint16_t port, int64_t end_ns, OpStream stream,
                   Oracle* oracle, Tally* tally);

/// Re-reads every acknowledged put at its exact version through
/// RpcClient::Get, booking mismatches as wrong.
void VerifyAckedPuts(uint16_t port, const VersionedKeys& keys,
                     const std::vector<AckedPut>& acked, Tally* tally);

// ---------------------------------------------------------------------------
// The in-process stack and version loads
// ---------------------------------------------------------------------------

/// MintCluster (2 groups x 1 node, one replica per pair) behind a KvServer
/// on an ephemeral loopback port. `cache_bytes` is the per-node engine block
/// cache budget; every other option keeps its default.
struct Stack {
  std::unique_ptr<mint::MintCluster> cluster;
  std::unique_ptr<server::KvServer> server;
  uint16_t port = 0;
  ~Stack();
};
Status StartStack(uint64_t cache_bytes, Stack* stack);

/// Per-node simulated-device and engine counters, summed over nodes.
struct EngineCounters {
  uint64_t device_us = 0;        // SimClock time.
  uint64_t pages_written = 0;    // Device pages programmed (host + GC).
  uint64_t pages_read = 0;       // Host pages read.
  uint64_t blocks_erased = 0;
  uint64_t gc_pages_migrated = 0;
  uint64_t user_bytes = 0;       // QinDbStats::user_bytes_ingested.
  uint64_t gets = 0;
  uint64_t traceback_gets = 0;
  uint64_t gc_invocations = 0;
  uint64_t gc_bytes_rewritten = 0;
  uint64_t segments_reclaimed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_admission_rejects = 0;
  uint64_t disk_bytes = 0;       // Occupied file bytes (not a delta).
  uint32_t page_size = 4096;

  EngineCounters Minus(const EngineCounters& before) const;
};
/// Snapshot while no request is in flight (SsdStats is not atomic).
EngineCounters ReadEngineCounters(mint::MintCluster* cluster);

/// One version load as the paper times it: Bifrost dedup, then a
/// BulkLoader session over the wire, ending at the commit ack.
struct LoadTiming {
  double dedup_s = 0;
  double ship_s = 0;  // BulkLoader::Load, commit ack included.
  double total_s = 0;
  bifrost::DedupStats dedup;
  bifrost::wire::BulkLoadReport bulk;
  std::vector<bifrost::ShippedPair> shipped;  // Kept for codec timing.
};
Status LoadVersion(uint16_t port, bifrost::Deduplicator* dedup,
                   const webindex::IndexDataset& dataset, LoadTiming* timing,
                   bool keep_shipped = false);

/// Wall micros per MiB to encode `pairs` into 1 MiB wire slices.
double SliceEncodeUsPerMib(const std::vector<bifrost::ShippedPair>& pairs,
                           uint64_t version);

/// Direct MintCluster::BulkBegin/BulkIngest/BulkCommit of `pairs` as
/// `version` (then, with `drop`, DropVersion of it): the engine-level
/// ingest costs without the wire.
struct DirectIngest {
  double ingest_us_per_pair = 0;
  double commit_ms = 0;
  double drop_ms = 0;
};
Status TimeDirectIngest(mint::MintCluster* cluster,
                        const std::vector<bifrost::ShippedPair>& pairs,
                        uint64_t version, bool drop, DirectIngest* out);

// ---------------------------------------------------------------------------
// Layer peeling (traced runs)
// ---------------------------------------------------------------------------

/// Latencies of one op stream replayed through one entry point, reads and
/// puts apart.
struct PeelLevel {
  Samples get_us;
  Samples put_us;
  Samples send_us;           // RpcClient::Send alone (RPC level, spans on).
  /// Spans on: (start, Send returned, answer decoded) per op, in ns.
  std::vector<int64_t> stamps;
  uint64_t frame_bytes = 0;  // Request + response frames (RPC level).
  uint64_t ops = 0;
  uint64_t wrong = 0;
};

/// Closed-loop replay through RpcClient Send/Receive. With `spans`, the
/// Send boundary is stamped too and the stamps kept in memory.
PeelLevel PeelRpc(uint16_t port, const std::vector<Op>& ops, Oracle* oracle,
                  uint64_t version_offset, bool spans);
/// Replay through MintCluster::GetLatest / Put.
PeelLevel PeelMint(mint::MintCluster* cluster, const std::vector<Op>& ops,
                   Oracle* oracle, uint64_t version_offset);
/// Replay through the owning node's QinDb::GetLatest / Put.
PeelLevel PeelQinDb(mint::MintCluster* cluster, const std::vector<Op>& ops,
                    Oracle* oracle, uint64_t version_offset);

/// Wall nanoseconds to encode and decode one frame of the replayed stream.
double CodecNsPerFrame(const std::vector<Op>& ops, Oracle* oracle);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
