// Closed-loop load generator for the KV serving front end: N client threads,
// each with its own RpcClient and a configurable pipelining depth, drive a
// read/write mix against a server and report per-op latency percentiles
// (p50/p95/p99 via common/histogram.h) plus aggregate throughput.
//
// By default it hosts the whole stack in-process — a small mint::MintCluster
// behind a KvServer on an ephemeral localhost port — so one command
// exercises sockets, framing, admission control, the worker pool, and the
// engines end to end:
//
//   build/bench/server_loadgen --threads 8 --ops-per-thread 2000
//
// Point it at an external server instead (e.g. `qindb_shell --serve 7000`):
//
//   build/bench/server_loadgen --connect 127.0.0.1:7000 --threads 8
//
// Closed loop means each thread keeps at most `--pipeline` requests in
// flight and issues the next only when one completes — offered load adapts
// to service rate, which is the regime the tail-latency literature measures.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/common/report.h"
#include "bifrost/wire/bulk_loader.h"
#include "common/histogram.h"
#include "common/logging.h"
#include "common/random.h"
#include "mint/coordinator.h"
#include "rpc/client.h"
#include "server/kv_server.h"
#include "server/node_process.h"

#ifndef DMINT_NODE_BINARY
#define DMINT_NODE_BINARY "dmint_node"
#endif

using namespace directload;

namespace {

struct LoadgenConfig {
  int threads = 8;
  int ops_per_thread = 2000;
  int write_pct = 20;       // Remainder are GetLatest reads.
  int pipeline = 1;         // Requests in flight per thread.
  int value_bytes = 128;
  int key_space = 4096;
  /// Write ops per request frame. 1 sends plain PUT frames; > 1 packs that
  /// many PUTs into one kWriteBatch frame — the client half of group
  /// commit, amortizing the round trip over the batch.
  int batch = 1;
  /// Engine shards per node for the in-process cluster; 0 keeps the engine
  /// default (hardware_concurrency). Ignored with --connect.
  int shards = 0;
  /// Zipfian skew for the mixed-workload key draw; 0 keeps the legacy
  /// uniform draw. Read-mostly cache runs use ~0.99 (YCSB's default) so a
  /// hot set emerges for the block cache to capture.
  double zipf_theta = 0;
  /// AOF block cache budget per node engine, in MiB (0 = cache off).
  /// Ignored with --connect.
  int cache_mb = 0;
  /// Write version 1 over the whole key space before measuring, so a
  /// read-mostly run starts from a fully populated store instead of a
  /// NotFound storm.
  bool preload = false;
  /// Rollover mode: preload version 1 over the key space, then stream a
  /// full version 2 into the live server with a BulkLoader while closed-loop
  /// Zipfian readers measure serving latency through the load. `threads`
  /// becomes the reader count and `ops_per_thread`/`write_pct`/`batch` are
  /// ignored.
  bool rollover = false;
  int rollover_slice_kb = 256;         // Pair payload per bulk slice.
  double rollover_bandwidth_mbps = 0;  // <= 0 = unpaced shipping.
  /// Fails the run (exit 2) when the read p99 observed *during* the bulk
  /// load exceeds this many microseconds; 0 disables the gate.
  double read_p99_gate_us = 0;
  std::string json_path;     // Empty = no JSON summary.
  std::string connect_host;  // Empty = host an in-process server.
  uint16_t connect_port = 0;

  /// Cluster mode: fork a fleet of dmint_node processes (groups x replicas),
  /// drive a closed-loop Zipfian mix through a MintCoordinator, and verify
  /// at the end that every acked write reads back. With --kill-replica the
  /// run SIGKILLs one replica mid-load, restarts it, heals it with
  /// RepairNode, and still demands zero acked-write loss — the paper's
  /// robustness claim as an executable gate.
  bool cluster = false;
  int cluster_groups = 2;
  int cluster_replicas = 3;
  bool kill_replica = false;
  double phase_seconds = 3.0;
  /// Fails the run (exit 2) when the read p99 while a replica is dead
  /// exceeds this factor of the healthy-phase read p99; 0 disables.
  double degraded_p99_factor = 0;
  std::string node_binary = DMINT_NODE_BINARY;
};

struct ThreadResult {
  Histogram read_us;
  Histogram write_us;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t not_found = 0;  // Reads of keys no write has landed on yet.
  uint64_t errors = 0;
  /// Ops beyond one per completed frame (batched writes land `batch` ops
  /// per request, but one latency sample).
  uint64_t extra_ops = 0;
};

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

void RunClientThread(const LoadgenConfig& config, const std::string& host,
                     uint16_t port, int thread_id,
                     std::atomic<uint64_t>* next_version,
                     ThreadResult* result) {
  rpc::RpcClient client(host, port);
  if (!client.Connect().ok()) {
    result->errors += config.ops_per_thread;
    return;
  }
  Random rng(0x10adull * (thread_id + 1));
  const std::string value(config.value_bytes, 'x');
  ZipfianGenerator zipf(config.key_space,
                        config.zipf_theta > 0 ? config.zipf_theta : 0.99,
                        0x5eedull * (thread_id + 1));
  auto draw_key = [&]() -> uint64_t {
    return config.zipf_theta > 0 ? zipf.Next()
                                 : rng.Uniform(config.key_space);
  };

  struct InFlight {
    Clock::time_point sent;
    bool is_write = false;
  };
  std::map<uint64_t, InFlight> in_flight;
  int issued = 0, completed = 0;

  auto issue_one = [&]() -> bool {
    rpc::Frame request;
    request.request_id = client.NextRequestId();
    const bool is_write =
        static_cast<int>(rng.Uniform(100)) < config.write_pct;
    const std::string key = "bench:k" + std::to_string(draw_key());
    if (is_write && config.batch > 1) {
      // One kWriteBatch frame carrying `batch` PUTs: `batch` ops for one
      // round trip and (server-side) one engine commit per node.
      std::vector<rpc::BatchOp> ops(config.batch);
      for (rpc::BatchOp& op : ops) {
        op.version = next_version->fetch_add(1);
        op.key = "bench:k" + std::to_string(draw_key());
        op.value = value;
      }
      request.op = rpc::Opcode::kWriteBatch;
      rpc::EncodeBatchOps(ops, &request.value);
    } else if (is_write) {
      request.op = rpc::Opcode::kPut;
      request.version = next_version->fetch_add(1);
      request.key = key;
      request.value = value;
    } else {
      request.op = rpc::Opcode::kGet;
      request.latest = true;
      request.key = key;
    }
    InFlight tracking{Clock::now(), is_write};
    if (!client.Send(request).ok()) return false;
    in_flight.emplace(request.request_id, tracking);
    ++issued;
    return true;
  };

  auto complete_one = [&]() -> bool {
    Result<rpc::Frame> response = client.Receive();
    if (!response.ok()) return false;
    auto it = in_flight.find(response->request_id);
    if (it == in_flight.end()) return true;  // Stale id; ignore.
    const double micros = MicrosSince(it->second.sent);
    if (it->second.is_write) {
      result->write_us.Add(micros);
      if (response->op == rpc::Opcode::kWriteBatch) {
        result->extra_ops += config.batch - 1;
      }
    } else {
      result->read_us.Add(micros);
    }
    switch (response->status) {
      case StatusCode::kOk:
        ++result->ok;
        break;
      case StatusCode::kBusy:
        ++result->busy;
        break;
      case StatusCode::kNotFound:
        ++result->not_found;
        break;
      default:
        ++result->errors;
        break;
    }
    in_flight.erase(it);
    ++completed;
    return true;
  };

  while (completed < config.ops_per_thread) {
    while (issued < config.ops_per_thread &&
           static_cast<int>(in_flight.size()) < config.pipeline) {
      if (!issue_one()) {
        result->errors += config.ops_per_thread - completed;
        return;
      }
    }
    if (!complete_one()) {
      result->errors += config.ops_per_thread - completed;
      return;
    }
  }
}

void PrintPercentiles(const char* label, const Histogram& h) {
  std::printf("%-7s count=%-8llu p50=%8.1fus p95=%8.1fus p99=%8.1fus "
              "mean=%8.1fus max=%8.1fus\n",
              label, (unsigned long long)h.count(), h.Percentile(50),
              h.Percentile(95), h.Percentile(99), h.Mean(), h.max());
}

// ---------------------------------------------------------------------------
// Rollover mode: bulk-stream a new version into the serving path while
// closed-loop Zipfian readers measure what the load does to read tails.
// ---------------------------------------------------------------------------

std::string BenchKey(uint64_t i) { return "bench:k" + std::to_string(i); }

/// One reader: closed-loop (depth 1) GetLatest over a Zipfian key draw, until
/// `stop` flips. Latency lands in `result->read_us`; reads answered
/// with an error status count as `errors` and fail the run.
void RunRolloverReader(const LoadgenConfig& config, const std::string& host,
                       uint16_t port, int thread_id,
                       const std::atomic<bool>* stop, ThreadResult* result) {
  rpc::RpcClient client(host, port);
  if (!client.Connect().ok()) {
    ++result->errors;
    return;
  }
  ZipfianGenerator zipf(config.key_space, 0.99, 0x5eedull * (thread_id + 1));
  while (!stop->load(std::memory_order_relaxed)) {
    rpc::Frame request;
    request.op = rpc::Opcode::kGet;
    request.latest = true;
    request.request_id = client.NextRequestId();
    request.key = BenchKey(zipf.Next());
    const Clock::time_point sent = Clock::now();
    if (!client.Send(request).ok()) {
      ++result->errors;
      return;
    }
    Result<rpc::Frame> response = client.Receive();
    if (!response.ok()) {
      ++result->errors;
      return;
    }
    result->read_us.Add(MicrosSince(sent));
    switch (response->status) {
      case StatusCode::kOk:
        ++result->ok;
        break;
      case StatusCode::kBusy:
        ++result->busy;
        break;
      case StatusCode::kNotFound:
        ++result->not_found;  // A key the preload has not reached yet.
        break;
      default:
        ++result->errors;
        break;
    }
  }
}

/// Preloads version `version` of every key through kWriteBatch frames.
Status PreloadVersion(const std::string& host, uint16_t port,
                      const LoadgenConfig& config, uint64_t version,
                      const std::string& value) {
  rpc::RpcClient client(host, port);
  if (Status s = client.Connect(); !s.ok()) return s;
  constexpr int kOpsPerFrame = 128;
  for (int base = 0; base < config.key_space; base += kOpsPerFrame) {
    const int n = std::min(kOpsPerFrame, config.key_space - base);
    std::vector<rpc::BatchOp> ops(n);
    for (int i = 0; i < n; ++i) {
      ops[i].version = version;
      ops[i].key = BenchKey(base + i);
      ops[i].value = value;
    }
    rpc::Frame request;
    request.op = rpc::Opcode::kWriteBatch;
    request.request_id = client.NextRequestId();
    rpc::EncodeBatchOps(ops, &request.value);
    if (Status s = client.Send(request); !s.ok()) return s;
    Result<rpc::Frame> response = client.Receive();
    if (!response.ok()) return response.status();
    if (response->status != StatusCode::kOk) {
      return rpc::StatusFromWire(response->status, response->value);
    }
  }
  return Status::OK();
}

int RunRollover(const LoadgenConfig& config, const std::string& host,
                uint16_t port) {
  const std::string v1_value(config.value_bytes, 'a');
  const std::string v2_value(config.value_bytes, 'b');
  std::printf("rollover: preloading v1 over %d keys...\n", config.key_space);
  if (Status s = PreloadVersion(host, port, config, 1, v1_value); !s.ok()) {
    std::fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // Readers start before the bulk load and stop after its commit, so their
  // histogram is the read tail *through* the rollover.
  std::atomic<bool> stop{false};
  std::vector<ThreadResult> results(config.threads);
  std::vector<std::thread> readers;
  readers.reserve(config.threads);
  for (int t = 0; t < config.threads; ++t) {
    readers.emplace_back(RunRolloverReader, std::cref(config), std::cref(host),
                         port, t, &stop, &results[t]);
  }

  // The new version: a full replacement of the key space, split across the
  // two streams so both rate-limiter buckets carry traffic.
  std::vector<bifrost::ShippedPair> summary;
  std::vector<bifrost::ShippedPair> inverted;
  for (int i = 0; i < config.key_space; ++i) {
    bifrost::ShippedPair pair;
    pair.key = BenchKey(i);
    pair.value = v2_value;
    (i % 2 == 0 ? summary : inverted).push_back(std::move(pair));
  }

  rpc::RpcClient bulk_client(host, port);
  Status s = bulk_client.Connect();
  bifrost::wire::BulkLoadReport bulk_report;
  double load_seconds = 0;
  if (s.ok()) {
    bifrost::wire::BulkLoadOptions options;
    options.slice_bytes = static_cast<uint64_t>(config.rollover_slice_kb)
                          << 10;
    options.bandwidth_bytes_per_sec =
        config.rollover_bandwidth_mbps * 1024 * 1024;
    bifrost::wire::BulkLoader loader(&bulk_client, options);
    const Clock::time_point start = Clock::now();
    s = loader.Load(/*version=*/2, summary, inverted, /*deletes=*/{},
                    &bulk_report);
    load_seconds = MicrosSince(start) * 1e-6;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  if (!s.ok()) {
    std::fprintf(stderr, "bulk load failed: %s\n", s.ToString().c_str());
    return 1;
  }

  // The committed version must serve: every sampled key reads back v2.
  uint64_t verify_failures = 0;
  {
    rpc::RpcClient verify(host, port);
    if (!verify.Connect().ok()) {
      ++verify_failures;
    } else {
      const int step = std::max(1, config.key_space / 256);
      for (int i = 0; i < config.key_space; i += step) {
        rpc::Frame request;
        request.op = rpc::Opcode::kGet;
        request.latest = true;
        request.request_id = verify.NextRequestId();
        request.key = BenchKey(i);
        if (!verify.Send(request).ok()) {
          ++verify_failures;
          break;
        }
        Result<rpc::Frame> response = verify.Receive();
        if (!response.ok() || response->status != StatusCode::kOk ||
            response->value != v2_value) {
          ++verify_failures;
        }
      }
    }
  }

  Histogram reads;
  uint64_t ok = 0, busy = 0, not_found = 0, errors = 0;
  for (const ThreadResult& r : results) {
    reads.Merge(r.read_us);
    ok += r.ok;
    busy += r.busy;
    not_found += r.not_found;
    errors += r.errors;
  }
  const double pairs_per_sec =
      load_seconds > 0 ? bulk_report.pairs_total / load_seconds : 0.0;

  std::printf("rollover: v2 committed in %.2fs (%llu pairs, %llu slices, "
              "%llu bytes, %llu resends, %llu repair rounds)\n",
              load_seconds, (unsigned long long)bulk_report.pairs_total,
              (unsigned long long)bulk_report.slices_total,
              (unsigned long long)bulk_report.bytes_shipped,
              (unsigned long long)bulk_report.slices_resent,
              (unsigned long long)bulk_report.repair_rounds);
  PrintPercentiles("reads", reads);
  std::printf("status: ok=%llu not_found=%llu busy=%llu errors=%llu "
              "verify_failures=%llu\n",
              (unsigned long long)ok, (unsigned long long)not_found,
              (unsigned long long)busy, (unsigned long long)errors,
              (unsigned long long)verify_failures);

  const double read_p99 = reads.Percentile(99);
  bool gate_failed = false;
  if (config.read_p99_gate_us > 0 && read_p99 > config.read_p99_gate_us) {
    std::fprintf(stderr,
                 "read p99 gate FAILED: %.1fus > %.1fus during rollover\n",
                 read_p99, config.read_p99_gate_us);
    gate_failed = true;
  }

  bench::JsonReport report;
  report.AddString("bench", "server_loadgen_rollover");
  report.Add("reader_threads", config.threads);
  report.Add("key_space", config.key_space);
  report.Add("value_bytes", config.value_bytes);
  report.Add("slice_kb", config.rollover_slice_kb);
  report.Add("bandwidth_mbps", config.rollover_bandwidth_mbps);
  report.Add("load_seconds", load_seconds);
  report.Add("bulk_pairs", bulk_report.pairs_total);
  report.Add("bulk_slices", bulk_report.slices_total);
  report.Add("bulk_bytes_shipped", bulk_report.bytes_shipped);
  report.Add("bulk_slices_resent", bulk_report.slices_resent);
  report.Add("bulk_repair_rounds", bulk_report.repair_rounds);
  report.Add("bulk_pairs_per_sec", pairs_per_sec);
  report.Add("reads_completed", reads.count());
  report.Add("read_p50_us", reads.Percentile(50));
  report.Add("read_p95_us", reads.Percentile(95));
  report.Add("read_p99_us", read_p99);
  report.Add("read_p99_gate_us", config.read_p99_gate_us);
  report.Add("not_found", not_found);
  report.Add("busy", busy);
  report.Add("errors", errors);
  report.Add("verify_failures", verify_failures);
  report.WriteTo(config.json_path);

  return (errors == 0 && verify_failures == 0 && !gate_failed) ? 0 : 2;
}

// ---------------------------------------------------------------------------
// Cluster mode: replicated node processes under a coordinator, with an
// optional kill-a-replica chaos arm.
// ---------------------------------------------------------------------------

/// Phases of the chaos schedule; worker threads tag each op's latency with
/// the phase that was current when the op was issued.
enum ClusterPhase { kHealthy = 0, kDegraded = 1, kRecovered = 2 };
constexpr int kNumPhases = 3;

const char* PhaseName(int phase) {
  switch (phase) {
    case kHealthy:
      return "healthy";
    case kDegraded:
      return "degraded";
    default:
      return "recovered";
  }
}

/// The value of (key, version) is a pure function of both, so the final
/// verification pass can recompute what every acked write must read back as.
std::string ClusterValue(const std::string& key, uint64_t version,
                         int value_bytes) {
  std::string value = key + "#" + std::to_string(version);
  if (static_cast<int>(value.size()) < value_bytes) {
    value.append(value_bytes - value.size(), 'x');
  }
  return value;
}

struct AckedWrite {
  std::string key;
  uint64_t version = 0;
};

struct ClusterThreadResult {
  Histogram read_us[kNumPhases];
  Histogram write_us[kNumPhases];
  std::vector<AckedWrite> acked;
  uint64_t read_ok = 0;
  uint64_t read_not_found = 0;  // Keys no write has landed on yet.
  uint64_t read_errors = 0;
  uint64_t write_rejected = 0;  // Quorum misses: NOT acked, may be lost.
};

/// One closed-loop worker: Zipfian key draw, write_pct writes through
/// MintCoordinator::Put (recording every ack), the rest hedged GetLatest
/// reads. Runs until `stop` flips.
void RunClusterWorker(const LoadgenConfig& config,
                      mint::MintCoordinator* coordinator, int thread_id,
                      const std::atomic<int>* phase,
                      const std::atomic<bool>* stop,
                      std::atomic<uint64_t>* next_version,
                      ClusterThreadResult* result) {
  Random rng(0xc1a5ull * (thread_id + 1));
  ZipfianGenerator zipf(config.key_space, 0.99, 0x5eedull * (thread_id + 1));
  while (!stop->load(std::memory_order_relaxed)) {
    const int op_phase = phase->load(std::memory_order_relaxed);
    const std::string key = BenchKey(zipf.Next());
    const bool is_write =
        static_cast<int>(rng.Uniform(100)) < config.write_pct;
    const Clock::time_point sent = Clock::now();
    if (is_write) {
      const uint64_t version = next_version->fetch_add(1);
      const std::string value =
          ClusterValue(key, version, config.value_bytes);
      const Status s = coordinator->Put(key, version, value);
      result->write_us[op_phase].Add(MicrosSince(sent));
      if (s.ok()) {
        result->acked.push_back(AckedWrite{key, version});
      } else {
        // Not acknowledged: the write may or may not survive, and the
        // verification pass makes no claim about it. What it must never
        // see is a *successful* Put whose pair is gone.
        ++result->write_rejected;
      }
    } else {
      Result<mint::MintCoordinator::ReadResult> read =
          coordinator->GetLatest(key);
      result->read_us[op_phase].Add(MicrosSince(sent));
      if (read.ok()) {
        ++result->read_ok;
      } else if (read.status().IsNotFound()) {
        ++result->read_not_found;
      } else {
        ++result->read_errors;
      }
    }
  }
}

int RunCluster(const LoadgenConfig& config) {
  // -- The fleet: groups x replicas node processes --------------------------
  const int num_nodes = config.cluster_groups * config.cluster_replicas;
  std::printf("cluster: forking %d dmint_node processes (%d groups x %d "
              "replicas) from %s\n",
              num_nodes, config.cluster_groups, config.cluster_replicas,
              config.node_binary.c_str());
  std::vector<server::NodeProcess> nodes(num_nodes);
  std::vector<std::vector<mint::NodeEndpoint>> endpoints(
      config.cluster_groups);
  for (int i = 0; i < num_nodes; ++i) {
    Status s = nodes[i].Start(config.node_binary, /*port=*/0,
                              std::max(1, config.shards));
    if (!s.ok()) {
      std::fprintf(stderr, "node %d start failed: %s\n", i,
                   s.ToString().c_str());
      return 1;
    }
    mint::NodeEndpoint endpoint;
    endpoint.port = nodes[i].port();
    endpoints[i / config.cluster_replicas].push_back(endpoint);
  }

  mint::CoordinatorOptions coord_options;
  coord_options.replicas = config.cluster_replicas;
  mint::MintCoordinator coordinator(endpoints, coord_options);
  if (Status s = coordinator.Start(); !s.ok()) {
    std::fprintf(stderr, "coordinator start failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  // -- The load, phase by phase ---------------------------------------------
  std::atomic<int> phase{kHealthy};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> next_version{1};
  std::vector<ClusterThreadResult> results(config.threads);
  std::vector<std::thread> workers;
  workers.reserve(config.threads);
  for (int t = 0; t < config.threads; ++t) {
    workers.emplace_back(RunClusterWorker, std::cref(config), &coordinator, t,
                         &phase, &stop, &next_version, &results[t]);
  }
  const auto run_phase = [&](ClusterPhase p) {
    phase.store(p, std::memory_order_relaxed);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.phase_seconds));
  };

  run_phase(kHealthy);

  // The victim: the last node of group 0 — an ordinary replica, nothing
  // special about it, which is the point.
  const int victim = config.cluster_replicas - 1;
  uint64_t repaired_pairs = 0;
  uint64_t missing_after_repair = 0;
  bool repair_failed = false;
  if (config.kill_replica) {
    std::printf("cluster: SIGKILL node %d (port %u) mid-load\n", victim,
                nodes[victim].port());
    nodes[victim].Kill();
    run_phase(kDegraded);

    Status restarted = nodes[victim].Restart();
    if (!restarted.ok()) {
      std::fprintf(stderr, "node %d restart failed: %s\n", victim,
                   restarted.ToString().c_str());
      repair_failed = true;
    } else {
      // The restarted node is empty (its simulated SSD died with the
      // process); re-replicate its share from the surviving peers, over
      // RPC, while the load keeps running.
      Result<uint64_t> repaired = coordinator.RepairNode(victim);
      if (!repaired.ok()) {
        std::fprintf(stderr, "repair of node %d failed: %s\n", victim,
                     repaired.status().ToString().c_str());
        repair_failed = true;
      } else {
        repaired_pairs = *repaired;
      }
    }
    run_phase(kRecovered);
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();

  // -- Verification: no acked write may be lost -----------------------------
  // The fleet is whole again (or was never harmed), so every write the
  // coordinator acknowledged must read back exactly. This closes the loop
  // on the durability claim: quorum acks + repair == no lost acks.
  uint64_t acked_total = 0;
  uint64_t lost_acks = 0;
  for (const ClusterThreadResult& r : results) {
    acked_total += r.acked.size();
    for (const AckedWrite& w : r.acked) {
      Result<mint::MintCoordinator::ReadResult> read =
          coordinator.Get(w.key, w.version);
      const std::string expected =
          ClusterValue(w.key, w.version, config.value_bytes);
      if (!read.ok() || read->value != expected) {
        if (lost_acks < 5) {
          std::fprintf(stderr, "LOST ACKED WRITE: %s @%llu (%s)\n",
                       w.key.c_str(), (unsigned long long)w.version,
                       read.ok() ? "wrong value"
                                 : read.status().ToString().c_str());
        }
        ++lost_acks;
      }
    }
  }
  if (config.kill_replica && !repair_failed) {
    Result<uint64_t> missing = coordinator.VerifyNodeComplete(victim);
    if (!missing.ok()) {
      std::fprintf(stderr, "verify of node %d failed: %s\n", victim,
                   missing.status().ToString().c_str());
      repair_failed = true;
    } else {
      missing_after_repair = *missing;
    }
  }

  // -- Reporting ------------------------------------------------------------
  Histogram reads[kNumPhases], writes[kNumPhases];
  uint64_t read_ok = 0, read_not_found = 0, read_errors = 0;
  uint64_t write_rejected = 0;
  for (const ClusterThreadResult& r : results) {
    for (int p = 0; p < kNumPhases; ++p) {
      reads[p].Merge(r.read_us[p]);
      writes[p].Merge(r.write_us[p]);
    }
    read_ok += r.read_ok;
    read_not_found += r.read_not_found;
    read_errors += r.read_errors;
    write_rejected += r.write_rejected;
  }
  const int last_phase = config.kill_replica ? kNumPhases : 1;
  for (int p = 0; p < last_phase; ++p) {
    char label[32];
    std::snprintf(label, sizeof(label), "r-%s", PhaseName(p));
    PrintPercentiles(label, reads[p]);
    std::snprintf(label, sizeof(label), "w-%s", PhaseName(p));
    PrintPercentiles(label, writes[p]);
  }
  const mint::MintCoordinator::Counters counters = coordinator.counters();
  std::printf("coordinator: acked=%llu quorum_failures=%llu "
              "replica_write_failures=%llu hedged=%llu hedge_wins=%llu "
              "failovers=%llu hb_misses=%llu\n",
              (unsigned long long)counters.writes_acked,
              (unsigned long long)counters.write_quorum_failures,
              (unsigned long long)counters.replica_write_failures,
              (unsigned long long)counters.hedged_reads,
              (unsigned long long)counters.hedge_wins,
              (unsigned long long)counters.read_failovers,
              (unsigned long long)counters.heartbeat_misses);
  std::printf("durability: acked=%llu lost=%llu rejected=%llu "
              "repaired_pairs=%llu missing_after_repair=%llu\n",
              (unsigned long long)acked_total, (unsigned long long)lost_acks,
              (unsigned long long)write_rejected,
              (unsigned long long)repaired_pairs,
              (unsigned long long)missing_after_repair);

  bool gate_failed = false;
  const double healthy_p99 = reads[kHealthy].Percentile(99);
  const double degraded_p99 = reads[kDegraded].Percentile(99);
  if (config.kill_replica && config.degraded_p99_factor > 0 &&
      reads[kDegraded].count() > 0 &&
      degraded_p99 > healthy_p99 * config.degraded_p99_factor) {
    std::fprintf(stderr,
                 "degraded read p99 gate FAILED: %.1fus > %.2f x %.1fus\n",
                 degraded_p99, config.degraded_p99_factor, healthy_p99);
    gate_failed = true;
  }

  bench::JsonReport report;
  report.AddString("bench", "server_loadgen_cluster");
  report.Add("groups", config.cluster_groups);
  report.Add("replicas", config.cluster_replicas);
  report.Add("threads", config.threads);
  report.Add("write_pct", config.write_pct);
  report.Add("phase_seconds", config.phase_seconds);
  report.Add("kill_replica", config.kill_replica ? 1 : 0);
  report.Add("acked_writes", acked_total);
  report.Add("lost_acked_writes", lost_acks);
  report.Add("rejected_writes", write_rejected);
  report.Add("repaired_pairs", repaired_pairs);
  report.Add("missing_after_repair", missing_after_repair);
  report.Add("read_ok", read_ok);
  report.Add("read_not_found", read_not_found);
  report.Add("read_errors", read_errors);
  report.Add("hedged_reads", counters.hedged_reads);
  report.Add("hedge_wins", counters.hedge_wins);
  report.Add("read_failovers", counters.read_failovers);
  report.Add("healthy_read_p99_us", healthy_p99);
  report.Add("degraded_read_p99_us", degraded_p99);
  report.Add("recovered_read_p99_us", reads[kRecovered].Percentile(99));
  report.WriteTo(config.json_path);

  coordinator.Stop();
  for (server::NodeProcess& node : nodes) {
    if (node.running()) {
      DL_DISCARD_STATUS("best-effort teardown of the fleet",
                        node.Terminate());
    }
  }

  const bool durable = lost_acks == 0 && !repair_failed &&
                       missing_after_repair == 0;
  return (durable && !gate_failed) ? 0 : 2;
}

bool ParseArgs(int argc, char** argv, LoadgenConfig* config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_int = [&](int* out) {
      if (i + 1 >= argc) return false;
      *out = std::atoi(argv[++i]);
      return true;
    };
    if (arg == "--threads") {
      if (!next_int(&config->threads)) return false;
    } else if (arg == "--ops-per-thread") {
      if (!next_int(&config->ops_per_thread)) return false;
    } else if (arg == "--write-pct") {
      if (!next_int(&config->write_pct)) return false;
    } else if (arg == "--pipeline") {
      if (!next_int(&config->pipeline)) return false;
    } else if (arg == "--value-bytes") {
      if (!next_int(&config->value_bytes)) return false;
    } else if (arg == "--keys") {
      if (!next_int(&config->key_space)) return false;
    } else if (arg == "--batch") {
      if (!next_int(&config->batch)) return false;
    } else if (arg == "--shards") {
      if (!next_int(&config->shards)) return false;
    } else if (arg == "--read-pct") {
      int read_pct = 0;
      if (!next_int(&read_pct) || read_pct < 0 || read_pct > 100) {
        return false;
      }
      config->write_pct = 100 - read_pct;
    } else if (arg == "--zipf-theta") {
      if (i + 1 >= argc) return false;
      config->zipf_theta = std::atof(argv[++i]);
    } else if (arg == "--cache-mb") {
      if (!next_int(&config->cache_mb)) return false;
    } else if (arg == "--preload") {
      config->preload = true;
    } else if (arg == "--rollover") {
      config->rollover = true;
    } else if (arg == "--rollover-slice-kb") {
      if (!next_int(&config->rollover_slice_kb)) return false;
    } else if (arg == "--rollover-bandwidth-mbps") {
      if (i + 1 >= argc) return false;
      config->rollover_bandwidth_mbps = std::atof(argv[++i]);
    } else if (arg == "--read-p99-gate-us") {
      if (i + 1 >= argc) return false;
      config->read_p99_gate_us = std::atof(argv[++i]);
    } else if (arg == "--cluster") {
      config->cluster = true;
    } else if (arg == "--cluster-groups") {
      if (!next_int(&config->cluster_groups)) return false;
    } else if (arg == "--cluster-replicas") {
      if (!next_int(&config->cluster_replicas)) return false;
    } else if (arg == "--kill-replica") {
      config->kill_replica = true;
    } else if (arg == "--phase-seconds") {
      if (i + 1 >= argc) return false;
      config->phase_seconds = std::atof(argv[++i]);
    } else if (arg == "--degraded-p99-factor") {
      if (i + 1 >= argc) return false;
      config->degraded_p99_factor = std::atof(argv[++i]);
    } else if (arg == "--node-binary") {
      if (i + 1 >= argc) return false;
      config->node_binary = argv[++i];
    } else if (arg == "--connect") {
      if (i + 1 >= argc) return false;
      const std::string target = argv[++i];
      const size_t colon = target.rfind(':');
      if (colon == std::string::npos) return false;
      config->connect_host = target.substr(0, colon);
      config->connect_port =
          static_cast<uint16_t>(std::atoi(target.c_str() + colon + 1));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return config->threads > 0 && config->ops_per_thread > 0 &&
         config->pipeline > 0 && config->write_pct >= 0 &&
         config->write_pct <= 100 && config->batch > 0 &&
         config->shards >= 0 && config->rollover_slice_kb > 0 &&
         config->cluster_groups > 0 && config->cluster_replicas > 0 &&
         config->phase_seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenConfig config;
  config.json_path = bench::ExtractJsonFlag(&argc, argv);
  if (!ParseArgs(argc, argv, &config)) {
    std::fprintf(stderr,
                 "usage: server_loadgen [--threads N] [--ops-per-thread M]\n"
                 "         [--write-pct P] [--pipeline D] [--value-bytes B]\n"
                 "         [--keys K] [--batch W] [--shards N] [--json=PATH]\n"
                 "         [--connect host:port]\n"
                 "         [--read-pct P] [--zipf-theta T] [--cache-mb C]\n"
                 "         [--preload]\n"
                 "         [--rollover] [--rollover-slice-kb KB]\n"
                 "         [--rollover-bandwidth-mbps M] "
                 "[--read-p99-gate-us U]\n"
                 "         [--cluster] [--cluster-groups G] "
                 "[--cluster-replicas R]\n"
                 "         [--kill-replica] [--phase-seconds S]\n"
                 "         [--degraded-p99-factor F] [--node-binary PATH]\n");
    return 1;
  }

  if (config.cluster) return RunCluster(config);

  // The served stack, when not connecting to an external server.
  std::unique_ptr<mint::MintCluster> cluster;
  std::unique_ptr<server::KvServer> kv_server;
  std::string host = config.connect_host;
  uint16_t port = config.connect_port;
  if (host.empty()) {
    mint::MintOptions mint_options;
    mint_options.num_groups = 2;
    mint_options.nodes_per_group = 1;
    mint_options.replicas = 1;
    mint_options.parallel_reads = false;
    mint_options.engine.aof.segment_bytes = 8 << 20;
    mint_options.engine.num_shards = static_cast<uint32_t>(config.shards);
    mint_options.engine.cache_bytes =
        static_cast<uint64_t>(config.cache_mb) << 20;
    cluster = std::make_unique<mint::MintCluster>(mint_options);
    Status s = cluster->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "cluster start failed: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    kv_server = std::make_unique<server::KvServer>(
        cluster.get(), server::KvServerOptions());
    s = kv_server->Start();
    if (!s.ok()) {
      std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
      return 1;
    }
    host = "127.0.0.1";
    port = kv_server->port();
    std::printf("hosting in-process server on 127.0.0.1:%u\n", port);
  }

  if (config.rollover) {
    const int rc = RunRollover(config, host, port);
    if (kv_server != nullptr) kv_server->Shutdown();
    return rc;
  }

  std::printf("loadgen: %d threads x %d requests, %d%% writes, pipeline "
              "depth %d, %dB values, %d keys, %d write ops/frame, "
              "zipf=%.2f, cache=%dMiB\n",
              config.threads, config.ops_per_thread, config.write_pct,
              config.pipeline, config.value_bytes, config.key_space,
              config.batch, config.zipf_theta, config.cache_mb);

  if (config.preload) {
    const std::string v1_value(config.value_bytes, 'p');
    std::printf("preloading v1 over %d keys...\n", config.key_space);
    if (Status s = PreloadVersion(host, port, config, 1, v1_value);
        !s.ok()) {
      std::fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  std::atomic<uint64_t> next_version{2};
  std::vector<ThreadResult> results(config.threads);
  std::vector<std::thread> threads;
  threads.reserve(config.threads);
  // Simulated device time consumed by the nodes (SimClock micros): the
  // machine-independent cost a real SSD would add to the wall numbers. A
  // cache hit skips the device entirely, so this is where the cache's
  // effect is measured free of loopback-socket noise. Unavailable (zero)
  // when pointed at an external server.
  auto device_micros_now = [&]() -> uint64_t {
    if (cluster == nullptr) return 0;
    uint64_t total = 0;
    for (int n = 0; n < cluster->num_nodes(); ++n) {
      total += cluster->node(n)->clock()->NowMicros();
    }
    return total;
  };
  const uint64_t device_micros_before = device_micros_now();
  const Clock::time_point start = Clock::now();
  for (int t = 0; t < config.threads; ++t) {
    threads.emplace_back(RunClientThread, std::cref(config), std::cref(host),
                         port, t, &next_version, &results[t]);
  }
  for (std::thread& t : threads) t.join();
  const double elapsed_seconds = MicrosSince(start) * 1e-6;
  const uint64_t device_micros = device_micros_now() - device_micros_before;

  Histogram reads, writes;
  uint64_t ok = 0, busy = 0, not_found = 0, errors = 0, extra_ops = 0;
  for (const ThreadResult& r : results) {
    reads.Merge(r.read_us);
    writes.Merge(r.write_us);
    ok += r.ok;
    busy += r.busy;
    not_found += r.not_found;
    errors += r.errors;
    extra_ops += r.extra_ops;
  }
  const uint64_t completed = reads.count() + writes.count() + extra_ops;
  const double ops_per_sec =
      elapsed_seconds > 0 ? completed / elapsed_seconds : 0.0;

  PrintPercentiles("reads", reads);
  PrintPercentiles("writes", writes);
  std::printf("status: ok=%llu not_found=%llu busy=%llu errors=%llu\n",
              (unsigned long long)ok, (unsigned long long)not_found,
              (unsigned long long)busy, (unsigned long long)errors);
  std::printf("throughput: %.0f ops/s (%llu ops in %.2fs)\n", ops_per_sec,
              (unsigned long long)completed, elapsed_seconds);
  // Modeled throughput = ops over wall time PLUS the simulated device time
  // the run consumed — what the same run costs when the 80us/page device
  // model is real hardware instead of a SimClock entry.
  const double modeled_seconds =
      elapsed_seconds + static_cast<double>(device_micros) * 1e-6;
  const double modeled_ops_per_sec =
      modeled_seconds > 0 ? completed / modeled_seconds : 0.0;
  if (device_micros > 0) {
    std::printf("modeled (wall + device time): %.0f ops/s (%.3fs device)\n",
                modeled_ops_per_sec,
                static_cast<double>(device_micros) * 1e-6);
  }

  bench::JsonReport report;
  report.AddString("bench", "server_loadgen");
  report.Add("threads", config.threads);
  report.Add("ops_per_thread", config.ops_per_thread);
  report.Add("write_pct", config.write_pct);
  report.Add("pipeline", config.pipeline);
  report.Add("batch", config.batch);
  report.Add("value_bytes", config.value_bytes);
  report.Add("shards", config.shards);
  report.Add("zipf_theta", config.zipf_theta);
  report.Add("cache_mb", config.cache_mb);
  report.Add("ops_per_sec", ops_per_sec);
  report.Add("device_micros", device_micros);
  report.Add("modeled_ops_per_sec", modeled_ops_per_sec);
  report.Add("completed_ops", completed);
  report.Add("read_p50_us", reads.Percentile(50));
  report.Add("read_p95_us", reads.Percentile(95));
  report.Add("read_p99_us", reads.Percentile(99));
  report.Add("write_p50_us", writes.Percentile(50));
  report.Add("write_p95_us", writes.Percentile(95));
  report.Add("write_p99_us", writes.Percentile(99));
  report.Add("ok", ok);
  report.Add("not_found", not_found);
  report.Add("busy", busy);
  report.Add("errors", errors);
  report.WriteTo(config.json_path);

  if (kv_server != nullptr) kv_server->Shutdown();
  // Errors (not kBusy/kNotFound, which are expected under load) fail the
  // run so CI can gate on the exit code.
  return errors == 0 ? 0 : 2;
}
