#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <malloc.h>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "harness.h"
#include "common/logging.h"
#include "index/corpus.h"
#include "mint/coordinator.h"
#include "rpc/client.h"
#include "server/node_process.h"

namespace perfbench {

namespace {

// ---------------------------------------------------------------------------
// Metric tables. Every run prints every name of its mode, in this order;
// METRICS.md defines each one.
// ---------------------------------------------------------------------------

struct MetricName {
  const char* name;
  const char* unit;
};

constexpr MetricName kLayerMetrics[] = {
    {"client.read_p99_us", "us"},
    {"client.write_p99_us", "us"},
    {"rpc.send_p50_us", "us"},
    {"rpc.frame_bytes_per_op", "bytes"},
    {"rpc.codec_ns_per_frame", "ns"},
    {"server.stack_self_p50_us", "us"},
    {"server.busy_rejects", "count"},
    {"server.write_batch_share", "ratio"},
    {"mint.get_self_p50_us", "us"},
    {"mint.put_self_p50_us", "us"},
    {"mint.read_timeouts", "count"},
    {"mint.coord.attempts_per_read", "ratio"},
    {"mint.coord.hedges_per_read", "ratio"},
    {"mint.coord.hedge_win_share", "ratio"},
    {"mint.coord.failovers_per_read", "ratio"},
    {"mint.coord.stale_read_share", "ratio"},
    {"mint.coord.self_put_p50_us", "us"},
    {"qindb.get_p50_us", "us"},
    {"qindb.get_p99_us", "us"},
    {"qindb.put_p50_us", "us"},
    {"qindb.cache_hit_ratio", "ratio"},
    {"qindb.cache_admission_reject_ratio", "ratio"},
    {"qindb.traceback_share", "ratio"},
    {"qindb.commit_ms", "ms"},
    {"qindb.drop_version_ms", "ms"},
    {"qindb.ingest_us_per_pair", "us"},
    {"qindb.gc_invocations", "count"},
    {"aof.gc_bytes_rewritten_per_user_byte", "ratio"},
    {"aof.segments_reclaimed", "count"},
    {"ssd.pages_read_per_get", "pages"},
    {"ssd.device_us_per_get", "us"},
    {"ssd.device_us_per_op", "us"},
    {"ssd.write_amp", "ratio"},
    {"ssd.pages_written_per_user_kib", "pages"},
    {"ssd.blocks_erased", "count"},
    {"ssd.gc_pages_migrated", "count"},
    {"bifrost.dedup_ratio", "ratio"},
    {"bifrost.dedup_us_per_pair", "us"},
    {"bifrost.slice_encode_us_per_mib", "us"},
    {"bifrost.ship_mib_s", "MiB/s"},
    {"bifrost.slices_resent", "count"},
    {"gen.lag_p99_us", "us"},
    {"trace.overhead_pct", "%"},
};

/// Per-layer figures of one traced run; names a workload does not set
/// (the layer is not on its path) print as 0.
class Layers {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void Emit(Report* report) const {
    for (const MetricName& m : kLayerMetrics) {
      auto it = values_.find(m.name);
      report->Add(m.name, it == values_.end() ? 0.0 : it->second, m.unit);
    }
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const MetricName& m : kLayerMetrics) known |= name == m.name;
      if (!known) std::fprintf(stderr, "unlisted layer metric %s\n",
                               name.c_str());
    }
  }

 private:
  std::map<std::string, double> values_;
};

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// The end-to-end figures every workload reports.
struct EndToEnd {
  Samples read_us;
  Samples write_us;
  /// Set for closed-loop latencies: medians of the per-round medians.
  std::vector<double> read_p50_rounds;
  std::vector<double> write_p50_rounds;
  /// Tail windows (see SetTails): from origin_ns, window_ns long.
  int64_t origin_ns = 0;
  int64_t window_ns = 1'000'000'000;
  double throughput_ops_s = 0;
  uint64_t throughput_ops = 0;
  std::vector<double> version_load_s;
  double space_amp = 0;
  std::vector<double> setup_s;
  double peak_rss_mb = 0;
};

/// A tail window counts when it holds at least this many answers, which
/// leaves at least ten beyond its p99.
constexpr size_t kMinWindowSamples = 1000;

void EmitEndToEnd(const EndToEnd& e, const Tally& tally, Report* report) {
  for (const auto& [label, samples] :
       {std::pair<const char*, const Samples*>{"read", &e.read_us},
        {"write", &e.write_us}}) {
    std::printf("latency %-5s p50=%.1f p90=%.1f p95=%.1f p99=%.1f "
                "windowed-p99=%.1f p99.9=%.1f max=%.1f us\n",
                label, samples->Percentile(50), samples->Percentile(90),
                samples->Percentile(95), samples->Percentile(99),
                samples->WindowedPercentile(99, e.origin_ns, e.window_ns,
                                            kMinWindowSamples),
                samples->Percentile(99.9), samples->Percentile(100));
  }
  auto p50 = [](const Samples& s, const std::vector<double>& rounds) {
    return rounds.empty() ? s.Percentile(50) : Median(rounds);
  };
  report->Add("read_p50_us", p50(e.read_us, e.read_p50_rounds), "us",
              e.read_us.count());
  report->Add("write_p50_us", p50(e.write_us, e.write_p50_rounds), "us",
              e.write_us.count());
  report->Add("throughput_ops_s", e.throughput_ops_s, "ops/s",
              e.throughput_ops);
  report->Add("version_load_s", Median(e.version_load_s), "s",
              e.version_load_s.size());
  report->Add("space_amp", e.space_amp, "ratio");
  // Every answer counts, retried ones included: the correct final answers
  // over all answers.
  const uint64_t answers = tally.attempted + tally.retries;
  report->Add("op_success_ratio",
              Ratio(static_cast<double>(tally.attempted - tally.failed),
                    static_cast<double>(answers)),
              "ratio", answers);
  report->Add("setup_s", Median(e.setup_s), "s", e.setup_s.size());
  report->Add("peak_rss_mb", e.peak_rss_mb, "MiB");
}

/// The client-observed tails, windowed p99 (see Samples::WindowedPercentile:
/// a stall confined to a few windows moves only those windows). Stalls
/// make them vary too much between runs to bound (METRICS.md), so they are
/// reported with the per-layer figures.
void SetTails(const EndToEnd& e, Layers* layers) {
  layers->Set("client.read_p99_us",
              e.read_us.WindowedPercentile(99, e.origin_ns, e.window_ns,
                                           kMinWindowSamples));
  layers->Set("client.write_p99_us",
              e.write_us.WindowedPercentile(99, e.origin_ns, e.window_ns,
                                            kMinWindowSamples));
}

/// Prints the outcome summary, the report, and returns the exit code.
int Finish(const Report& report, const Tally& tally) {
  std::printf("outcome: attempted=%llu failed=%llu wrong=%llu retries=%llu "
              "max_tries=%d busy=%llu read_timeouts=%llu stale=%llu%s%s\n",
              (unsigned long long)tally.attempted,
              (unsigned long long)tally.failed,
              (unsigned long long)tally.wrong,
              (unsigned long long)tally.retries, tally.max_tries,
              (unsigned long long)tally.busy,
              (unsigned long long)tally.read_timeouts,
              (unsigned long long)tally.stale,
              tally.first_error.empty() ? "" : " first_error=",
              tally.first_error.c_str());
  const bool correct = tally.wrong == 0;
  report.Print(correct, std::max<uint64_t>(1, tally.attempted),
               tally.failed);
  return correct ? 0 : 1;
}

/// Tears down an earlier setup's stack and hands its memory back, so the
/// peak RSS reflects the stack under test, not the garbage of its
/// predecessors.
void ReleaseStack(std::unique_ptr<Stack>* stack) {
  stack->reset();
  malloc_trim(0);
}

int SetupFailed(const char* what, const Status& s) {
  std::fprintf(stderr, "setup failed: %s: %s\n", what, s.ToString().c_str());
  return 3;
}

// ---------------------------------------------------------------------------
// Thread fan-out helpers
// ---------------------------------------------------------------------------

/// Runs `fn(part, tally)` over `threads` interleaved parts of [0, n).
template <typename Fn>
Tally Parallel(size_t n, int threads, const Fn& fn) {
  std::vector<Tally> tallies(threads);
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i, &tallies[t]);
    });
  }
  Tally total;
  for (int t = 0; t < threads; ++t) {
    workers[t].join();
    total.Merge(tallies[t]);
  }
  return total;
}

Tally OpenLoopThreads(uint16_t port, double total_rate, int threads,
                      int64_t start_ns, int64_t end_ns, const MixOptions& mix,
                      uint64_t seed, uint32_t first_stream, Oracle* oracle) {
  return Parallel(threads, threads, [&](size_t t, Tally* tally) {
    // Stagger the threads' schedules so the merged arrivals are even.
    const int64_t offset = static_cast<int64_t>(1e9 / total_rate * t);
    RunOpenLoop(port, total_rate / threads, start_ns + offset, end_ns,
                OpStream(mix, seed, first_stream + t), oracle, tally);
  });
}

Tally ClosedLoopThreads(uint16_t port, int threads, int64_t end_ns,
                        const MixOptions& mix, uint64_t seed,
                        uint32_t first_stream, Oracle* oracle) {
  return Parallel(threads, threads, [&](size_t t, Tally* tally) {
    RunClosedLoop(port, end_ns, OpStream(mix, seed, first_stream + t), oracle,
                  tally);
  });
}

/// A closed-loop phase runs as kRounds rounds, each with fresh client
/// threads and connections, and reports medians over the rounds: where the
/// host places the threads sets a run's speed for as long as the threads
/// live, so one placement per phase made whole runs fast or slow.
constexpr int kRounds = 5;

struct Rounds {
  Tally all;
  std::vector<double> ops_per_s;
  std::vector<double> read_p50;
  std::vector<double> write_p50;

  /// Books round `index`, which started at `start_ns` and has just ended.
  void Add(int index, int64_t start_ns, const Tally& t) {
    ops_per_s.push_back(Ratio(t.attempted, SecondsSince(start_ns)));
    read_p50.push_back(t.read_us.Percentile(50));
    write_p50.push_back(t.write_us.Percentile(50));
    std::printf("round %d: %.0f ops/s, read p50 %.1f us, write p50 %.1f us\n",
                index, ops_per_s.back(), read_p50.back(), write_p50.back());
    all.Merge(t);
  }
};

int64_t RoundEndNs(int64_t start_ns, double seconds) {
  return start_ns + static_cast<int64_t>(seconds / kRounds * 1e9);
}

/// Runs `round(index, end_ns)` kRounds times over `seconds` in total.
template <typename Fn>
Rounds InRounds(double seconds, const Fn& round) {
  Rounds r;
  for (int i = 0; i < kRounds; ++i) {
    const int64_t start = NowNs();
    r.Add(i, start, round(i, RoundEndNs(start, seconds)));
  }
  return r;
}

Tally VerifyAckedParallel(uint16_t port, const VersionedKeys& keys,
                          const std::vector<AckedPut>& acked, int threads) {
  std::vector<std::vector<AckedPut>> parts(threads);
  for (size_t i = 0; i < acked.size(); ++i) {
    parts[i % threads].push_back(acked[i]);
  }
  return Parallel(threads, threads, [&](size_t part, Tally* tally) {
    VerifyAckedPuts(port, keys, parts[part], tally);
  });
}

std::vector<Op> ReplayOps(const MixOptions& mix, uint64_t seed,
                          uint32_t stream, size_t n) {
  OpStream ops(mix, seed, stream);
  std::vector<Op> out(n);
  for (Op& op : out) op = ops.Next();
  return out;
}

void SplitOps(const std::vector<Op>& ops, std::vector<Op>* reads,
              std::vector<Op>* puts) {
  for (const Op& op : ops) {
    (op.kind == OpKind::kPut ? puts : reads)->push_back(op);
  }
}

// Peel streams and version offsets: the main run uses streams below 64; the
// replays use stream 64 with a distinct put-version offset per pass.
constexpr uint32_t kReplayStream = 64;
constexpr uint64_t kOffsetRpcPlain[2] = {0, 16};
constexpr uint64_t kOffsetRpcSpans[2] = {8, 24};
constexpr uint64_t kOffsetMint = 32;
constexpr uint64_t kOffsetQinDb = 40;
constexpr uint64_t kOffsetCoord = 48;

/// RPC-level replay four times, alternating spans off and on, so the
/// tracing overhead compares like with like. Returns the last spans-on pass.
PeelLevel PeelRpcWithOverhead(uint16_t port, const std::vector<Op>& ops,
                              Oracle* oracle, Layers* layers,
                              uint64_t* wrong) {
  std::vector<double> plain_p50, spans_p50;
  PeelLevel traced;
  for (int round = 0; round < 2; ++round) {
    PeelLevel plain = PeelRpc(port, ops, oracle, kOffsetRpcPlain[round],
                              /*spans=*/false);
    traced = PeelRpc(port, ops, oracle, kOffsetRpcSpans[round],
                     /*spans=*/true);
    *wrong += plain.wrong + traced.wrong;
    plain_p50.push_back(plain.get_us.Percentile(50));
    spans_p50.push_back(traced.get_us.Percentile(50));
  }
  const double plain = Median(plain_p50);
  layers->Set("trace.overhead_pct",
              Ratio(Median(spans_p50) - plain, plain) * 100.0);
  layers->Set("rpc.send_p50_us", traced.send_us.Percentile(50));
  layers->Set("rpc.frame_bytes_per_op",
              Ratio(static_cast<double>(traced.frame_bytes),
                    static_cast<double>(traced.ops)));
  layers->Set("rpc.codec_ns_per_frame", CodecNsPerFrame(ops, oracle));
  return traced;
}

/// MintCluster and owning-node QinDb replays on `cluster`, with the
/// device counters of the QinDb read pass.
void PeelInProcess(mint::MintCluster* cluster, const std::vector<Op>& ops,
                   Oracle* oracle, double client_get_p50, Layers* layers,
                   uint64_t* wrong) {
  PeelLevel mint = PeelMint(cluster, ops, oracle, kOffsetMint);
  std::vector<Op> reads, puts;
  SplitOps(ops, &reads, &puts);
  const EngineCounters before = ReadEngineCounters(cluster);
  PeelLevel db_reads = PeelQinDb(cluster, reads, oracle, kOffsetQinDb);
  const EngineCounters read_delta =
      ReadEngineCounters(cluster).Minus(before);
  PeelLevel db_puts = PeelQinDb(cluster, puts, oracle, kOffsetQinDb);
  *wrong += mint.wrong + db_reads.wrong + db_puts.wrong;

  const double gets = static_cast<double>(db_reads.get_us.count());
  layers->Set("server.stack_self_p50_us",
              client_get_p50 - mint.get_us.Percentile(50));
  layers->Set("mint.get_self_p50_us",
              mint.get_us.Percentile(50) - db_reads.get_us.Percentile(50));
  layers->Set("mint.put_self_p50_us",
              mint.put_us.Percentile(50) - db_puts.put_us.Percentile(50));
  layers->Set("qindb.get_p50_us", db_reads.get_us.Percentile(50));
  layers->Set("qindb.get_p99_us", db_reads.get_us.Percentile(99));
  layers->Set("qindb.put_p50_us", db_puts.put_us.Percentile(50));
  layers->Set("ssd.pages_read_per_get",
              Ratio(static_cast<double>(read_delta.pages_read), gets));
  layers->Set("ssd.device_us_per_get",
              Ratio(static_cast<double>(read_delta.device_us), gets));
}

/// Engine-side figures over a window of the run (counter deltas).
void SetEngineWindow(const EngineCounters& d, double user_ops,
                     Layers* layers) {
  const double user_bytes = static_cast<double>(d.user_bytes);
  const double written_bytes =
      static_cast<double>(d.pages_written) * d.page_size;
  layers->Set("qindb.cache_hit_ratio",
              Ratio(static_cast<double>(d.cache_hits),
                    static_cast<double>(d.cache_hits + d.cache_misses)));
  layers->Set("qindb.cache_admission_reject_ratio",
              Ratio(static_cast<double>(d.cache_admission_rejects),
                    static_cast<double>(d.cache_inserts +
                                        d.cache_admission_rejects)));
  layers->Set("qindb.traceback_share",
              Ratio(static_cast<double>(d.traceback_gets),
                    static_cast<double>(d.gets)));
  layers->Set("qindb.gc_invocations", static_cast<double>(d.gc_invocations));
  layers->Set("aof.gc_bytes_rewritten_per_user_byte",
              Ratio(static_cast<double>(d.gc_bytes_rewritten), user_bytes));
  layers->Set("aof.segments_reclaimed",
              static_cast<double>(d.segments_reclaimed));
  layers->Set("ssd.device_us_per_op",
              Ratio(static_cast<double>(d.device_us), user_ops));
  layers->Set("ssd.write_amp", Ratio(written_bytes, user_bytes));
  layers->Set("ssd.pages_written_per_user_kib",
              Ratio(static_cast<double>(d.pages_written), user_bytes / 1024));
  layers->Set("ssd.blocks_erased", static_cast<double>(d.blocks_erased));
  layers->Set("ssd.gc_pages_migrated",
              static_cast<double>(d.gc_pages_migrated));
}

/// Bifrost figures over the version loads of the run.
struct LoadTotals {
  bifrost::DedupStats dedup;
  bifrost::wire::BulkLoadReport bulk;
  double dedup_s = 0;
  double ship_s = 0;

  void Add(const LoadTiming& t) {
    dedup.Merge(t.dedup);
    bulk.bytes_shipped += t.bulk.bytes_shipped;
    bulk.slices_resent += t.bulk.slices_resent;
    dedup_s += t.dedup_s;
    ship_s += t.ship_s;
  }
  void Emit(Layers* layers) const {
    layers->Set("bifrost.dedup_ratio", dedup.dedup_ratio());
    layers->Set("bifrost.dedup_us_per_pair",
                Ratio(dedup_s * 1e6, static_cast<double>(dedup.pairs_total)));
    layers->Set("bifrost.ship_mib_s",
                Ratio(static_cast<double>(bulk.bytes_shipped) / (1 << 20),
                      ship_s));
    layers->Set("bifrost.slices_resent",
                static_cast<double>(bulk.slices_resent));
  }
};

void WriteSpans(const RunConfig& config, const char* workload,
                const PeelLevel& level) {
  if (config.span_dir.empty()) return;
  const std::string path = config.span_dir + "/" + workload + "-" +
                           std::to_string(config.seed) + ".spans.tsv";
  std::ofstream out(path);
  out << "span\tparent\tstart_ns\tend_ns\n";
  for (size_t i = 0; i + 2 < level.stamps.size(); i += 3) {
    const size_t op = i / 3;
    out << "rpc.request." << op << "\t-\t" << level.stamps[i] << "\t"
        << level.stamps[i + 2] << "\n";
    out << "rpc.send." << op << "\trpc.request." << op << "\t"
        << level.stamps[i] << "\t" << level.stamps[i + 1] << "\n";
  }
}

webindex::IndexDataset SyntheticVersion(const VersionedKeys& keys,
                                        uint64_t version) {
  webindex::IndexDataset dataset;
  dataset.type = webindex::IndexType::kSummary;
  dataset.version = version;
  dataset.pairs.reserve(keys.keys());
  for (uint32_t i = 0; i < keys.keys(); ++i) {
    dataset.pairs.push_back({keys.Key(i), keys.PutValue(i, version)});
  }
  return dataset;
}

uint64_t DatasetBytes(const webindex::IndexDataset& dataset) {
  uint64_t bytes = 0;
  for (const auto& pair : dataset.pairs) {
    bytes += pair.key.size() + pair.value.size();
  }
  return bytes;
}

uint64_t AckedBytes(const VersionedKeys& keys,
                    const std::vector<AckedPut>& acked) {
  uint64_t bytes = 0;
  for (const AckedPut& put : acked) {
    bytes += keys.Key(put.key).size() + keys.value_bytes();
  }
  return bytes;
}

}  // namespace

// ===========================================================================
// serve: online index serving through rpc -> server -> mint -> qindb -> aof
// -> ssd. Phase A is an open loop at a fixed rate (the latency figures),
// phase B a closed loop at the same connection count (the throughput).
// ===========================================================================

int RunServe(const RunConfig& config) {
  const uint32_t keys_count = config.tiny ? 4000 : 100000;
  const int value_bytes = 400;
  const uint64_t cache_bytes = config.tiny ? (256u << 10) : (8u << 20);
  const double rate = config.tiny ? 2000 : 24000;
  const int threads = 2;
  const double a_seconds = config.seconds * 0.6;
  const double b_seconds = config.seconds * 0.4;
  // Untraced, each setup serves a fifth of both phases on its own stack,
  // for the reasons given at RunReplicated: on one stack, closed-loop
  // throughput fell round by round. The traced run keeps one stack.
  const int setups = config.trace ? 1 : kRounds;

  auto new_oracle = [&] {
    return std::make_unique<VersionedKeys>("serve:", keys_count, value_bytes);
  };
  std::unique_ptr<VersionedKeys> oracle = new_oracle();
  MixOptions mix;
  mix.read_keys = mix.put_keys = keys_count;
  mix.put_pct = 5;
  const webindex::IndexDataset preload = SyntheticVersion(*oracle, 1);
  std::printf("serve: %u keys x %dB values (%.1f MiB of records), cache "
              "%.1f MiB per node, open loop %.0f ops/s then closed loop, "
              "%d connections\n",
              keys_count, value_bytes, DatasetBytes(preload) / 1048576.0,
              cache_bytes / 1048576.0, rate, threads);

  EndToEnd e2e;
  std::unique_ptr<Stack> stack;
  LoadTiming preload_timing;
  // Phase A of setup `index`: the open loop for `seconds`.
  auto open_loop = [&](int index, double seconds) {
    const int64_t start = NowNs() + 10'000'000;
    if (e2e.origin_ns == 0) e2e.origin_ns = start;
    return OpenLoopThreads(stack->port, rate, threads, start,
                           start + static_cast<int64_t>(seconds * 1e9), mix,
                           config.seed, threads * 2 * index, oracle.get());
  };
  // Phase B round `index`: the closed loop until `end_ns`.
  auto closed_round = [&](int index, int64_t end_ns) {
    return ClosedLoopThreads(stack->port, threads, end_ns, mix, config.seed,
                             threads * (2 * index + 1), oracle.get());
  };
  // Every acknowledged put must read back at its exact version.
  auto verify = [&](const Tally& a, const Tally& b) {
    std::vector<AckedPut> acked = a.acked;
    acked.insert(acked.end(), b.acked.begin(), b.acked.end());
    return VerifyAckedParallel(stack->port, *oracle, acked, threads);
  };
  Tally phase_a;
  Rounds phase_b_rounds;
  Tally verified;
  for (int i = 0; i < setups; ++i) {
    ReleaseStack(&stack);
    oracle = new_oracle();
    auto fresh = std::make_unique<Stack>();
    const int64_t start = NowNs();
    if (Status s = StartStack(cache_bytes, fresh.get()); !s.ok()) {
      return SetupFailed("stack", s);
    }
    bifrost::Deduplicator dedup;
    LoadTiming timing;
    if (Status s = LoadVersion(fresh->port, &dedup, preload, &timing,
                               /*keep_shipped=*/i == setups - 1);
        !s.ok()) {
      return SetupFailed("preload", s);
    }
    e2e.setup_s.push_back(SecondsSince(start));
    e2e.version_load_s.push_back(timing.total_s);
    stack = std::move(fresh);
    preload_timing = std::move(timing);
    oracle->MarkPreloaded();
    if (config.trace) continue;
    const Tally a = open_loop(i, a_seconds / kRounds);
    const int64_t b_start = NowNs();
    const Tally b = closed_round(i, RoundEndNs(b_start, b_seconds));
    phase_b_rounds.Add(i, b_start, b);
    verified.Merge(verify(a, b));
    phase_a.Merge(a);
  }
  VersionedKeys& keys = *oracle;

  EngineCounters delta;
  uint64_t busy_before = 0, batched_before = 0;
  if (config.trace) {
    const EngineCounters before = ReadEngineCounters(stack->cluster.get());
    busy_before = stack->server->counters().requests_rejected_busy.load();
    batched_before = stack->server->counters().writes_batched.load();
    phase_a = open_loop(0, a_seconds);
    phase_b_rounds = InRounds(b_seconds, closed_round);
    delta = ReadEngineCounters(stack->cluster.get()).Minus(before);
    verified = verify(phase_a, phase_b_rounds.all);
  }
  const Tally& phase_b = phase_b_rounds.all;
  Tally all;
  all.Merge(phase_a);
  all.Merge(phase_b);
  all.Merge(verified);

  e2e.read_us = phase_a.read_us;
  e2e.write_us = phase_a.write_us;
  e2e.throughput_ops = phase_b.attempted;
  e2e.throughput_ops_s = Median(phase_b_rounds.ops_per_s);
  const EngineCounters end = ReadEngineCounters(stack->cluster.get());
  e2e.space_amp = Ratio(end.disk_bytes, end.user_bytes);
  e2e.peak_rss_mb = PeakRssMb();

  Report report;
  if (!config.trace) {
    EmitEndToEnd(e2e, all, &report);
    return Finish(report, all);
  }

  Layers layers;
  SetTails(e2e, &layers);
  const uint64_t puts = phase_a.write_us.count() + phase_b.write_us.count();
  layers.Set("server.busy_rejects",
             static_cast<double>(
                 stack->server->counters().requests_rejected_busy.load() -
                 busy_before));
  layers.Set("server.write_batch_share",
             Ratio(static_cast<double>(
                       stack->server->counters().writes_batched.load() -
                       batched_before),
                   static_cast<double>(puts)));
  layers.Set("mint.read_timeouts", static_cast<double>(all.read_timeouts));
  layers.Set("gen.lag_p99_us", phase_a.lag_us.Percentile(99));
  SetEngineWindow(delta, static_cast<double>(phase_a.attempted +
                                             phase_b.attempted),
                  &layers);
  LoadTotals loads;
  loads.Add(preload_timing);
  loads.Emit(&layers);
  layers.Set("bifrost.slice_encode_us_per_mib",
             SliceEncodeUsPerMib(preload_timing.shipped, 1));

  const std::vector<Op> ops =
      ReplayOps(mix, config.seed, kReplayStream, config.tiny ? 2000 : 20000);
  uint64_t wrong = 0;
  const PeelLevel rpc =
      PeelRpcWithOverhead(stack->port, ops, &keys, &layers, &wrong);
  WriteSpans(config, "serve", rpc);
  PeelInProcess(stack->cluster.get(), ops, &keys, rpc.get_us.Percentile(50),
                &layers, &wrong);
  DirectIngest direct;
  if (Status s = TimeDirectIngest(stack->cluster.get(),
                                  preload_timing.shipped, 1ull << 40,
                                  /*drop=*/true, &direct);
      !s.ok()) {
    return SetupFailed("direct ingest", s);
  }
  layers.Set("qindb.ingest_us_per_pair", direct.ingest_us_per_pair);
  layers.Set("qindb.commit_ms", direct.commit_ms);
  layers.Set("qindb.drop_version_ms", direct.drop_ms);
  all.wrong += wrong;
  all.failed += wrong;
  layers.Emit(&report);
  return Finish(report, all);
}

// ===========================================================================
// version-cycle: the paper's update cycle under serving. Every period a new
// index version is generated, deduplicated, shipped over the wire with a
// BulkLoader and committed; then version v-2 is dropped and inline GC
// reclaims space, while open-loop readers (and a trickle of online puts)
// keep running.
// ===========================================================================

int RunVersionCycle(const RunConfig& config) {
  webindex::CorpusOptions corpus_options;
  corpus_options.num_docs = config.tiny ? 2000 : 20000;
  corpus_options.abstract_bytes = 512;
  corpus_options.seed = config.seed;
  const uint64_t cache_bytes = config.tiny ? (4u << 20) : (32u << 20);
  const double rate = config.tiny ? 500 : 4000;
  const int threads = 2;
  // One version every 0.75 s of the cycle phase (25 at --seconds 25): enough
  // for GC to run many times and for the space figures to level off.
  const int cycles =
      config.tiny ? 3 : std::max(4, static_cast<int>(config.seconds));
  const int setups = config.trace ? 1 : 5;

  webindex::Corpus corpus(corpus_options);
  corpus.AdvanceVersion();
  const webindex::IndexDataset v1 = webindex::BuildSummaryIndex(corpus);
  corpus.AdvanceVersion();
  const webindex::IndexDataset v2 = webindex::BuildSummaryIndex(corpus);
  std::vector<std::string> index_keys;
  for (const auto& pair : v1.pairs) index_keys.push_back(pair.key);
  VersionedKeys online("rt:", 1000, 400);
  IndexKeys oracle(index_keys, &online);
  MixOptions mix;
  mix.read_keys = oracle.size();
  mix.put_keys = online.keys();
  mix.put_pct = 5;
  mix.version_base = 1ull << 32;  // Far above every index version.
  std::printf("version-cycle: %zu docs, %.1f MiB per version, cache %.1f "
              "MiB per node, %d cycles, open loop %.0f ops/s\n",
              index_keys.size(), DatasetBytes(v1) / 1048576.0,
              cache_bytes / 1048576.0, cycles, rate);

  auto version_data = [](const webindex::IndexDataset& dataset) {
    auto data = std::make_shared<VersionData>();
    data->version = dataset.version;
    for (const auto& pair : dataset.pairs) data->values.push_back(pair.value);
    return std::shared_ptr<const VersionData>(std::move(data));
  };

  EndToEnd e2e;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<bifrost::Deduplicator> dedup;
  for (int i = 0; i < setups; ++i) {
    ReleaseStack(&stack);
    auto fresh = std::make_unique<Stack>();
    auto fresh_dedup = std::make_unique<bifrost::Deduplicator>();
    const int64_t start = NowNs();
    if (Status s = StartStack(cache_bytes, fresh.get()); !s.ok()) {
      return SetupFailed("stack", s);
    }
    for (const webindex::IndexDataset* dataset : {&v1, &v2}) {
      LoadTiming timing;
      if (Status s = LoadVersion(fresh->port, fresh_dedup.get(), *dataset,
                                 &timing);
          !s.ok()) {
        return SetupFailed("preload", s);
      }
    }
    e2e.setup_s.push_back(SecondsSince(start));
    stack = std::move(fresh);
    dedup = std::move(fresh_dedup);
  }
  oracle.LoadStarting(version_data(v1));
  oracle.Committed(v1.version);
  oracle.LoadStarting(version_data(v2));
  oracle.Committed(v2.version);

  const EngineCounters before = ReadEngineCounters(stack->cluster.get());
  // Cycles under open-loop readers, then a closed-loop phase.
  const double closed_share = 0.25;
  const double cycle_seconds = config.seconds * (1 - closed_share);
  const int64_t start_ns = NowNs() + 10'000'000;
  const int64_t end_ns =
      start_ns + static_cast<int64_t>(cycle_seconds * 1e9);
  Tally readers;
  std::thread reader_thread([&] {
    readers = OpenLoopThreads(stack->port, rate, threads, start_ns, end_ns,
                              mix, config.seed, 0, &oracle);
  });

  // The loader: one version per period, open loop like the index pipeline.
  const double period_ns = cycle_seconds * 1e9 / cycles;
  LoadTotals loads;
  std::vector<double> drop_ms;
  std::vector<bifrost::ShippedPair> last_shipped;
  uint64_t last_version = v2.version;
  std::shared_ptr<const VersionData> last_data = version_data(v2);
  uint64_t retained_bytes = DatasetBytes(v1) + DatasetBytes(v2);
  uint64_t previous_bytes = DatasetBytes(v2);
  Status load_status;
  for (int c = 0; c < cycles && load_status.ok(); ++c) {
    const int64_t due = start_ns + static_cast<int64_t>(c * period_ns);
    while (NowNs() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    if (NowNs() >= end_ns) break;
    corpus.AdvanceVersion();
    const webindex::IndexDataset next = webindex::BuildSummaryIndex(corpus);
    std::shared_ptr<const VersionData> data = version_data(next);
    oracle.LoadStarting(data);
    LoadTiming timing;
    load_status = LoadVersion(stack->port, dedup.get(), next, &timing,
                              /*keep_shipped=*/config.trace);
    if (!load_status.ok()) break;
    oracle.Committed(next.version);
    const int64_t drop_start = NowNs();
    load_status = stack->cluster->DropVersion(next.version - 2);
    drop_ms.push_back(SecondsSince(drop_start) * 1e3);
    e2e.version_load_s.push_back(timing.total_s);
    loads.Add(timing);
    if (config.trace) last_shipped = std::move(timing.shipped);
    last_version = next.version;
    last_data = data;
    retained_bytes = previous_bytes + DatasetBytes(next);
    previous_bytes = DatasetBytes(next);
  }
  reader_thread.join();
  if (!load_status.ok()) return SetupFailed("version cycle", load_status);
  std::printf("version-cycle: %zu versions loaded, last v%llu\n",
              e2e.version_load_s.size(), (unsigned long long)last_version);
  const EngineCounters delta =
      ReadEngineCounters(stack->cluster.get()).Minus(before);

  // Closed loop over the settled versions: the fits-in-cache throughput.
  const Rounds closed_rounds =
      InRounds(closed_share * config.seconds, [&](int round, int64_t end_ns) {
        return ClosedLoopThreads(stack->port, threads, end_ns, mix,
                                 config.seed, threads * (round + 1), &oracle);
      });
  const Tally& closed = closed_rounds.all;

  // Every key must now read back the last committed version, and every
  // acknowledged online put its exact value.
  Tally all = readers;
  all.Merge(closed);
  const std::vector<AckedPut> acked = all.acked;
  all.Merge(Parallel(threads, threads, [&](size_t part, Tally* t) {
    rpc::RpcClient client("127.0.0.1", stack->port);
    for (size_t i = part; i < index_keys.size(); i += threads) {
      ++t->attempted;
      Result<std::string> got =
          Retrying(t, [&] { return client.GetLatest(index_keys[i]); });
      if (got.ok() && *got == last_data->values[i]) continue;
      ++t->failed;
      ++t->wrong;
      if (t->first_error.empty()) {
        t->first_error = "final read of " + index_keys[i] + ": " +
                         (got.ok() ? "wrong value" : got.status().ToString());
      }
    }
  }));
  all.Merge(VerifyAckedParallel(stack->port, online, acked, threads));

  e2e.read_us = readers.read_us;
  e2e.write_us = readers.write_us;
  // Tail windows span whole cycles.
  e2e.origin_ns = start_ns;
  e2e.window_ns = static_cast<int64_t>(2 * period_ns);
  e2e.throughput_ops = closed.attempted;
  e2e.throughput_ops_s = Median(closed_rounds.ops_per_s);
  const EngineCounters end = ReadEngineCounters(stack->cluster.get());
  e2e.space_amp =
      Ratio(end.disk_bytes, retained_bytes + AckedBytes(online, acked));
  e2e.peak_rss_mb = PeakRssMb();

  Report report;
  if (!config.trace) {
    EmitEndToEnd(e2e, all, &report);
    return Finish(report, all);
  }

  Layers layers;
  SetTails(e2e, &layers);
  layers.Set("mint.read_timeouts", static_cast<double>(all.read_timeouts));
  layers.Set("gen.lag_p99_us", readers.lag_us.Percentile(99));
  layers.Set("server.busy_rejects",
             static_cast<double>(
                 stack->server->counters().requests_rejected_busy.load()));
  SetEngineWindow(delta, static_cast<double>(readers.attempted), &layers);
  loads.Emit(&layers);
  layers.Set("bifrost.slice_encode_us_per_mib",
             SliceEncodeUsPerMib(last_shipped, last_version));
  layers.Set("qindb.drop_version_ms", Median(drop_ms));

  const std::vector<Op> ops =
      ReplayOps(mix, config.seed, kReplayStream, config.tiny ? 2000 : 20000);
  uint64_t wrong = 0;
  const PeelLevel rpc =
      PeelRpcWithOverhead(stack->port, ops, &oracle, &layers, &wrong);
  WriteSpans(config, "version-cycle", rpc);
  PeelInProcess(stack->cluster.get(), ops, &oracle,
                rpc.get_us.Percentile(50), &layers, &wrong);
  corpus.AdvanceVersion();
  LoadTiming next;
  next.shipped =
      dedup->Process(webindex::BuildSummaryIndex(corpus), &next.dedup);
  DirectIngest direct;
  if (Status s = TimeDirectIngest(stack->cluster.get(), next.shipped,
                                  corpus.version(), /*drop=*/true, &direct);
      !s.ok()) {
    return SetupFailed("direct ingest", s);
  }
  layers.Set("qindb.ingest_us_per_pair", direct.ingest_us_per_pair);
  layers.Set("qindb.commit_ms", direct.commit_ms);
  all.wrong += wrong;
  all.failed += wrong;
  layers.Emit(&report);
  return Finish(report, all);
}

// ===========================================================================
// replicated: 1 group x 3 dmint_node processes behind a MintCoordinator
// (quorum writes, hedged reads), driven by a closed loop of caller threads.
// ===========================================================================

namespace {

/// The counters a node exports over kStats, "key=value" tokens.
uint64_t StatValue(const std::string& text, const std::string& key) {
  const std::string needle = " " + key + "=";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + needle.size(), nullptr, 10);
}

struct Fleet {
  std::vector<server::NodeProcess> nodes;
  std::unique_ptr<mint::MintCoordinator> coordinator;

  ~Fleet() { Stop(); }
  void Stop() {
    if (coordinator != nullptr) coordinator->Stop();
    coordinator.reset();
    for (server::NodeProcess& node : nodes) {
      if (node.running()) {
        DL_DISCARD_STATUS("teardown of a benchmark fleet", node.Terminate());
      }
    }
  }
};

/// The options dmint_node serves with, for the in-process twin the traced
/// run peels the lower layers on.
mint::MintOptions NodeTwinOptions() {
  mint::MintOptions options;
  options.num_groups = 1;
  options.nodes_per_group = 1;
  options.replicas = 1;
  options.parallel_reads = false;
  options.engine.aof.segment_bytes = 8 << 20;
  options.engine.num_shards = 1;
  return options;
}

/// One op through the coordinator, judged like a wire answer and retried
/// like one.
void CoordinatorOp(mint::MintCoordinator* coordinator, const Op& op,
                   VersionedKeys* keys, Tally* tally) {
  const int64_t start = NowNs();
  for (int tries = 1;; ++tries) {
    const uint64_t token =
        op.kind == OpKind::kRead ? keys->BeforeRead(op.key) : 0;
    StatusCode code = StatusCode::kOk;
    std::string message, value;
    if (op.kind == OpKind::kPut) {
      keys->BeforePut(op.key, op.version);
      const Status s = coordinator->Put(keys->Key(op.key), op.version,
                                        keys->PutValue(op.key, op.version));
      code = s.code();
      message = s.message();
    } else {
      const std::string key = op.kind == OpKind::kRead
                                  ? keys->Key(op.key)
                                  : keys->AbsentKey(op.key);
      Result<mint::MintCoordinator::ReadResult> r =
          coordinator->GetLatest(key);
      if (r.ok()) {
        value = std::move(r->value);
      } else {
        code = r.status().code();
        message = r.status().message();
      }
    }
    if (!Judge(keys, op, token, code, message, value,
               static_cast<double>(NowNs() - start) * 1e-3, tries, tally)) {
      return;
    }
    SleepBackoff(tries);
  }
}

/// Closed loop through the coordinator. Generator lag here is the caller's
/// own time between an answer and the next request.
void CoordinatorLoop(mint::MintCoordinator* coordinator, int64_t end_ns,
                     OpStream stream, VersionedKeys* keys, Tally* tally) {
  int64_t answered = NowNs();
  while (answered < end_ns) {
    const Op op = stream.Next();
    tally->lag_us.Add(static_cast<double>(NowNs() - answered) * 1e-3);
    CoordinatorOp(coordinator, op, keys, tally);
    answered = NowNs();
  }
}

}  // namespace

int RunReplicated(const RunConfig& config) {
  const uint32_t keys_count = config.tiny ? 2000 : 50000;
  const int value_bytes = 400;
  const int replicas = 3;
  const int threads = 2;
  // Untraced, each setup serves one measured round on its own fleet: a
  // fleet slows as puts pile versions onto its hot keys (METRICS.md, known
  // defects), and where the host places its processes holds for the
  // fleet's life, so five fleets of equal age give steadier medians than
  // one fleet aging through five rounds. The traced run keeps one fleet
  // for its counters and peels.
  const int setups = config.trace ? 1 : kRounds;

  auto new_oracle = [&] {
    return std::make_unique<VersionedKeys>("rep:", keys_count, value_bytes,
                                           /*allow_stale=*/true);
  };
  std::unique_ptr<VersionedKeys> oracle = new_oracle();
  MixOptions mix;
  mix.read_keys = mix.put_keys = keys_count;
  mix.put_pct = 20;
  const webindex::IndexDataset preload = SyntheticVersion(*oracle, 1);
  std::printf("replicated: %d dmint_node processes, %u keys x %dB values "
              "(%.1f MiB per replica), %d caller threads, closed loop\n",
              replicas, keys_count, value_bytes,
              DatasetBytes(preload) / 1048576.0, threads);

  EndToEnd e2e;
  std::unique_ptr<Fleet> fleet;
  std::vector<LoadTiming> preload_timings;
  auto round = [&](int index, int64_t end_ns) {
    return Parallel(threads, threads, [&](size_t t, Tally* tally) {
      CoordinatorLoop(fleet->coordinator.get(), end_ns,
                      OpStream(mix, config.seed, threads * index + t),
                      oracle.get(), tally);
    });
  };
  // Every acknowledged write must read back at its exact version.
  auto verify = [&](const std::vector<AckedPut>& acked) {
    VersionedKeys& keys = *oracle;
    return Parallel(acked.size(), threads, [&](size_t i, Tally* t) {
      const AckedPut& put = acked[i];
      ++t->attempted;
      Result<mint::MintCoordinator::ReadResult> got = Retrying(t, [&] {
        return fleet->coordinator->Get(keys.Key(put.key), put.version);
      });
      if (!got.ok() || got->value != keys.PutValue(put.key, put.version)) {
        ++t->failed;
        if (!got.ok() && !got.status().IsNotFound()) return;
        ++t->wrong;
        if (t->first_error.empty()) {
          t->first_error = "acked put lost or changed: " + keys.Key(put.key);
        }
      }
    });
  };
  Rounds rounds;
  Tally verified;
  for (int i = 0; i < setups; ++i) {
    // Hand the previous setup's memory back, as ReleaseStack does.
    fleet.reset();
    preload_timings.clear();
    malloc_trim(0);
    oracle = new_oracle();
    auto fresh = std::make_unique<Fleet>();
    const int64_t start = NowNs();
    fresh->nodes.resize(replicas);
    std::vector<std::vector<mint::NodeEndpoint>> endpoints(1);
    for (server::NodeProcess& node : fresh->nodes) {
      if (Status s = node.Start(config.node_binary, 0, 1); !s.ok()) {
        return SetupFailed("dmint_node", s);
      }
      mint::NodeEndpoint endpoint;
      endpoint.port = node.port();
      endpoints[0].push_back(endpoint);
    }
    fresh->coordinator = std::make_unique<mint::MintCoordinator>(
        endpoints, mint::CoordinatorOptions());
    if (Status s = fresh->coordinator->Start(); !s.ok()) {
      return SetupFailed("coordinator", s);
    }
    // The version lands on every replica at once, one BulkLoader each.
    const int64_t load_start = NowNs();
    std::vector<LoadTiming> timings(replicas);
    std::vector<Status> statuses(replicas);
    std::vector<std::thread> loaders;
    for (int r = 0; r < replicas; ++r) {
      loaders.emplace_back([&, r] {
        bifrost::Deduplicator dedup;
        statuses[r] = LoadVersion(fresh->nodes[r].port(), &dedup, preload,
                                  &timings[r], /*keep_shipped=*/r == 0);
      });
    }
    for (std::thread& t : loaders) t.join();
    for (const Status& s : statuses) {
      if (!s.ok()) return SetupFailed("preload", s);
    }
    e2e.version_load_s.push_back(SecondsSince(load_start));
    e2e.setup_s.push_back(SecondsSince(start));
    fleet = std::move(fresh);
    preload_timings = std::move(timings);
    oracle->MarkPreloaded();
    if (config.trace) continue;
    const int64_t round_start = NowNs();
    if (i == 0) e2e.origin_ns = round_start;
    const Tally t = round(i, RoundEndNs(round_start, config.seconds));
    rounds.Add(i, round_start, t);
    verified.Merge(verify(t.acked));
  }
  VersionedKeys& keys = *oracle;
  mint::MintCoordinator* coordinator = fleet->coordinator.get();
  mint::MintCoordinator::Counters c_before, c_after;
  if (config.trace) {
    c_before = coordinator->counters();
    e2e.origin_ns = NowNs();
    rounds = InRounds(config.seconds, round);
    c_after = coordinator->counters();
    verified = verify(rounds.all.acked);
  }
  const Tally& run = rounds.all;
  Tally all = run;
  all.Merge(verified);

  uint64_t disk_bytes = 0, user_bytes = 0, busy = 0, batched = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  double rss = PeakRssMb();
  for (server::NodeProcess& node : fleet->nodes) {
    rpc::RpcClient client("127.0.0.1", node.port());
    Result<std::string> stats = client.Stats();
    if (!stats.ok()) return SetupFailed("node stats", stats.status());
    disk_bytes += StatValue(*stats, "disk_bytes");
    user_bytes += StatValue(*stats, "user_bytes");
    busy += StatValue(*stats, "busy_rejected");
    batched += StatValue(*stats, "writes_batched");
    cache_hits += StatValue(*stats, "hits");
    cache_misses += StatValue(*stats, "misses");
    rss += PeakRssMb(node.pid());
  }
  std::printf("peak rss: benchmark process %.1f MiB, with the nodes %.1f "
              "MiB\n", PeakRssMb(), rss);

  e2e.read_us = run.read_us;
  e2e.write_us = run.write_us;
  e2e.read_p50_rounds = rounds.read_p50;
  e2e.write_p50_rounds = rounds.write_p50;
  e2e.throughput_ops = run.attempted;
  e2e.throughput_ops_s = Median(rounds.ops_per_s);
  e2e.space_amp = Ratio(disk_bytes, user_bytes);
  e2e.peak_rss_mb = rss;

  Report report;
  if (!config.trace) {
    EmitEndToEnd(e2e, all, &report);
    fleet->Stop();
    return Finish(report, all);
  }

  Layers layers;
  SetTails(e2e, &layers);
  const double reads = static_cast<double>(run.reads);
  const double hedged =
      static_cast<double>(c_after.hedged_reads - c_before.hedged_reads);
  const double failovers =
      static_cast<double>(c_after.read_failovers - c_before.read_failovers);
  layers.Set("mint.coord.attempts_per_read",
             Ratio(reads + hedged + failovers, reads));
  layers.Set("mint.coord.hedges_per_read", Ratio(hedged, reads));
  layers.Set("mint.coord.hedge_win_share",
             Ratio(static_cast<double>(c_after.hedge_wins -
                                       c_before.hedge_wins),
                   hedged));
  layers.Set("mint.coord.failovers_per_read", Ratio(failovers, reads));
  layers.Set("mint.coord.stale_read_share",
             Ratio(static_cast<double>(run.stale), reads));
  layers.Set("mint.read_timeouts", static_cast<double>(all.read_timeouts));
  layers.Set("gen.lag_p99_us", run.lag_us.Percentile(99));
  layers.Set("server.busy_rejects", static_cast<double>(busy));
  layers.Set("server.write_batch_share",
             Ratio(static_cast<double>(batched),
                   static_cast<double>(run.write_us.count()) * replicas));
  layers.Set("qindb.cache_hit_ratio",
             Ratio(static_cast<double>(cache_hits),
                   static_cast<double>(cache_hits + cache_misses)));
  LoadTotals loads;
  for (const LoadTiming& t : preload_timings) loads.Add(t);
  loads.Emit(&layers);
  const std::vector<bifrost::ShippedPair>& shipped =
      preload_timings[0].shipped;
  layers.Set("bifrost.slice_encode_us_per_mib",
             SliceEncodeUsPerMib(shipped, 1));

  // Peel: coordinator, then one node over RPC, then the in-process twin of
  // a node (same options, same preload) for MintCluster and QinDb.
  const std::vector<Op> ops =
      ReplayOps(mix, config.seed, kReplayStream, config.tiny ? 1000 : 10000);
  uint64_t wrong = 0;
  Tally coord;
  for (const Op& raw : ops) {
    Op op = raw;
    if (op.kind == OpKind::kPut) op.version += kOffsetCoord;
    CoordinatorOp(coordinator, op, &keys, &coord);
  }
  wrong += coord.wrong;
  const PeelLevel node_rpc =
      PeelRpcWithOverhead(fleet->nodes[0].port(), ops, &keys, &layers, &wrong);
  WriteSpans(config, "replicated", node_rpc);
  layers.Set("mint.coord.self_put_p50_us",
             coord.write_us.Percentile(50) - node_rpc.put_us.Percentile(50));

  mint::MintCluster twin(NodeTwinOptions());
  if (Status s = twin.Start(); !s.ok()) return SetupFailed("twin", s);
  DirectIngest direct;
  if (Status s = TimeDirectIngest(&twin, shipped, 1, /*drop=*/false, &direct);
      !s.ok()) {
    return SetupFailed("twin preload", s);
  }
  VersionedKeys twin_keys("rep:", keys_count, value_bytes);
  twin_keys.MarkPreloaded();
  const EngineCounters twin_before = ReadEngineCounters(&twin);
  PeelInProcess(&twin, ops, &twin_keys, node_rpc.get_us.Percentile(50),
                &layers, &wrong);
  SetEngineWindow(ReadEngineCounters(&twin).Minus(twin_before),
                  static_cast<double>(ops.size() * 2), &layers);
  DirectIngest dropped;
  if (Status s = TimeDirectIngest(&twin, shipped, 1ull << 40, /*drop=*/true,
                                  &dropped);
      !s.ok()) {
    return SetupFailed("twin direct ingest", s);
  }
  layers.Set("qindb.ingest_us_per_pair", direct.ingest_us_per_pair);
  layers.Set("qindb.commit_ms", direct.commit_ms);
  layers.Set("qindb.drop_version_ms", dropped.drop_ms);
  all.wrong += wrong;
  all.failed += wrong;
  fleet->Stop();
  layers.Emit(&report);
  return Finish(report, all);
}

}  // namespace perfbench
