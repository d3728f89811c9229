// Microbenchmarks (google-benchmark) of the primitive operations behind the
// paper's Section 4.1 numbers: engine PUT/GET paths, skip-list and bloom
// operations, checksums and hashing. These measure *wall-clock* CPU cost of
// the implementation (the figure benchmarks measure simulated device time).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench/common/engine_adapter.h"
#include "bench/common/report.h"
#include "bifrost/dedup.h"
#include "common/crc32c.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "lsm/bloom.h"
#include "memtable/mem_index.h"
#include "ssd/env.h"

namespace directload::bench {
namespace {

constexpr uint64_t kKeySpace = 4096;

std::string KeyOf(uint64_t i) {
  char key[32];
  std::snprintf(key, sizeof(key), "url:%016llu",
                static_cast<unsigned long long>(i % kKeySpace));
  return std::string(key, 20);
}

EngineConfig MicroConfig() {
  EngineConfig config;
  config.geometry.num_blocks = 16384;  // 4 GiB so Puts never fill the device.
  return config;
}

void BM_QinDbPut(benchmark::State& state) {
  auto engine = NewQinDbAdapter(MicroConfig());
  Random rnd(1);
  const std::string value = rnd.NextString(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Put(KeyOf(i), i / kKeySpace + 1, value));
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_QinDbPut)->Arg(256)->Arg(4096)->Arg(20480)->Iterations(4000);

void BM_QinDbGet(benchmark::State& state) {
  auto engine = NewQinDbAdapter(MicroConfig());
  Random rnd(2);
  const std::string value = rnd.NextString(4096);
  for (uint64_t i = 0; i < kKeySpace; ++i) {
    DL_CHECK_OK(engine->Put(KeyOf(i), 1, value));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Get(KeyOf(i++), 1));
  }
}
BENCHMARK(BM_QinDbGet)->Iterations(4000);

// GETs that resolve a 4-deep chain of deduplicated versions (Figure 2's
// traceback path), vs BM_QinDbGet's direct hit.
void BM_QinDbTracebackGet(benchmark::State& state) {
  SimClock clock;
  auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                            MicroConfig().geometry, ssd::LatencyModel(),
                            &clock);
  auto db = std::move(qindb::QinDb::Open(env.get(), {})).value();
  Random rnd(3);
  const std::string value = rnd.NextString(4096);
  for (uint64_t i = 0; i < kKeySpace; ++i) {
    DL_CHECK_OK(db->Put(KeyOf(i), 1, value));
    for (uint64_t v = 2; v <= 5; ++v) {
      DL_CHECK_OK(db->Put(KeyOf(i), v, Slice(), /*dedup=*/true));
    }
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(KeyOf(i++), 5));
  }
}
BENCHMARK(BM_QinDbTracebackGet)->Iterations(4000);

// GetLatest over the same 64 keys holding 1 / 16 / 256 / 2048 versions
// each, every read a cache hit. Single-version filler keys hold the index
// at the same size in every arm, so the arms differ only in how many
// versions sit below the newest one. The newest-first lookup stops at the
// first live entry: the 2048 arm should stay within 2x of the 1 arm.
void BM_QinDbGetLatestVersions(benchmark::State& state) {
  constexpr uint64_t kEntries = 64 * 2048;
  const uint64_t versions = static_cast<uint64_t>(state.range(0));
  std::vector<std::string> keys(64);
  for (size_t k = 0; k < keys.size(); ++k) {
    keys[k] = "url:" + std::to_string(k);
  }
  SimClock clock;
  auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                            MicroConfig().geometry, ssd::LatencyModel(),
                            &clock);
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.cache_bytes = 64 << 20;  // Holds every value: reads never miss.
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  const std::string value(64, 'v');
  for (uint64_t v = 1; v <= versions; ++v) {
    for (const std::string& key : keys) DL_CHECK_OK(db->Put(key, v, value));
  }
  for (uint64_t f = keys.size() * versions; f < kEntries; ++f) {
    DL_CHECK_OK(db->Put("filler:" + std::to_string(f), 1, value));
  }
  for (const std::string& key : keys) DL_CHECK_OK(db->GetLatest(key).status());
  Random rnd(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->GetLatest(keys[rnd.Uniform(keys.size())]));
  }
}
BENCHMARK(BM_QinDbGetLatestVersions)
    ->ArgName("versions")
    ->Arg(1)
    ->Arg(16)
    ->Arg(256)
    ->Arg(2048)
    ->Iterations(20000);

// Zipfian GETs with the working set deliberately larger than the cache
// budget: 4096 keys x 4KB values is ~17 MiB of records against a 4 MiB
// cache, so only the Zipfian hot set can stay resident and TinyLFU has to
// hold it there. The cache=0 arm is the A/B baseline — the same draws
// through the same read path with the cache branch compiled to one null
// check.
void BM_QinDbCachedGet(benchmark::State& state) {
  SimClock clock;
  auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                            MicroConfig().geometry, ssd::LatencyModel(),
                            &clock);
  qindb::QinDbOptions options;
  options.num_shards = 1;
  options.cache_bytes = static_cast<uint64_t>(state.range(0)) << 20;
  auto db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  Random rnd(6);
  const std::string value = rnd.NextString(4096);
  for (uint64_t i = 0; i < kKeySpace; ++i) {
    DL_CHECK_OK(db->Put(KeyOf(i), 1, value));
  }
  ZipfianGenerator zipf(kKeySpace, 0.99, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(db->Get(KeyOf(zipf.Next()), 1));
  }
}
BENCHMARK(BM_QinDbCachedGet)
    ->ArgName("cache_mb")
    ->Arg(0)
    ->Arg(4)
    ->Iterations(20000);

// --- Concurrent engine benchmarks -----------------------------------------
// Real threads against one shared engine. Reads are lock-free against the
// pinned index, so aggregate GET throughput should scale with reader
// threads on a multi-core host (the CI gate compares 4 threads vs 1);
// writes serialize on the engine's write mutex. google-benchmark
// synchronizes all threads at the boundaries of the iteration loop, so
// thread 0 can own setup and teardown.

/// The --shards=N knob: forces the engine shard count for every concurrent
/// benchmark that does not pin it itself (BM_QinDbShardedPut A/Bs the count
/// explicitly and ignores this). 0 = the engine default.
uint32_t g_flag_shards = 0;

struct ConcurrentDb {
  SimClock clock;
  std::unique_ptr<ssd::SsdEnv> env;
  std::unique_ptr<qindb::QinDb> db;

  explicit ConcurrentDb(qindb::QinDbOptions options = {}) {
    if (options.num_shards == 0) options.num_shards = g_flag_shards;
    env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock,
                         MicroConfig().geometry, ssd::LatencyModel(), &clock);
    db = std::move(qindb::QinDb::Open(env.get(), options)).value();
  }
};

ConcurrentDb* g_concurrent_db = nullptr;

std::string WriterKeyOf(int thread, uint64_t i) {
  char key[32];
  std::snprintf(key, sizeof(key), "w%02d:%015llu", thread,
                static_cast<unsigned long long>(i % kKeySpace));
  return std::string(key, 20);
}

// N reader threads hammering Get on a pre-loaded engine.
void BM_QinDbConcurrentGet(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_concurrent_db = new ConcurrentDb();
    Random rnd(8);
    const std::string value = rnd.NextString(1024);
    for (uint64_t i = 0; i < kKeySpace; ++i) {
      DL_CHECK_OK(g_concurrent_db->db->Put(KeyOf(i), 1, value));
    }
  }
  // Offset each thread's key stream so threads do not walk in lockstep.
  uint64_t i = static_cast<uint64_t>(state.thread_index()) * 7919;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_concurrent_db->db->Get(KeyOf(i++), 1));
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete g_concurrent_db;
    g_concurrent_db = nullptr;
  }
}
BENCHMARK(BM_QinDbConcurrentGet)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Iterations(4000)
    ->UseRealTime();

// Mixed load: the first `writers` threads stream PUTs (disjoint key ranges,
// so no duplicate key/version collisions) while the rest serve GETs — the
// paper's loading-while-serving scenario. Items processed counts both ops.
void BM_QinDbMixedReadWrite(benchmark::State& state) {
  const int writers = static_cast<int>(state.range(0));
  if (state.thread_index() == 0) {
    g_concurrent_db = new ConcurrentDb();
    Random rnd(9);
    const std::string value = rnd.NextString(1024);
    for (uint64_t i = 0; i < kKeySpace; ++i) {
      DL_CHECK_OK(g_concurrent_db->db->Put(KeyOf(i), 1, value));
    }
  }
  if (state.thread_index() < writers) {
    Random rnd(10 + state.thread_index());
    const std::string value = rnd.NextString(1024);
    uint64_t i = 0;
    for (auto _ : state) {
      benchmark::DoNotOptimize(g_concurrent_db->db->Put(
          WriterKeyOf(state.thread_index(), i), i / kKeySpace + 1, value));
      ++i;
    }
  } else {
    uint64_t i = static_cast<uint64_t>(state.thread_index()) * 7919;
    for (auto _ : state) {
      benchmark::DoNotOptimize(g_concurrent_db->db->Get(KeyOf(i++), 1));
    }
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete g_concurrent_db;
    g_concurrent_db = nullptr;
  }
}
BENCHMARK(BM_QinDbMixedReadWrite)
    ->ArgName("writers")
    ->Arg(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Iterations(4000)
    ->UseRealTime();

// --- Group-commit benchmarks ----------------------------------------------

// All threads stream single-op PUTs against one engine. The 1-thread row is
// the batch-size-1 baseline (every commit group holds one op); with more
// threads the leader batches concurrent writers into one append.
void BM_QinDbConcurrentPut(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_concurrent_db = new ConcurrentDb();
  }
  Random rnd(20 + state.thread_index());
  const std::string value = rnd.NextString(1024);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_concurrent_db->db->Put(
        WriterKeyOf(state.thread_index(), i), i / kKeySpace + 1, value));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete g_concurrent_db;
    g_concurrent_db = nullptr;
  }
}
BENCHMARK(BM_QinDbConcurrentPut)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8)
    ->Iterations(4000)
    ->UseRealTime();

// Single-op 1KB PUTs from N threads, A/B over the shard count: shards=1 is
// one write mutex and one group-commit queue serializing every thread;
// shards=4 hash-routes each Put to one of four independent committers, so
// on a multi-core host the appends (encode, CRC, memtable insert) proceed
// in parallel. The acceptance gate compares the 8-thread rows — on a
// single-core host the arms timeshare one CPU and land at parity, so the
// gate requires sharded >= single-shard rather than a fixed speedup.
void BM_QinDbShardedPut(benchmark::State& state) {
  if (state.thread_index() == 0) {
    qindb::QinDbOptions options;
    options.num_shards = static_cast<uint32_t>(state.range(0));
    g_concurrent_db = new ConcurrentDb(options);
  }
  Random rnd(30 + state.thread_index());
  const std::string value = rnd.NextString(1024);
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_concurrent_db->db->Put(
        WriterKeyOf(state.thread_index(), i), i / kKeySpace + 1, value));
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    delete g_concurrent_db;
    g_concurrent_db = nullptr;
  }
}
BENCHMARK(BM_QinDbShardedPut)
    ->ArgName("shards")
    ->Arg(1)
    ->Arg(4)
    ->Threads(1)
    ->Threads(8)
    ->Iterations(4000)
    ->UseRealTime();

// One writer submitting multi-op WriteBatches: the caller-side batching
// API, amortizing the per-commit cost (mutex, AOF append, maintenance)
// over `batch` ops. batch=1 is the plain Put cost through the same path.
void BM_QinDbWriteBatch(benchmark::State& state) {
  const int batch_size = static_cast<int>(state.range(0));
  // Every arm commits the same 256 ops per iteration (as 256/batch Write
  // calls), so arms insert identical key volumes and the per-op numbers
  // compare commit batching alone — not index growth or checkpoint cadence.
  constexpr int kOpsPerIteration = 256;
  ConcurrentDb db;
  Random rnd(22);
  const std::string value = rnd.NextString(1024);
  uint64_t i = 0;
  for (auto _ : state) {
    for (int done = 0; done < kOpsPerIteration; done += batch_size) {
      qindb::WriteBatch batch;
      for (int j = 0; j < batch_size; ++j, ++i) {
        batch.Put(WriterKeyOf(0, i), i / kKeySpace + 1, value);
      }
      benchmark::DoNotOptimize(db.db->Write(batch));
    }
  }
  state.SetItemsProcessed(state.iterations() * kOpsPerIteration);
}
BENCHMARK(BM_QinDbWriteBatch)
    ->ArgName("batch")
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->Arg(256)
    ->Iterations(100);

void BM_LsmPut(benchmark::State& state) {
  auto engine = NewLsmAdapter(MicroConfig());
  Random rnd(4);
  const std::string value = rnd.NextString(state.range(0));
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Put(KeyOf(i), i / kKeySpace + 1, value));
    ++i;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LsmPut)->Arg(256)->Arg(4096)->Iterations(4000);

void BM_LsmGet(benchmark::State& state) {
  auto engine = NewLsmAdapter(MicroConfig());
  Random rnd(5);
  const std::string value = rnd.NextString(4096);
  for (uint64_t i = 0; i < kKeySpace; ++i) {
    DL_CHECK_OK(engine->Put(KeyOf(i), 1, value));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Get(KeyOf(i++), 1));
  }
}
BENCHMARK(BM_LsmGet)->Iterations(4000);

// One SsdWritableFile::Append of the arg's bytes per iteration on the
// native interface — the shape of a bulk-load run landing in an AOF
// segment. Pages are programmed from the appended bytes, so the per-byte
// cost should not grow with the append size. Files rotate every 32 MiB
// (untimed) so the 64 MiB device never fills.
void BM_EnvAppend(benchmark::State& state) {
  SimClock clock;
  ssd::Geometry geometry;
  geometry.num_blocks = 256;
  auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, geometry,
                            ssd::LatencyModel(), &clock);
  Random rnd(8);
  const std::string data = rnd.NextString(state.range(0));
  constexpr uint64_t kFileBytes = 32 << 20;
  std::unique_ptr<ssd::WritableFile> file;
  uint64_t written = kFileBytes;
  for (auto _ : state) {
    if (written + data.size() > kFileBytes) {
      state.PauseTiming();
      if (file != nullptr) {
        DL_CHECK_OK(file->Close());
        DL_CHECK_OK(env->DeleteFile("f"));
      }
      auto opened = env->NewWritableFile("f");
      DL_CHECK_OK(opened.status());
      file = std::move(opened).value();
      written = 0;
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(file->Append(data));
    written += data.size();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EnvAppend)->Arg(4 << 10)->Arg(64 << 10)->Arg(1 << 20);

void BM_MemIndexInsert(benchmark::State& state) {
  MemIndex index;
  uint64_t i = 0;
  for (auto _ : state) {
    index.Insert(KeyOf(i), i / kKeySpace + 1, i, 128, false);
    ++i;
  }
}
BENCHMARK(BM_MemIndexInsert)->Iterations(100000);

void BM_MemIndexLookup(benchmark::State& state) {
  MemIndex index;
  for (uint64_t i = 0; i < kKeySpace; ++i) {
    index.Insert(KeyOf(i), 1, i, 128, false);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.FindExact(KeyOf(i++), 1));
  }
}
BENCHMARK(BM_MemIndexLookup);

// The paper leaves the memtable structure open ("a tree structure or a
// list", Section 2.1); compare the shipped skip list against a red-black
// tree (std::map) at the same job.
void BM_StdMapInsert(benchmark::State& state) {
  std::map<std::string, uint64_t> map;
  uint64_t i = 0;
  for (auto _ : state) {
    map[KeyOf(i) + std::to_string(i / kKeySpace)] = i;
    ++i;
  }
}
BENCHMARK(BM_StdMapInsert)->Iterations(100000);

void BM_StdMapLookup(benchmark::State& state) {
  std::map<std::string, uint64_t> map;
  for (uint64_t i = 0; i < kKeySpace; ++i) map[KeyOf(i)] = i;
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(KeyOf(i++)));
  }
}
BENCHMARK(BM_StdMapLookup);

void BM_Crc32c(benchmark::State& state) {
  Random rnd(6);
  const std::string data = rnd.NextString(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::Value(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(64)->Arg(4096)->Arg(65536);

void BM_ValueSignature(benchmark::State& state) {
  Random rnd(7);
  const std::string data = rnd.NextString(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueSignature(data));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ValueSignature)->Arg(64)->Arg(20480);

// Bifrost's dedup pass over 100k pairs of 400 B values. Arg 0: a first
// version, every pair new to a fresh deduplicator. Arg 1: the steady state,
// alternating two versions that differ in every third value.
void BM_DedupProcess(benchmark::State& state) {
  constexpr size_t kPairs = 100'000;
  constexpr size_t kValueBytes = 400;
  Random rnd(8);
  webindex::IndexDataset versions[2];
  for (size_t i = 0; i < kPairs; ++i) {
    char key[32];
    std::snprintf(key, sizeof(key), "url:%016zu", i);
    webindex::KvPair pair{key, rnd.NextString(kValueBytes)};
    versions[1].pairs.push_back(pair);
    if (i % 3 == 0) pair.value[0] ^= 1;
    versions[0].pairs.push_back(std::move(pair));
  }
  const bool steady = state.range(0) != 0;
  bifrost::Deduplicator primed;
  if (steady) primed.Process(versions[1], nullptr);
  size_t next = 0;
  for (auto _ : state) {
    std::optional<bifrost::Deduplicator> fresh;
    bifrost::Deduplicator* dedup = steady ? &primed : &fresh.emplace();
    std::vector<bifrost::ShippedPair> out =
        dedup->Process(versions[next], nullptr);
    benchmark::DoNotOptimize(out.data());
    state.PauseTiming();
    out = {};
    fresh.reset();
    if (steady) next ^= 1;
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kPairs));
}
BENCHMARK(BM_DedupProcess)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_BloomMayMatch(benchmark::State& state) {
  lsm::BloomFilterBuilder builder(10);
  for (uint64_t i = 0; i < kKeySpace; ++i) builder.AddKey(KeyOf(i));
  const std::string filter = builder.Finish();
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lsm::BloomFilterMayMatch(filter, KeyOf(i++)));
  }
}
BENCHMARK(BM_BloomMayMatch);

}  // namespace
}  // namespace directload::bench

// BENCHMARK_MAIN(), plus the repo-wide --json=PATH flag: google-benchmark
// already knows how to write a JSON report, so the flag just routes into
// --benchmark_out / --benchmark_out_format.
int main(int argc, char** argv) {
  const std::string json_path =
      directload::bench::ExtractJsonFlag(&argc, argv);
  // Strip the --shards=N knob before google-benchmark sees the arg list.
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      directload::bench::g_flag_shards =
          static_cast<uint32_t>(std::atoi(argv[i] + 9));
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag, format_flag;
  if (!json_path.empty()) {
    out_flag = "--benchmark_out=" + json_path;
    format_flag = "--benchmark_out_format=json";
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
