// Workload capture & replay: record a synthetic index-update stream into
// the trace format, save it to a real file, load it back, and replay it
// into a fresh QinDB — the workflow for benchmarking the engine against
// your own production stream instead of the built-in generators.

#include <cstdio>

#include "common/logging.h"
#include "common/random.h"
#include "common/sim_clock.h"
#include "index/corpus.h"
#include "index/trace.h"
#include "qindb/qindb.h"
#include "ssd/env.h"

using namespace directload;
using webindex::TraceOp;
using webindex::TraceRecord;

int main() {
  // 1. Capture: three crawl rounds of a small corpus become a trace —
  //    changed documents as full PUTs, unchanged ones as dedup PUTs, and a
  //    version drop once the retention window fills.
  webindex::CorpusOptions corpus_options;
  corpus_options.num_docs = 200;
  corpus_options.abstract_bytes = 2048;
  webindex::Corpus corpus(corpus_options);

  std::string trace;
  uint64_t records = 0;
  for (int round = 0; round < 3; ++round) {
    if (round > 0) corpus.AdvanceVersionWithChangeRate(0.3);
    for (const webindex::Document& doc : corpus.documents()) {
      TraceRecord record;
      record.key = doc.url;
      record.version = corpus.version();
      if (doc.last_modified_version == corpus.version()) {
        record.op = TraceOp::kPut;
        record.value = corpus.AbstractOf(doc);
      } else {
        record.op = TraceOp::kDedupPut;
      }
      AppendTraceRecord(&trace, record);
      ++records;
    }
  }
  // A few reads against the newest version, then prune the oldest.
  Random rnd(1);
  for (int i = 0; i < 50; ++i) {
    const webindex::Document& doc =
        corpus.documents()[rnd.Uniform(corpus.documents().size())];
    AppendTraceRecord(&trace, TraceRecord{TraceOp::kGet, doc.url,
                                          corpus.version(), ""});
    ++records;
  }
  AppendTraceRecord(&trace, TraceRecord{TraceOp::kDropVersion, "", 1, ""});
  ++records;

  const std::string path = "/tmp/directload_example.trace";
  DL_CHECK_OK(webindex::SaveTraceFile(path, trace));
  std::printf("captured %llu operations (%zu KiB) -> %s\n",
              (unsigned long long)records, trace.size() / 1024, path.c_str());

  // 2. Replay into a fresh engine.
  Result<std::string> loaded = webindex::LoadTraceFile(path);
  DL_CHECK(loaded.ok());
  SimClock clock;
  ssd::Geometry geometry;
  geometry.num_blocks = 2048;
  auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, geometry,
                            ssd::LatencyModel(), &clock);
  auto db = std::move(qindb::QinDb::Open(env.get(), {})).value();
  Result<webindex::TraceReplayStats> stats =
      webindex::ReplayTrace(*loaded, db.get());
  DL_CHECK(stats.ok());

  std::printf("replayed: %llu puts, %llu dedup-puts, %llu gets "
              "(%llu misses), %llu version drops\n",
              (unsigned long long)stats->puts,
              (unsigned long long)stats->dedup_puts,
              (unsigned long long)stats->gets,
              (unsigned long long)stats->get_misses,
              (unsigned long long)stats->versions_dropped);
  std::printf("engine after replay: %zu live index entries, %.1f KiB on "
              "disk, %.1f ms simulated device time\n",
              db->memtable()->live_count(), db->DiskBytes() / 1024.0,
              clock.NowMicros() / 1000.0);

  // 3. Integrity scrub of the replayed store.
  Result<qindb::QinDb::ScrubReport> scrub = db->Scrub();
  DL_CHECK(scrub.ok());
  std::printf("scrub: %llu entries checked, %llu KiB verified, %s\n",
              (unsigned long long)scrub->entries_checked,
              (unsigned long long)(scrub->bytes_verified / 1024),
              scrub->clean() ? "CLEAN" : "DAMAGED");
  return scrub->clean() ? 0 : 1;
}
