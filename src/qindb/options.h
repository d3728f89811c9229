#ifndef DIRECTLOAD_QINDB_OPTIONS_H_
#define DIRECTLOAD_QINDB_OPTIONS_H_

#include <atomic>
#include <cstdint>

#include "aof/aof_manager.h"

namespace directload::qindb {

struct QinDbOptions {
  aof::AofOptions aof;

  /// Number of independent shards the engine is partitioned into. Each shard
  /// owns its memtable index, AOF segment set (with its own occupancy/GC),
  /// and group-commit queue; keys are hash-routed so concurrent writers on
  /// different shards commit in parallel. Zero (the default) resolves to
  /// hardware_concurrency at first open, and to the persisted shard count on
  /// reopen; a nonzero value is validated against the shard manifest — a
  /// mismatch fails the open rather than silently misrouting keys.
  uint32_t num_shards = 0;

  /// AOF GC is deferred while reads are in flight, unless disk usage crosses
  /// `gc_space_pressure` (fraction of device capacity). This is the paper's
  /// "GC will be deferred if there are ongoing reads and free disk space".
  double gc_space_pressure = 0.85;

  /// Periodic checkpointing ("the memtable ... is checkpointed
  /// periodically", Section 2.1): after this many ingested bytes a
  /// checkpoint is written automatically. Zero disables it. Sharded, each
  /// shard tracks its own ingested bytes against this interval, so
  /// checkpoint work stays proportional to per-shard ingest.
  uint64_t checkpoint_interval_bytes = 0;

  /// Run the lazy GC opportunistically at write boundaries. Disable to
  /// drive GC manually (benchmarks that isolate GC cost do this).
  bool auto_gc = true;

  /// Byte budget for the AOF block cache, split evenly across shards. Cache
  /// hits serve `Get` values straight from memory without touching the
  /// device; a TinyLFU admission filter keeps one-touch scans from washing
  /// out the hot set. Zero (the default) disables the cache entirely — the
  /// read path then has no cache branches beyond one null check.
  uint64_t cache_bytes = 0;
};

/// Operation counters. All fields are atomics so that reader threads and the
/// writer can bump them concurrently; reads are monotonic but a multi-field
/// snapshot is not atomic as a whole. One instance is owned by the engine
/// facade and shared by every shard.
struct QinDbStats {
  std::atomic<uint64_t> puts{0};
  std::atomic<uint64_t> dedup_puts{0};  // PUTs whose value was removed by Bifrost.
  std::atomic<uint64_t> gets{0};
  std::atomic<uint64_t> traceback_gets{0};  // GETs resolved via older versions.
  std::atomic<uint64_t> dels{0};
  std::atomic<uint64_t> gc_invocations{0};  // MaybeGc calls that collected.
  std::atomic<uint64_t> gc_deferrals{0};    // Victims existed but GC deferred.

  /// Application-level ingested bytes (keys + values of PUTs). This is the
  /// "User Write" of the paper's Figure 5.
  std::atomic<uint64_t> user_bytes_ingested{0};
};

/// Result of an integrity scrub (see QinDb::Scrub). Sharded scrubs sum the
/// per-shard reports field-wise.
struct ScrubReport {
  uint64_t entries_checked = 0;
  uint64_t bytes_verified = 0;
  uint64_t damaged_entries = 0;       // Checksum / identity failures.
  uint64_t unresolvable_dedups = 0;   // Broken traceback chains.

  bool clean() const {
    return damaged_entries == 0 && unresolvable_dedups == 0;
  }
};

/// Point-in-time, per-shard view of the counters a sharding-aware caller
/// (tests, the stats endpoint) wants without aggregation.
struct ShardStatsSnapshot {
  uint32_t shard_id = 0;
  uint64_t puts = 0;
  uint64_t dels = 0;
  uint64_t user_bytes_ingested = 0;
  uint64_t live_entries = 0;
  size_t segments = 0;
  bool degraded = false;

  // Block cache (all zero when the cache is disabled).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_admission_rejects = 0;
  uint64_t cache_evicted_bytes = 0;
  uint64_t cache_charged_bytes = 0;
};

/// Facade-level sum of the per-shard snapshots (see QinDb::TotalStats).
struct EngineCacheTotals {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_inserts = 0;
  uint64_t cache_admission_rejects = 0;
  uint64_t cache_evicted_bytes = 0;
  uint64_t cache_charged_bytes = 0;
};

}  // namespace directload::qindb

#endif  // DIRECTLOAD_QINDB_OPTIONS_H_
