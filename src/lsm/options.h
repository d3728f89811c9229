#ifndef DIRECTLOAD_LSM_OPTIONS_H_
#define DIRECTLOAD_LSM_OPTIONS_H_

#include <cstdint>

namespace directload::lsm {

/// Tuning knobs of the LSM baseline, defaulted to LevelDB's stock
/// configuration (the paper runs "LevelDB 1.9.0 ... with the default
/// configurations").
struct LsmOptions {
  /// Memtable flushes to an L0 SSTable at this size.
  uint64_t write_buffer_bytes = 4ull << 20;

  int bloom_bits_per_key = 10;

  /// L0 file count that triggers compaction, and the count at which writes
  /// stall until compaction catches up.
  int l0_compaction_trigger = 4;
  int l0_stall_trigger = 12;

  /// Max bytes for level 1; each deeper level is 10x larger.
  uint64_t max_bytes_for_level_base = 10ull << 20;

  /// Target size of SSTables produced by compaction.
  uint64_t target_file_bytes = 2ull << 20;

  /// Block cache capacity (decoded data blocks).
  uint64_t block_cache_bytes = 8ull << 20;
};

struct LsmStats {
  uint64_t puts = 0;
  uint64_t dels = 0;
  uint64_t gets = 0;
  uint64_t user_bytes_ingested = 0;  // Keys + values of Put calls.
  uint64_t memtable_flushes = 0;
  uint64_t compactions = 0;
  uint64_t compaction_bytes_read = 0;
  uint64_t compaction_bytes_written = 0;
  uint64_t write_stall_events = 0;
  uint64_t bloom_useful = 0;  // Table probes skipped by the filter.
  uint64_t seeks = 0;         // Data-block loads during Gets.
};

}  // namespace directload::lsm

#endif  // DIRECTLOAD_LSM_OPTIONS_H_
