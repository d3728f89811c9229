#ifndef DIRECTLOAD_LSM_TABLE_CACHE_H_
#define DIRECTLOAD_LSM_TABLE_CACHE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "lsm/cache.h"
#include "lsm/sstable.h"
#include "ssd/env.h"

namespace directload::lsm {

/// LRU cache of open TableReaders, keyed by file number. Opening a table
/// costs device reads (footer, index, filter), so the cache bounds that cost
/// for hot tables — and its misses are part of the LSM read path the paper's
/// Figure 8 measures ("LevelDB has to open multiple files").
class TableCache {
 public:
  TableCache(ssd::SsdEnv* env, BlockCache* block_cache);

  Result<std::shared_ptr<TableReader>> GetTable(uint64_t file_number,
                                                uint64_t file_size);

  void Evict(uint64_t file_number);

  static std::string TableFileName(uint64_t number);

 private:
  ssd::SsdEnv* env_;
  BlockCache* block_cache_;
  LruCache<TableReader> cache_;
};

}  // namespace directload::lsm

#endif  // DIRECTLOAD_LSM_TABLE_CACHE_H_
