#include "lsm/table_cache.h"

#include <cstdio>

namespace directload::lsm {

namespace {

/// Open-table cache capacity (number of tables, charged 1 each).
constexpr uint64_t kTableCacheEntries = 256;

}  // namespace

TableCache::TableCache(ssd::SsdEnv* env, BlockCache* block_cache)
    : env_(env),
      block_cache_(block_cache),
      cache_(kTableCacheEntries) {}

std::string TableCache::TableFileName(uint64_t number) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%08llu.sst",
                static_cast<unsigned long long>(number));
  return buf;
}

Result<std::shared_ptr<TableReader>> TableCache::GetTable(
    uint64_t file_number, uint64_t file_size) {
  const std::string key = TableFileName(file_number);
  std::shared_ptr<TableReader> table = cache_.Lookup(key);
  if (table != nullptr) return table;

  Result<std::unique_ptr<ssd::RandomAccessFile>> file =
      env_->NewRandomAccessFile(key);
  if (!file.ok()) return file.status();
  Result<std::unique_ptr<TableReader>> reader = TableReader::Open(
      std::move(file).value(), file_size, file_number, block_cache_);
  if (!reader.ok()) return reader.status();
  std::shared_ptr<TableReader> shared = std::move(reader).value();
  cache_.Insert(key, shared, 1);
  return shared;
}

void TableCache::Evict(uint64_t file_number) {
  cache_.Erase(TableFileName(file_number));
}

}  // namespace directload::lsm
